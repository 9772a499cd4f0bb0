"""Closed-form right-hand sides of the package's concentration and oracle
inequalities, plus Monte Carlo checkers that confront them with simulated
chains.

Every checker returns a :class:`BoundReport`.  Exponential-moment estimates
are heavy tailed, so their standard errors come from batching replications
into 20 groups; the report's ``empirical_value`` is the estimate minus two
such standard errors, making ``holds`` equivalent to ``empirical_value <=
rhs_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LambdaOutOfRange, ThetaOutOfRange
from .gibbs import Prior
from .markov import (
    StationaryDist,
    TransitionKernel,
    pseudo_spectral_gap,
    simulate_batch,
)
from .model import (
    TargetSpec,
    _draw_noise,
    conditional_excess_logistic,
    logistic_loss,
    logistic_target,
    noise_variance,
    rate_exponent,
    target_eta,
    target_values,
)
from .network import SparseNetwork, forward


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: its right-hand side, the (optional)
    empirical left-hand side after the 2-SE allowance, the parameters that
    produced it, and whether it holds."""

    label: str
    rhs_value: float
    empirical_value: float | None
    params: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.empirical_value is None or self.empirical_value <= self.rhs_value

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "rhs_value": self.rhs_value,
            "empirical_value": self.empirical_value,
            "params": self.params,
            "holds": self.holds,
        }


def chain_mgf_rhs(n: int, var_f: float, gap: float, theta: float) -> float:
    """MGF bound for a centered bounded function summed along a stationary
    chain with pseudo-spectral gap ``gap``:

        exp( 2 (n+1) V theta^2 / gap * (1 - 10 theta/gap)^{-1} )

    valid for theta in the open interval (0, gap/10).
    """
    if var_f < 0:
        raise ValueError("variance must be nonnegative")
    if not 0.0 < theta < gap / 10.0:
        raise ThetaOutOfRange(f"theta must lie in (0, {gap / 10.0})")
    factor = 1.0 / (1.0 - 10.0 * theta / gap)
    return _exp_or_inf(2.0 * (n + 1) * var_f * theta**2 / gap * factor)


def bernstein_mgf_rhs(
    lam: float, n: int, gap: float, k_bernstein: float, kappa: float, excess: float
) -> float:
    """Bernstein-type MGF bound on the deviation between empirical and true
    excess risk:

        exp( 16 K lam^2 excess^kappa / (n gap) * (1 - 10 lam/(n gap))^{-1} )

    valid for lam in the open interval (0, n*gap/10).
    """
    if excess < 0:
        raise ValueError("excess risk must be nonnegative")
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    if not 0.0 < lam < n * gap / 10.0:
        raise LambdaOutOfRange(f"lambda must lie in (0, {n * gap / 10.0})")
    moment = 1.0 if (excess == 0.0 and kappa == 0.0) else excess**kappa
    factor = 1.0 / (1.0 - 10.0 * lam / (n * gap))
    return _exp_or_inf(16.0 * k_bernstein * lam**2 * moment / (n * gap) * factor)


def _exp_or_inf(exponent: float) -> float:
    """exp(exponent), or inf where it overflows a float."""
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


def kl_truncated_uniform_rhs(card: int, eta: float, prior: Prior) -> float:
    """Upper bound on the divergence of a small uniform ball from ``prior``:
    card * log(2 s Z B n_coords e / eta), Z the prior's normaliser."""
    if card < 1:
        raise ValueError("support cardinality must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("ball radius parameter must lie in (0, 1]")
    scale = 2.0 * prior.decay * prior.normalizer * prior.slab * prior.n_coords
    return card * math.log(scale * math.e / eta)


def oracle_rhs(
    excess_at_best: float,
    card: int,
    depth: int,
    n: int,
    gap: float,
    slab: float,
    n_max: int,
    delta: float,
    lipschitz_const: float,
    xi1: float = 1.0,
) -> float:
    """Right-hand side of the oracle inequality for a given support:

        3*excess_at_best
          + (xi1/(n gap)) * (card*depth*log(max(n, B, n_max)) + log(1/delta) + C)

    The leading constant xi1 is configuration (the theory only proves its
    existence); reports should echo the value used.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if xi1 <= 0:
        raise ValueError("xi1 must be positive")
    penalty = (
        card * depth * math.log(max(n, slab, n_max))
        + math.log(1.0 / delta)
        + lipschitz_const
    )
    return 3.0 * excess_at_best + xi1 / (n * gap) * penalty


def composition_rate_rhs(
    n_eff: float,
    betas,
    active_dims,
    delta: float,
    lipschitz_const: float,
    xi3: float = 1.0,
) -> float:
    """Rate-shaped excess-risk bound for a composition-structured target:

        xi3 * ( log^3(n_eff) / n_eff^{-e} + (log(1/delta) + C) / n_eff )

    with e the rate exponent of :func:`gibbsnet.model.rate_exponent`; a
    smoothness-beta target on d inputs is the one stage ([beta], [d]),
    with n_eff^{-e} = n_eff^{2 beta/(2 beta + d)}.
    """
    if n_eff <= 1:
        raise ValueError("effective sample size must exceed 1")
    main = math.log(n_eff) ** 3 / n_eff ** -rate_exponent(betas, active_dims)
    return xi3 * (main + (math.log(1.0 / delta) + lipschitz_const) / n_eff)


def _mgf_estimate(label: str, exponents: np.ndarray, groups: int = 20):
    """Mean of exp(exponents) and its standard error from group-batched
    means, which stabilise heavy-tailed exponential-moment estimates.  An
    estimate or standard error that overflows a float raises ConfigError
    naming the check ``label``: its settings admit no finite estimate."""
    if exponents.size < 2:
        raise ValueError("a standard error needs at least 2 replications")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(exponents)
        estimate = float(values.mean())
        usable = (values.size // groups) * groups
        if usable < groups:
            se = float(values.std(ddof=1) / math.sqrt(values.size))
        else:
            batch_means = values[:usable].reshape(groups, -1).mean(axis=1)
            se = float(batch_means.std(ddof=1) / math.sqrt(groups))
    if not (math.isfinite(estimate) and math.isfinite(se)):
        raise ConfigError(
            f"{label}: the Monte Carlo estimate ({estimate}) or its standard error ({se}) "
            "overflows a float; lower the exponent (theta or lambda) or n"
        )
    return estimate, se


def mc_check_chain_mgf(
    kernel: TransitionKernel,
    pi: StationaryDist,
    f_table,
    n: int,
    theta: float,
    replications: int,
    seed: int,
    k_max: int = 10,
) -> BoundReport:
    """Monte Carlo check of the chain MGF bound.

    Centers the state function under pi, simulates stationary trajectories,
    estimates E[exp(theta * sum f)] and compares against
    :func:`chain_mgf_rhs` at the chain's pseudo-spectral gap.
    """
    f = np.asarray(f_table, dtype=float)
    gap = pseudo_spectral_gap(kernel, pi, k_max)
    centered = f - float(np.dot(pi.weights, f))
    var_f = float(np.dot(pi.weights, centered**2))
    rhs = chain_mgf_rhs(n, var_f, gap, theta)  # validates theta's interval
    paths = simulate_batch(kernel, pi, n=n, replications=replications, seed=seed)
    sums = centered[paths].sum(axis=1)
    estimate, se = _mgf_estimate("chain_mgf", theta * sums)
    return BoundReport(
        label="chain_mgf",
        rhs_value=rhs,
        empirical_value=estimate - 2.0 * se,
        params={
            "n": n,
            "theta": theta,
            "gamma": gap,
            "var_f": var_f,
            "replications": replications,
            "estimate": estimate,
            "se": se,
            "seed": seed,
        },
    )


def exact_bernstein_constant(
    h_values: np.ndarray,
    target: TargetSpec,
    pi: StationaryDist,
    loss: str,
    noise: tuple[str, float] = ("gaussian", 0.0),
) -> tuple[float, float]:
    """(K, excess) with K the tightest constant for which the per-state
    enumeration gives E_pi[(loss gap)^2] <= K * excess.

    For the square loss with centered noise of variance v the conditional
    second moment at a state with prediction gap d is d^2 (d^2 + 4v); for
    the logistic loss both label outcomes are enumerated.  K is 0 when the
    excess vanishes (the loss gap is then identically zero).
    """
    h = np.asarray(h_values, dtype=float)
    w = pi.weights
    if loss == "square":
        d = h - target_values(target)
        excess = float(np.dot(w, d**2))
        second = float(np.dot(w, d**2 * (d**2 + 4.0 * noise_variance(*noise))))
    elif loss == "logistic":
        eta = target_eta(target)
        star = logistic_target(eta)
        gap_pos = logistic_loss(h, 1.0) - logistic_loss(star, 1.0)
        gap_neg = logistic_loss(-h, 1.0) - logistic_loss(-star, 1.0)
        excess = float(np.dot(w, conditional_excess_logistic(eta, h)))
        second = float(np.dot(w, eta * gap_pos**2 + (1.0 - eta) * gap_neg**2))
    else:
        raise ValueError(f"unknown loss {loss!r}")
    if excess <= 0.0:
        return 0.0, max(excess, 0.0)
    return second / excess, excess


def mc_check_bernstein(
    net: SparseNetwork,
    target: TargetSpec,
    kernel: TransitionKernel,
    pi: StationaryDist,
    loss: str,
    lam: float,
    n: int,
    replications: int,
    seed: int,
    noise: tuple[str, float] = ("gaussian", 0.0),
    bernstein_k: float | None = None,
    k_max: int = 10,
) -> BoundReport:
    """Monte Carlo check of the Bernstein-type MGF bound at kappa = 1.

    The excess risk is computed exactly by state enumeration; both
    exponential moments of +-(empirical excess - excess) are estimated over
    stationary trajectories.  ``bernstein_k=None`` uses the exact
    enumerated constant, otherwise the configured value.
    """
    gap = pseudo_spectral_gap(kernel, pi, k_max)
    h = np.asarray(forward(net, target.points), dtype=float).reshape(-1)
    k_exact, excess = exact_bernstein_constant(h, target, pi, loss, noise)
    k_used = k_exact if bernstein_k is None else bernstein_k
    rhs = bernstein_mgf_rhs(lam, n, gap, k_used, kappa=1.0, excess=excess)
    paths = simulate_batch(kernel, pi, n=n, replications=replications, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB5)))
    if loss == "square":
        d = h - target_values(target)
        eps = _draw_noise(rng, *noise, paths.shape)
        # (h-y)^2 - (h*-y)^2 with y = h* + eps collapses to d^2 - 2 d eps.
        gaps = d[paths] ** 2 - 2.0 * d[paths] * eps
    elif loss == "logistic":
        eta = target_eta(target)
        star = logistic_target(eta)
        labels = np.where(rng.random(paths.shape) < eta[paths], 1.0, -1.0)
        gaps = logistic_loss(h[paths], labels) - logistic_loss(star[paths], labels)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    emp_excess = gaps.mean(axis=1)
    upper, upper_se = _mgf_estimate("bernstein_mgf", lam * (emp_excess - excess))
    lower, lower_se = _mgf_estimate("bernstein_mgf", lam * (excess - emp_excess))
    worst = max(upper - 2.0 * upper_se, lower - 2.0 * lower_se)
    return BoundReport(
        label="bernstein_mgf",
        rhs_value=rhs,
        empirical_value=worst,
        params={
            "n": n,
            "lambda": lam,
            "gamma": gap,
            "k_bernstein": k_used,
            "k_exact": k_exact,
            "excess": excess,
            "replications": replications,
            "upper_estimate": upper,
            "upper_se": upper_se,
            "lower_estimate": lower,
            "lower_se": lower_se,
            "seed": seed,
        },
    )


def kl_numeric_check(
    card: int,
    eta: float,
    decay: float,
    slab: float,
    n_max: int,
    center=None,
) -> BoundReport:
    """Exact divergence of the uniform law on the eta-ball (intersected
    with the slab box) around a support's center, against the prior
    ``Prior(n_max, n_max, decay, slab)``, compared with
    :func:`kl_truncated_uniform_rhs`.

    The exact value is closed form: the ball is a box of side lengths
    len_i = min(B, c_i + eta) - max(-B, c_i - eta), and

        KL = -sum_i log(len_i) - log(prior density of a card-support).
    """
    if eta > 2.0 * slab:
        raise ValueError("ball must not exceed the slab diameter")
    centers = np.zeros(card) if center is None else np.asarray(center, dtype=float)
    if centers.shape != (card,):
        raise ValueError("center must have one entry per active coordinate")
    if np.any(np.abs(centers) > slab):
        raise ValueError("center must lie inside the slab box")
    prior = Prior(n_max, n_max, decay, slab)
    lengths = np.minimum(slab, centers + eta) - np.maximum(-slab, centers - eta)
    exact = -float(np.sum(np.log(lengths))) - prior.log_density(card)
    rhs = kl_truncated_uniform_rhs(card, eta, prior)
    return BoundReport(
        label="kl_truncated_uniform",
        rhs_value=rhs,
        empirical_value=exact,
        params={
            "card": card,
            "eta": eta,
            "decay": decay,
            "slab": slab,
            "n_max": n_max,
            "center": centers.tolist(),
        },
    )
