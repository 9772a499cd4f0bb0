"""Finite-state Markov chains: stationary laws, spectral and pseudo-spectral
gaps, mixing times, trajectory simulation, and plug-in gap estimation.

All chains are represented by row-stochastic matrices over ``m`` states.
Kernels, stationary distributions and trajectories are immutable value
objects; every operation here is a pure function of its inputs, so values
can be shared freely across threads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    NonUniqueStationary,
    NotMixedWithinCap,
    UnvisitedState,
    ZeroStationaryMass,
)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
# Eigenvalue 1 counts as multiple when a second eigenvalue sits within this
# distance of it; the "gap = 0" branch of the spectral gap needs a threshold.
MULTIPLICITY_TOL = 1e-10


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic transition matrix of a finite-state chain."""

    states: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2 or probs.shape != (self.states, self.states):
            raise DimensionMismatch(
                f"expected a {self.states}x{self.states} matrix, got {probs.shape}"
            )
        if np.any(probs < -ROW_SUM_TOL) or np.any(probs > 1 + ROW_SUM_TOL):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = probs.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}")


@dataclass(frozen=True)
class StationaryDist:
    """Probability vector over the state space."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise DimensionMismatch("stationary weights must be a vector")
        if np.any(w < -ROW_SUM_TOL):
            raise ValueError("stationary weights must be nonnegative")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"stationary weights must sum to 1 within {ROW_SUM_TOL}")


@dataclass(frozen=True)
class Trajectory:
    """Ordered state indices plus the RNG seed that produced them."""

    states: np.ndarray
    seed: int

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int64)
        object.__setattr__(self, "states", s)

    def to_text(self) -> str:
        lines = [f"# seed={self.seed}"]
        lines.extend(str(int(s)) for s in self.states)
        return "\n".join(lines) + "\n"


def two_source_kernel(p: float, states: int = 2) -> TransitionKernel:
    """Chain that keeps its current source with probability 1-p and switches
    with probability p, the state being uniform within the chosen source.

    The state space splits into two equal halves ("sources"); ``states`` must
    be even.  With ``states=2`` this is the symmetric two-state kernel
    [[1-p, p], [p, 1-p]].
    """
    if states % 2 != 0 or states < 2:
        raise ValueError("two-source chain needs an even, positive state count")
    if not 0.0 <= p <= 1.0:
        raise ValueError("switch probability must lie in [0, 1]")
    half = states // 2
    left = np.arange(states) < half
    probs = np.where(left[:, None] == left[None, :], (1.0 - p) / half, p / half)
    return TransitionKernel(states=states, probs=probs)


def stationary_distribution(kernel: TransitionKernel) -> StationaryDist:
    """Solve pi P = pi for an irreducible aperiodic kernel.

    Uses the eigen-decomposition of P^T and falls back to power iteration
    (1e4 steps, tol 1e-12) when the eigenvector fails the pi P = pi check.

    Raises NonUniqueStationary when eigenvalue 1 of P^T is numerically
    multiple (a second eigenvalue within 1e-10 of 1).
    """
    probs = kernel.probs
    try:
        eigvals, eigvecs = np.linalg.eig(probs.T)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    by_unit_distance = np.argsort(np.abs(eigvals - 1.0))
    if len(eigvals) > 1 and abs(eigvals[by_unit_distance[1]] - 1.0) <= MULTIPLICITY_TOL:
        raise NonUniqueStationary(
            "eigenvalue 1 has numerical multiplicity > 1; chain is not irreducible+aperiodic"
        )
    idx = int(by_unit_distance[0])
    vec = np.real(eigvecs[:, idx])
    vec = np.where(np.abs(vec) < 1e-14, 0.0, vec)
    if vec.sum() < 0:
        vec = -vec
    vec = np.clip(vec, 0.0, None)
    total = vec.sum()
    if total > 0:
        pi = vec / total
        if np.max(np.abs(pi @ probs - pi)) <= STATIONARY_TOL:
            return StationaryDist(weights=pi)
    # Power-iteration fallback for numerically awkward (near-periodic) chains.
    pi = np.full(kernel.states, 1.0 / kernel.states)
    for _ in range(10_000):
        nxt = pi @ probs
        if np.max(np.abs(nxt - pi)) < 1e-12:
            pi = nxt
            break
        pi = nxt
    pi = pi / pi.sum()
    if np.max(np.abs(pi @ probs - pi)) > STATIONARY_TOL:
        raise EigenFailure("stationary distribution did not converge")
    return StationaryDist(weights=pi)


def time_reversal(kernel: TransitionKernel, pi: StationaryDist) -> TransitionKernel:
    """Adjoint kernel P*(z,u) = P(u,z) pi(u) / pi(z)."""
    w = pi.weights
    if w.shape[0] != kernel.states:
        raise DimensionMismatch("stationary vector length differs from state count")
    if np.any(w <= 1e-300):
        raise ZeroStationaryMass("stationary distribution has (near-)zero mass somewhere")
    reversed_probs = (kernel.probs.T * w[None, :]) / w[:, None]
    # Renormalise away float error so the constructor's row-sum check passes.
    reversed_probs = reversed_probs / reversed_probs.sum(axis=1, keepdims=True)
    return TransitionKernel(states=kernel.states, probs=reversed_probs)


def spectral_gap(operator: np.ndarray, pi: StationaryDist) -> float:
    """1 minus the largest non-unit spectral modulus; 0 when eigenvalue 1 is
    numerically multiple.

    The operator must map constants to constants (rows summing to 1).  When
    it is self-adjoint in L^2(pi) the spectrum is computed on the symmetric
    conjugate D^{1/2} M D^{-1/2} with D = diag(pi), so a symmetric solver
    with a guaranteed real spectrum applies.
    """
    M = np.asarray(operator, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("operator must be a square matrix")
    if np.any(np.abs(M.sum(axis=1) - 1.0) > 1e-10):
        raise ValueError("operator rows must sum to 1 within 1e-10")
    w = pi.weights
    if w.shape[0] != M.shape[0]:
        raise DimensionMismatch("stationary vector length differs from operator size")

    moduli = None
    if np.all(w > 0):
        root = np.sqrt(w)
        sym = root[:, None] * M / root[None, :]
        if np.max(np.abs(sym - sym.T)) <= 1e-8:
            try:
                moduli = np.abs(np.linalg.eigvalsh(sym))
            except np.linalg.LinAlgError as exc:
                raise EigenFailure(str(exc)) from exc
    if moduli is None:
        try:
            moduli = np.abs(np.linalg.eigvals(M))
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(str(exc)) from exc

    order = np.argsort(-moduli)
    # Drop the single eigenvalue playing the role of 1; whatever remains
    # closest to 1 decides multiplicity.
    rest = np.delete(moduli, order[0])
    if rest.size == 0:
        return 1.0
    second = float(np.max(rest))
    if second > 1.0 - MULTIPLICITY_TOL:
        return 0.0
    return 1.0 - second


def pseudo_spectral_gap(
    kernel: TransitionKernel, pi: StationaryDist, k_max: int = 10
) -> float:
    """max over k = 1..k_max of gamma((P*)^k P^k) / k.

    Each (P*)^k P^k is self-adjoint and positive semi-definite in L^2(pi),
    so the symmetric path of :func:`spectral_gap` applies.  The supremum
    over all k in the definition is truncated at ``k_max``; for the chains
    used here the maximum is attained at small k.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    reversal = time_reversal(kernel, pi)
    forward_pow = np.eye(kernel.states)
    reverse_pow = np.eye(kernel.states)
    best = 0.0
    for k in range(1, k_max + 1):
        forward_pow = forward_pow @ kernel.probs
        reverse_pow = reverse_pow @ reversal.probs
        gap_k = spectral_gap(reverse_pow @ forward_pow, pi) / k
        best = max(best, gap_k)
    return best


def tv_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Total variation distance, i.e. half the L1 distance between the
    probability vectors."""
    a = np.asarray(q1, dtype=float)
    b = np.asarray(q2, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def mixing_time(
    kernel: TransitionKernel, pi: StationaryDist, epsilon: float, t_cap: int
) -> int:
    """Smallest t <= t_cap with sup_z ||P^t(z,.) - pi||_TV <= epsilon,
    computed by repeated kernel powering."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if t_cap < 1:
        raise ValueError("t_cap must be positive")
    power = np.eye(kernel.states)
    for t in range(1, t_cap + 1):
        power = power @ kernel.probs
        worst = 0.5 * np.max(np.abs(power - pi.weights[None, :]).sum(axis=1))
        if worst <= epsilon:
            return t
    raise NotMixedWithinCap(f"no t <= {t_cap} reaches TV {epsilon}")


def simulate(
    kernel: TransitionKernel, pi: StationaryDist, n: int, seed: int
) -> Trajectory:
    """Length-n stationary trajectory: first state drawn from pi, then the
    chain steps by inverse-CDF sampling.  Reproducible given the seed."""
    if n < 1:
        raise ValueError("trajectory length must be positive")
    rng = np.random.default_rng(seed)
    cum_rows = [row.tolist() for row in np.cumsum(kernel.probs, axis=1)]
    uniforms = rng.random(n)
    states = np.empty(n, dtype=np.int64)
    cum_pi = np.cumsum(pi.weights)
    state = int(np.searchsorted(cum_pi, uniforms[0], side="right"))
    state = min(state, kernel.states - 1)
    states[0] = state
    for t in range(1, n):
        row = cum_rows[state]
        state = min(bisect_right(row, uniforms[t]), kernel.states - 1)
        states[t] = state
    return Trajectory(states=states, seed=seed)


def simulate_batch(
    kernel: TransitionKernel, pi: StationaryDist, n: int, replications: int, seed: int
) -> np.ndarray:
    """(replications, n) array of independent stationary trajectories.

    Vectorised across replications; row r matches no single-trajectory seed,
    but the whole batch is reproducible given ``seed``.
    """
    if n < 1 or replications < 1:
        raise ValueError("n and replications must be positive")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(kernel.probs, axis=1)
    cum_pi = np.cumsum(pi.weights)
    out = np.empty((replications, n), dtype=np.int64)
    u0 = rng.random(replications)
    out[:, 0] = np.minimum(
        np.searchsorted(cum_pi, u0, side="right"), kernel.states - 1
    )
    for t in range(1, n):
        u = rng.random(replications)
        rows = cum[out[:, t - 1]]
        out[:, t] = np.minimum((rows <= u[:, None]).sum(axis=1), kernel.states - 1)
    return out


def estimate_pseudo_gap(trajectory: Trajectory, m: int, k_max: int = 10) -> float:
    """Plug-in pseudo-spectral gap from a single trajectory.

    Builds the empirical transition kernel from bigram counts with add-one
    smoothing (which keeps the plug-in kernel strictly positive, hence
    irreducible), takes its stationary distribution, and returns the
    pseudo-spectral gap of the plug-in pair.
    """
    states = trajectory.states
    if states.size < 2:
        raise UnvisitedState("trajectory too short to form bigrams")
    if np.any(states < 0) or np.any(states >= m):
        raise ValueError("trajectory contains out-of-range state indices")
    counts = np.zeros((m, m))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    row_tot = counts.sum(axis=1)
    if np.any(row_tot == 0):
        missing = int(np.flatnonzero(row_tot == 0)[0])
        raise UnvisitedState(f"state {missing} never appears as a source")
    probs = (counts + 1.0) / (row_tot + m)[:, None]
    plug_in = TransitionKernel(states=m, probs=probs)
    pi_hat = stationary_distribution(plug_in)
    return pseudo_spectral_gap(plug_in, pi_hat, k_max)
