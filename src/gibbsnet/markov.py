"""Finite-state Markov chains: stationary laws, spectral and pseudo-spectral
gaps, mixing times, trajectory simulation, and plug-in gap estimation.

All chains are represented by row-stochastic matrices over ``m`` states.
Kernels and stationary distributions are immutable value objects; every
operation here is a pure function of its inputs, so values can be shared
freely across threads.  :func:`stream` turns a seed into the random stream
of each purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    GibbsNetError,
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
# The independent random streams one seed feeds, by purpose: chain paths use
# the seed's root stream, every other purpose SeedSequence((seed, salt)).
STREAM_SALTS = {"chain": None, "noise": 0xE9, "labels": 0xC1, "bernstein": 0xB5,
                "sampler": 0x5A}
# The most floats a blocked loop here holds at once: a trajectory's uniforms
# per block, or a pseudo-gap's stacked operators per spectral solve.  The
# pseudo-gap's blocks grow 1, 2, 4, ... operators up to this cap, so a scan
# that stops after k = 1 solves one operator; the block sizes change no
# float, since a stacked solve equals a solo one.
BLOCK_FLOATS = 1 << 13
# The most kernel powers a scan takes: a pseudo-gap's k_max and a mixing
# time's t_cap.  A scan that never stops early (a periodic chain's) takes
# a power per k or t, so an unbounded count would run until killed; at this
# one a 64-state scan takes minutes.  A k past it matters only to a chain
# whose pseudo-gap is below 1/MAX_POWER, since the k-th term is at most 1/k.
MAX_POWER = 10**6
# The fewest uniforms a trajectory call bins through a bucket table: below
# it the table's dozen numpy calls cost more than bisecting every uniform
# (at 3072 keys of a 4-state chain, 27 us against 20 us; at 4096, 29-32 us
# against 32-46 us; one core of a 2-core Xeon, numpy 2.4).
TABLE_KEYS = 1 << 12


def stream(seed: int, purpose: str) -> np.random.Generator:
    """The random stream ``seed`` feeds for ``purpose``, a key of
    :data:`STREAM_SALTS`; the one place a seed becomes a generator."""
    if purpose not in STREAM_SALTS:
        raise ValueError(f"unknown random stream {purpose!r}")
    salt = STREAM_SALTS[purpose]
    return np.random.default_rng(seed if salt is None else np.random.SeedSequence((seed, salt)))


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
        if not np.all(np.isfinite(probs)):
            raise ValueError("transition probabilities must be finite")
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
        if not np.all(np.isfinite(w)):
            raise ValueError("stationary weights must be finite")
        if np.any(w < -ROW_SUM_TOL):
            raise ValueError("stationary weights must be nonnegative")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"stationary weights must sum to 1 within {ROW_SUM_TOL}")


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
    _check_law(kernel, pi)
    w = pi.weights
    if np.any(w <= 1e-300):
        raise ZeroStationaryMass("stationary distribution has (near-)zero mass somewhere")
    reversed_probs = (kernel.probs.T * w[None, :]) / w[:, None]
    # Renormalise away float error so the constructor's row-sum check passes.
    reversed_probs = reversed_probs / reversed_probs.sum(axis=1, keepdims=True)
    return TransitionKernel(states=kernel.states, probs=reversed_probs)


def _check_law(kernel: TransitionKernel, pi: StationaryDist) -> None:
    if pi.weights.shape[0] != kernel.states:
        raise DimensionMismatch("stationary vector length differs from state count")


def spectral_gap(operator: np.ndarray, pi: StationaryDist) -> float | np.ndarray:
    """1 minus the largest non-unit spectral modulus; 0 when eigenvalue 1 is
    numerically multiple.

    ``operator`` is one (m, m) operator, whose gap is returned as a float,
    or a (K, m, m) stack of them, whose K gaps are returned as an array.
    Each operator must map constants to constants (rows summing to 1).
    When it is self-adjoint in L^2(pi) the spectrum is computed on the
    symmetric conjugate D^{1/2} M D^{-1/2} with D = diag(pi), so a symmetric
    solver with a guaranteed real spectrum applies; the others take the
    general solver.  The input is not modified.
    """
    M = np.array(operator, dtype=float)  # a copy: the gaps are taken in place
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch("operator must be a square matrix or a stack of them")
    gaps = _spectral_gaps(M.reshape(-1, *M.shape[-2:]), pi)
    return float(gaps[0]) if M.ndim == 2 else gaps


def _spectral_gaps(ops: np.ndarray, pi: StationaryDist) -> np.ndarray:
    """The gaps of :func:`spectral_gap` for a (K, m, m) stack, which is
    overwritten: each self-adjoint operator by its symmetric conjugate.
    All the symmetric spectra are taken in one stacked ``eigvalsh`` call,
    which solves each operator as a call on that operator alone would."""
    if np.any(np.abs(ops.sum(axis=2) - 1.0) > 1e-10):
        raise ValueError("operator rows must sum to 1 within 1e-10")
    w = pi.weights
    if w.shape[0] != ops.shape[1]:
        raise DimensionMismatch("stationary vector length differs from operator size")

    symmetric = np.zeros(len(ops), dtype=bool)
    if np.all(w > 0):
        root = np.sqrt(w)
        sym = root[:, None] * ops / root[None, :]
        symmetric = np.max(np.abs(sym - sym.transpose(0, 2, 1)), axis=(1, 2)) <= 1e-8
        ops[symmetric] = sym[symmetric]
    moduli = np.empty(ops.shape[:2])
    try:
        if symmetric.any():
            moduli[symmetric] = np.abs(np.linalg.eigvalsh(ops[symmetric]))
        for k in np.flatnonzero(~symmetric):
            moduli[k] = np.abs(np.linalg.eigvals(ops[k]))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc

    if ops.shape[1] == 1:
        return np.ones(len(ops))
    # Past the single eigenvalue playing the role of 1, whatever remains
    # closest to 1 decides multiplicity.
    second = np.sort(moduli, axis=1)[:, -2]
    return np.where(second > 1.0 - MULTIPLICITY_TOL, 0.0, 1.0 - second)


def pseudo_spectral_gap(
    kernel: TransitionKernel, pi: StationaryDist, k_max: int = 10
) -> float:
    """max over k = 1..k_max of gamma((P*)^k P^k) / k.

    Each (P*)^k P^k is self-adjoint and positive semi-definite in L^2(pi),
    so the symmetric path of :func:`spectral_gap` applies.  The supremum
    over all k in the definition is truncated at ``k_max``, at most
    :data:`MAX_POWER`.  For ``two_source`` chains the maximum is attained
    at k = 1; it need not be at small k elsewhere (a lifted walk on m
    states attains it near k = 0.6 m).  The operators are built into one
    buffer of at most :data:`BLOCK_FLOATS` floats (but at least one
    operator) and solved in blocks of 1, 2, 4, ... operators, each block
    in one stacked call, until a block fills the buffer.  Every gap is at
    most 1, so the k-th term is at most 1/k, and the scan stops at the
    first block whose 1/k cannot raise the maximum: a chain whose k = 1
    gap is at least 1/2 pays one solve of one operator, and one that
    peaks late about log2 of the buffer's operators more solves than a
    scan in full buffers.  A stacked solve equals a solo one (see
    :func:`_spectral_gaps`) and the powers are the same products, so the
    result is the full scan's float whatever the block sizes.
    """
    _check_power("k_max", k_max)
    reversal = time_reversal(kernel, pi)
    m = kernel.states
    ops = np.empty((min(k_max, max(1, BLOCK_FLOATS // (m * m))), m, m))
    # The powers start from the identity, as products: a product's rounding
    # depends on its operands' memory order, and eye @ X is X in C order.
    forward_pow = reverse_pow = np.eye(m)
    best, first, size = 0.0, 1, 1
    while first <= k_max and 1.0 / first > best:
        ks = np.arange(first, min(first + size, k_max + 1))
        for slot in range(len(ks)):
            forward_pow = forward_pow @ kernel.probs
            reverse_pow = reverse_pow @ reversal.probs
            np.matmul(reverse_pow, forward_pow, out=ops[slot])
        best = max(best, float(np.max(_spectral_gaps(ops[: len(ks)], pi) / ks)))
        first, size = first + len(ks), min(2 * size, len(ops))
    return best


def mixing_time(
    kernel: TransitionKernel, pi: StationaryDist, epsilon: float, t_cap: int
) -> int:
    """Smallest t <= t_cap with sup_z ||P^t(z,.) - pi||_TV <= epsilon,
    computed by repeated kernel powering; ``t_cap`` is at most
    :data:`MAX_POWER`."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    _check_power("t_cap", t_cap)
    power = np.eye(kernel.states)
    for t in range(1, t_cap + 1):
        power = power @ kernel.probs
        worst = 0.5 * np.max(np.abs(power - pi.weights[None, :]).sum(axis=1))
        if worst <= epsilon:
            return t
    raise NotMixedWithinCap(f"no t <= {t_cap} reaches TV {epsilon}")


def _check_power(name: str, count: int) -> None:
    """ValueError unless a scan's power count lies in 1..MAX_POWER."""
    if not 1 <= count <= MAX_POWER:
        raise ValueError(f"{name} must lie in 1..{MAX_POWER} (see markov.MAX_POWER)")


def _step_table(kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """(grid, table) that step the chain by inverse-CDF sampling.

    ``grid`` is the sorted distinct values of the row CDFs and
    ``table[s, b] = min(#{k: cdf[s, k] <= grid[b-1]}, m-1)``, with
    ``table[s, 0] = 0``.  A uniform u in bin ``b = searchsorted(grid, u,
    side="right")`` moves state s to ``table[s, b]``, exactly the
    ``min(#{k: cdf[s, k] <= u}, m-1)`` of a per-step comparison: every CDF
    value is in ``grid``, so no count changes inside a bin.
    """
    m = kernel.states
    cdf = np.cumsum(kernel.probs, axis=1)
    grid = np.unique(cdf)
    # cdf[s, k] == grid[at[s, k]]: row s's count up to grid[b-1] sums its
    # hits at positions 0..b-1.
    at = np.searchsorted(grid, cdf)
    hits = np.bincount((np.arange(m)[:, None] * grid.size + at).ravel(), minlength=m * grid.size)
    table = np.zeros((m, grid.size + 1), dtype=np.int64)
    np.minimum(hits.reshape(m, grid.size).cumsum(axis=1), m - 1, out=table[:, 1:])
    return grid, table


def _binner(grid: np.ndarray, keys: int):
    """The function ``u -> searchsorted(grid, u, side="right")`` for a call
    that bins ``keys`` uniforms in [0, 1).  From :data:`TABLE_KEYS` keys on,
    each uniform is binned by one lookup in a table of B buckets, B the
    largest power of two <= keys // 8 (at most :data:`BLOCK_FLOATS`), so
    building the table costs a fraction of the bisections it saves; a
    smaller call bisects every uniform.

    Bucket b covers [b/B, (b+1)/B) and ``floor(u * B)`` finds it exactly:
    scaling by a power of two does not round.  A bin changes only at a grid
    value, so a bucket with no grid value strictly inside it holds one bin,
    the count of grid values <= b/B; the uniforms in the other buckets
    (stored as -1) are bisected.
    """
    if keys < TABLE_KEYS:
        return partial(np.searchsorted, grid, side="right")
    size = 1 << (min(keys // 8, BLOCK_FLOATS).bit_length() - 1)
    edges = np.arange(size + 1) / size
    low = np.searchsorted(grid, edges[:-1], side="right")
    buckets = np.where(np.searchsorted(grid, edges[1:], side="left") > low, -1, low)

    def bins(u: np.ndarray) -> np.ndarray:
        out = buckets[(u * size).astype(np.int64)]
        inside = out < 0
        if inside.any():
            out[inside] = np.searchsorted(grid, u[inside], side="right")
        return out

    return bins


def _trajectories(shape) -> np.ndarray:
    """An empty int64 array of ``shape`` for trajectory states; a size numpy
    cannot allocate raises GibbsNetError, a runtime failure."""
    try:
        return np.empty(shape, dtype=np.int64)
    except (ValueError, MemoryError) as exc:
        raise GibbsNetError(f"cannot allocate trajectory states of shape {shape}: {exc}") from exc


def _first_states(pi: StationaryDist, u: np.ndarray) -> np.ndarray:
    """States drawn from pi by inverse-CDF sampling, one per uniform."""
    cum_pi = np.cumsum(pi.weights)
    return np.minimum(np.searchsorted(cum_pi, u, side="right"), len(cum_pi) - 1)


def simulate(
    kernel: TransitionKernel, pi: StationaryDist, n: int, seed: int
) -> np.ndarray:
    """Length-n stationary trajectory as int64 state indices: first state
    drawn from pi, then the chain steps by inverse-CDF sampling, one uniform
    of the seed's chain stream per state.  The uniforms are binned by
    :func:`_binner` in blocks of at most :data:`BLOCK_FLOATS`, and each step
    looks its bin up in the kernel's step table (:func:`_step_table`) as
    Python lists."""
    if n < 1:
        raise ValueError("trajectory length must be positive")
    _check_law(kernel, pi)
    rng = stream(seed, "chain")
    grid, table = _step_table(kernel)
    bins_of = _binner(grid, n - 1)
    rows = table.tolist()
    states = _trajectories(n)
    state = states[0] = int(_first_states(pi, rng.random(1))[0])
    for start in range(1, n, BLOCK_FLOATS):
        bins = bins_of(rng.random(min(BLOCK_FLOATS, n - start)))
        # Each step reads the state the step before it wrote.
        states[start:start + len(bins)] = [state := rows[state][b] for b in bins.tolist()]
    return states


def simulate_batch(
    kernel: TransitionKernel, pi: StationaryDist, n: int, replications: int, seed: int
) -> np.ndarray:
    """(replications, n) array of independent stationary trajectories.

    Step t reads uniforms t*replications .. (t+1)*replications - 1 of the
    seed's chain stream, so one replication equals ``simulate(kernel, pi,
    n, seed)``.  The uniforms are drawn step-major in blocks of at most
    :data:`BLOCK_FLOATS` and binned at once by :func:`_binner`; each step is
    then one add and one read of the step table by its own ``take``
    method (``np.take`` adds a Python-level wrapper call per step).  Both
    loops stay because each is the faster one on a measured shape (one
    core of a 2-core Xeon, numpy 2.4): this one on many short paths, as in
    the Monte Carlo bound checks (400 paths of 110 steps of a 4-state
    chain in 0.7-1.1 ms, against 27-42 ms for 400 calls of
    :func:`simulate`), the scalar walk on one long path (100 000 steps of
    a 16-state chain in 6.3-10.4 ms, against 123-230 ms here, where each
    step costs about 1.2-2.3 us of numpy calls whatever the width).
    """
    if n < 1 or replications < 1:
        raise ValueError("n and replications must be positive")
    _check_law(kernel, pi)
    rng = stream(seed, "chain")
    grid, table = _step_table(kernel)
    bins_of = _binner(grid, (n - 1) * replications)
    m = kernel.states
    step = table.T.ravel()  # step[b * m + s] == table[s, b]
    paths = _trajectories((replications, n))
    state = paths[:, 0] = _first_states(pi, rng.random(replications))
    per_block = max(1, BLOCK_FLOATS // replications)
    for start in range(1, n, per_block):
        stop = min(start + per_block, n)
        block = bins_of(rng.random((stop - start, replications)))
        block *= m
        for row in block:  # each row's bin offsets become that step's states
            row += state
            step.take(row, out=row, mode="clip")  # in range: b <= len(grid), s < m
            state = row
        paths[:, start:stop] = block.T
    return paths


def estimate_pseudo_gap(states: np.ndarray, m: int, k_max: int = 10) -> float:
    """Plug-in pseudo-spectral gap from a single trajectory.

    Builds the empirical transition kernel from bigram counts with add-one
    smoothing (which keeps the plug-in kernel strictly positive, hence
    irreducible), takes its stationary distribution, and returns the
    pseudo-spectral gap of the plug-in pair.
    """
    if states.size < 2:
        raise UnvisitedState("trajectory too short to form bigrams")
    if np.any(states < 0) or np.any(states >= m):
        raise ValueError("trajectory contains out-of-range state indices")
    s = states.astype(np.int64, copy=False)
    counts = np.bincount(s[:-1] * m + s[1:], minlength=m * m).reshape(m, m)
    row_tot = counts.sum(axis=1)
    if np.any(row_tot == 0):
        missing = int(np.flatnonzero(row_tot == 0)[0])
        raise UnvisitedState(f"state {missing} never appears as a source")
    probs = (counts + 1.0) / (row_tot + m)[:, None]
    plug_in = TransitionKernel(states=m, probs=probs)
    pi_hat = stationary_distribution(plug_in)
    return pseudo_spectral_gap(plug_in, pi_hat, k_max)
