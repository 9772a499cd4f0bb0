"""Per-step reference replays of the chain layer, written from its
documented contracts and independent of ``gibbsnet.markov``'s step table
and stacked spectral solve.

``replay_chain`` walks each trajectory one uniform at a time, bisecting the
current row's CDF; ``replay_pseudo_gap`` builds (P*)^k P^k for one k at a
time and takes each spectrum on its own.  ``ScriptedStream`` feeds a run a
chosen sequence of uniforms.
"""

from bisect import bisect_right

import numpy as np

from gibbsnet.markov import MULTIPLICITY_TOL, stream, time_reversal


class ScriptedStream:
    """A stand-in for ``gibbsnet.markov.stream`` that hands out the given
    uniforms in order, whatever the block shapes asked for."""

    def __init__(self, uniforms):
        self.uniforms, self.used = np.ravel(uniforms), 0

    def random(self, shape=None):
        size = int(np.prod(shape)) if shape is not None else 1
        out = self.uniforms[self.used:self.used + size]
        assert out.size == size, "script ran out of uniforms"
        self.used += size
        return out.reshape(shape) if shape is not None else float(out[0])


def replay_walk(kernel, pi, uniforms):
    """(R, n) trajectories from step-major (n, R) uniforms: row 0 draws each
    first state from pi, step t moves path r by uniform [t, r] to
    ``min(bisect_right(cdf[state], u), m - 1)``."""
    u = np.asarray(uniforms, dtype=float)
    m = kernel.states
    cum_rows = [row.tolist() for row in np.cumsum(kernel.probs, axis=1)]
    cum_pi = np.cumsum(pi.weights).tolist()
    out = np.empty((u.shape[1], u.shape[0]), dtype=np.int64)
    for r in range(u.shape[1]):
        state = min(bisect_right(cum_pi, u[0, r]), m - 1)
        out[r, 0] = state
        for t in range(1, u.shape[0]):
            state = min(bisect_right(cum_rows[state], u[t, r]), m - 1)
            out[r, t] = state
    return out


def replay_chain(kernel, pi, n, seed, replications=1):
    """The (replications, n) trajectories of seed's chain stream: step t
    reads uniforms t * replications .. (t + 1) * replications - 1."""
    uniforms = stream(seed, "chain").random(n * replications).reshape(n, replications)
    return replay_walk(kernel, pi, uniforms)


def operator_gap(operator, weights):
    """Spectral gap of one operator: the symmetric conjugate's spectrum when
    it is self-adjoint in L^2(pi), the general spectrum otherwise."""
    M = np.asarray(operator, dtype=float)
    moduli = None
    if np.all(weights > 0):
        root = np.sqrt(weights)
        sym = root[:, None] * M / root[None, :]
        if np.max(np.abs(sym - sym.T)) <= 1e-8:
            moduli = np.abs(np.linalg.eigvalsh(sym))
    if moduli is None:
        moduli = np.abs(np.linalg.eigvals(M))
    rest = np.delete(moduli, np.argmax(moduli))
    if rest.size == 0:
        return 1.0
    second = float(np.max(rest))
    return 0.0 if second > 1.0 - MULTIPLICITY_TOL else 1.0 - second


def replay_pseudo_gap(kernel, pi, k_max):
    """max over k = 1..k_max of operator_gap((P*)^k P^k) / k, one k at a
    time, the powers built from the identity."""
    reversal = time_reversal(kernel, pi)
    forward_pow = np.eye(kernel.states)
    reverse_pow = np.eye(kernel.states)
    best = 0.0
    for k in range(1, k_max + 1):
        forward_pow = forward_pow @ kernel.probs
        reverse_pow = reverse_pow @ reversal.probs
        best = max(best, operator_gap(reverse_pow @ forward_pow, pi.weights) / k)
    return best
