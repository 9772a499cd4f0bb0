"""Sparse feedforward networks as flat weight vectors with explicit active
index sets.

A network is the composition of affine maps and element-wise activations.
Parameters live in one flat vector laid out layer by layer: the weight
matrix of each layer vectorised column by column, followed by that layer's
bias.  The active set records which coordinates may be nonzero; everything
else is pinned at zero.  Outputs are hard-clipped to [-output_clip,
output_clip] so every network stays inside its bounded class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ArchitectureTooLarge, DimensionMismatch


@dataclass(frozen=True)
class Activation:
    name: str
    fn: callable
    lipschitz: float
    at_zero: float


ACTIVATIONS = {
    "relu": Activation("relu", lambda z: np.maximum(z, 0.0), 1.0, 0.0),
    "sigmoid": Activation(
        "sigmoid", lambda z: 1.0 / (1.0 + np.exp(-z)), 0.25, 0.5
    ),
}


@dataclass(frozen=True)
class Architecture:
    """Depth (number of hidden layers) and the width vector
    (input, hidden..., output)."""

    depth: int
    widths: tuple

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if len(self.widths) != self.depth + 2:
            raise ValueError(
                f"width vector needs {self.depth + 2} entries, got {len(self.widths)}"
            )
        if any(w < 1 for w in self.widths):
            raise ValueError("all widths must be at least 1")

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]


def param_count(arch: Architecture) -> int:
    """Total flat-vector length: sum of weight-matrix sizes plus biases."""
    weights = sum(
        arch.widths[l] * arch.widths[l - 1] for l in range(1, arch.depth + 2)
    )
    biases = sum(arch.widths[l] for l in range(1, arch.depth + 2))
    return weights + biases


def max_param_count(depth: int, width: int) -> int:
    """Parameter count of the padded class frame: width*(width+1)*(depth+1)."""
    if depth < 0 or width < 1:
        raise ValueError("need depth >= 0 and width >= 1")
    return width * (width + 1) * (depth + 1)


def layer_slices(arch: Architecture):
    """Per layer: (weight slice, bias slice, (rows, cols)) into the flat
    vector.  Weights are stored column-major."""
    out = []
    offset = 0
    for l in range(1, arch.depth + 2):
        rows, cols = arch.widths[l], arch.widths[l - 1]
        w_sl = slice(offset, offset + rows * cols)
        offset += rows * cols
        b_sl = slice(offset, offset + rows)
        offset += rows
        out.append((w_sl, b_sl, (rows, cols)))
    return out


@dataclass(frozen=True)
class SparseNetwork:
    """Flat parameter vector plus its active index set and class bounds."""

    arch: Architecture
    theta: np.ndarray
    active: np.ndarray
    weight_bound: float
    output_clip: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        active = np.unique(np.asarray(self.active, dtype=np.int64))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "active", active)
        n = param_count(self.arch)
        if theta.shape != (n,):
            raise DimensionMismatch(f"theta must have length {n}, got {theta.shape}")
        if active.size and (active[0] < 0 or active[-1] >= n):
            raise ValueError("active indices out of range")
        inactive = np.setdiff1d(np.arange(n), active, assume_unique=True)
        if np.any(theta[inactive] != 0.0):
            raise ValueError("inactive coordinates must be exactly zero")
        if np.any(np.abs(theta) > self.weight_bound + 1e-12):
            raise ValueError("weights exceed the class bound")

    def to_json(self) -> str:
        return json.dumps(
            {
                "depth": self.arch.depth,
                "widths": list(self.arch.widths),
                "active_indices": self.active.tolist(),
                "values": self.theta[self.active].tolist(),
                "weight_bound": self.weight_bound,
                "output_clip": self.output_clip,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SparseNetwork":
        doc = json.loads(text)
        arch = Architecture(depth=int(doc["depth"]), widths=tuple(doc["widths"]))
        theta = np.zeros(param_count(arch))
        active = np.asarray(doc["active_indices"], dtype=np.int64)
        theta[active] = np.asarray(doc["values"], dtype=float)
        return cls(
            arch=arch,
            theta=theta,
            active=active,
            weight_bound=float(doc["weight_bound"]),
            output_clip=float(doc["output_clip"]),
        )


def layer_matrices(arch: Architecture, theta: np.ndarray):
    """Materialise (weight, bias) pairs from the flat vector."""
    out = []
    for w_sl, b_sl, (rows, cols) in layer_slices(arch):
        w = theta[w_sl].reshape((rows, cols), order="F")
        out.append((w, theta[b_sl]))
    return out


def compose(slices, theta: np.ndarray, x: np.ndarray, act_fn, clip: float | None):
    """The affine/activation composition over ``slices`` (see
    :func:`layer_slices`) of the flat vector ``theta`` at the batch ``x``,
    then a clip to [-clip, clip] unless ``clip`` is None.

    Each layer sums its weight-column products left to right, then adds its
    bias; column k of a column-major layer is read straight from ``theta``,
    as row k of a (cols, rows) view.  That order is fixed, so a width-padded
    copy of the network (see :func:`frame_slots`), whose extra terms are
    trailing exact zeros, computes the same floats: the lockstep sampler
    relies on it.  Does no validation: it is the sampler's hot path.
    """
    a = x
    last = len(slices) - 1
    for idx, (w_sl, b_sl, (rows, cols)) in enumerate(slices):
        if cols == 1:
            z = a * theta[w_sl]
        else:
            terms = theta[w_sl].reshape(cols, 1, rows) * a.T[:, :, None]
            z = terms[0]
            for k in range(1, cols):
                z = z + terms[k]
        z = z + theta[b_sl]
        a = act_fn(z) if idx < last else z
    return a if clip is None else np.clip(a, -clip, clip)


def forward(
    net: SparseNetwork,
    x: np.ndarray,
    activation: str = "relu",
    clip: bool = True,
) -> np.ndarray:
    """Evaluate the affine/activation composition, then clip each output
    coordinate to [-output_clip, output_clip].

    Accepts a single input vector or a batch (n, input_dim); returns a
    matching shape.  ``clip=False`` evaluates the raw composition.
    """
    act = ACTIVATIONS[activation]
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != net.arch.input_dim:
        raise DimensionMismatch(
            f"input dimension {arr.shape[1]} != {net.arch.input_dim}"
        )
    a = compose(
        layer_slices(net.arch), net.theta, arr, act.fn,
        net.output_clip if clip else None,
    )
    return a[0] if single else a


def lipschitz_parameter_bound(
    arch: Architecture,
    weight_bound: float,
    activation_lipschitz: float,
    activation_at_zero: float,
    input_norm: float,
) -> float:
    """Bound on |h_theta(x) - h_theta'(x)| per unit of parameter distance:

        2 L^2 (|act(0)| + |x| + 1) (1 + c B) max(1, (c B)^{2L})

    with L the depth, B the weight bound (max row sum per layer), and c the
    activation's Lipschitz constant.  The distance is measured in the same
    layerwise norm, see :func:`param_distance`.  Depth 0 yields 0.
    """
    depth = arch.depth
    cb = activation_lipschitz * weight_bound
    return (
        2.0
        * depth**2
        * (abs(activation_at_zero) + input_norm + 1.0)
        * (1.0 + cb)
        * max(1.0, cb ** (2 * depth))
    )


def param_distance(net1: SparseNetwork, net2: SparseNetwork) -> float:
    """Distance between parameter vectors in the layerwise class norm: max
    over layers of the weight matrix's maximum row sum and the bias
    vector's sup norm."""
    if net1.arch != net2.arch:
        raise DimensionMismatch("networks must share an architecture")
    worst = 0.0
    for w, b in layer_matrices(net1.arch, net1.theta - net2.theta):
        worst = max(worst, float(np.abs(w).sum(axis=1).max()), float(np.abs(b).max()))
    return worst


def frame_slots(arch: Architecture, depth: int, width: int) -> np.ndarray:
    """The slot map of ``arch`` in the padded (depth, width) frame of
    ``max_param_count(depth, width)`` slots: entry k is the frame slot of
    flat coordinate k, so the map also marks the realisable slots.

    The frame is a (depth+1, width+1, width) array in C order: weight
    (row, col) of layer l sits at [l, col, row] and its bias at
    [l, width, row], so each layer owns a block of width*(width+1) slots,
    the weight frame column-major and then the bias slots.  Each actual
    layer lands in the top-left corner of its block, so the map is
    increasing: the realisable slots, in frame order, run in flat order.
    Padding widths preserves the computed function; padding depth is
    parameter bookkeeping only, since inserted all-zero layers change the
    composition.
    """
    if arch.depth > depth or max(arch.widths) > width:
        raise ArchitectureTooLarge(
            f"net of depth {arch.depth} / width {max(arch.widths)} does not fit "
            f"inside frame ({depth}, {width})"
        )
    parts = []
    for layer, (_, _, (rows, cols)) in enumerate(layer_slices(arch)):
        base = layer * width * (width + 1)
        parts.append((base + width * np.arange(cols)[:, None] + np.arange(rows)).ravel())
        parts.append(base + width * width + np.arange(rows))
    return np.concatenate(parts)


def embed_to_max(net: SparseNetwork, depth: int, width: int) -> np.ndarray:
    """Zero-padded embedding of the flat parameter vector into the padded
    (depth, width) frame, through :func:`frame_slots`."""
    frame = np.zeros(max_param_count(depth, width))
    frame[frame_slots(net.arch, depth, width)] = net.theta
    return frame
