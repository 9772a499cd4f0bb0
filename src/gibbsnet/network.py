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
    max_active: int | None = None

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
        if self.max_active is not None and active.size > self.max_active:
            raise ValueError("active set exceeds the sparsity cap")

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

    Does no validation: it is the sampler's hot path.
    """
    a = x
    last = len(slices) - 1
    for idx, (w_sl, b_sl, (rows, cols)) in enumerate(slices):
        a = a @ theta[w_sl].reshape((rows, cols), order="F").T + theta[b_sl]
        if idx < last:
            a = act_fn(a)
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


def _layer_norm(arch: Architecture, theta: np.ndarray) -> float:
    worst = 0.0
    for w, b in layer_matrices(arch, theta):
        worst = max(worst, float(np.abs(w).sum(axis=1).max()), float(np.abs(b).max()))
    return worst


def weight_norm(net: SparseNetwork) -> float:
    """Layerwise class norm: max over layers of the weight matrix's maximum
    row sum and the bias vector's sup norm."""
    return _layer_norm(net.arch, net.theta)


def param_distance(net1: SparseNetwork, net2: SparseNetwork) -> float:
    """Distance between parameter vectors in the layerwise norm of
    :func:`weight_norm` (max row sum for weights, sup norm for biases)."""
    if net1.arch != net2.arch:
        raise DimensionMismatch("networks must share an architecture")
    return _layer_norm(net1.arch, net1.theta - net2.theta)


def max_frame_slot(depth_frame: int, width_frame: int, layer: int, row: int, col: int | None):
    """Flat index of a coordinate inside the padded (depth, width) frame.

    Layer ``layer`` (0-based among the depth+1 affine maps) occupies a block
    of width*(width+1) slots: first the width x width weight frame stored
    column-major, then the width bias slots.  ``col=None`` addresses a bias.
    """
    block = width_frame * (width_frame + 1)
    base = layer * block
    if col is None:
        return base + width_frame * width_frame + row
    return base + col * width_frame + row


def embed_to_max(net: SparseNetwork, depth: int, width: int) -> np.ndarray:
    """Zero-padded embedding of the flat parameter vector into the padded
    frame of ``max_param_count(depth, width)`` slots.

    Each actual layer's weight matrix lands in the top-left corner of its
    width x width frame (column-major), biases in the leading bias slots.
    Padding widths preserves the computed function; padding depth is
    parameter bookkeeping only, since inserted all-zero layers change the
    composition.  In C order a (depth+1, width+1, width) array is exactly
    the :func:`max_frame_slot` layout: weight (row, col) of layer l sits at
    [l, col, row] and its bias at [l, width, row].
    """
    arch = net.arch
    if arch.depth > depth or max(arch.widths) > width:
        raise ArchitectureTooLarge(
            f"net of depth {arch.depth} / width {max(arch.widths)} does not fit "
            f"inside frame ({depth}, {width})"
        )
    frame = np.zeros((depth + 1, width + 1, width))
    for layer, (w, b) in enumerate(layer_matrices(arch, net.theta)):
        rows, cols = w.shape
        frame[layer, :cols, :rows] = w.T
        frame[layer, width, :rows] = b
    return frame.reshape(-1)


def network_from_max_embedding(
    flat: np.ndarray,
    depth: int,
    width: int,
    input_dim: int,
    output_dim: int,
    weight_bound: float,
    output_clip: float,
) -> SparseNetwork:
    """Inverse of :func:`embed_to_max` onto the realizable architecture
    (input_dim, width, ..., width, output_dim) of the same depth."""
    arch = Architecture(
        depth=depth, widths=(input_dim,) + (width,) * depth + (output_dim,)
    )
    frame = np.asarray(flat, dtype=float).reshape(depth + 1, width + 1, width)
    theta = np.zeros(param_count(arch))
    for layer, (w_sl, b_sl, (rows, cols)) in enumerate(layer_slices(arch)):
        theta[w_sl] = frame[layer, :cols, :rows].reshape(-1)
        theta[b_sl] = frame[layer, width, :rows]
    active = np.flatnonzero(theta != 0.0)
    return SparseNetwork(
        arch=arch,
        theta=theta,
        active=active,
        weight_bound=weight_bound,
        output_clip=output_clip,
    )
