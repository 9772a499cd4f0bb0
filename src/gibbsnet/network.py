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


def layer_views(slices, theta: np.ndarray, m: int | None = None):
    """Per layer of ``slices`` (see :func:`layer_slices`): (weights, bias,
    cols), views into ``theta`` that follow its updates in place, laid out
    for :func:`compose_views`: (cols, rows, 1) weights, whose k-th entry is
    weight column k, and a (rows, 1) bias, cut by :func:`_layer_view`.
    With a point count ``m`` the trailing axis is bound to length m, so
    every operand the kernel meets at m input points has its output's
    trailing shape; those views are read-only."""
    last = len(slices) - 1
    return [_layer_view(theta[w_sl].reshape(cols, rows, 1), theta[b_sl].reshape(rows, 1),
                        cols, idx == last, m)
            for idx, (w_sl, b_sl, (rows, cols)) in enumerate(slices)]


def _layer_view(weights, bias, cols: int, last: bool, m: int | None = None):
    """(weights, bias, cols) of one layer from (cols, rows, ..., 1) weights
    and (rows, ..., 1) bias views: a one-output last layer drops the row
    axis, so the network's outputs come out without one, and a one-column
    layer drops the column axis, which it has no sum over.  A point count
    ``m`` binds the trailing axis of both to length m with np.broadcast_to:
    stride-0, read-only views of the same floats, so a ufunc of them and
    (..., m) inputs takes numpy's same-shape loop, not its broadcasting
    iterator."""
    if last and bias.shape[0] == 1:
        weights, bias = weights[:, 0], bias[0]
    if cols == 1:
        weights = weights[0]
    if m is not None:
        weights = np.broadcast_to(weights, weights.shape[:-1] + (m,))
        bias = np.broadcast_to(bias, bias.shape[:-1] + (m,))
    return weights, bias, cols


def compose_views(views, x: np.ndarray, act_fn, clip):
    """The affine/activation composition of the bound :func:`layer_views`
    at the feature-major inputs ``x``, (in, m) with one input point a
    column, or of a stack's :func:`frame_views` at (in, C, m) inputs and an
    array ``clip`` with a leading chain axis; then a clip to [-clip, clip]
    unless ``clip`` is None (or given as the pair (-clip, clip), negated
    once by a caller).  A one-output network's outputs come out as (m,),
    a stack's as (C, m), one network a row; a wider last layer's as (out,
    m).  It is the one forward kernel.

    Each output sums its weight-column products left to right, then adds
    its bias.  That order is fixed, so a width-padded copy of the network
    (see :func:`frame_slots`), whose extra terms are trailing exact zeros,
    computes the same floats, and so does every chain of a stack: the
    lockstep sampler relies on it.  A layer with a row axis (every layer
    but a one-output last one) reads its inputs with a new axis for it, so
    one multiply forms all its (cols, rows, ..., m) products.  Views bound
    to the m points (``layer_views(..., m)``) give the same floats; at
    depth 0 every operand then has its output's shape, which spares each
    ufunc numpy's broadcasting iterator on a few points.  The clip is
    np.maximum then np.minimum, in place on the last layer's fresh output:
    for clip > 0 that gives the floats np.clip gives (NaN stays NaN, a
    signed zero keeps its sign), without np.clip's dispatch cost on a few
    rows or a second output buffer on many.  Does no validation: it is the
    sampler's hot path.
    """
    a = x
    last = len(views) - 1
    for idx, (weights, bias, cols) in enumerate(views):
        if cols == 1:
            z = weights * a[0]
        else:
            terms = np.multiply(weights, a[:, None] if weights.ndim > a.ndim else a, order="C")
            z = terms[0]
            for k in range(1, cols):
                z = z + terms[k]
        z = z + bias
        a = act_fn(z) if idx < last else z
    if clip is None:
        return a
    low, high = clip if isinstance(clip, tuple) else (-clip, clip)
    return np.minimum(np.maximum(a, low, out=a), high, out=a)


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
    a = compose_views(
        layer_views(layer_slices(net.arch), net.theta), arr.T, act.fn,
        net.output_clip if clip else None,
    ).T.reshape(len(arr), net.arch.output_dim)
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


def output_bound(arch: Architecture, weight_bound: float, input_bound: float,
                 activation: str) -> float:
    """Bound on |pre-clip output| of ``arch`` with every coordinate in [-B, B]
    (B = ``weight_bound``) at inputs with |x| <= A = ``input_bound``: per
    layer of ``cols`` inputs Z = B (cols A + 1), then A = Z after a ReLU and
    1 after a sigmoid; each Z gains 1e-9 of itself, above float rounding."""
    bound = input_bound
    for _, _, (_, cols) in layer_slices(arch):
        z = weight_bound * (cols * bound + 1.0) * (1.0 + 1e-9)
        bound = {"relu": z, "sigmoid": 1.0}[activation]
    return z


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
    increasing: the realisable slots, in frame order, run in flat order,
    and the k-th of them holds flat coordinate k.  Padding widths preserves
    the computed function (see :func:`frame_views`); padding depth is
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


def unit_links(arch: Architecture) -> np.ndarray:
    """The (param_count(arch), 2) table whose row k is (the hidden unit
    flat coordinate k feeds, the hidden unit it weighs).

    Hidden units are numbered layer by layer from 0, and H, the hidden
    width total, stands for no hidden unit.  Weight (row, col) of layer l
    feeds unit row of layer l and weighs unit col of layer l - 1; a bias
    feeds its row's unit and weighs none.  The last layer feeds the output
    and the first weighs the inputs, so neither names a hidden unit there.
    """
    hidden = sum(arch.widths[1:-1])
    starts = np.cumsum((0,) + arch.widths[1:-1])
    parts = []
    for layer, (_, _, (rows, cols)) in enumerate(layer_slices(arch)):
        fed = starts[layer] + np.arange(rows) if layer < arch.depth else np.full(rows, hidden)
        weighed = starts[layer - 1] + np.arange(cols) if layer else np.full(cols, hidden)
        # Column-major weights: the row runs fastest.
        parts.append(np.column_stack((np.tile(fed, cols), np.repeat(weighed, rows))))
        parts.append(np.column_stack((fed, np.full(rows, hidden))))
    return np.concatenate(parts)


def frame_views(frames: np.ndarray, depth: int, width: int, in_cols: int):
    """:func:`layer_views` of a stack of padded (depth, width) frames (see
    :func:`frame_slots`), the (C, max_param_count(depth, width)) array
    ``frames`` with one network a row: per layer (weights, bias, cols), views
    that follow ``frames`` in place, with the chain axis after the column
    and row axes: (cols, rows, C, 1) weights and (rows, C, 1) bias, cut as
    :func:`layer_views` cuts them.  The first layer reads ``in_cols``
    input columns and the last one output row, so :func:`compose_views` of
    them at stacked (in_cols, C, m) inputs, zero past each network's own
    input columns, gives the (C, m) outputs, each row the floats of that
    network's own compose_views."""
    blocks = frames.reshape(len(frames), depth + 1, width + 1, width, 1)
    views = []
    for layer in range(depth + 1):
        cols = in_cols if layer == 0 else width
        rows = width if layer < depth else 1
        views.append(_layer_view(blocks[:, layer, :cols, :rows].transpose(1, 2, 0, 3),
                                 blocks[:, layer, width, :rows].swapaxes(0, 1),
                                 cols, layer == depth))
    return views
