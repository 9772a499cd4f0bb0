"""Tests for the sparse network representation and its parameter bounds."""

import numpy as np
import pytest

from gibbsnet.errors import ArchitectureTooLarge, DimensionMismatch
from gibbsnet.network import (
    ACTIVATIONS,
    Architecture,
    SparseNetwork,
    compose_views,
    forward,
    frame_slots,
    frame_views,
    layer_matrices,
    layer_slices,
    layer_views,
    lipschitz_parameter_bound,
    max_param_count,
    output_bound,
    param_count,
    param_distance,
    unit_links,
)


def dense_net(widths, theta_values, weight_bound=10.0, output_clip=1e9):
    arch = Architecture(depth=len(widths) - 2, widths=tuple(widths))
    theta = np.asarray(theta_values, dtype=float)
    return SparseNetwork(
        arch=arch,
        theta=theta,
        active=np.flatnonzero(theta != 0.0),
        weight_bound=weight_bound,
        output_clip=output_clip,
    )


def max_frame_slot(width_frame, layer, row, col):
    """Oracle for the documented padded-frame layout: layer ``layer`` owns a
    block of width*(width+1) slots, first the width x width weight frame
    stored column-major, then the width bias slots; ``col=None`` addresses
    a bias."""
    base = layer * width_frame * (width_frame + 1)
    if col is None:
        return base + width_frame * width_frame + row
    return base + col * width_frame + row


def embed_to_max(net, depth, width):
    """Zero-padded embedding of a network's flat parameter vector into the
    padded (depth, width) frame, through ``frame_slots``."""
    frame = np.zeros(max_param_count(depth, width))
    frame[frame_slots(net.arch, depth, width)] = net.theta
    return frame


def zero_net(net):
    """The all-zero network of ``net``'s architecture, so that
    param_distance(net, zero_net(net)) is ``net``'s layerwise class norm."""
    return SparseNetwork(arch=net.arch, theta=np.zeros_like(net.theta), active=net.active,
                         weight_bound=net.weight_bound, output_clip=net.output_clip)


def oracle_forward(widths, theta, x, activation="relu", clip_at=None):
    """Straight-line re-implementation: explicit loops over dense per-layer
    arrays, independent of the flat-vector plumbing under test."""
    act = ACTIVATIONS[activation].fn
    offset = 0
    a = [float(v) for v in x]
    n_layers = len(widths) - 1
    for l in range(1, n_layers + 1):
        rows, cols = widths[l], widths[l - 1]
        w = np.empty((rows, cols))
        for j in range(cols):
            for i in range(rows):
                w[i, j] = theta[offset + j * rows + i]
        offset += rows * cols
        b = [theta[offset + i] for i in range(rows)]
        offset += rows
        z = [sum(w[i, j] * a[j] for j in range(cols)) + b[i] for i in range(rows)]
        a = [float(act(v)) for v in z] if l < n_layers else z
    if clip_at is not None:
        a = [min(max(v, -clip_at), clip_at) for v in a]
    return np.array(a)


class TestParamCount:
    def test_small_network(self):
        assert param_count(Architecture(1, (1, 2, 1))) == 7

    def test_single_affine_map(self):
        assert param_count(Architecture(0, (1, 1))) == 2

    def test_arithmetic_oracle(self):
        widths = (3, 4, 4, 2)
        per_layer = [
            widths[l] * widths[l - 1] + widths[l] for l in range(1, len(widths))
        ]
        assert sum(per_layer) == 46
        assert param_count(Architecture(2, widths)) == 46


class TestMaxParamCount:
    def test_values(self):
        assert max_param_count(1, 2) == 12
        assert max_param_count(0, 1) == 2
        assert max_param_count(3, 5) == 120


class TestForward:
    def test_zero_network_maps_to_zero(self):
        net = dense_net((2, 3, 1), np.zeros(param_count(Architecture(1, (2, 3, 1)))))
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=2)
            assert forward(net, x) == pytest.approx(0.0)

    def test_identity_affine_map(self):
        # Depth 0, 2 -> 2: theta = vec(I) then zero bias.
        theta = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        net = dense_net((2, 2), theta)
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(forward(net, x), x, atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        widths = (3, 3, 3, 1)
        n = param_count(Architecture(2, widths))
        theta = rng.uniform(-1, 1, size=n)
        net = dense_net(widths, theta)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            got = forward(net, x, clip=False)
            want = oracle_forward(widths, theta, x)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        widths = (2, 4, 2)
        theta = rng.uniform(-1, 1, size=param_count(Architecture(1, widths)))
        net = dense_net(widths, theta)
        xs = rng.uniform(-1, 1, size=(6, 2))
        batch = forward(net, xs)
        for i in range(6):
            np.testing.assert_allclose(batch[i], forward(net, xs[i]))

    def test_clipping_enforced(self):
        theta = np.array([5.0, 5.0])  # h(x) = 5x + 5
        net = dense_net((1, 1), theta, output_clip=2.0)
        assert forward(net, np.array([10.0])) == pytest.approx(2.0)
        assert forward(net, np.array([-10.0])) == pytest.approx(-2.0)
        rng = np.random.default_rng(8)
        vals = forward(net, rng.uniform(-50, 50, size=(200, 1)))
        assert np.max(np.abs(vals)) <= 2.0

    def test_dimension_mismatch(self):
        net = dense_net((2, 2), np.zeros(6))
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros(3))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_clip_is_np_clip_bit_for_bit(self, activation):
        # 1-1-1 networks (w1, b1, w2, b2) whose raw outputs at these inputs
        # land exactly on +-clip, beyond it, inside it, on both signed zeros
        # and on +-inf and NaN.
        clip = 2.0
        if activation == "relu":  # w2 * relu(x), the bias -0.0 keeps a zero's sign
            thetas = [(1.0, -0.0, w2, -0.0) for w2 in (1.0, -1.0, 2.0, -2.0)]
        else:  # sigmoid(40) is 1.0 and 4 sigmoid(-40) - 2 rounds to -2.0
            thetas = [(1.0, 0.0, 4.0, -2.0), (1.0, 0.0, 8.0, -4.0), (1.0, 0.0, -0.0, -0.0)]
        x = np.array([[-np.inf], [-40.0], [-3.0], [-0.0], [0.0], [0.5], [1.0], [1.5], [40.0],
                      [np.inf], [np.nan]])
        raws, clipped = [], []
        for theta in thetas:
            net = dense_net((1, 1, 1), theta, output_clip=clip)
            raws.append(forward(net, x, activation=activation, clip=False)[:, 0])
            clipped.append(forward(net, x, activation=activation)[:, 0])
        raw, got = np.concatenate(raws), np.concatenate(clipped)
        assert {clip, -clip} <= set(raw.tolist())
        assert np.any(raw > clip) and np.any(raw < -clip) and np.any(np.isnan(raw))
        zeros = raw[raw == 0.0]
        assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))
        want = np.clip(raw, -clip, clip)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_sigmoid_activation(self):
        theta = np.array([1.0, 0.0, 1.0, 0.0])  # 1-1-1: w1=1,b1=0,w2=1,b2=0
        net = dense_net((1, 1, 1), theta)
        got = forward(net, np.array([0.0]), activation="sigmoid", clip=False)
        assert got == pytest.approx(0.5)


class TestLipschitzParameterBound:
    def test_hand_value(self):
        bound = lipschitz_parameter_bound(
            Architecture(1, (1, 1, 1)),
            weight_bound=1.0,
            activation_lipschitz=1.0,
            activation_at_zero=0.0,
            input_norm=1.0,
        )
        assert bound == pytest.approx(8.0)

    def test_depth_zero_annihilates(self):
        bound = lipschitz_parameter_bound(
            Architecture(0, (2, 1)), 3.0, 1.0, 0.0, 1.0
        )
        assert bound == 0.0

    def test_monotone_in_weight_bound(self):
        arch = Architecture(2, (1, 3, 3, 1))
        values = [
            lipschitz_parameter_bound(arch, b, 1.0, 0.0, 1.0)
            for b in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


class TestOutputBound:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_bounds_every_weight_vector_of_the_slab(self, activation, depth):
        # Corner (+-B) and uniform weight vectors at inputs on the corners
        # and inside of [-A, A]^2: no pre-clip output exceeds the bound, and
        # a ReLU network of all-+B weights at x = (A, A) attains it.
        rng = np.random.default_rng(depth)
        arch = Architecture(depth, (2,) + (3,) * depth + (1,))
        slab, reach = 0.7, 1.3
        x = np.vstack([[[reach, reach], [-reach, reach], [reach, -reach], [-reach, -reach]],
                       rng.uniform(-reach, reach, size=(8, 2))])
        corners = slab * rng.choice([-1.0, 1.0], size=(300, param_count(arch)))
        inside = rng.uniform(-slab, slab, size=(300, param_count(arch)))
        thetas = np.vstack([np.full(param_count(arch), slab), corners, inside])
        slices, act_fn = layer_slices(arch), ACTIVATIONS[activation].fn
        worst = max(float(np.max(np.abs(compose_views(layer_views(slices, theta), x.T, act_fn,
                                                      None)))) for theta in thetas)
        bound = output_bound(arch, slab, reach, activation)
        assert worst <= bound
        if activation == "relu":
            assert worst >= bound / (1.0 + 1e-6)

    def test_hand_values(self):
        # Depth 0 on one input: B (|x| + 1).  Depth 1, width 2, sigmoid:
        # the hidden outputs are below 1, so B (2 + 1) whatever the input.
        assert output_bound(Architecture(0, (1, 1)), 1.0, 0.75, "relu") == pytest.approx(1.75)
        assert output_bound(Architecture(1, (1, 2, 1)), 0.5, 9.0, "sigmoid") == pytest.approx(1.5)
        assert output_bound(Architecture(0, (1, 1)), 1.0, 0.75, "relu") > 1.75


def random_sparse_pair(rng, activation):
    """Two networks on a shared support whose per-layer row sums respect the
    class bound, plus that bound; the Lipschitz inequality is stated in the
    layerwise row-sum norm."""
    depth = int(rng.integers(1, 4))
    widths = tuple(int(rng.integers(1, 5)) for _ in range(depth + 2))
    arch = Architecture(depth, widths)
    n = param_count(arch)
    bound = float(rng.uniform(0.5, 2.0))
    keep = rng.random(n) < rng.uniform(0.3, 1.0)
    if not keep.any():
        keep[rng.integers(0, n)] = True
    thetas = []
    for _ in range(2):
        theta = np.zeros(n)
        for w_sl, b_sl, (rows, cols) in layer_slices(arch):
            w_keep = keep[w_sl].reshape((rows, cols), order="F")
            w = np.zeros((rows, cols))
            for i in range(rows):
                k = int(w_keep[i].sum())
                if k:
                    vals = rng.uniform(-bound / k, bound / k, size=k)
                    w[i, w_keep[i]] = vals
            theta[w_sl] = w.flatten(order="F")
            theta[b_sl] = rng.uniform(-bound, bound, size=rows) * keep[b_sl]
        thetas.append(theta)
    nets = [
        SparseNetwork(
            arch=arch,
            theta=t,
            active=np.flatnonzero(keep),
            weight_bound=bound,
            output_clip=1e12,
        )
        for t in thetas
    ]
    return nets[0], nets[1], bound


class TestParameterLipschitzProperty:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_no_violations(self, activation):
        rng = np.random.default_rng(2024)
        act = ACTIVATIONS[activation]
        n_pairs = 2500
        for _ in range(n_pairs):
            net1, net2, bound = random_sparse_pair(rng, activation)
            x = rng.uniform(-2, 2, size=net1.arch.input_dim)
            lhs = np.max(
                np.abs(
                    np.atleast_1d(forward(net1, x, activation, clip=False))
                    - np.atleast_1d(forward(net2, x, activation, clip=False))
                )
            )
            rate = lipschitz_parameter_bound(
                net1.arch,
                bound,
                act.lipschitz,
                act.at_zero,
                float(np.max(np.abs(x))),
            )
            rhs = rate * param_distance(net1, net2)
            assert lhs <= rhs * (1 + 1e-9) + 1e-12

    def test_norms_match_loop_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            net1, net2, _ = random_sparse_pair(rng, "relu")
            pairs = zip(layer_matrices(net1.arch, net1.theta), layer_matrices(net2.arch, net2.theta))
            norm, dist = 0.0, 0.0
            for (w1, b1), (w2, b2) in pairs:
                norm = max(norm, float(np.abs(w1).sum(axis=1).max()), float(np.abs(b1).max()))
                dist = max(dist, float(np.abs(w1 - w2).sum(axis=1).max()),
                           float(np.abs(b1 - b2).max()))
            assert param_distance(net1, zero_net(net1)) == norm
            assert param_distance(net1, net2) == dist

    def test_weight_norm_respects_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            net1, net2, bound = random_sparse_pair(rng, "relu")
            assert param_distance(net1, zero_net(net1)) <= bound + 1e-12
            assert param_distance(net2, zero_net(net2)) <= bound + 1e-12


class TestHomogeneity:
    def test_degree_one_in_final_layer_weights(self):
        # With all biases zero and no clipping, scaling the last weight
        # matrix by c >= 0 scales the output by c.
        rng = np.random.default_rng(17)
        widths = (2, 3, 1)
        arch = Architecture(1, widths)
        theta = rng.uniform(-1, 1, size=param_count(arch))
        slices = layer_slices(arch)
        for _, b_sl, _ in slices:
            theta[b_sl] = 0.0
        net = dense_net(widths, theta)
        for c in (0.0, 0.5, 2.0, 7.5):
            scaled = theta.copy()
            w_sl, _, _ = slices[-1]
            scaled[w_sl] *= c
            scaled_net = dense_net(widths, scaled)
            x = rng.uniform(-1, 1, size=2)
            np.testing.assert_allclose(
                forward(scaled_net, x, clip=False),
                c * forward(net, x, clip=False),
                atol=1e-12,
            )


class TestEmbedToMax:
    def test_identity_on_maximal_shape(self):
        rng = np.random.default_rng(1)
        widths = (2, 2, 2)
        theta = rng.uniform(-1, 1, size=param_count(Architecture(1, widths)))
        net = dense_net(widths, theta)
        np.testing.assert_allclose(embed_to_max(net, 1, 2), theta)

    def test_slot_mapping_oracle(self):
        # Frame (depth 1, width 2) has 12 slots; a (1,1,1) net owns exactly
        # the four slots enumerated by the documented layout.
        theta = np.array([0.3, -0.2, 0.7, 0.5])
        net = dense_net((1, 1, 1), theta)
        flat = embed_to_max(net, 1, 2)
        assert flat.shape == (12,)
        expected_slots = {
            max_frame_slot(2, 0, 0, 0): 0.3,
            max_frame_slot(2, 0, 0, None): -0.2,
            max_frame_slot(2, 1, 0, 0): 0.7,
            max_frame_slot(2, 1, 0, None): 0.5,
        }
        assert expected_slots == {0: 0.3, 4: -0.2, 6: 0.7, 10: 0.5}
        for slot in range(12):
            assert flat[slot] == pytest.approx(expected_slots.get(slot, 0.0))

    def test_too_wide_rejected(self):
        net = dense_net((1, 3, 1), np.zeros(param_count(Architecture(1, (1, 3, 1)))))
        with pytest.raises(ArchitectureTooLarge):
            embed_to_max(net, 1, 2)

    def test_width_padding_preserves_function(self):
        rng = np.random.default_rng(23)
        widths = (2, 2, 1)
        theta = rng.uniform(-1, 1, size=param_count(Architecture(1, widths)))
        net = dense_net(widths, theta, output_clip=5.0)
        flat = embed_to_max(net, 1, 4)
        # Read the padded (2, 4, 1) network back out of the (1, 4) frame.
        frame = flat.reshape(2, 5, 4)
        padded_arch = Architecture(1, (2, 4, 1))
        padded_theta = np.zeros(param_count(padded_arch))
        for layer, (w_sl, b_sl, (rows, cols)) in enumerate(layer_slices(padded_arch)):
            padded_theta[w_sl] = frame[layer, :cols, :rows].reshape(-1)
            padded_theta[b_sl] = frame[layer, 4, :rows]
        padded = SparseNetwork(arch=padded_arch, theta=padded_theta,
                               active=np.flatnonzero(padded_theta),
                               weight_bound=10.0, output_clip=5.0)
        for _ in range(25):
            x = rng.uniform(-3, 3, size=2)
            np.testing.assert_allclose(
                forward(padded, x), forward(net, x), atol=1e-12
            )


class TestEmbedSlots:
    def test_every_small_net_lands_on_its_frame_slots(self):
        # max_frame_slot is the documented layout and serves as the oracle,
        # for every depth <= 2 and width <= 3 inside the (2, 3) frame,
        # including the all-zero slots of padded depth.
        rng = np.random.default_rng(41)
        for depth in range(3):
            for width in range(1, 4):
                for in_dim, out_dim in [(1, 1), (3, 2), (2, 3)]:
                    widths = (in_dim,) + (width,) * depth + (out_dim,)
                    arch = Architecture(depth, widths)
                    net = dense_net(widths, rng.uniform(-1, 1, size=param_count(arch)))
                    flat = embed_to_max(net, 2, 3)
                    want = np.zeros(max_param_count(2, 3))
                    for layer, (w, b) in enumerate(layer_matrices(arch, net.theta)):
                        for (i, j), value in np.ndenumerate(w):
                            want[max_frame_slot(3, layer, i, j)] = value
                        for i, value in enumerate(b):
                            want[max_frame_slot(3, layer, i, None)] = value
                    np.testing.assert_array_equal(flat, want)


class TestUnitLinks:
    def test_hand_table(self):
        # Widths (1, 2, 1): hidden units 0 and 1, and 2 for none.  Layer 0
        # is weights (0, 0), (1, 0), then biases 0, 1; layer 1 is weights
        # (0, 0), (0, 1), then its bias.
        table = unit_links(Architecture(1, (1, 2, 1)))
        np.testing.assert_array_equal(
            table, [[0, 2], [1, 2], [0, 2], [1, 2], [2, 0], [2, 1], [2, 2]])

    def test_every_weight_links_its_layer_matrix_position(self):
        # Each coordinate's place in layer_matrices names the units it links.
        for widths in [(1, 1), (2, 3, 1), (1, 2, 3, 1), (3, 1, 2, 2, 1)]:
            arch = Architecture(len(widths) - 2, widths)
            table = unit_links(arch)
            hidden = sum(widths[1:-1])
            starts = np.cumsum((0,) + widths[1:-1])
            assert table.shape == (param_count(arch), 2)
            for k in range(param_count(arch)):
                onehot = np.arange(param_count(arch)) == k
                for layer, (w, b) in enumerate(layer_matrices(arch, onehot)):
                    if w.any():
                        (row,), (col,) = np.nonzero(w)
                    elif b.any():
                        (row,), col = np.nonzero(b), None
                    else:
                        continue
                    fed = starts[layer] + row if layer < arch.depth else hidden
                    weighed = starts[layer - 1] + col if layer and col is not None else hidden
                    assert tuple(table[k]) == (fed, weighed)


class TestFrameSlots:
    def test_slot_map_is_increasing(self):
        # The realisable slots, in frame order, run in flat order.
        for depth in range(3):
            for widths in [(1,) + (3,) * depth + (1,), (2,) + (1,) * depth + (1,)]:
                arch = Architecture(depth, widths)
                slots = frame_slots(arch, 2, 3)
                assert slots.size == param_count(arch)
                assert np.all(np.diff(slots) > 0) and slots[-1] < max_param_count(2, 3)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_width_padding_is_bit_exact(self, activation):
        # compose_views sums each layer's terms in one fixed order, so the padded
        # network's extra terms are trailing exact zeros: equal floats.
        rng = np.random.default_rng(7)
        for widths in [(2, 3, 1), (1, 2, 2, 1), (3, 1, 1)]:
            depth = len(widths) - 2
            arch = Architecture(depth, widths)
            net = dense_net(widths, rng.uniform(-1, 1, size=param_count(arch)), output_clip=0.8)
            for width in (max(widths), max(widths) + 3):
                padded_arch = Architecture(depth, (widths[0],) + (width,) * depth + (1,))
                frame = embed_to_max(net, depth, width)
                padded = dense_net(padded_arch.widths,
                                   frame[frame_slots(padded_arch, depth, width)], output_clip=0.8)
                x = rng.uniform(-3, 3, size=(200, widths[0]))
                np.testing.assert_array_equal(forward(padded, x, activation),
                                              forward(net, x, activation))

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize(
        "in_cols, hidden", [(1, (1, 1)), (1, (1, 3, 2)), (2, (1, 3, 2))],
        ids=["one-column-frame", "one-input-column", "wide"],
    )
    def test_stacked_frames_are_bit_exact(self, activation, depth, in_cols, hidden):
        # compose_views on C networks of different widths, stacked in one
        # frame, gives every network the floats of its own compose_views,
        # clip included: the padded terms are trailing exact zeros and no
        # network reads its stack-mates.
        rng = np.random.default_rng(17 * depth + len(hidden))
        act_fn = ACTIVATIONS[activation].fn
        archs = [Architecture(depth, (1 + c % in_cols,) + (width,) * depth + (1,))
                 for c, width in enumerate(hidden)]
        width = max(max(arch.widths) for arch in archs)
        clips = rng.uniform(0.3, 1.5, size=len(archs))
        x = rng.uniform(-3, 3, size=(in_cols, len(archs), 40))
        frames = np.zeros((len(archs), max_param_count(depth, width)))
        own = []
        for c, arch in enumerate(archs):
            theta = rng.uniform(-2, 2, size=param_count(arch))
            frames[c, frame_slots(arch, depth, width)] = theta
            x[arch.input_dim:, c] = 0.0
            own.append(compose_views(layer_views(layer_slices(arch), theta),
                                     x[:arch.input_dim, c], act_fn, clips[c]))
        stacked = compose_views(frame_views(frames, depth, width, in_cols), x, act_fn,
                                clips[:, None])
        assert stacked.shape == (len(archs), 40)
        assert np.any(np.abs(stacked) == clips[:, None])
        for c, want in enumerate(own):
            np.testing.assert_array_equal(stacked[c], want)
        # The clip given as its (low, high) pair, as the lockstep sampler does.
        bound = np.repeat(clips[:, None], 40, axis=1)
        np.testing.assert_array_equal(
            compose_views(frame_views(frames, depth, width, in_cols), x, act_fn, (-bound, bound)),
            stacked)


def scalar_outputs(arch, theta, points, activation, clip):
    """Reference for the forward kernel's summation order, over numpy float64
    scalars: at each input point (a column of ``points``, shape (in, m)),
    each output sums its weight-column products left to right, then adds its
    bias, applies ACTIVATIONS[activation].fn on a hidden layer, and is
    clipped with max then min."""
    act_fn = ACTIVATIONS[activation].fn
    theta = np.asarray(theta, dtype=np.float64)
    outputs = []
    for point in points.T:
        a = list(point)
        for layer, (w_sl, b_sl, (rows, cols)) in enumerate(layer_slices(arch)):
            z = []
            for row in range(rows):
                total = theta[w_sl.start + row] * a[0]
                for col in range(1, cols):
                    total = total + theta[w_sl.start + col * rows + row] * a[col]
                z.append(total + theta[b_sl.start + row])
            a = [act_fn(v) for v in z] if layer < arch.depth else z
        (out,) = a
        outputs.append(min(max(out, -clip), clip))
    return np.array(outputs)


class TestKernelSummationOrder:
    """compose_views against :func:`scalar_outputs`, bit for bit, for one
    network at (in, m) inputs and for a stack of padded frames at
    (in_cols, C, m) inputs."""

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize(
        "chains, m, in_cols", [(1, 1, 1), (1, 6, 2), (3, 1, 2), (4, 9, 3), (5, 7, 1)],
        ids=["one-row-one-point", "one-row", "one-point", "wide-inputs", "one-input"],
    )
    def test_matches_scalar_reference(self, activation, depth, chains, m, in_cols):
        rng = np.random.default_rng(100 * depth + 10 * chains + m)
        act_fn = ACTIVATIONS[activation].fn
        # Chain c reads in_cols - c % in_cols inputs at width 3 - c % 3.
        archs = [Architecture(depth, (in_cols - c % in_cols,) + (3 - c % 3,) * depth + (1,))
                 for c in range(chains)]
        width = max(max(arch.widths) for arch in archs)
        clips = rng.uniform(0.5, 2.0, size=chains)
        x = rng.uniform(-2, 2, size=(in_cols, chains, m))
        frames = np.zeros((chains, max_param_count(depth, width)))
        wants = []
        for c, arch in enumerate(archs):
            theta = rng.uniform(-1.5, 1.5, size=param_count(arch))
            frames[c, frame_slots(arch, depth, width)] = theta
            x[arch.input_dim:, c] = 0.0
            points = x[:arch.input_dim, c]
            want = scalar_outputs(arch, theta, points, activation, clips[c])
            got = compose_views(layer_views(layer_slices(arch), theta), points, act_fn, clips[c])
            assert got.shape == (m,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            wants.append(want)
        stacked = compose_views(frame_views(frames, depth, width, in_cols), x, act_fn,
                                clips[:, None])
        assert stacked.shape == (chains, m)
        assert np.array_equal(stacked.view(np.int64), np.array(wants).view(np.int64))


class TestBoundViews:
    """layer_views bound to m points, the views sample_posterior prices
    with: stride-0, read-only views into theta that leave compose_views's
    floats as they are."""

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("in_cols", [1, 2, 3])
    @pytest.mark.parametrize("clipped", [False, True], ids=["no-clip", "clip-pair"])
    def test_same_floats_as_unbound_and_scalar_reference(self, activation, depth, in_cols,
                                                         clipped):
        rng = np.random.default_rng(1000 * depth + 10 * in_cols + clipped)
        act_fn = ACTIVATIONS[activation].fn
        m = 7
        arch = Architecture(depth, (in_cols,) + (3,) * depth + (1,))
        theta = rng.uniform(-1.5, 1.5, size=param_count(arch))
        points = rng.uniform(-2, 2, size=(in_cols, m))
        clip = 0.9 if clipped else np.inf
        pair = (np.full(m, -clip), np.full(m, clip)) if clipped else None
        slices = layer_slices(arch)
        bound = compose_views(layer_views(slices, theta, m), points, act_fn, pair)
        unbound = compose_views(layer_views(slices, theta), points, act_fn, pair)
        want = scalar_outputs(arch, theta, points, activation, clip)
        assert bound.shape == (m,)
        assert np.array_equal(bound.view(np.int64), unbound.view(np.int64))
        assert np.array_equal(bound.view(np.int64), want.view(np.int64))
        if clipped:
            assert np.any(np.abs(bound) == clip)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_views_follow_theta_in_place(self, depth):
        arch = Architecture(depth, (2,) + (3,) * depth + (1,))
        theta = np.zeros(param_count(arch))
        m = 5
        views = layer_views(layer_slices(arch), theta, m)
        rng = np.random.default_rng(depth)
        points = rng.uniform(-1, 1, size=(2, m))
        act_fn = ACTIVATIONS["relu"].fn
        for _ in range(4):
            theta[rng.integers(theta.size)] = rng.uniform(-1, 1)
            np.testing.assert_array_equal(
                compose_views(views, points, act_fn, None),
                compose_views(layer_views(layer_slices(arch), theta.copy()), points, act_fn,
                              None))
        for weights, bias, _ in views:
            assert weights.shape[-1] == bias.shape[-1] == m
            assert weights.strides[-1] == bias.strides[-1] == 0
            assert np.shares_memory(weights, theta) and np.shares_memory(bias, theta)

    def test_views_are_read_only(self):
        arch = Architecture(1, (2, 3, 1))
        theta = np.zeros(param_count(arch))
        for weights, bias, _ in layer_views(layer_slices(arch), theta, 4):
            for view in (weights, bias):
                assert not view.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    view += 1.0
                with pytest.raises(ValueError, match="read-only"):
                    np.add(view, 1.0, out=view)
        assert not theta.any()


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(4)
        widths = (2, 3, 1)
        arch = Architecture(1, widths)
        theta = np.zeros(param_count(arch))
        active = np.array([0, 3, 8], dtype=np.int64)
        theta[active] = rng.uniform(-1, 1, size=3)
        net = SparseNetwork(
            arch=arch, theta=theta, active=active, weight_bound=1.0, output_clip=2.0
        )
        restored = SparseNetwork.from_json(net.to_json())
        assert restored.arch == net.arch
        np.testing.assert_allclose(restored.theta, net.theta)
        assert restored.weight_bound == 1.0
        assert restored.output_clip == 2.0

    def test_invariants_enforced(self):
        arch = Architecture(0, (1, 1))
        with pytest.raises(ValueError):
            SparseNetwork(
                arch=arch,
                theta=np.array([0.5, 0.5]),
                active=np.array([0]),
                weight_bound=1.0,
                output_clip=1.0,
            )
        with pytest.raises(ValueError):
            SparseNetwork(
                arch=arch,
                theta=np.array([1.5, 0.0]),
                active=np.array([0]),
                weight_bound=1.0,
                output_clip=1.0,
            )
