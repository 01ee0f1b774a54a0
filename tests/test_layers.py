"""Layer forward/backward contracts, gradient oracles, and symmetries."""

import numpy as np
import pytest

from _helpers import fd_grad, max_rel_err, quadratic_loss
from symnet.harness import build_network, make_dataset
from symnet.layers import Conv1DLayer, DenseLayer, GlobalMaxPool, Reshape, Sigmoid, Transpose
from symnet.ndcore import SeededRng, ShapeError, derive_seed
from symnet.tasks import encode_sequence
from symnet.training import LOSSES, Network


class TestDenseForward:
    def test_zero_weights_pass_bias(self):
        layer = DenseLayer(np.zeros((2, 3)), [1.0, 2.0])
        assert np.array_equal(layer.forward([9.0, -4.0, 0.5]), [1.0, 2.0])

    def test_identity_weights_copy_input(self):
        layer = DenseLayer(np.eye(4), np.zeros(4))
        x = np.array([0.1, -2.0, 3.0, 0.0])
        assert np.array_equal(layer.forward(x), x)

    def test_hand_computed_affine_map(self):
        layer = DenseLayer([[1.0, 2.0], [0.0, 1.0]], [1.0, 0.0])
        assert np.array_equal(layer.forward([3.0, 4.0]), [12.0, 4.0])

    def test_batch_rows_match_single_instances(self):
        rng = np.random.default_rng(0)
        layer = DenseLayer(rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, 3))
        xb = rng.uniform(-1, 1, (7, 5))
        yb = layer.forward(xb)
        assert yb.shape == (7, 3)
        for i in range(7):
            assert np.allclose(yb[i], layer.forward(xb[i]), rtol=0, atol=1e-12)

    def test_wrong_width_rejected(self):
        layer = DenseLayer(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            layer.forward([1.0, 2.0])

    def test_bias_shape_checked_at_construction(self):
        with pytest.raises(ShapeError):
            DenseLayer(np.zeros((2, 3)), np.zeros(3))


class TestDenseBackward:
    def test_zero_upstream_zeroes_everything(self):
        layer = DenseLayer(np.ones((2, 3)), np.zeros(2))
        g = layer.backward([1.0, 2.0, 3.0], np.zeros(2))
        assert not g.d_weights.any() and not g.d_bias.any() and not g.d_input.any()

    def test_scalar_chain_rule(self):
        layer = DenseLayer([[4.0]], [0.0])
        g = layer.backward([2.0], [3.0])
        assert g.d_weights == [[6.0]]
        assert g.d_bias == [3.0]
        assert g.d_input == [12.0]  # W^T upstream

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            w = rng.uniform(-1, 1, (3, 5))
            b = rng.uniform(-1, 1, 3)
            x = rng.uniform(-1, 1, 5)
            layer = DenseLayer(w, b)
            y = layer.forward(x)
            g = layer.backward(x, y)  # upstream = dL/dy for L = 0.5 sum y^2
            assert max_rel_err(g.d_weights, fd_grad(lambda p: quadratic_loss(DenseLayer(p, b).forward(x)), w)) <= 1e-6
            assert max_rel_err(g.d_bias, fd_grad(lambda p: quadratic_loss(DenseLayer(w, p).forward(x)), b)) <= 1e-6
            assert max_rel_err(g.d_input, fd_grad(lambda p: quadratic_loss(layer.forward(p)), x)) <= 1e-6

    def test_batch_gradients_sum_over_instances(self):
        rng = np.random.default_rng(3)
        layer = DenseLayer(rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, 2))
        xb = rng.uniform(-1, 1, (6, 4))
        ub = rng.uniform(-1, 1, (6, 2))
        g = layer.backward(xb, ub)
        want_w = sum(layer.backward(xb[i], ub[i]).d_weights for i in range(6))
        want_b = sum(layer.backward(xb[i], ub[i]).d_bias for i in range(6))
        assert np.allclose(g.d_weights, want_w, rtol=0, atol=1e-12)
        assert np.allclose(g.d_bias, want_b, rtol=0, atol=1e-12)

    def test_upstream_shape_checked(self):
        layer = DenseLayer(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            layer.backward([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestConvForward:
    def test_centered_identity_filter_copies_input(self):
        layer = Conv1DLayer([[[0.0, 0.0, 1.0, 0.0, 0.0]]], [0.0], padding="zero_same")
        x = np.array([[1.0, 0.0, 1.0, 1.0, 0.0]])
        assert np.array_equal(layer.forward(x), x)

    def test_repeated_word_detector_peaks_at_that_word(self):
        # the three sequence slots feed one width-1 filter; weights 1,0,1
        # light up exactly where slot 1 and slot 3 hold the same word
        layer = Conv1DLayer([[[1.0], [0.0], [1.0]]], [0.0], padding="none")
        x = encode_sequence(("wo", "fe", "wo")).T  # (3 slots, 12 word positions)
        y = layer.forward(x)
        wo_position = 2
        assert y[0, wo_position] == 2.0
        others = np.delete(y[0], wo_position)
        assert np.all(others < 2.0)

    def test_unpadded_output_is_shorter_by_width_minus_one(self):
        layer = Conv1DLayer(np.ones((1, 1, 3)), [0.0], padding="none")
        assert layer.forward(np.ones((1, 7))).shape == (1, 5)

    def test_zero_same_keeps_positions(self):
        layer = Conv1DLayer(np.ones((2, 1, 3)), [0.5, -0.5], padding="zero_same")
        assert layer.forward(np.ones((1, 7))).shape == (2, 7)

    def test_even_width_rejected_for_zero_same(self):
        with pytest.raises(ShapeError):
            Conv1DLayer(np.ones((1, 1, 4)), [0.0], padding="zero_same")

    def test_too_few_positions_rejected_unpadded(self):
        layer = Conv1DLayer(np.ones((1, 1, 5)), [0.0], padding="none")
        with pytest.raises(ShapeError):
            layer.forward(np.ones((1, 4)))

    def test_batch_rows_match_single_instances(self):
        rng = np.random.default_rng(8)
        layer = Conv1DLayer(rng.uniform(-1, 1, (2, 3, 3)), rng.uniform(-1, 1, 2), padding="zero_same")
        xb = rng.uniform(-1, 1, (5, 3, 9))
        yb = layer.forward(xb)
        for i in range(5):
            assert np.allclose(yb[i], layer.forward(xb[i]), rtol=0, atol=1e-12)


class TestConvBackward:
    def test_zero_upstream_zeroes_everything(self):
        layer = Conv1DLayer(np.ones((2, 1, 3)), np.zeros(2), padding="zero_same")
        x = np.arange(8.0).reshape(1, 8)
        g = layer.backward(x, np.zeros((2, 8)))
        assert not g.d_filters.any() and not g.d_bias.any() and not g.d_input.any()

    def test_width_one_filter_gradient_is_position_sum(self):
        layer = Conv1DLayer([[[0.7]]], [0.0], padding="none")
        x = np.array([[1.0, 2.0, 3.0]])
        upstream = np.array([[0.5, -1.0, 2.0]])
        g = layer.backward(x, upstream)
        assert g.d_filters[0, 0, 0] == pytest.approx(0.5 * 1 - 1.0 * 2 + 2.0 * 3, abs=1e-15)

    @pytest.mark.parametrize("padding,width,positions", [("zero_same", 3, 8), ("none", 3, 8), ("zero_same", 5, 5)])
    def test_gradients_match_finite_differences(self, padding, width, positions):
        rng = np.random.default_rng(17)
        for _ in range(5):
            f = rng.uniform(-1, 1, (2, 3, width))
            b = rng.uniform(-1, 1, 2)
            x = rng.uniform(-1, 1, (3, positions))
            layer = Conv1DLayer(f, b, padding=padding)
            y = layer.forward(x)
            g = layer.backward(x, y)
            assert max_rel_err(g.d_filters, fd_grad(lambda p: quadratic_loss(Conv1DLayer(p, b, padding).forward(x)), f)) <= 1e-6
            assert max_rel_err(g.d_bias, fd_grad(lambda p: quadratic_loss(Conv1DLayer(f, p, padding).forward(x)), b)) <= 1e-6
            assert max_rel_err(g.d_input, fd_grad(lambda p: quadratic_loss(layer.forward(p)), x)) <= 1e-6

    def test_filter_gradient_equals_untied_per_position_sum(self):
        # weight sharing: the shared filter's gradient must equal the sum of
        # the gradients an independent copy at each position would receive
        rng = np.random.default_rng(29)
        for _ in range(10):
            out_c, in_c, width, positions = 2, 3, 2, 7
            f = rng.uniform(-1, 1, (out_c, in_c, width))
            x = rng.uniform(-1, 1, (in_c, positions))
            layer = Conv1DLayer(f, np.zeros(out_c), padding="none")
            out_p = positions - width + 1
            upstream = rng.uniform(-1, 1, (out_c, out_p))
            g = layer.backward(x, upstream)
            untied = np.zeros_like(f)
            for p in range(out_p):
                for o in range(out_c):
                    for k in range(in_c):
                        for t in range(width):
                            untied[o, k, t] += upstream[o, p] * x[k, p + t]
            assert np.max(np.abs(g.d_filters - untied)) <= 1e-12

    def test_upstream_shape_checked(self):
        layer = Conv1DLayer(np.ones((1, 1, 3)), [0.0], padding="none")
        with pytest.raises(ShapeError):
            layer.backward(np.ones((1, 8)), np.ones((1, 8)))  # unpadded output is 6 wide


def _loop_padded(conv, xb):
    if conv.padding == "none":
        return xb
    pad = (conv.width - 1) // 2
    padded = np.zeros(xb.shape[:-1] + (xb.shape[-1] + 2 * pad,))
    padded[..., pad : pad + xb.shape[-1]] = xb
    return padded


def loop_forward(conv, xb):
    """The conv's forward as a fixed-order loop over filter taps: the bit-level
    reference for the tap-major contraction.  ``xb`` is a batch, or one batch
    per member."""
    padded = _loop_padded(conv, xb)
    out_p = padded.shape[-1] - conv.width + 1
    lead = padded.shape[:-2] if conv.runs is None or padded.ndim == 4 else (conv.runs,) + padded.shape[:-2]
    y = np.zeros(lead + (conv.out_channels, out_p))
    for k in range(conv.in_channels):
        for t in range(conv.width):
            y += conv.filters[..., None, :, k, t, None] * padded[..., None, k, t : t + out_p]
    y += conv.bias[..., None, :, None]
    return y


def loop_d_filters(conv, xb, ub):
    """The filter gradient as a loop over taps, each summed over batch and positions."""
    padded = _loop_padded(conv, xb)
    out_p = padded.shape[-1] - conv.width + 1
    d_filters = np.empty_like(conv.filters)
    for k in range(conv.in_channels):
        for t in range(conv.width):
            d_filters[..., k, t] = (ub * padded[..., None, k, t : t + out_p]).sum(axis=(-3, -1))
    return d_filters


def loop_d_input(conv, xb, ub):
    """The input gradient as a loop over taps and output channels, each
    spreading the upstream back over the padded positions it came from."""
    padded = _loop_padded(conv, xb)
    out_p = padded.shape[-1] - conv.width + 1
    d_padded = np.zeros(ub.shape[:-2] + padded.shape[-2:])
    for t in range(conv.width):
        for c in range(conv.out_channels):
            d_padded[..., t : t + out_p] += ub[..., c, None, :] * conv.filters[..., None, c, :, t, None]
    pad = (padded.shape[-1] - xb.shape[-1]) // 2
    return d_padded[..., pad : d_padded.shape[-1] - pad]


def loop_pooled_gradients(conv, xb, routed):
    """The filter and bias gradients for a routed pool upstream as a loop
    over taps, each gathering the padded input's rows at the argmax: the byte
    reference for the conv's one gather from its tap windows."""
    rows = np.swapaxes(_loop_padded(conv, xb), -1, -2)  # (..., batch, padded positions, in_channels)
    up = np.asarray(routed.values)
    argmax = routed.argmax.reshape(up.shape)
    # an index for each run and batch axis of rows, broadcast against argmax's ([runs,] batch, channels)
    lead = tuple(np.arange(n).reshape((n,) + (1,) * (rows.ndim - 2 - i)) for i, n in enumerate(rows.shape[:-2]))
    d_filters = np.empty_like(conv.filters)
    for t in range(conv.width):
        d_filters[..., t] = (up[..., None] * rows[lead + (argmax + t,)]).sum(axis=-3)
    return d_filters, up.sum(axis=-2)


class TestTapContraction:
    """The conv contracts one tap-major product of filters and gathered tap
    windows; forward and d_filters must give the per-tap loops' bytes,
    signed zeros included.  d_input, a forward of the upstream, sums in
    another order, so it must agree with its loop to rounding."""

    @pytest.mark.parametrize("padding,width,in_c,out_c,positions", [
        ("zero_same", 5, 1, 1, 5), ("zero_same", 3, 2, 3, 7), ("none", 1, 3, 2, 12), ("none", 4, 3, 2, 9),
    ])
    @pytest.mark.parametrize("case", ["single", "batch", "shared_batch", "per_member"])
    def test_forward_and_filter_gradient_match_the_tap_loops(self, padding, width, in_c, out_c, positions, case):
        rng = np.random.default_rng(71)
        runs = None if case in ("single", "batch") else 3
        lead = {"single": (), "batch": (6,), "shared_batch": (6,), "per_member": (3, 6)}[case]
        kernel_lead = () if runs is None else (runs,)
        filters = rng.uniform(-1, 1, kernel_lead + (out_c, in_c, width))
        filters[..., 0] = 0.0  # tap 0 adds only signed zeros
        conv = Conv1DLayer(filters, np.zeros(kernel_lead + (out_c,)), padding=padding)
        out_p = positions if padding == "zero_same" else positions - width + 1
        out_lead = (runs,) + lead if case == "shared_batch" else lead
        for trial in range(4):
            x = rng.uniform(-1, 1, lead + (in_c, positions))
            x[x < 0.2] = -0.0
            if lead:
                x[..., 0, :, :] = -0.0  # the first instance's windows are all zero
            elif trial == 0:
                x[...] = -0.0
            up = rng.uniform(-1, 1, out_lead + (out_c, out_p))
            up[up < -0.5] = -0.0
            xb, ub = (x[None], up[None]) if case == "single" else (x, up)
            want_y, want_d, want_dx = loop_forward(conv, xb), loop_d_filters(conv, xb, ub), loop_d_input(conv, xb, ub)
            if case == "single":
                want_y, want_dx = want_y[0], want_dx[0]
            prepared = conv.prepare(x)
            y = conv.forward(x)
            assert y.tobytes() == want_y.tobytes() and y.shape == want_y.shape
            assert conv.forward(prepared).tobytes() == y.tobytes()
            assert y.flags.c_contiguous
            for given in (x, prepared):
                g = conv.backward(given, up, input_grad=False)
                assert g.d_filters.shape == filters.shape
                assert g.d_filters.tobytes() == want_d.tobytes()
                d_input = conv.backward(given, up, input_grad=True).d_input
                assert d_input.shape == want_dx.shape
                assert np.allclose(d_input, want_dx, rtol=0, atol=1e-12)
            conv.bias = rng.uniform(-1, 1, conv.bias.shape)

    def test_windows_gathered_for_another_conv_are_refused(self):
        x = np.ones((4, 2, 6))
        prepared = Conv1DLayer(np.ones((1, 2, 3)), np.zeros(1)).prepare(x)
        with pytest.raises(ShapeError):
            Conv1DLayer(np.ones((1, 2, 5)), np.zeros(1)).forward(prepared)
        with pytest.raises(ShapeError):
            Conv1DLayer(np.ones((2, 1, 2, 3)), np.zeros((2, 1))).forward(prepared)
        with pytest.raises(ShapeError):
            Conv1DLayer(np.ones((1, 2, 3)), np.zeros(1), padding="none").backward(prepared, np.ones((4, 1, 4)))
        # windows with a run axis of 3 fit neither a 1-member conv's own run axis nor a shared batch
        per_member = Conv1DLayer(np.ones((3, 2, 1, 3)), np.zeros((3, 2)), padding="none").prepare(np.ones((3, 4, 1, 6)))
        one_member = Conv1DLayer(np.ones((1, 2, 1, 3)), np.zeros((1, 2)), padding="none")
        with pytest.raises(ShapeError):
            one_member.forward(per_member)
        with pytest.raises(ShapeError):
            one_member.backward(per_member, np.ones((1, 4, 2, 4)), input_grad=False)


class TestGlobalMaxPool:
    def test_per_channel_maximum(self):
        values, argmax = GlobalMaxPool().forward([[0.2, 0.9], [0.5, 0.1]])
        assert np.array_equal(values, [0.9, 0.5])
        assert np.array_equal(argmax, [1, 0])

    def test_tie_breaks_to_lowest_index(self):
        values, argmax = GlobalMaxPool().forward([[0.7, 0.7]])
        assert values[0] == 0.7
        assert argmax[0] == 0

    def test_permutation_invariance_of_values(self):
        rng = np.random.default_rng(4)
        pool = GlobalMaxPool()
        for _ in range(50):
            x = rng.uniform(-1, 1, (3, 10))
            perm = rng.permutation(10)
            base, _ = pool.forward(x)
            permuted, _ = pool.forward(x[:, perm])
            assert np.array_equal(base, permuted)

    def test_backward_routes_to_argmax(self):
        pool = GlobalMaxPool()
        d = pool.backward(np.array([1, 0]), np.array([1.0, 2.0]), positions=2)
        assert np.array_equal(d, [[0.0, 1.0], [2.0, 0.0]])

    def test_backward_zero_upstream(self):
        d = GlobalMaxPool().backward(np.array([0, 1, 0]), np.zeros(3), positions=4)
        assert not d.any()

    def test_gradient_matches_finite_differences_away_from_ties(self):
        rng = np.random.default_rng(31)
        pool = GlobalMaxPool()
        for _ in range(10):
            x = rng.uniform(-1, 1, (2, 6))

            def loss(p):
                return quadratic_loss(pool.forward(p)[0])

            values, argmax = pool.forward(x)
            analytic = pool.backward(argmax, values, positions=6)
            assert max_rel_err(analytic, fd_grad(loss, x)) <= 1e-6

    def test_stale_indices_rejected(self):
        pool = GlobalMaxPool()
        with pytest.raises(ValueError):
            pool.backward(np.array([5]), np.array([1.0]), positions=3)  # out of range
        with pytest.raises(ValueError):
            pool.backward(np.array([0, 1]), np.array([1.0]), positions=3)  # wrong channel count

    def test_empty_position_axis_rejected(self):
        with pytest.raises(ShapeError):
            GlobalMaxPool().forward(np.zeros((2, 0)))


class TestPoolGradient:
    """Max pooling's backprop hands down a routed PoolGradient; it must give
    exactly what the dense upstream from ``GlobalMaxPool.backward`` gives."""

    @staticmethod
    def _tied(rng, shape):
        # half the instances repeat a period-3 pattern of columns, so their
        # conv outputs, and the maxima over them, tie across positions
        x = rng.uniform(-1, 1, shape)
        x[..., ::2, :, :] = x[..., ::2, :, np.arange(shape[-1]) % 3]
        return x

    @pytest.mark.parametrize("padding,width", [("none", 1), ("zero_same", 3)])
    @pytest.mark.parametrize("members,per_member", [(None, False), (1, False), (1, True), (5, False), (5, True)])
    def test_routed_gradient_equals_the_dense_one(self, padding, width, members, per_member):
        rng = np.random.default_rng(61)
        lead = () if members is None else (members,)
        conv = Conv1DLayer(rng.uniform(-1, 1, lead + (2, 3, width)), rng.uniform(-1, 1, lead + (2,)), padding=padding)
        x = self._tied(rng, lead * per_member + (8, 3, 12))
        pool = GlobalMaxPool()
        y, conv_cache = conv.step(x)
        pooled, pool_cache = pool.step(y)
        argmax, positions = pool_cache
        assert ((y == pooled[..., None]).sum(axis=-1) > 1).any()  # some argmax broke a tie
        up = rng.uniform(-1, 1, pooled.shape)

        routed, record = pool.backprop(pool_cache, up)
        assert record is None
        dense_up = pool.backward(argmax, up, positions)
        want = conv.backward(x, dense_up)
        for input_grad in (False, True):
            d_input, got = conv.backprop(conv_cache, routed, input_grad=input_grad)
            assert np.array_equal(got.d_filters, want.d_filters)
            assert np.array_equal(got.d_bias, want.d_bias)
            assert d_input is None if not input_grad else np.array_equal(d_input, want.d_input)

    # a lone input and output channel with width > 1 is left out: there each
    # tap's batch is the loop's innermost axis, which numpy sums pairwise,
    # while the gather adds it in index order
    @pytest.mark.parametrize("padding,width", [("none", 1), ("zero_same", 1), ("none", 3), ("zero_same", 3), ("none", 4)])
    @pytest.mark.parametrize("in_c,out_c", [(3, 2), (1, 3)])
    @pytest.mark.parametrize("members,per_member", [(None, False), (4, False), (4, True)])
    def test_gather_from_the_windows_equals_the_tap_loop(self, padding, width, in_c, out_c, members, per_member):
        rng = np.random.default_rng(73)
        lead = () if members is None else (members,)
        conv = Conv1DLayer(rng.uniform(-1, 1, lead + (out_c, in_c, width)), rng.uniform(-1, 1, lead + (out_c,)), padding=padding)
        pool = GlobalMaxPool()
        for trial in range(3):
            x = self._tied(rng, lead * per_member + (16, in_c, 12))
            x[x < -0.4] = -0.0
            y, conv_cache = conv.step(x)
            pooled, pool_cache = pool.step(y)
            assert ((y == pooled[..., None]).sum(axis=-1) > 1).any()  # some argmax broke a tie
            up = rng.uniform(-1, 1, pooled.shape)
            up[up < -0.5] = -0.0
            if trial == 0:
                up[..., 0] = -0.0  # channel 0's gradients are sums of signed zeros
            routed = pool.backprop(pool_cache, up)[0]
            want_d, want_b = loop_pooled_gradients(conv, x, routed)
            got = conv.backprop(conv_cache, routed, input_grad=False)[1]
            assert got.d_filters.shape == want_d.shape
            assert got.d_filters.tobytes() == want_d.tobytes()
            assert got.d_bias.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("shape", [(4, 32, 2, 12), (32, 2, 12), (2, 5), (3, 1, 7)])
    def test_dense_view_equals_backward(self, shape):
        rng = np.random.default_rng(67)
        pool = GlobalMaxPool()
        x = rng.integers(0, 3, shape) / 2.0  # three values: most maxima tie
        pooled, cache = pool.step(x)
        up = rng.uniform(-1, 1, pooled.shape)
        routed = pool.backprop(cache, up)[0]
        dense = pool.backward(cache[0], up, shape[-1])
        assert np.asarray(routed).tobytes() == dense.tobytes()
        assert np.asarray(routed, dtype=np.float64).shape == dense.shape

    @pytest.mark.parametrize("shape", [(4, 32, 2, 12), (2, 5), (3, 1, 7), (1, 6)])
    def test_flat_index_pooling_equals_take_along_axis(self, shape):
        rng = np.random.default_rng(71)
        x = rng.integers(0, 3, shape) / 2.0
        x[..., 0] = -0.0  # a tie between -0.0 and 0.0 keeps the first one's sign
        x[..., -1] = 0.0
        pooled, argmax = GlobalMaxPool().forward(x)
        want = np.take_along_axis(x, argmax[..., None], axis=-1)[..., 0]
        assert pooled.tobytes() == want.tobytes()
        assert pooled.shape == argmax.shape == shape[:-1]

    def test_routed_shapes_are_checked(self):
        pool = GlobalMaxPool()
        _, cache = pool.step(np.zeros((4, 2, 12)))
        with pytest.raises(ShapeError):
            pool.backprop(cache, np.zeros((4, 3)))
        conv = Conv1DLayer(np.zeros((2, 3, 1)), np.zeros(2), padding="none")
        _, conv_cache = conv.step(np.zeros((4, 3, 10)))  # 10 positions, not the 12 pooled
        with pytest.raises(ShapeError):
            conv.backprop(conv_cache, pool.backprop(cache, np.zeros((4, 2)))[0], input_grad=False)


class TestActivationsAndPlumbing:
    def test_sigmoid_stage_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        stage = Sigmoid()
        for _ in range(10):
            x = rng.uniform(-3, 3, 6)
            y = stage.forward(x)
            analytic = stage.backward(y, y)  # upstream y for L = 0.5 sum y^2
            assert max_rel_err(analytic, fd_grad(lambda p: quadratic_loss(stage.forward(p)), x)) <= 1e-6

    def test_reshape_round_trip(self):
        stage = Reshape((12, 3), (36,))
        x = np.arange(36.0).reshape(12, 3)
        assert np.array_equal(stage.backward(stage.forward(x)), x)

    def test_reshape_passes_batch_through(self):
        stage = Reshape((4,), (2, 2))
        assert stage.forward(np.zeros((7, 4))).shape == (7, 2, 2)

    def test_reshape_rejects_element_count_change(self):
        with pytest.raises(ShapeError):
            Reshape((4,), (3,))

    def test_reshape_rejects_unexpected_shape(self):
        with pytest.raises(ShapeError):
            Reshape((4,), (2, 2)).forward(np.zeros(5))

    def test_transpose_swaps_last_two_axes(self):
        stage = Transpose()
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(stage.forward(x), x.T)
        assert stage.forward(np.zeros((5, 2, 3))).shape == (5, 3, 2)
        assert np.array_equal(stage.backward(stage.forward(x)), x)


class TestConvSymmetries:
    def test_translation_equivariance_unpadded_is_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            layer = Conv1DLayer(rng.uniform(-1, 1, (2, 2, 3)), rng.uniform(-1, 1, 2), padding="none")
            x = rng.uniform(-1, 1, (2, 9))
            shifted = np.concatenate([np.zeros((2, 1)), x[:, :-1]], axis=1)
            y = layer.forward(x)
            y_shifted = layer.forward(shifted)
            assert np.array_equal(y_shifted[:, 1:], y[:, :-1])

    def test_translation_equivariance_zero_same_interior(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            width = 3
            layer = Conv1DLayer(rng.uniform(-1, 1, (1, 2, width)), rng.uniform(-1, 1, 1), padding="zero_same")
            x = rng.uniform(-1, 1, (2, 8))
            shifted = np.concatenate([np.zeros((2, 1)), x[:, :-1]], axis=1)
            y = layer.forward(x)
            y_shifted = layer.forward(shifted)
            k = (width - 1) // 2
            # positions whose receptive fields avoid the padding before and
            # after the shift
            for p in range(k + 1, 8 - k):
                assert np.array_equal(y_shifted[:, p], y[:, p - 1])

    def test_width_one_permutation_equivariance_is_bitwise(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            layer = Conv1DLayer(rng.uniform(-1, 1, (2, 3, 1)), rng.uniform(-1, 1, 2), padding="none")
            x = rng.uniform(-1, 1, (3, 12))
            perm = rng.permutation(12)
            assert np.array_equal(layer.forward(x[:, perm]), layer.forward(x)[:, perm])


class TestRunAxis:
    """Layers whose parameters carry a leading run axis compute, for each
    member, exactly what a plain layer holding that member's parameters does."""

    def test_dense_members_match_plain_layers_bit_for_bit(self):
        rng = np.random.default_rng(51)
        weights, bias = rng.uniform(-1, 1, (4, 24, 36)), rng.uniform(-1, 1, (4, 24))
        ensemble = DenseLayer(weights, bias)
        assert ensemble.runs == 4 and DenseLayer(weights[0], bias[0]).runs is None
        shared = rng.uniform(-1, 1, (32, 36))
        per_run = rng.uniform(-1, 1, (4, 32, 36))
        upstream = rng.uniform(-1, 1, (4, 32, 24))
        for x in (shared, per_run):
            y = ensemble.forward(x)
            g = ensemble.backward(x, upstream)
            assert y.shape == (4, 32, 24)
            for r in range(4):
                plain = DenseLayer(weights[r], bias[r])
                xr = x if x.ndim == 2 else x[r]
                gr = plain.backward(xr, upstream[r])
                assert np.array_equal(y[r], plain.forward(xr))
                assert np.array_equal(g.d_weights[r], gr.d_weights)
                assert np.array_equal(g.d_bias[r], gr.d_bias)
                assert np.array_equal(g.d_input[r], gr.d_input)

    @pytest.mark.parametrize("padding,width,in_c,out_c,positions", [("zero_same", 5, 1, 1, 5), ("none", 1, 3, 2, 12), ("zero_same", 3, 2, 2, 7)])
    def test_conv_members_match_plain_layers_bit_for_bit(self, padding, width, in_c, out_c, positions):
        rng = np.random.default_rng(53)
        filters, bias = rng.uniform(-1, 1, (3, out_c, in_c, width)), rng.uniform(-1, 1, (3, out_c))
        ensemble = Conv1DLayer(filters, bias, padding=padding)
        shared = rng.uniform(-1, 1, (6, in_c, positions))
        per_run = rng.uniform(-1, 1, (3, 6, in_c, positions))
        out_p = positions if padding == "zero_same" else positions - width + 1
        upstream = rng.uniform(-1, 1, (3, 6, out_c, out_p))
        for x in (shared, per_run):
            y = ensemble.forward(x)
            g = ensemble.backward(x, upstream)
            for r in range(3):
                plain = Conv1DLayer(filters[r], bias[r], padding=padding)
                xr = x if x.ndim == 3 else x[r]
                gr = plain.backward(xr, upstream[r])
                assert np.array_equal(y[r], plain.forward(xr))
                assert np.array_equal(g.d_filters[r], gr.d_filters)
                assert np.array_equal(g.d_bias[r], gr.d_bias)
                assert np.array_equal(g.d_input[r], gr.d_input)

    @pytest.mark.parametrize("members", [None, 3])
    @pytest.mark.parametrize("experiment", ["identity", "rule"])
    def test_training_reaches_the_conv_through_forward_and_backward(self, experiment, members, monkeypatch):
        # one forward_pass and one backward_pass call the conv's public
        # forward and backward once each, and its gradient record is
        # backward(x, up, input_grad=False) bit for bit
        forward, backward = Conv1DLayer.forward, Conv1DLayer.backward
        calls = []

        def counted_forward(self, x):
            calls.append("forward")
            return forward(self, x)

        def counted_backward(self, x, upstream, input_grad=True):
            calls.append("backward")
            return backward(self, x, upstream, input_grad)

        monkeypatch.setattr(Conv1DLayer, "forward", counted_forward)
        monkeypatch.setattr(Conv1DLayer, "backward", counted_backward)
        nets = [build_network(experiment, "conv", SeededRng(derive_seed(61, experiment, r))) for r in range(members or 1)]
        net = nets[0] if members is None else Network.stack(nets)
        data = make_dataset(experiment).train
        outputs, caches = net.forward_pass(data.inputs)
        d_out = LOSSES[net.loss](outputs, data.targets)[1]
        (record,) = net.backward_pass(caches, d_out)
        assert calls == ["forward", "backward"]

        # the conv is stage 1 of both nets, behind one parameter-free stage
        conv = net.stages[1]
        x = net.stages[0].forward(data.inputs)
        up = d_out
        for above, cache in zip(reversed(net.stages[2:]), reversed(caches[2:])):
            up = above.backprop(cache, up)[0]
        want = backward(conv, x, up, input_grad=False)
        assert np.array_equal(record.d_filters, want.d_filters)
        assert np.array_equal(record.d_bias, want.d_bias)
        assert record.d_input is None and want.d_input is None

    def test_pool_and_plumbing_pass_leading_axes_through(self):
        rng = np.random.default_rng(59)
        x = rng.uniform(-1, 1, (3, 4, 2, 12))
        pooled, argmax = GlobalMaxPool().forward(x)
        assert pooled.shape == argmax.shape == (3, 4, 2)
        upstream = rng.uniform(-1, 1, (3, 4, 2))
        d = GlobalMaxPool().backward(argmax, upstream, 12)
        for r in range(3):
            assert np.array_equal(pooled[r], GlobalMaxPool().forward(x[r])[0])
            assert np.array_equal(d[r], GlobalMaxPool().backward(argmax[r], upstream[r], 12))
        assert Reshape((24,), (2, 12)).forward(np.zeros((3, 4, 24))).shape == (3, 4, 2, 12)
        assert Reshape((24,), (2, 12)).backward(np.zeros((3, 4, 2, 12))).shape == (3, 4, 24)

    def test_run_axis_inputs_are_checked(self):
        layer = DenseLayer(np.zeros((2, 3, 4)), np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros(4))  # an ensemble takes batches only
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((5, 6, 4)))  # one batch per run, but 5 runs
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((6, 4)), np.zeros((6, 3)))  # upstream lacks the run axis
        with pytest.raises(ShapeError):
            DenseLayer(np.zeros((2, 3, 4)), np.zeros(3))
        with pytest.raises(ShapeError):
            Conv1DLayer(np.zeros((2, 1, 1, 3)), np.zeros(1), padding="none")
