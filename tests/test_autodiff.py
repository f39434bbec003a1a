"""Tensor engine semantics and gradient checks against finite differences."""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survtower import autodiff as ad
from survtower import gradcheck as gc
from survtower.errors import DimensionError, ConfigError, UsageError


def _leaves(arrays):
    return [ad.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]


def closure_values(fn):
    """What a backward closure holds: its cells, the cells of every function
    it wraps, and the items of every list or tuple among them."""
    values, stack = [], [fn]
    while stack:
        v = stack.pop()
        if isinstance(v, types.FunctionType):
            stack.extend(cell.cell_contents for cell in v.__closure__ or ())
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
        else:
            values.append(v)
    return values


def _check_op(builder, arrays, rng, n_samples=5, tolerance=1e-4):
    """Backprop grads of sum(w * builder(...)) vs central differences; the
    check asserts that a gradient reached every leaf."""
    results = gc.check_builder("op", builder, arrays, rng, n_samples=n_samples)
    worst = max(r.max_rel_error for r in results)
    assert worst <= tolerance, f"max relative error {worst:.3e}"


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 3))
        out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(b))
        np.testing.assert_allclose(out.data, b, rtol=1e-6)

    def test_hand_arithmetic(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[1.0], [1.0]])
        np.testing.assert_allclose(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
        with pytest.raises(DimensionError):
            ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((3, 4, 5))))

    def test_gradient_of_sum_is_transpose_broadcast(self):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
        b_arr = rng.standard_normal((3, 5))
        loss = ad.sum_over(ad.matmul(a, ad.Tensor(b_arr, dtype=np.float64)))
        ad.backward(loss)
        expected = np.broadcast_to(b_arr.sum(axis=1), (4, 3))
        np.testing.assert_allclose(a.grad, expected, rtol=1e-4)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m, k, n = rng.integers(1, 5, size=3)
            _check_op(ad.matmul, [rng.standard_normal((m, k)), rng.standard_normal((k, n))], rng)
            # batched: one weight for every batch entry, and broadcast leading axes
            _check_op(ad.matmul, [rng.standard_normal((2, m, k)), rng.standard_normal((k, n))], rng)
            _check_op(ad.matmul, [rng.standard_normal((2, 1, m, k)),
                                  rng.standard_normal((3, k, n))], rng)

    @pytest.mark.parametrize("a_shape", [(5, 3), (2, 5, 3), (2, 4, 5, 3)])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matrix_operand_matches_batched_rule(self, a_shape, transposed):
        # a (..., d) @ (d, k) product folds a's leading axes into one GEMM
        rng = np.random.default_rng(3)
        a_arr, b_arr = rng.standard_normal(a_shape), rng.standard_normal((3, 2))
        g = rng.standard_normal((*a_shape[:-1], 2))
        a, b = _leaves([a_arr, b_arr.T.copy() if transposed else b_arr])
        out = ad.matmul(a, ad.transpose(b) if transposed else b)
        ad.backward(ad.sum_over(ad.mul(out, g)))
        np.testing.assert_allclose(out.data, a_arr @ b_arr, rtol=1e-12)
        np.testing.assert_allclose(a.grad, g @ b_arr.T, rtol=1e-12)
        b_grad = (np.swapaxes(a_arr, -1, -2) @ g).reshape(-1, 3, 2).sum(axis=0)
        np.testing.assert_allclose(b.grad.T if transposed else b.grad, b_grad, rtol=1e-12)
        assert a.grad.shape == a_shape


class TestSumOfSquares:
    def test_value_and_gradient(self):
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal(5), rng.standard_normal((2, 1, 3))]
        leaves = _leaves(arrays[:2])
        const = ad.Tensor(arrays[2], dtype=np.float64)
        total = ad.sum_of_squares([*leaves, const])
        assert total.shape == ()
        assert total.item() == pytest.approx(sum(float((a * a).sum()) for a in arrays), rel=1e-12)
        ad.backward(ad.mul(total, 0.5))
        for leaf, arr in zip(leaves, arrays):
            np.testing.assert_array_equal(leaf.grad, arr)     # d(0.5 * sum x^2)/dx = x
        assert const.grad is None

    def test_one_tape_node_adds_in_order(self):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(7).astype(np.float32) for _ in range(3)]
        leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
        total = ad.sum_of_squares(leaves)
        assert total.dtype == np.float32 and total._node.parents == tuple(t._node for t in leaves)
        expected = (arrays[0] * arrays[0]).sum() + (arrays[1] * arrays[1]).sum() + (arrays[2] * arrays[2]).sum()
        assert total.data == expected

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            ad.sum_of_squares([])


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 1, 2, 3, 4))
        k = np.ones((1, 1, 1, 1, 1))
        out = ad.conv3d(ad.Tensor(x), ad.Tensor(k))
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_counting_kernel(self):
        x = np.ones((1, 1, 2, 2, 2))
        k = np.ones((1, 1, 2, 2, 2))
        out = ad.conv3d(ad.Tensor(x), ad.Tensor(k))
        assert out.shape == (1, 1, 1, 1, 1)
        assert out.item() == pytest.approx(8.0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channel"):
            ad.conv3d(ad.Tensor(np.ones((1, 2, 3, 3, 3))), ad.Tensor(np.ones((1, 3, 1, 1, 1))))

    def test_non_positive_output(self):
        with pytest.raises(ConfigError, match="positive"):
            ad.conv3d(ad.Tensor(np.ones((1, 1, 2, 2, 2))), ad.Tensor(np.ones((1, 1, 3, 3, 3))))

    def test_gradcheck_spec_case(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 3, 4, 4))
        k = rng.standard_normal((2, 2, 2, 2, 2))
        _check_op(ad.conv3d, [x, k], rng, n_samples=8)

    @pytest.mark.parametrize("stride, padding, name", [
        (0, 0, "stride"), ((1, 0, 2), 1, "stride"), ((1, 2, -1), 1, "stride"),
        ((1, 2), 1, "stride"), ((1, 1.5, 1), 1, "stride"), (1, -1, "padding"), (1, (0, 0, -1), "padding"),
    ])
    def test_rejects_bad_stride_and_padding(self, stride, padding, name):
        with pytest.raises(ConfigError, match=name):
            ad.conv3d(ad.Tensor(np.ones((1, 1, 3, 3, 3))), ad.Tensor(np.ones((1, 1, 1, 1, 1))),
                      stride=stride, padding=padding)

    # c == 1 takes the im2col forward, c > 1 the per-offset one
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("x_dtype, k_dtype", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
    ])
    def test_keeps_dtypes(self, c, x_dtype, k_dtype):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((2, c, 3, 5, 5)), requires_grad=True, dtype=x_dtype)
        k = ad.Tensor(rng.standard_normal((4, c, 3, 3, 3)), requires_grad=True, dtype=k_dtype)
        out = ad.conv3d(x, k, stride=(1, 2, 2), padding=1)
        ad.backward(ad.sum_over(out))
        assert out.dtype == x_dtype
        assert x.grad.dtype == x_dtype
        assert k.grad.dtype == k_dtype

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_gradcheck_strided_padded(self, c):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ko = int(rng.integers(1, 3))
            x = rng.standard_normal((2, c, 4, 5, 5))
            k = rng.standard_normal((ko, c, 2, 3, 3))
            stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
            _check_op(
                lambda a, b, s=stride: ad.conv3d(a, b, stride=s, padding=1),
                [x, k], rng, n_samples=4,
            )

    # kernel 3 at padding <= 2 takes the stride-1 correlation for dx;
    # kernel 1 at padding 1 has padding > k-1 and takes the scatter
    @pytest.mark.parametrize("k, padding", [(3, 0), (3, 1), (3, 2), (1, 1)])
    def test_stride1_input_gradient_matches_finite_differences(self, k, padding):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2, 3, 4, 5))
        kernel = ad.Tensor(rng.standard_normal((3, 2, k, k, k)), dtype=np.float64)
        leaf = ad.Tensor(x, requires_grad=True, dtype=np.float64)
        out = ad.conv3d(leaf, kernel, stride=1, padding=padding)
        w = rng.standard_normal(out.shape)
        ad.backward(ad.sum_over(ad.mul(out, w)))

        def loss(arr):
            return float((ad.conv3d(ad.Tensor(arr, dtype=np.float64), kernel, padding=padding).data * w).sum())

        step = 1e-6
        expected = np.empty_like(x)
        for i in np.ndindex(x.shape):
            hi, lo = x.copy(), x.copy()
            hi[i] += step
            lo[i] -= step
            expected[i] = (loss(hi) - loss(lo)) / (2 * step)
        np.testing.assert_allclose(leaf.grad, expected, rtol=1e-6, atol=1e-8)

    # at 512-byte tiles every float64 conv below spans at least four tiles,
    # and each sample's frames end on a shorter run than the first
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("stride", [1, (1, 2, 2), (2, 1, 3)])
    def test_tile_seams(self, monkeypatch, c, stride):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, c, 13, 4, 4))
        k = rng.standard_normal((2, c, 3, 3, 3))
        with ad.no_grad():
            n, ko, *dims = ad.conv3d(ad.Tensor(x), ad.Tensor(k), stride=stride, padding=1).shape
        w = rng.standard_normal((n, ko, *dims))

        def run(dtype):
            leaves = [ad.Tensor(a, requires_grad=True, dtype=dtype) for a in (x, k)]
            out = ad.conv3d(*leaves, stride=stride, padding=1)
            ad.backward(ad.sum_over(ad.mul(out, w)))
            return [out.data] + [leaf.grad for leaf in leaves]

        dtypes = {np.float32: 1e-5, np.float64: 1e-12}
        whole = {dtype: run(dtype) for dtype in dtypes}
        monkeypatch.setattr(ad, "BLOCK_BYTES", 512)
        frames = [tile.shape[1] for _, _, tile, _ in ad._tiles(np.empty((n, *dims, ko)), 1)]
        assert len(frames) >= 4 and frames[-1] < frames[0]
        for dtype, rtol in dtypes.items():
            out, *grads = run(dtype)
            np.testing.assert_array_equal(out, whole[dtype][0])
            for got, want in zip(grads, whole[dtype][1:]):
                np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())
        _check_op(lambda a, b: ad.conv3d(a, b, stride=stride, padding=1), [x, k], rng, n_samples=8)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(ad.Tensor([1.0, 1.0, 1.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-6)

    def test_no_overflow_on_large_logits(self):
        out = ad.softmax(ad.Tensor([0.0, 1e4]), axis=-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_reference_values(self):
        out = ad.softmax(ad.Tensor([1.0, 2.0, 3.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            ad.softmax(ad.Tensor([1.0, 2.0]), axis=3)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = ad.softmax(ad.Tensor(np.array([row])), axis=-1)
        assert abs(out.data.sum() - 1.0) <= 1e-6
        assert np.all(out.data > 0) and np.all(out.data < 1 + 1e-9)

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rows, cols = rng.integers(1, 6, size=2)
            _check_op(lambda t: ad.softmax(t, axis=-1), [rng.standard_normal((rows, cols))], rng)


class TestAttention:
    def test_matches_composed_ops(self):
        # the fused op against softmax(q k^T / sqrt(h)) v built from the
        # separate tape ops, head by head, with its weights
        rng = np.random.default_rng(31)
        n, m, heads, h = 2, 4, 3, 2
        qkv = rng.standard_normal((n, m, 3 * heads * h))
        out, weights = ad.attention(ad.Tensor(qkv, dtype=np.float64), heads)
        q, k, v = qkv.reshape(n, m, 3, heads, h).transpose(2, 0, 3, 1, 4)
        expected_w = ad.softmax(ad.mul(ad.matmul(q, k.swapaxes(-1, -2)), 1 / np.sqrt(h)), axis=-1)
        expected = ad.matmul(expected_w, v).data.transpose(0, 2, 1, 3).reshape(n, m, heads * h)
        np.testing.assert_allclose(weights.data, expected_w.data, rtol=1e-12)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)
        assert not weights.requires_grad

    @pytest.mark.parametrize("shape", [(2, 3, 10), (3, 12)])
    def test_rejects_unsplittable_shapes(self, shape):
        with pytest.raises(DimensionError, match="2 heads"):
            ad.attention(ad.Tensor(np.zeros(shape)), 2)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = ad.layer_norm(ad.Tensor([[5.0, 5.0, 5.0]]), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_row(self):
        out = ad.layer_norm(ad.Tensor([[1.0, 3.0]]), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))
        # variance 1, eps 1e-5 pulls magnitudes just under 1
        np.testing.assert_allclose(out.data, [[-0.999995, 0.999995]], atol=1e-6)

    def test_normalized_statistics(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 16))
        out = ad.layer_norm(ad.Tensor(x, dtype=np.float64), ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16)))
        means = out.data.mean(axis=-1)
        variances = out.data.var(axis=-1)
        assert np.max(np.abs(means)) <= 1e-6
        assert np.max(np.abs(variances - 1.0)) <= 1e-3

    def test_mismatched_affine(self):
        with pytest.raises(DimensionError):
            ad.layer_norm(ad.Tensor(np.ones((2, 4))), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(4)))

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 8))
            arrays = [rng.standard_normal((rows, cols)), rng.standard_normal(cols), rng.standard_normal(cols)]
            _check_op(ad.layer_norm, arrays, rng)


class TestElementwise:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    @pytest.mark.parametrize("const", [0.5, np.float64(0.5), np.array(0.5), np.ones(3)])
    def test_constant_takes_tensor_dtype(self, op, const):
        t = ad.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        for out in (op(t, const), op(const, t)):
            assert out.dtype == np.float32
        ad.backward(ad.sum_over(op(t, const)))
        assert t.grad.dtype == np.float32

    def test_sigmoid_center(self):
        assert ad.sigmoid(ad.Tensor([0.0])).item() == pytest.approx(0.5)

    def test_sigmoid_stable(self):
        out = ad.sigmoid(ad.Tensor([-1e4, 1e4]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_mean_over_constant(self):
        t = ad.Tensor(np.full((2, 3, 4), 3.0))
        assert ad.mean_over(t, (0, 2)).data == pytest.approx(np.full(3, 3.0))

    def test_concat_shapes(self):
        out = ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 5)))], axis=1)
        assert out.shape == (2, 8)

    def test_concat_disagreeing_shapes(self):
        with pytest.raises(DimensionError):
            ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 3)))], axis=1)

    def test_incompatible_broadcast(self):
        with pytest.raises(DimensionError):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4))))

    def test_gradcheck_broadcast_ops(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((2, 3, 4))
            b = rng.standard_normal((3, 1))
            _check_op(ad.add, [a, b], rng)
            _check_op(ad.mul, [a, b], rng)
            _check_op(ad.sub, [a, b], rng)

    def test_gradcheck_unary(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            shape = tuple(rng.integers(1, 5, size=2))
            # keep relu inputs away from the kink
            x = rng.uniform(0.1, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            _check_op(ad.relu, [x], rng)
            _check_op(ad.sigmoid, [rng.standard_normal(shape)], rng)
            _check_op(lambda t: ad.mean_over(t, (0,)), [rng.standard_normal(shape)], rng)
            _check_op(lambda t: ad.sum_over(t), [rng.standard_normal(shape)], rng)
            _check_op(lambda t: ad.transpose(t), [rng.standard_normal(shape)], rng)
            _check_op(lambda t: ad.reshape(t, (-1,)), [rng.standard_normal(shape)], rng)

    def test_gradcheck_concat(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((2, 2))
            _check_op(lambda x, y: ad.concat([x, y], axis=1), [a, b], rng)

    def test_gather_rows_gradient_hits_only_taken_rows(self):
        rng = np.random.default_rng(12)
        w = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True, dtype=np.float64)
        out = ad.gather_rows(w, [1, 4, 1])
        ad.backward(ad.sum_over(out))
        expected = np.zeros((6, 3))
        expected[1] = 2.0  # taken twice
        expected[4] = 1.0
        np.testing.assert_allclose(w.grad, expected)


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.sum_over(x))
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gives_2x(self):
        arr = np.arange(1.0, 7.0).reshape(2, 3)
        x = ad.Tensor(arr, requires_grad=True)
        ad.backward(ad.sum_over(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * arr, rtol=1e-6)

    def test_accumulation_over_paths(self):
        x = ad.Tensor([2.0], requires_grad=True)
        y = ad.add(ad.mul(x, 3.0), ad.mul(x, x))
        ad.backward(ad.sum_over(y))
        np.testing.assert_allclose(x.grad, [7.0], rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError, match="scalar"):
            ad.backward(ad.mul(x, 2.0))

    def test_double_backward_rejected(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        loss = ad.sum_over(x)
        ad.backward(loss)
        with pytest.raises(UsageError, match="already"):
            ad.backward(loss)

    def test_backward_on_consumed_subgraph_rejected(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        mid = ad.mul(x, 2.0)
        ad.backward(ad.sum_over(mid))
        with pytest.raises(UsageError):
            ad.backward(ad.sum_over(ad.mul(mid, 3.0)))

    def test_no_grad_suppresses_recording(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = ad.mul(x, 2.0)
        assert out._backward_fn is None and not out.requires_grad

    def test_replaced_backward_fn_runs_once(self):
        # the hook a tracer uses: read an output's closure, replace it with a wrapper
        rng = np.random.default_rng(15)
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]
        w = rng.standard_normal((3, 2))

        def grads(wrap):
            a, b = _leaves(arrays)
            out = ad.matmul(a, b)
            calls = []
            if wrap:
                inner = out._backward_fn

                def counting(g):
                    calls.append(g.shape)
                    inner(g)

                out._backward_fn = counting
            # two paths into out: its closure still runs once, on the summed gradient
            ad.backward(ad.add(ad.sum_over(ad.mul(out, w)), ad.sum_over(out)))
            return a.grad, b.grad, calls

        a_ref, b_ref, _ = grads(wrap=False)
        a_grad, b_grad, calls = grads(wrap=True)
        assert calls == [(3, 2)]
        np.testing.assert_array_equal(a_grad, a_ref)
        np.testing.assert_array_equal(b_grad, b_ref)

    def test_no_backward_closure_holds_a_tensor(self, monkeypatch):
        # a closure that held a Tensor would keep its value alive on the tape
        recorded = []
        record = ad._record

        def spy(out, parents, backward_fn):
            out = record(out, parents, backward_fn)
            if out._backward_fn is not None:
                recorded.append(out._backward_fn)
            return out

        monkeypatch.setattr(ad, "_record", spy)
        results = gc.op_checks(0, instances=1)
        assert all(r.passed for r in results)
        ops = {fn.__qualname__.split(".")[0] for fn in recorded}
        assert ops >= {r.name.split("[")[0] for r in results}
        for fn in recorded:
            held = [type(v).__name__ for v in closure_values(fn) if isinstance(v, ad.Tensor)]
            assert not held, f"{fn.__qualname__} holds {held}"

    def test_constant_has_no_node(self):
        t = ad.Tensor(np.ones(3))
        assert t._node is None and t.grad is None and t._backward_fn is None
        t.grad = None
        with pytest.raises(UsageError, match="grad"):
            t.grad = np.ones(3)

    def test_forward_determinism(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        k = rng.standard_normal((4, 2)).astype(np.float32)
        a = ad.softmax(ad.matmul(ad.Tensor(x), ad.Tensor(k)), axis=-1).data
        b = ad.softmax(ad.matmul(ad.Tensor(x), ad.Tensor(k)), axis=-1).data
        assert np.array_equal(a, b)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(14)
        x = ad.Tensor(rng.standard_normal((2, 3, 4, 4, 4)) * 50)
        k = ad.Tensor(rng.standard_normal((2, 3, 3, 3, 3)))
        out = ad.conv3d(x, k, padding=1)
        out = ad.sigmoid(out)
        assert np.all(np.isfinite(out.data))
