"""Tensor engine semantics and gradient checks against finite differences."""

import contextlib
import inspect
import multiprocessing
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survtower import autodiff as ad
from survtower import gradcheck as gc
from survtower.errors import DimensionError, ConfigError, UsageError


# every public function of autodiff but these is a differentiable op
NOT_OPS = {"as_tensor", "backward", "no_grad", "overlap"}
OPS = sorted(name for name, fn in vars(ad).items()
             if inspect.isfunction(fn) and fn.__module__ == ad.__name__
             and not name.startswith("_") and name not in NOT_OPS)


def _leaves(arrays):
    return [ad.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]


def closure_values(fn):
    """What a backward closure holds: its cells and default arguments, those
    of every function it wraps, and the items of every list or tuple among
    them."""
    values, stack = [], [fn]
    while stack:
        v = stack.pop()
        if isinstance(v, types.FunctionType):
            stack.extend(cell.cell_contents for cell in v.__closure__ or ())
            stack.extend(v.__defaults__ or ())
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
        else:
            values.append(v)
    return values


def _kept(out) -> list:
    """The ids of the arrays that ``out``'s backward closure holds, sorted."""
    return sorted(id(v) for v in closure_values(out._backward_fn) if isinstance(v, np.ndarray))


def _check_op(builder, arrays, rng, n_samples=5):
    """Backprop grads of sum(w * builder(...)) vs central differences; the
    check raises UsageError when a gradient misses a leaf."""
    results = gc.check_builder("op", builder, arrays, rng, n_samples=n_samples)
    failed = [f"{r.name}: {r.max_rel_error:.3e}" for r in results if not r.passed]
    assert not failed, failed


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
            # batched: one weight for every batch entry
            _check_op(ad.matmul, [rng.standard_normal((2, m, k)), rng.standard_normal((k, n))], rng)

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


def _reference_tiles(arr):
    """The spans of the tiles that the kernel gradient and the strided input
    gradient sum over, as ``ad._tiles`` cuts them."""
    n, f = arr.shape[:2]
    step = max(1, ad.BLOCK_BYTES // arr[0, 0].nbytes)
    if step >= f:
        return [(slice(i, i + step // f), 0, f) for i in range(0, n, step // f)]
    return [(slice(i, i + 1), j, min(step, f - j)) for i in range(n) for j in range(0, f, step)]


def _reference_conv3d(x, k, stride, padding, g):
    """conv3d's output, input gradient and kernel gradient for output
    gradient ``g``, made one kernel offset at a time: one product and one
    add per offset and tile, in offset order, over the same tiles. The
    stride-1 kernel gradient instead makes one product per offset and
    output frame, in frame order, of the offset's m flat rows of the padded
    input with g's rows laid on that row grid, zero off the outputs."""
    strides, pads = ad._triple(stride, "stride", 1), ad._triple(padding, "padding", 0)
    (n, c, *in_dims), (ko, _, *ksize), dims = x.shape, k.shape, g.shape[2:]
    offsets = list(np.ndindex(*ksize))
    kl = np.ascontiguousarray(k.transpose(2, 3, 4, 1, 0), dtype=x.dtype)
    xl = ad._padded(x.transpose(0, 2, 3, 4, 1), pads)

    def correlate(src, kernels, stride, dims):
        out = np.zeros((src.shape[0], *dims, kernels.shape[-1]), src.dtype)
        for samples, frame, frames in _reference_tiles(out):
            tile = out[samples, frame:frame + frames]
            for offset in offsets:
                tile += ad._window(src, offset, stride, tile.shape[1:4], samples, frame) @ kernels[offset]
        return out

    if c == 1:
        cols = np.stack([ad._window(xl, offset, strides, dims)[..., 0] for offset in offsets], axis=1)
        out = (kl.reshape(-1, ko).T @ cols.reshape(n, len(offsets), -1)).reshape(n, ko, *dims)
    else:
        out = correlate(xl, kl, strides, dims).transpose(0, 4, 1, 2, 3)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 4, 1))
    dkl = np.zeros_like(kl)
    flip_pads = tuple(s - 1 - p for s, p in zip(ksize, pads))
    if strides == (1, 1, 1) and min(flip_pads) >= 0:
        hp, wp = xl.shape[2:4]
        m = (dims[1] - 1) * wp + dims[2]
        for s, f in np.ndindex(n, dims[0]):
            grid = np.zeros((dims[1], wp, ko), x.dtype)
            grid[:, :dims[2]] = g2[s, f]
            for a, b, e in offsets:
                start = ((f + a) * hp + b) * wp + e
                dkl[a, b, e] += xl[s].reshape(-1, c)[start:start + m].T @ grid.reshape(-1, ko)[:m]
        flipped = np.ascontiguousarray(kl[::-1, ::-1, ::-1].swapaxes(3, 4))
        dx = correlate(ad._padded(g2, flip_pads), flipped, (1, 1, 1), in_dims).transpose(0, 4, 1, 2, 3)
    else:
        dxl = np.zeros((n, *(d + 2 * p for d, p in zip(in_dims, pads)), c), x.dtype)
        for samples, frame, frames in _reference_tiles(g2):
            tile = g2[samples, frame:frame + frames]
            for offset in offsets:
                window = np.ascontiguousarray(ad._window(xl, offset, strides, tile.shape[1:4], samples, frame))
                dkl[offset] += window.reshape(-1, c).T @ tile.reshape(-1, ko)
        for samples, frame, frames in _reference_tiles(g2):
            tile = g2[samples, frame:frame + frames]
            for offset in offsets:
                prod = (tile.reshape(-1, ko) @ kl[offset].T).reshape(*tile.shape[:-1], c)
                ad._window(dxl, offset, strides, tile.shape[1:4], samples, frame).__iadd__(prod)
        dx = dxl[ad._interior(pads, in_dims)].transpose(0, 4, 1, 2, 3)
    return out, dx, dkl.transpose(4, 3, 0, 1, 2)


class TestConvLoops:
    @pytest.mark.parametrize("stride", [1, (1, 2, 2), (2, 1, 3)])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_window_view_is_each_offsets_window(self, stride, padding):
        rng = np.random.default_rng(10)
        strides, pads, ksize = ad._triple(stride, "stride", 1), (padding,) * 3, (3, 2, 3)
        arr = ad._padded(rng.standard_normal((4, 9, 7, 8, 2)), pads)
        dims = tuple((d - k) // s + 1 for d, k, s in zip(arr.shape[1:4], ksize, strides))
        view = ad._windows(arr, ksize, strides, dims)
        assert view.shape == (*ksize, 4, *dims, 2) and not view.flags.writeable
        assert np.shares_memory(view, arr)
        # the whole array, and a tile of two samples whose frames start inside them
        for samples, frame in ((slice(None), 0), (slice(1, 3), 1)):
            tile_dims = (dims[0] - frame, *dims[1:])
            for offset in np.ndindex(ksize):
                np.testing.assert_array_equal(view[offset][samples, frame:],
                                              ad._window(arr, offset, strides, tile_dims, samples, frame))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_flat_rows_are_each_offsets_window(self, padding):
        rng = np.random.default_rng(11)
        ksize, pads = (3, 2, 3), (padding,) * 3
        arr = rng.standard_normal((2, 5, 6, 7, 3))
        dims = tuple(d + 2 * padding - k + 1 for d, k in zip(arr.shape[1:4], ksize))
        wp = arr.shape[3] + 2 * padding
        m = (dims[1] - 1) * wp + dims[2]
        padded, rows = ad._flat_rows(arr, pads, m)
        np.testing.assert_array_equal(padded, ad._padded(arr, pads))
        assert rows.shape == (*padded.shape, m) and not rows.flags.writeable
        assert np.shares_memory(rows, padded)
        # the rows of the outputs, skipping the k-1 columns of each line that have none
        out_rows = (np.arange(dims[1])[:, None] * wp + np.arange(dims[2])).ravel()
        for s, f in np.ndindex(2, dims[0]):
            for a, b, e in np.ndindex(ksize):
                window = ad._window(padded, (a, b, e), (1, 1, 1), (1, *dims[1:]), slice(s, s + 1), f)
                np.testing.assert_array_equal(rows[s, f + a, b, e].T[out_rows], window.reshape(-1, 3))

    # desk's stride-1 c16-16 layer, a (1, 2, 2)-strided c16-32 one and the
    # stem; the stride-1 flat rows without padding, over an output of one
    # frame, and over desk's 3x3 plane
    @pytest.mark.parametrize("x_shape, k_shape, stride, padding", [
        ((4, 16, 8, 12, 12), (16, 16, 3, 3, 3), 1, 1),
        ((4, 16, 8, 12, 12), (32, 16, 3, 3, 3), (1, 2, 2), 1),
        ((4, 1, 8, 24, 24), (16, 1, 3, 3, 3), (1, 2, 2), 1),
        ((3, 5, 6, 7, 9), (4, 5, 3, 2, 3), 1, 0),
        ((3, 8, 1, 7, 5), (6, 8, 3, 3, 3), 1, 1),
        ((16, 64, 8, 3, 3), (64, 64, 3, 3, 3), 1, 1),
    ], ids=["c16-16.s1", "c16-32.s2", "stem", "s1.pad0", "s1.one-frame", "c64-64.p3.s1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block_bytes", [None, 512])
    def test_same_bytes_as_one_call_per_offset(self, monkeypatch, x_shape, k_shape, stride, padding, dtype,
                                               block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(ad, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(12)
        x, k = rng.standard_normal(x_shape).astype(dtype), rng.standard_normal(k_shape).astype(dtype)
        leaves = [ad.Tensor(a, requires_grad=True) for a in (x, k)]
        out = ad.conv3d(*leaves, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(dtype)
        ad.backward(ad.sum_over(ad.mul(out, g)))
        got = [out.data, *(leaf.grad for leaf in leaves)]
        for name, a, b in zip(("output", "input gradient", "kernel gradient"), got,
                              _reference_conv3d(x, k, stride, padding, g)):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == np.ascontiguousarray(b).tobytes(), name


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
        # the fused op's forward against softmax(q k^T / sqrt(h)) v, with
        # numpy's products, head by head, and its weights
        rng = np.random.default_rng(31)
        n, m, heads, h = 2, 4, 3, 2
        qkv = rng.standard_normal((n, m, 3 * heads * h))
        out, weights = ad.attention(ad.Tensor(qkv, dtype=np.float64), heads)
        q, k, v = qkv.reshape(n, m, 3, heads, h).transpose(2, 0, 3, 1, 4)
        expected_w = ad.softmax(ad.mul(q @ k.swapaxes(-1, -2), 1 / np.sqrt(h)), axis=-1)
        expected = (expected_w.data @ v).transpose(0, 2, 1, 3).reshape(n, m, heads * h)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_mean_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(15)
        x, gain, bias, g = (rng.standard_normal(s).astype(dtype) for s in [(32, 6, 48), (48,), (48,), (32, 6, 48)])
        t = ad.Tensor(x, requires_grad=True)
        out = ad.layer_norm(t, ad.Tensor(gain), ad.Tensor(bias))
        ad.backward(ad.sum_over(ad.mul(out, g)))

        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LN_EPS)
        xhat = xc * inv
        gy = g * gain
        dx = inv * (gy - gy.mean(axis=-1, keepdims=True) - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
        assert np.array_equal(out.data, xhat * gain + bias)
        assert np.array_equal(t.grad, dx)


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

    @pytest.mark.parametrize("reduce, axes, bad", [
        (ad.mean_over, 3, 3), (ad.sum_over, (5,), 5), (ad.sum_over, (0, -4), -4), (ad.softmax, 3, 3),
    ], ids=["mean_over 3", "sum_over 5", "sum_over -4", "softmax 3"])
    def test_out_of_range_axis_rejected(self, reduce, axes, bad):
        # wrapped modulo ndim, axis 3 would reduce axis 0 and axis 5 axis 2
        with pytest.raises(DimensionError, match=rf"axis {bad} is out of range for shape \(2, 3, 4\)"):
            reduce(ad.Tensor(np.ones((2, 3, 4))), axes)
        assert ad.mean_over(ad.Tensor(np.ones((2, 3, 4))), -3).shape == (3, 4)

    def test_concat_shapes(self):
        out = ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 5)))], axis=1)
        assert out.shape == (2, 8)

    def test_concat_disagreeing_shapes(self):
        with pytest.raises(DimensionError):
            ad.concat([ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 3)))], axis=1)

    @pytest.mark.parametrize("op, match", [
        (lambda t: ad.concat([t, t], axis=5), r"axis 5 is out of range"),
        (lambda t: ad.transpose(t, (0, 1, 5)), r"axis 5 is out of range"),
        (lambda t: ad.transpose(t, (0, 1, 1)), r"duplicate axes"),
        (lambda t: ad.transpose(t, (0, 1)), r"do not permute"),
    ], ids=["concat axis 5", "transpose (0, 1, 5)", "transpose (0, 1, 1)", "transpose (0, 1)"])
    def test_bad_concat_axis_or_transpose_permutation_rejected(self, op, match):
        with pytest.raises(DimensionError, match=match):
            op(ad.Tensor(np.ones((2, 3, 4))))

    def test_negative_axes(self):
        t = ad.Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True, dtype=np.float64)
        assert ad.concat([t, t], axis=-1).shape == (2, 3, 8)
        out = ad.transpose(t, (0, -1, 1))
        assert out.shape == (2, 4, 3)
        ad.backward(ad.sum_over(ad.mul(out, out.data)))
        np.testing.assert_array_equal(t.grad, t.data)

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
        # a closure that held a Tensor would keep its value alive on the tape;
        # each closure is named by the public op that recorded it
        recorded = []

        def spy(name, op):
            def wrapper(*args, **kwargs):
                out = op(*args, **kwargs)
                tensor = out[0] if isinstance(out, tuple) else out    # attention's output
                if tensor._backward_fn is not None:
                    recorded.append((name, tensor._backward_fn))
                return out
            return wrapper

        for name in OPS:
            monkeypatch.setattr(ad, name, spy(name, getattr(ad, name)))
        results = gc.op_checks(0, instances=1)
        assert all(r.passed for r in results)
        assert {name for name, _ in recorded} >= {r.name.split("[")[0] for r in results}
        for name, fn in recorded:
            held = [type(v).__name__ for v in closure_values(fn) if isinstance(v, ad.Tensor)]
            assert not held, f"{name} holds {held}"

    def test_every_op_has_a_gradcheck_case(self):
        # finite differences are the oracle for every backward
        checked = {r.name.split("[")[0] for r in gc.op_checks(0, instances=1)}
        assert sorted(set(OPS) - checked) == []

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "matmul"])
    @pytest.mark.parametrize("needs", [(True, True), (True, False), (False, True)], ids=["both", "a", "b"])
    def test_two_input_closure_keeps_each_operand_only_for_the_other(self, op, needs):
        rng = np.random.default_rng(16)
        a, b = (ad.Tensor(rng.standard_normal((3, 3)), requires_grad=r, dtype=np.float64) for r in needs)
        out = getattr(ad, op)(a, b)
        # add and sub keep no operand
        held = [] if op in ("add", "sub") else [a.data] * needs[1] + [b.data] * needs[0]
        assert _kept(out) == sorted(map(id, held))

    @pytest.mark.parametrize("op", ["relu", "sigmoid", "softmax", "mean_over", "sum_over", "reshape",
                                    "transpose", "gather_rows", "attention"])
    def test_one_input_closure_keeps_only_what_its_gradient_reads(self, op):
        rng = np.random.default_rng(17)
        x = ad.Tensor(rng.standard_normal((2, 3, 12)), requires_grad=True, dtype=np.float64)
        rows = np.array([0, 2, 2])
        out = {
            "relu": lambda: ad.relu(x), "sigmoid": lambda: ad.sigmoid(x),
            "softmax": lambda: ad.softmax(x), "mean_over": lambda: ad.mean_over(x, (0, 2)),
            "sum_over": lambda: ad.sum_over(x), "reshape": lambda: ad.reshape(x, (6, 12)),
            "transpose": lambda: ad.transpose(x, (1, 2, 0)),
            "gather_rows": lambda: ad.gather_rows(ad.Tensor(x.data[0], requires_grad=True), rows),
            "attention": lambda: ad.attention(x, 2),
        }[op]()
        if op == "attention":
            out, weights = out
            # q, k and v, each a view of the input, and the weights
            views = [v for v in closure_values(out._backward_fn)
                     if isinstance(v, np.ndarray) and v.base is x.data]
            assert _kept(out) == sorted(map(id, [*views, weights.data])) and len(views) == 3
        elif op in ("relu", "sigmoid", "softmax"):
            assert _kept(out) == [id(out.data)]
        elif op == "transpose":
            kept = [v for v in closure_values(out._backward_fn) if isinstance(v, np.ndarray)]
            assert [v.tolist() for v in kept] == [[2, 0, 1]]    # the inverse permutation
        elif op == "gather_rows":
            assert _kept(out) == [id(rows)]
        else:
            assert _kept(out) == []

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


class TestOverlap:
    def test_side_runs_on_the_worker_and_main_here(self):
        side, main = ad.overlap(threading.current_thread, threading.current_thread)
        assert main is threading.current_thread() and side is not main

    def test_nested_call_returns(self, no_thread_outlives):
        # a nested call that queued behind its own task would never return
        nested = lambda: ad.overlap(threading.current_thread, threading.current_thread)  # noqa: E731
        got = []
        caller = threading.Thread(
            target=lambda: got.append(ad.overlap(nested, threading.current_thread)), daemon=True
        )
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive(), "a nested overlap call did not return"
        (side, main), outer_main = got[0]
        # the outer side's thread is the nested call's main
        assert outer_main is caller and main is not caller and side is not main
        no_thread_outlives()

    def test_concurrent_callers_get_their_own_results(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        got = {}

        def caller(i):
            got[i] = [ad.overlap(lambda: np.full(1000, i).sum(), lambda: np.full(10, i).sum()) for _ in range(50)]

        try:
            threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {i: [(1000 * i, 10 * i)] * 50 for i in range(4)}

    @pytest.mark.parametrize("grad_enabled", [True, False])
    def test_side_runs_in_the_callers_grad_mode(self, grad_enabled):
        leaf = ad.Tensor(np.ones(3), requires_grad=True)
        with contextlib.nullcontext() if grad_enabled else ad.no_grad():
            out, _ = ad.overlap(lambda: ad.mul(leaf, 2.0), lambda: None)
        assert out.requires_grad is grad_enabled

    def test_side_error_is_raised_here(self, no_thread_outlives):
        def fail():
            raise ConfigError("side failed")

        with pytest.raises(ConfigError, match="side failed"):
            ad.overlap(fail, lambda: None)
        no_thread_outlives()

    def test_main_error_waits_for_the_side(self, no_thread_outlives):
        done = threading.Event()

        def slow():
            time.sleep(0.2)
            done.set()

        def fail():
            raise ConfigError("main failed")

        with pytest.raises(ConfigError, match="main failed"):
            ad.overlap(slow, fail)
        assert done.is_set()
        no_thread_outlives()

    def test_forked_child_gets_its_own_worker(self):
        ad.overlap(lambda: None, lambda: None)      # the parent has called overlap before the fork
        ctx = multiprocessing.get_context("fork")
        results = ctx.SimpleQueue()
        child = ctx.Process(target=lambda: results.put(ad.overlap(lambda: 1, lambda: 2)), daemon=True)
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0 and results.get() == (1, 2)


class TestSettings:
    """``no_grad`` sets this thread's grad mode for its block only."""

    @staticmethod
    def settings():
        return {"grad_enabled": ad._state.grad_enabled}

    @pytest.mark.parametrize("block, inside", [(ad.no_grad, {"grad_enabled": False})])
    def test_block_raising_restores_the_setting(self, block, inside):
        with pytest.raises(ConfigError, match="block failed"):
            with block():
                assert self.settings() == inside
                raise ConfigError("block failed")
        assert self.settings() == {"grad_enabled": True}

    def test_nested_blocks_restore_in_order(self):
        with ad.no_grad():
            with ad.no_grad():
                assert self.settings() == {"grad_enabled": False}
            assert self.settings() == {"grad_enabled": False}
            with pytest.raises(ConfigError):
                with ad.no_grad():
                    raise ConfigError("inner block failed")
            assert self.settings() == {"grad_enabled": False}
        assert self.settings() == {"grad_enabled": True}


class TestTwoTapes:
    """``backward`` over two losses whose tapes share no node."""

    @staticmethod
    def halves(w1, w2):
        """sum(relu(x @ w)**2) over rows 0-1 with w1 and over rows 2-3 with
        w2, the second half recorded on a worker; the two losses and each
        half's x @ w."""
        x = np.random.default_rng(3).standard_normal((4, 3))

        def half(rows, w):
            h = ad.matmul(ad.Tensor(x[rows]), w)
            r = ad.relu(h)
            return ad.sum_over(ad.mul(r, r)), h

        (loss2, h2), (loss1, h1) = ad.overlap(lambda: half(slice(2, None), w2), lambda: half(slice(None, 2), w1))
        return loss1, loss2, h1, h2

    @staticmethod
    def leaf():
        return ad.Tensor(np.random.default_rng(4).standard_normal((3, 2)), requires_grad=True)

    @staticmethod
    def spy(t, log, name):
        """Log ``name`` and the thread when ``t``'s closure runs."""
        fn = t._backward_fn

        def run(g):
            log.append((name, threading.current_thread()))
            fn(g)

        t._backward_fn = run

    def test_second_tape_runs_on_a_worker_and_matches_one_tape(self):
        w1, w2, log = self.leaf(), self.leaf(), []
        loss1, loss2, h1, h2 = self.halves(w1, w2)
        self.spy(h1, log, "first")
        self.spy(h2, log, "second")
        ad.backward(loss1, loss2)
        threads = dict(log)
        assert threads["first"] is threading.current_thread() and threads["second"] is not threads["first"]
        one = self.leaf()
        loss1, loss2, _, _ = self.halves(one, one)
        ad.backward(ad.add(loss1, loss2))
        np.testing.assert_allclose(w1.grad + w2.grad, one.grad, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("failing", ["second", "first"])
    def test_error_in_a_walk_surfaces_after_the_other_walk_ends(self, failing):
        w1, w2, log = self.leaf(), self.leaf(), []
        loss1, loss2, h1, h2 = self.halves(w1, w2)
        slow, broken = (h1, h2) if failing == "second" else (h2, h1)
        self.spy(slow, log, "slow")
        inner = slow._backward_fn

        def slow_fn(g):
            time.sleep(0.2)
            inner(g)
            log.append(("ended", None))

        def fail(g):
            raise ConfigError(f"{failing} walk failed")

        slow._backward_fn, broken._backward_fn = slow_fn, fail
        with pytest.raises(ConfigError, match=f"{failing} walk failed"):
            ad.backward(loss1, loss2)
        assert [name for name, _ in log] == ["slow", "ended"]
        with pytest.raises(UsageError):
            ad.backward(loss1, loss2)

    @pytest.mark.parametrize("shared", ["leaf", "node", "loss"])
    def test_tapes_that_share_a_node_are_rejected_before_any_walk(self, shared):
        w = self.leaf()
        if shared == "leaf":
            loss1, loss2, _, _ = self.halves(w, w)
        elif shared == "node":
            w2 = ad.mul(w, 1.0)
            loss1, loss2, _, _ = self.halves(w2, w2)
        else:
            loss1, _, _, _ = self.halves(w, self.leaf())
            loss2 = loss1
        with pytest.raises(UsageError, match="share a node"):
            ad.backward(loss1, loss2)
        assert w.grad is None
        ad.backward(loss1)                  # nothing was consumed
        assert w.grad is not None
