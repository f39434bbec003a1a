"""Dense tensors with reverse-mode automatic differentiation.

Forward operations eagerly compute numpy arrays and, when any input
requires gradients, give the output a tape node (``_Node``): its
parents' nodes, its backward closure and its gradient, but not its
value. The tape is the graph of nodes: eager execution order is already
topological, and ``backward`` walks it in reverse. A closure captures
its parents' nodes and only the arrays its gradient reads, never a
Tensor, so an activation that no gradient reads is freed as soon as the
forward pass drops its Tensor. A tape is consumed by its first backward
pass; running backward twice without re-running the forward pass is an
error.

Conventions:

- float32 for training, float64 for gradient checking; operations keep
  the dtype of their inputs. A constant (a Python or numpy scalar, or an
  array that is not a Tensor) passed to ``add``, ``sub`` or ``mul`` takes
  the dtype of the Tensor operand, so ``mul(w, 0.5)`` on a float32 ``w``
  stays float32 (numpy would promote a float64 0-d array).
- Broadcasting follows trailing-dimension alignment (numpy rules).
- Gradients accumulate by summation over all paths.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import DimensionError, ConfigError, UsageError

DEFAULT_DTYPE = np.float32
# conv3d sums all kernel offsets into one output tile of about this size
# before it moves to the next (loop tiling, Goto & van de Geijn 2008)
BLOCK_BYTES = 1 << 18

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (used for evaluation)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class _Node:
    """One tape entry: a tensor's gradient, its parents' nodes and its
    backward closure, without its value. ``shape`` and ``dtype`` size the
    zero-filled gradient that the first contribution is added into."""

    __slots__ = ("grad", "parents", "backward_fn", "released", "shape", "dtype")

    def __init__(self, shape, dtype, parents=(), backward_fn=None):
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.released = False
        self.shape = shape
        self.dtype = dtype

    def accumulate(self, grad: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros(self.shape, self.dtype)
        self.grad += grad


class Tensor:
    """N-dimensional float array, with a tape node when it needs a gradient.

    ``_node`` is None for a constant. A leaf made with ``requires_grad``
    gets a node without a backward closure; an op output gets one when
    grad mode is on and an input has a node. The node keeps the shape
    and dtype the tensor had when it was made, so an array assigned to
    ``data`` later (an optimizer step, a checkpoint load) must keep both.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self._node = _Node(arr.shape, arr.dtype) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise UsageError("a tensor that does not require gradients has no grad")

    # perfbench/tracing.py reads and replaces every traced op's closure
    # through this property, so it stays although the package never uses it
    @property
    def _backward_fn(self):
        return None if self._node is None else self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node.backward_fn = fn

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _record(out: Tensor, parents, backward_fn):
    """Give ``out`` a tape node when grad mode is on and any of the
    parents' nodes (None for a constant) exists. A closure runs only on
    a node, so a one-input op's closure can use its parent's node as is."""
    if _grad_enabled():
        nodes = tuple(p for p in parents if p is not None)
        if nodes:
            out._node = _Node(out.data.shape, out.data.dtype, nodes, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a_shape, b_shape):
    for x, y in zip(reversed(a_shape), reversed(b_shape)):
        if x != y and x != 1 and y != 1:
            raise DimensionError(
                f"shapes {tuple(a_shape)} and {tuple(b_shape)} are not broadcast-compatible"
            )


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a constant takes the other operand's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(b, dtype=a.dtype)
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(a, dtype=b.dtype), b
    return as_tensor(a), as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a.shape, b.shape)
    an, bn, a_shape, b_shape = a._node, b._node, a.shape, b.shape

    def backward_fn(g):
        if an is not None:
            an.accumulate(_unbroadcast(g, a_shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(g, b_shape))

    return _record(Tensor(a.data + b.data), (an, bn), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a.shape, b.shape)
    an, bn, a_shape, b_shape = a._node, b._node, a.shape, b.shape

    def backward_fn(g):
        if an is not None:
            an.accumulate(_unbroadcast(g, a_shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(-g, b_shape))

    return _record(Tensor(a.data - b.data), (an, bn), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    _check_broadcast(a.shape, b.shape)
    an, bn, a_shape, b_shape = a._node, b._node, a.shape, b.shape
    # each operand is kept only for the other's gradient
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def backward_fn(g):
        if an is not None:
            an.accumulate(_unbroadcast(g * b_data, a_shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(g * a_data, b_shape))

    return _record(Tensor(a.data * b.data), (an, bn), backward_fn)


def matmul(a, b) -> Tensor:
    """Matrix product under numpy's batched rule: the last two axes multiply
    as matrices and any leading axes broadcast, e.g. (n, m, d) @ (d, k).

    When b is a (d, k) matrix, a's leading axes fold into rows: the
    forward is one (-1, d) @ (d, k) GEMM, and the backward is one GEMM per
    operand, (g @ b.T) reshaped to a's shape and a(-1, d).T @ g(-1, k),
    rather than one small product per leading index each way. Other
    shapes, such as attention's 4-D @ 4-D, keep the batched rule.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"cannot matmul shapes {tuple(a.shape)} and {tuple(b.shape)}")
    _check_broadcast(a.shape[:-2], b.shape[:-2])
    an, bn, a_shape, b_shape = a._node, b._node, a.shape, b.shape
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    if b.data.ndim == 2:
        d, k = b_shape

        def backward_fn(g):
            g2 = g.reshape(-1, k)
            if an is not None:
                an.accumulate((g2 @ b_data.T).reshape(a_shape))
            if bn is not None:
                bn.accumulate(a_data.reshape(-1, d).T @ g2)

        out = (a.data.reshape(-1, d) @ b.data).reshape(*a_shape[:-1], k)
        return _record(Tensor(out), (an, bn), backward_fn)

    def backward_fn(g):
        if an is not None:
            an.accumulate(_unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape))

    return _record(Tensor(a.data @ b.data), (an, bn), backward_fn)


def relu(t) -> Tensor:
    t = as_tensor(t)
    tn = t._node
    y = np.maximum(t.data, 0)

    # y > 0 exactly where the input is > 0, so the input need not be kept
    def backward_fn(g):
        tn.accumulate(g * (y > 0))

    return _record(Tensor(y), (tn,), backward_fn)


def sigmoid(t) -> Tensor:
    t = as_tensor(t)
    tn = t._node
    # stable for large |x|: exp of a non-positive argument only
    e = np.exp(-np.abs(t.data))
    y = np.where(t.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(t.dtype, copy=False)

    def backward_fn(g):
        tn.accumulate(g * y * (1.0 - y))

    return _record(Tensor(y), (tn,), backward_fn)


def softmax(t, axis: int = -1) -> Tensor:
    t = as_tensor(t)
    if not -t.data.ndim <= axis < t.data.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {tuple(t.shape)}")
    tn = t._node
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        tn.accumulate(y * (g - dot))

    return _record(Tensor(y), (tn,), backward_fn)


def attention(qkv, heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head self-attention softmax(QK^T/sqrt(h))V (Vaswani et al.
    2017) as one tape op. ``qkv`` is (n, m, 3d): queries, keys and values,
    each d columns of ``heads`` blocks of h. Returns the (n, m, d) output,
    heads merged, and the (n, heads, m, m) weights that the backward reads,
    as a constant."""
    qkv = as_tensor(qkv)
    if qkv.data.ndim != 3 or qkv.shape[-1] % (3 * heads):
        raise DimensionError(f"attention of {heads} heads cannot split shape {tuple(qkv.shape)}")
    (n, m, width), tn, dtype = qkv.shape, qkv._node, qkv.dtype
    d, h = width // 3, width // (3 * heads)
    scale = dtype.type(1.0 / np.sqrt(h))
    q, k, v = qkv.data.reshape(n, m, 3, heads, h).transpose(2, 0, 3, 1, 4)   # each (n, heads, m, h)
    logits = (q @ k.swapaxes(-1, -2)) * scale
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    out = (w @ v).transpose(0, 2, 1, 3).reshape(n, m, d)

    def backward_fn(g):
        g = g.reshape(n, m, heads, h).transpose(0, 2, 1, 3)
        dw = g @ v.swapaxes(-1, -2)
        dlogits = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * scale
        grads = (dlogits @ k, dlogits.swapaxes(-1, -2) @ q, w.swapaxes(-1, -2) @ g)
        tn.accumulate(np.stack(grads).transpose(1, 3, 0, 2, 4).reshape(n, m, width))

    return _record(Tensor(out), (tn,), backward_fn), Tensor(w)


def layer_norm(t, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    t, gain, bias = as_tensor(t), as_tensor(gain), as_tensor(bias)
    n = t.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({n},), got {tuple(gain.shape)} and {tuple(bias.shape)}"
        )
    tn, gn, bn = t._node, gain._node, bias._node
    mu = t.data.mean(axis=-1, keepdims=True)
    xc = t.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    gain_data = gain.data if tn is not None else None

    def backward_fn(g):
        if bn is not None:
            bn.accumulate(g.reshape(-1, n).sum(axis=0))
        if gn is not None:
            gn.accumulate((g * xhat).reshape(-1, n).sum(axis=0))
        if tn is not None:
            gy = g * gain_data
            mean_gy = gy.mean(axis=-1, keepdims=True)
            mean_gyx = (gy * xhat).mean(axis=-1, keepdims=True)
            tn.accumulate(inv * (gy - mean_gy - xhat * mean_gyx))

    return _record(out, (tn, gn, bn), backward_fn)


def _normalize_axes(axes, ndim):
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    norm = tuple(sorted(ax % ndim for ax in axes))
    if len(set(norm)) != len(norm):
        raise DimensionError(f"duplicate axes {axes}")
    return norm


def mean_over(t, axes) -> Tensor:
    t = as_tensor(t)
    axes = _normalize_axes(axes, t.data.ndim)
    count = 1
    for ax in axes:
        count *= t.shape[ax]
    tn, shape = t._node, t.shape

    def backward_fn(g):
        tn.accumulate(np.broadcast_to(np.expand_dims(g, axes) / count, shape))

    return _record(Tensor(t.data.mean(axis=axes)), (tn,), backward_fn)


def sum_over(t, axes=None) -> Tensor:
    t = as_tensor(t)
    if axes is None:
        axes = tuple(range(t.data.ndim))
    axes = _normalize_axes(axes, t.data.ndim)
    tn, shape = t._node, t.shape

    def backward_fn(g):
        tn.accumulate(np.broadcast_to(np.expand_dims(g, axes), shape))

    return _record(Tensor(t.data.sum(axis=axes)), (tn,), backward_fn)


def sum_of_squares(tensors) -> Tensor:
    """Sum of the squared entries of every tensor, as one tape node.

    The forward adds each tensor's (t * t).sum() in the given order; the
    backward adds 2 * g * t to each tensor's gradient.
    """
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("sum_of_squares needs at least one tensor")
    total = None
    for t in tensors:
        sq = (t.data * t.data).sum()
        total = sq if total is None else total + sq
    nodes = [t._node for t in tensors]
    # each gradient reads its own tensor's value, so only those are kept
    held = [(node, t.data) for node, t in zip(nodes, tensors) if node is not None]

    def backward_fn(g):
        for node, data in held:
            node.accumulate(data * (2 * g))

    return _record(Tensor(total), nodes, backward_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat needs at least one tensor")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            i != axis % len(ref) and t.shape[i] != ref[i] for i in range(len(ref))
        ):
            raise DimensionError(
                f"concat shapes disagree off axis {axis}: {[tuple(t.shape) for t in tensors]}"
            )
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    nodes = [t._node for t in tensors]
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward_fn(g):
        for node, piece in zip(nodes, np.split(g, splits, axis=axis)):
            if node is not None:
                node.accumulate(piece)

    return _record(out, nodes, backward_fn)


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    tn, in_shape = t._node, t.shape

    def backward_fn(g):
        tn.accumulate(g.reshape(in_shape))

    return _record(Tensor(t.data.reshape(shape)), (tn,), backward_fn)


def transpose(t, axes=None) -> Tensor:
    t = as_tensor(t)
    axes = tuple(axes) if axes is not None else tuple(reversed(range(t.data.ndim)))
    inverse = np.argsort(axes)
    tn = t._node

    def backward_fn(g):
        tn.accumulate(g.transpose(inverse))

    return _record(Tensor(t.data.transpose(axes)), (tn,), backward_fn)


def gather_rows(t, indices) -> Tensor:
    """Row lookup t[indices] for indices of any shape; the gradient scatters
    into the taken rows."""
    t = as_tensor(t)
    idx = np.asarray(indices, dtype=np.int64)
    if t.data.ndim != 2:
        raise DimensionError(f"gather_rows expects a matrix, got shape {tuple(t.shape)}")
    tn, shape, dtype = t._node, t.shape, t.dtype

    def backward_fn(g):
        acc = np.zeros(shape, dtype)
        np.add.at(acc, idx, g)
        tn.accumulate(acc)

    return _record(Tensor(t.data[idx]), (tn,), backward_fn)


def _triple(v, name: str, least: int) -> tuple[int, int, int]:
    """``v`` as three ints, each at least ``least``; ConfigError otherwise."""
    v = (v, v, v) if isinstance(v, (int, np.integer)) else tuple(v)
    if len(v) != 3 or not all(isinstance(e, (int, np.integer)) and e >= least for e in v):
        raise ConfigError(f"{name} must be an int or 3 ints, each >= {least}, got {v}")
    return tuple(int(e) for e in v)


def _interior(pads, dims) -> tuple:
    """Index of the unpadded (n, *dims, c) part of a channels-last buffer
    padded by ``pads``."""
    return (slice(None), *(slice(p, p + d) for p, d in zip(pads, dims)))


def _padded(arr, pads) -> np.ndarray:
    """A channels-last (n, f, h, w, c) array, or a view of one, copied into
    a zero buffer padded by ``pads`` on both sides of f, h and w."""
    n, *dims, c = arr.shape
    out = np.zeros((n, *(d + 2 * p for d, p in zip(dims, pads)), c), dtype=arr.dtype)
    out[_interior(pads, dims)] = arr
    return out


def _window(arr, offset, stride, dims, samples=slice(None), frame=0) -> np.ndarray:
    """The (samples, *dims, c) strided window of a channels-last array that
    one kernel offset reads for the outputs from frame ``frame`` on."""
    (of, oh, ow), (sf, sh, sw), (df, dh, dw) = offset, stride, dims
    of += sf * frame
    return arr[samples, of:of + sf * df:sf, oh:oh + sh * dh:sh, ow:ow + sw * dw:sw]


def _tiles(arr, width):
    """Split a channels-last (n, f, h, w, k) array into tiles of about
    BLOCK_BYTES: runs of whole samples when one sample fits, else runs of
    frames of one sample. Yields ``(samples, frame, tile, tmp)``: ``tile``
    is the contiguous view ``arr[samples, frame:frame + len]`` and ``tmp``
    a (*tile.shape[:-1], width) view of one scratch buffer shared by all
    tiles."""
    n, f = arr.shape[:2]
    step = max(1, BLOCK_BYTES // arr[0, 0].nbytes)      # frames per tile
    if step >= f:
        step //= f
        spans = [(slice(i, i + step), 0, f) for i in range(0, n, step)]
    else:
        spans = [(slice(i, i + 1), j, min(step, f - j)) for i in range(n) for j in range(0, f, step)]
    scratch = None
    for samples, frame, frames in spans:
        tile = arr[samples, frame:frame + frames]
        if scratch is None:     # the first tile is the largest
            scratch = np.empty((*tile.shape[:-1], width), dtype=arr.dtype)
        yield samples, frame, tile, scratch[:tile.shape[0], :frames]


def _correlate(src, kl, stride, dims) -> np.ndarray:
    """Channels-last cross-correlation of ``src`` with ``kl`` (kf, kh, kw, c, ko)
    into a new (n, *dims, ko) array, one output tile (``_tiles``) at a
    time: each kernel offset's (..., c) @ (c, ko) product over its window
    goes into a tile-sized scratch buffer and is added to the tile, in
    offset order. Every output element sums the same products in the same
    order whatever the tile size, so the result equals an untiled sum."""
    out = np.zeros((src.shape[0], *dims, kl.shape[-1]), dtype=src.dtype)
    for samples, frame, tile, tmp in _tiles(out, kl.shape[-1]):
        for offset in np.ndindex(kl.shape[:3]):
            window = _window(src, offset, stride, tile.shape[1:4], samples, frame)
            tile += np.matmul(window, kl[offset], out=tmp)
    return out


def conv3d(x, kernel, stride=1, padding=0) -> Tensor:
    """Cross-correlation over the three trailing axes of a [n,c,f,h,w] input.

    Internally the input is copied once into a zero-padded channels-last
    buffer, (n,F,H,W,c), and each of the kf*kh*kw kernel offsets reads
    one strided window of it. The forward pass sums one (..., c) @ (c, ko)
    product per offset (``_correlate``). A one-channel input (the stem)
    would give those products an inner dimension of 1, so it is lowered
    to im2col instead: the windows are copied into an
    (n, kf*kh*kw, of*oh*ow) column buffer, and one (ko, kf*kh*kw) @ buffer
    GEMM writes the output in its [n,ko,...] layout.

    The per-offset loops are tiled (Goto & van de Geijn, ACM TOMS 2008):
    ``_tiles`` cuts the channels-last output, or output gradient, into
    tiles of about BLOCK_BYTES, and each loop runs every kernel offset on
    one tile before it moves to the next, so a tile is re-read from cache
    rather than from memory. Every buffer the loops add is tile-sized.

    The tape keeps no padded copy: the backward pass rebuilds it from x,
    and only when the kernel needs a gradient. For each tile of the output
    gradient g and each offset, the kernel gradient adds
    window(rows, c).T @ g(rows, ko) over the tile's rows. At stride 1 with
    padding <= k-1 on every axis, the input gradient is the same
    ``_correlate`` loop run on g zero-padded by k-1-padding, with the
    kernel flipped and its channel axes swapped. Other convs scatter-add
    g(rows, ko) @ kernel(c, ko).T, per tile of g, into each offset's
    window.

    The output and the stride-1 input gradient equal an untiled sum bit
    for bit, whatever the tile size. The kernel gradient and the other
    input gradients sum tile by tile, so they differ from an untiled sum
    only in summation order. The output and the input gradient keep x's
    dtype; the kernel is cast to it for the products.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise DimensionError(
            f"conv3d expects input [n,c,f,h,w] and kernel [k,c,kf,kh,kw], "
            f"got {tuple(x.shape)} and {tuple(kernel.shape)}"
        )
    n, c, *in_dims = x.shape
    ko, kc, *ksize = kernel.shape
    if kc != c:
        raise DimensionError(f"conv3d channel mismatch: input has {c}, kernel expects {kc}")
    strides = _triple(stride, "conv3d stride", 1)
    pads = _triple(padding, "conv3d padding", 0)
    dims = tuple((d + 2 * p - k) // s + 1 for d, p, k, s in zip(in_dims, pads, ksize, strides))
    if min(dims) <= 0:
        raise ConfigError(
            f"conv3d output dims {dims} must be positive for input {tuple(in_dims)}, "
            f"kernel {tuple(ksize)}, stride {strides}, padding {pads}"
        )
    offsets = list(np.ndindex(*ksize))
    kl = np.ascontiguousarray(kernel.data.transpose(2, 3, 4, 1, 0), dtype=x.dtype)  # (kf,kh,kw,c,ko)

    xl = _padded(x.data.transpose(0, 2, 3, 4, 1), pads)                             # (n,F,H,W,c)
    if c == 1:
        cols = np.empty((n, len(offsets), *dims), dtype=xl.dtype)
        for i, offset in enumerate(offsets):
            cols[:, i] = _window(xl, offset, strides, dims)[..., 0]
        out_c = kl.reshape(-1, ko).T @ cols.reshape(n, len(offsets), -1)   # (n, ko, of*oh*ow)
        out = Tensor(out_c.reshape(n, ko, *dims))
    else:
        out = Tensor(np.ascontiguousarray(_correlate(xl, kl, strides, dims).transpose(0, 4, 1, 2, 3)))

    # the stride-1 input gradient pads g by k-1-p, which must not be negative
    flip_pads = tuple(k - 1 - p for k, p in zip(ksize, pads))
    correlate_dx = strides == (1, 1, 1) and min(flip_pads) >= 0

    xn, kn, x_dtype = x._node, kernel._node, x.dtype
    x_data = x.data if kn is not None else None        # read only by the kernel gradient

    def backward_fn(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 4, 1))                   # (n,of,oh,ow,ko)
        if kn is not None:
            xl = _padded(x_data.transpose(0, 2, 3, 4, 1), pads)   # local: the tape holds x, not xl
            dkl = np.zeros_like(kl)
            for samples, frame, tile, tmp in _tiles(g2, c):
                for offset in offsets:
                    tmp[...] = _window(xl, offset, strides, tile.shape[1:4], samples, frame)
                    dkl[offset] += tmp.reshape(-1, c).T @ tile.reshape(-1, ko)
            kn.accumulate(dkl.transpose(4, 3, 0, 1, 2))
        if xn is None:
            return
        if correlate_dx:
            flipped = np.ascontiguousarray(kl[::-1, ::-1, ::-1].swapaxes(3, 4))         # (kf,kh,kw,ko,c)
            dxl = _correlate(_padded(g2, flip_pads), flipped, (1, 1, 1), in_dims)
            xn.accumulate(dxl.transpose(0, 4, 1, 2, 3))
            return
        dxl = np.zeros((n, *(d + 2 * p for d, p in zip(in_dims, pads)), c), dtype=x_dtype)
        for samples, frame, tile, tmp in _tiles(g2, c):
            for offset in offsets:
                np.matmul(tile.reshape(-1, ko), kl[offset].T, out=tmp.reshape(-1, c))
                _window(dxl, offset, strides, tile.shape[1:4], samples, frame).__iadd__(tmp)
        xn.accumulate(dxl[_interior(pads, in_dims)].transpose(0, 4, 1, 2, 3))

    return _record(out, (xn, kn), backward_fn)


def backward(loss: Tensor):
    """Populate .grad on every requires_grad tensor reachable from loss.

    The loss must be scalar (a single element). The tape is consumed:
    calling backward again on the same graph raises UsageError.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")
    root = loss._node
    if root is None:
        return
    if root.released:
        raise UsageError("backward was already run on this tape; re-run the forward pass")

    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.released:
            raise UsageError("tape already consumed by a previous backward; re-run the forward pass")
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and (p.backward_fn is not None or p.released):
                stack.append((p, False))

    root.grad = np.ones_like(loss.data)
    for node in reversed(order):
        fn = node.backward_fn
        if fn is not None and node.grad is not None:
            fn(node.grad)
        node.released = True
        node.backward_fn = None
        node.parents = ()
        if node is not root:
            node.grad = None
