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
- An op computes its forward itself and records its output through one
  of three helpers: ``_unary(t, out, grad)`` for one input,
  ``_binary(fn, a, b, grad_a, grad_b)`` for the broadcasting ``add``,
  ``sub`` and ``mul``, and ``_record(out, parents, backward_fn)`` for
  several inputs. A gradient function binds only the arrays it reads.

Threads: ``overlap(side, main)`` runs ``side()`` on a worker thread
that lives only for the call while ``main()`` runs on the calling
thread, and returns when both are done, so two independent numpy-heavy
computations use two cores (numpy releases the GIL inside GEMMs and
large copies). A lane's numpy calls must each be long enough that the
GIL handoffs between them do not dominate, which is why conv3d batches
its kernel offsets. It is the package's only way into threads. Work is split
by lane, the way data-parallel training splits a batch over replicas.
Every node belongs to the caller's lane unless it was made inside
``worker_lane()``: ``model.forward_batch`` runs every ensemble view's
backbone over one half of a batch on the caller and over the other half
on a worker, inside ``worker_lane()``, and joins the two halves with
``concat``. ``backward`` then walks the worker's lane on a worker and
the caller's lane here (see there), and adds every gradient that the
worker's walk sends out of its lane after both are done, in walk order.
A node's lane is the tag it was recorded with, not the thread that made
it, so every result is the same bits whichever thread ran what, and with
``overlap`` run inline.
"""

from __future__ import annotations

import contextlib
import math
import threading
from concurrent import futures

import numpy as np

from .errors import DimensionError, ConfigError, UsageError

DEFAULT_DTYPE = np.float32
# conv3d sums all kernel offsets into one output tile of about this size
# before it moves to the next (loop tiling, Goto & van de Geijn 2008); its
# scratch holds several kernel offsets' products of one tile at once
BLOCK_BYTES = 1 << 18
# layer_norm adds this to the variance before its square root
LN_EPS = 1e-5


class _State(threading.local):
    """Per-thread settings: grad mode, the lane new nodes are recorded in,
    and the list a worker-lane walk sets aside out-of-lane gradients in
    (None outside one)."""

    grad_enabled = True
    lane = 0
    aside = None


_state = _State()


@contextlib.contextmanager
def _setting(name: str, value):
    """Set this thread's ``name`` setting to ``value`` inside the block and
    restore the previous value on the way out, also when the block raises."""
    prev = getattr(_state, name)
    setattr(_state, name, value)
    try:
        yield
    finally:
        setattr(_state, name, prev)


def no_grad():
    """Disable tape recording inside the block (used for evaluation)."""
    return _setting("grad_enabled", False)


def worker_lane():
    """Record the nodes made inside the block, on this thread, in the
    worker's lane, so that ``backward`` runs their closures on a worker
    thread. A parameter leaf stays in the caller's lane wherever it is
    used."""
    return _setting("lane", 1)


def overlap(side, main):
    """``(side(), main())``, with ``side`` on a worker thread while
    ``main`` runs on this one.

    The worker thread is started for this call and joined before it
    returns, also when ``main`` raises; an error ``side`` raises is raised
    here. ``side`` runs in the caller's grad mode (``no_grad`` is per
    thread): the pool's initializer sets it on the new thread.
    """
    with futures.ThreadPoolExecutor(
        max_workers=1, thread_name_prefix="survtower-worker",
        initializer=setattr, initargs=(_state, "grad_enabled", _state.grad_enabled),
    ) as pool:
        task = pool.submit(side)
        main_result = main()
    return task.result(), main_result


class _Node:
    """One tape entry: a tensor's gradient, its parents' nodes and its
    backward closure, without its value. ``shape`` and ``dtype`` size the
    zero-filled gradient that the first contribution is added into;
    ``lane`` is 1 for a node recorded inside ``worker_lane`` and 0
    otherwise."""

    __slots__ = ("grad", "parents", "backward_fn", "released", "shape", "dtype", "lane")

    def __init__(self, shape, dtype, parents=(), backward_fn=None, lane=0):
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.released = False
        self.shape = shape
        self.dtype = dtype
        self.lane = lane

    def accumulate(self, grad: np.ndarray):
        aside = _state.aside
        if aside is not None and not self.lane:
            aside.append((self, grad))      # added by the caller after the worker's walk
            return
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, parents, backward_fn):
    """Give ``out`` a tape node when grad mode is on and any of the
    parents' nodes (None for a constant) exists. A closure runs only on
    a node, so ``_unary``'s closure can use its parent's node as is."""
    if _state.grad_enabled:
        nodes = tuple(p for p in parents if p is not None)
        if nodes:
            out._node = _Node(out.data.shape, out.data.dtype, nodes, backward_fn, _state.lane)
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


def _unary(t: Tensor, out, grad) -> Tensor:
    """``out`` recorded with ``t``'s node as its one parent: its closure adds
    ``grad(g)`` to that node."""
    node = t._node
    return _record(Tensor(out), (node,), lambda g: node.accumulate(grad(g)))


def _binary(fn, a, b, grad_a, grad_b) -> Tensor:
    """``fn(a, b)`` of two broadcast-compatible operands: its closure adds
    ``grad_a(g)``, summed back to a's shape, to a's node and ``grad_b(g)``
    likewise to b's, each only when that node exists."""
    a, b = _operands(a, b)
    _check_broadcast(a.shape, b.shape)
    an, bn, a_shape, b_shape = a._node, b._node, a.shape, b.shape

    def backward_fn(g):
        if an is not None:
            an.accumulate(_unbroadcast(grad_a(g), a_shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(grad_b(g), b_shape))

    return _record(Tensor(fn(a.data, b.data)), (an, bn), backward_fn)


def add(a, b) -> Tensor:
    return _binary(np.add, a, b, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    return _binary(np.subtract, a, b, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    # each operand is kept only for the other's gradient
    a_data = a.data if b._node is not None else None
    b_data = b.data if a._node is not None else None
    return _binary(np.multiply, a, b, lambda g: g * b_data, lambda g: g * a_data)


def matmul(a, b) -> Tensor:
    """Product (..., d) @ (d, k) of an array and a matrix: a's leading axes
    fold into rows, so the forward is one (-1, d) @ (d, k) GEMM, and the
    backward is one GEMM per operand, (g @ b.T) reshaped to a's shape and
    a(-1, d).T @ g(-1, k). A b of any other rank is a DimensionError."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise DimensionError(f"cannot matmul shapes {tuple(a.shape)} and {tuple(b.shape)}")
    an, bn, a_shape, (d, k) = a._node, b._node, a.shape, b.shape
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def backward_fn(g):
        g2 = g.reshape(-1, k)
        if an is not None:
            an.accumulate((g2 @ b_data.T).reshape(a_shape))
        if bn is not None:
            bn.accumulate(a_data.reshape(-1, d).T @ g2)

    out = (a.data.reshape(-1, d) @ b.data).reshape(*a_shape[:-1], k)
    return _record(Tensor(out), (an, bn), backward_fn)


def relu(t) -> Tensor:
    t = as_tensor(t)
    y = np.maximum(t.data, 0)
    # y > 0 exactly where the input is > 0, so the input need not be kept
    return _unary(t, y, lambda g: g * (y > 0))


def sigmoid(t) -> Tensor:
    t = as_tensor(t)
    # stable for large |x|: exp of a non-positive argument only
    e = np.exp(-np.abs(t.data))
    y = np.where(t.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(t.dtype, copy=False)
    return _unary(t, y, lambda g: g * y * (1.0 - y))


def softmax(t, axis: int = -1) -> Tensor:
    # no caller in the package since ``attention`` fused it; kept for the
    # tracer's op list and as TestAttention's reference
    t = as_tensor(t)
    _normalize_axes(axis, t.shape)
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def grad(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return y * (g - dot)

    return _unary(t, y, grad)


def attention(qkv, heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head self-attention softmax(QK^T/sqrt(h))V (Vaswani et al.
    2017) as one tape op. ``qkv`` is (n, m, 3d): queries, keys and values,
    each d columns of ``heads`` blocks of h. Returns the (n, m, d) output,
    heads merged, and the (n, heads, m, m) weights that the backward reads,
    as a constant."""
    qkv = as_tensor(qkv)
    if qkv.data.ndim != 3 or qkv.shape[-1] % (3 * heads):
        raise DimensionError(f"attention of {heads} heads cannot split shape {tuple(qkv.shape)}")
    (n, m, width), dtype = qkv.shape, qkv.dtype
    d, h = width // 3, width // (3 * heads)
    scale = dtype.type(1.0 / np.sqrt(h))
    q, k, v = qkv.data.reshape(n, m, 3, heads, h).transpose(2, 0, 3, 1, 4)   # each (n, heads, m, h)
    logits = (q @ k.swapaxes(-1, -2)) * scale
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    out = (w @ v).transpose(0, 2, 1, 3).reshape(n, m, d)

    def grad(g):
        g = g.reshape(n, m, heads, h).transpose(0, 2, 1, 3)
        dw = g @ v.swapaxes(-1, -2)
        dlogits = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * scale
        grads = (dlogits @ k, dlogits.swapaxes(-1, -2) @ q, w.swapaxes(-1, -2) @ g)
        return np.stack(grads).transpose(1, 3, 0, 2, 4).reshape(n, m, width)

    return _unary(qkv, out, grad), Tensor(w)


def layer_norm(t, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    t, gain, bias = as_tensor(t), as_tensor(gain), as_tensor(bias)
    n = t.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({n},), got {tuple(gain.shape)} and {tuple(bias.shape)}"
        )
    tn, gn, bn = t._node, gain._node, bias._node
    # sum / n is what ndarray.mean computes, bit for bit, without its Python-level wrapper
    mu = t.data.sum(axis=-1, keepdims=True) / n
    xc = t.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
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
            mean_gy = gy.sum(axis=-1, keepdims=True) / n
            mean_gyx = (gy * xhat).sum(axis=-1, keepdims=True) / n
            tn.accumulate(inv * (gy - mean_gy - xhat * mean_gyx))

    return _record(out, (tn, gn, bn), backward_fn)


def _normalize_axes(axes, shape) -> tuple:
    """``axes``, an int or a sequence, as sorted axes of ``shape`` in [0, ndim); each once."""
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    ndim = len(shape)
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise DimensionError(f"axis {ax} is out of range for shape {tuple(shape)}")
    norm = tuple(sorted(ax % ndim for ax in axes))
    if len(set(norm)) != len(norm):
        raise DimensionError(f"duplicate axes {axes}")
    return norm


def mean_over(t, axes) -> Tensor:
    t = as_tensor(t)
    axes = _normalize_axes(axes, t.shape)
    count = 1
    for ax in axes:
        count *= t.shape[ax]
    shape = t.shape
    return _unary(t, t.data.mean(axis=axes),
                  lambda g: np.broadcast_to(np.expand_dims(g, axes) / count, shape))


def sum_over(t, axes=None) -> Tensor:
    t = as_tensor(t)
    if axes is None:
        axes = tuple(range(t.data.ndim))
    axes = _normalize_axes(axes, t.shape)
    shape = t.shape
    return _unary(t, t.data.sum(axis=axes), lambda g: np.broadcast_to(np.expand_dims(g, axes), shape))


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
    axis = _normalize_axes(axis, ref)[0]
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(i != axis and t.shape[i] != ref[i] for i in range(len(ref))):
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
    in_shape = t.shape
    return _unary(t, t.data.reshape(shape), lambda g: g.reshape(in_shape))


def transpose(t, axes=None) -> Tensor:
    t = as_tensor(t)
    ndim = t.data.ndim
    axes = tuple(axes) if axes is not None else tuple(reversed(range(ndim)))
    if len(_normalize_axes(axes, t.shape)) != ndim:
        raise DimensionError(f"transpose axes {axes} do not permute the {ndim} axes of {tuple(t.shape)}")
    axes = tuple(ax % ndim for ax in axes)
    inverse = np.argsort(axes)
    return _unary(t, t.data.transpose(axes), lambda g: g.transpose(inverse))


def gather_rows(t, indices) -> Tensor:
    """Row lookup t[indices] for indices of any shape; the gradient scatters
    into the taken rows."""
    t = as_tensor(t)
    idx = np.asarray(indices, dtype=np.int64)
    if t.data.ndim != 2:
        raise DimensionError(f"gather_rows expects a matrix, got shape {tuple(t.shape)}")
    shape, dtype = t.shape, t.dtype

    def grad(g):
        acc = np.zeros(shape, dtype)
        np.add.at(acc, idx, g)
        return acc

    return _unary(t, t.data[idx], grad)


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


def _windows(arr, ksize, stride, dims) -> np.ndarray:
    """The read-only (kf, kh, kw, n, *dims, c) view of a channels-last array
    whose ``[offset]`` is ``_window(arr, offset, stride, dims)``: every
    kernel offset's window at once, without a copy. A tile's windows are
    its slice ``[:, :, :, samples, frame:frame + len]``."""
    (sf, sh, sw), (df, dh, dw) = stride, dims
    view = np.lib.stride_tricks.sliding_window_view(arr, ksize, axis=(1, 2, 3))
    return view[:, :sf * df:sf, :sh * dh:sh, :sw * dw:sw].transpose(5, 6, 7, 0, 1, 2, 3, 4)


def _tiles(arr, width, lead=(), split=1):
    """Split a channels-last (n, f, h, w, k) array into tiles of about
    BLOCK_BYTES // split: runs of whole samples when one sample fits, else
    runs of frames of one sample, at least one frame. Yields ``(samples,
    frame, tile, tmp)``: ``tile`` is the contiguous view ``arr[samples,
    frame:frame + len]`` and ``tmp`` a contiguous (*lead,
    *tile.shape[:-1], width) array in one scratch buffer shared by all
    tiles, which holds the products of several kernel offsets at once."""
    n, f = arr.shape[:2]
    step = max(1, BLOCK_BYTES // split // arr[0, 0].nbytes)     # frames per tile
    if step >= f:
        step //= f
        spans = [(slice(i, i + step), 0, f) for i in range(0, n, step)]
    else:
        spans = [(slice(i, i + 1), j, min(step, f - j)) for i in range(n) for j in range(0, f, step)]
    scratch = None
    for samples, frame, frames in spans:
        tile = arr[samples, frame:frame + frames]
        shape = (*lead, *tile.shape[:-1], width)
        if scratch is None:     # the first tile is the largest
            scratch = np.empty(math.prod(shape), dtype=arr.dtype)
        yield samples, frame, tile, scratch[:math.prod(shape)].reshape(shape)


def _correlate(src, kl, stride, dims) -> np.ndarray:
    """Channels-last cross-correlation of ``src`` with ``kl`` (kf, kh, kw, c, ko)
    into a new (n, *dims, ko) array, one output tile (``_tiles``) at a
    time, in two numpy calls per tile: one batched matmul writes every
    kernel offset's (..., c) @ (c, ko) product over its window into the
    scratch, and one reduce adds them into the tile from zero, in offset
    order. Every output element sums the same products in the same order
    whatever the tile size, so the result equals an untiled sum, and the
    tiles are cut at about BLOCK_BYTES / kf, so that the kf*kh*kw products
    of one take about kh*kw * BLOCK_BYTES."""
    ksize, ko = kl.shape[:3], kl.shape[-1]
    out = np.empty((src.shape[0], *dims, ko), dtype=src.dtype)
    windows = _windows(src, ksize, stride, dims)
    kernels = kl[:, :, :, None, None, None]         # broadcast over each window's samples, f and h
    for samples, frame, tile, tmp in _tiles(out, ko, ksize, ksize[0]):
        np.matmul(windows[:, :, :, samples, frame:frame + tile.shape[1]], kernels, out=tmp)
        np.add.reduce(tmp.reshape(-1, *tile.shape), axis=0, out=tile, initial=0)
    return out


def conv3d(x, kernel, stride=1, padding=0) -> Tensor:
    """Cross-correlation over the three trailing axes of a [n,c,f,h,w] input.

    Internally the input is copied once into a zero-padded channels-last
    buffer, (n,F,H,W,c), and each of the kf*kh*kw kernel offsets reads
    one strided window of it; ``_windows`` views them all at once. The
    forward pass sums one (..., c) @ (c, ko) product per offset
    (``_correlate``). A one-channel input (the stem) would give those
    products an inner dimension of 1, so it is lowered to im2col instead:
    one copy of the windows fills an (n, kf*kh*kw, of*oh*ow) column
    buffer, and one (ko, kf*kh*kw) @ buffer GEMM writes the output in its
    [n,ko,...] layout.

    The loops are tiled (Goto & van de Geijn, ACM TOMS 2008): ``_tiles``
    cuts the channels-last output, or output gradient, into tiles of
    about BLOCK_BYTES, and each loop runs every kernel offset on one tile
    before it moves to the next, so a tile is re-read from cache rather
    than from memory. Each loop makes a few batched numpy calls per tile,
    each over many offsets' products, never one per offset (batched BLAS,
    Dongarra et al., Procedia Computer Science 2017), so that each call
    runs long without the GIL and the other lane seldom waits for it: the
    forward makes two per tile, the kernel gradient three per tile and
    frame offset (a copy, a matmul and an add), and the strided input
    gradient one matmul per tile and frame offset, then kh*kw window adds. The backward's scratch holds kh*kw
    tiles' products; the forward's tiles are about BLOCK_BYTES / kf, so
    its kf*kh*kw products take about kh*kw * BLOCK_BYTES, or kf*kh*kw
    frames when one frame is larger.

    The tape keeps no padded copy: the backward pass rebuilds it from x,
    and only when the kernel needs a gradient. For each tile of the output
    gradient g and each frame offset, the kernel gradient copies the kh*kw
    windows into the scratch, makes one batched matmul of their
    window(rows, c).T @ g(rows, ko) products over the tile's rows, and
    adds them to the kernel gradient. At stride 1 with padding <= k-1 on
    every axis, the input gradient is the same ``_correlate`` loop run on
    g zero-padded by k-1-padding, with the kernel flipped and its channel
    axes swapped. Other convs make one batched matmul of g(rows, ko) @
    kernel(c, ko).T per tile and frame offset, then scatter-add each of
    its kh*kw products into its offset's window, in offset order.

    The output and the stride-1 input gradient equal an untiled sum bit
    for bit, whatever the tile size. The kernel gradient and the other
    input gradients sum tile by tile, so they differ from an untiled sum
    only in summation order. The output and the input gradient keep x's
    dtype; the kernel is cast to it for the products.

    Both passes run on the thread that runs the op or walks its node, the
    kernel gradient first: a conv recorded inside ``worker_lane`` runs its
    backward on the worker thread of ``backward``'s ``overlap`` call, and
    its kernel gradient is added to the kernel after the caller's lane, in
    the worker's walk order (``backward``).
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.data.ndim != 5 or kernel.data.ndim != 5:
        raise DimensionError(
            f"conv3d expects input [n,c,f,h,w] and kernel [k,c,kf,kh,kw], "
            f"got {tuple(x.shape)} and {tuple(kernel.shape)}"
        )
    n, c, *in_dims = x.shape
    ko, kc, kf, kh, kw = kernel.shape
    ksize = (kf, kh, kw)
    if kc != c:
        raise DimensionError(f"conv3d channel mismatch: input has {c}, kernel expects {kc}")
    strides = _triple(stride, "conv3d stride", 1)
    pads = _triple(padding, "conv3d padding", 0)
    dims = tuple((d + 2 * p - k) // s + 1 for d, p, k, s in zip(in_dims, pads, ksize, strides))
    if min(dims) <= 0:
        raise ConfigError(
            f"conv3d output dims {dims} must be positive for input {tuple(in_dims)}, "
            f"kernel {ksize}, stride {strides}, padding {pads}"
        )
    kl = np.ascontiguousarray(kernel.data.transpose(2, 3, 4, 1, 0), dtype=x.dtype)  # (kf,kh,kw,c,ko)

    xl = _padded(x.data.transpose(0, 2, 3, 4, 1), pads)                             # (n,F,H,W,c)
    if c == 1:
        cols = _windows(xl, ksize, strides, dims)[..., 0].transpose(3, 0, 1, 2, 4, 5, 6)  # (n,kf,kh,kw,*dims)
        # the reshape copies every window once
        out = Tensor((kl.reshape(-1, ko).T @ cols.reshape(n, kf * kh * kw, -1)).reshape(n, ko, *dims))
    else:
        out = Tensor(np.ascontiguousarray(_correlate(xl, kl, strides, dims).transpose(0, 4, 1, 2, 3)))

    # the stride-1 input gradient pads g by k-1-p, which must not be negative
    flip_pads = tuple(k - 1 - p for k, p in zip(ksize, pads))
    correlate_dx = strides == (1, 1, 1) and min(flip_pads) >= 0

    xn, kn, x_dtype = x._node, kernel._node, x.dtype
    x_data = x.data if kn is not None else None        # read only by the kernel gradient

    def backward_fn(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 4, 1))                   # (n,of,oh,ow,ko)

        def kernel_grad():
            xl = _padded(x_data.transpose(0, 2, 3, 4, 1), pads)   # local: the tape holds x, not xl
            dkl = np.zeros_like(kl)
            windows = _windows(xl, ksize, strides, dims)
            for samples, frame, tile, tmp in _tiles(g2, c, (kh, kw)):
                rows = tile.reshape(-1, ko)
                for a in range(kf):
                    tmp[...] = windows[a, :, :, samples, frame:frame + tile.shape[1]]
                    dkl[a] += (tmp.reshape(kh * kw, -1, c).transpose(0, 2, 1) @ rows).reshape(kh, kw, c, ko)
            return dkl.transpose(4, 3, 0, 1, 2)

        def input_grad():
            if correlate_dx:
                flipped = np.ascontiguousarray(kl[::-1, ::-1, ::-1].swapaxes(3, 4))     # (kf,kh,kw,ko,c)
                dxl = _correlate(_padded(g2, flip_pads), flipped, (1, 1, 1), in_dims)
                return dxl.transpose(0, 4, 1, 2, 3)
            dxl = np.zeros((n, *(d + 2 * p for d, p in zip(in_dims, pads)), c), dtype=x_dtype)
            kernels = kl.swapaxes(3, 4)                                                # (kf,kh,kw,ko,c)
            for samples, frame, tile, tmp in _tiles(g2, c, (kh, kw)):
                rows = tile.reshape(-1, ko)
                for a in range(kf):
                    np.matmul(rows, kernels[a], out=tmp.reshape(kh, kw, -1, c))
                    for b, e in np.ndindex(kh, kw):
                        _window(dxl, (a, b, e), strides, tile.shape[1:4], samples, frame).__iadd__(tmp[b, e])
            return dxl[_interior(pads, in_dims)].transpose(0, 4, 1, 2, 3)

        if kn is not None:
            kn.accumulate(kernel_grad())
        if xn is not None:
            xn.accumulate(input_grad())

    return _record(out, (xn, kn), backward_fn)


def backward(loss: Tensor):
    """Populate .grad on every requires_grad tensor reachable from loss.

    The loss must be scalar (a single element). The tape is consumed,
    even by a backward pass that raised: calling backward again on the
    same graph raises UsageError.

    A tape with nodes in the worker's lane (``worker_lane``) is walked in
    two lanes. First this thread runs every caller-lane node that reads
    a worker-lane node, directly or through others: the loss, the head
    and the ``concat`` that joins the halves. Then a worker thread
    (``overlap``) walks the worker's lane while this thread walks the rest
    of the caller's lane. A gradient that the worker's walk would add to a
    caller-lane node, a shared parameter leaf, is set aside and added here
    after both walks end, in the worker's walk order, so the result does
    not depend on thread timing. An error in either walk is raised after
    both end. A tape whose worker lane reads a caller-lane node other than
    a leaf is walked on this thread alone.
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

    seed = np.ones_like(loss.data)
    root.grad = seed
    order.reverse()
    lanes = _lanes(order)
    if lanes is None:
        _walk(order)
    else:
        joined, worker, caller = lanes
        _walk(joined)
        aside, _ = overlap(lambda: _walk_aside(worker), lambda: _walk(caller))
        for node, grad in aside:
            node.accumulate(grad)
    root.grad = seed


def _lanes(order):
    """``(joined, worker, caller)``: the nodes of a reverse-topological
    ``order`` that ``backward`` walks first, on the worker and on the
    caller, each in walk order; None when it walks them on one thread."""
    if not any(node.lane for node in order):
        return None
    joined: set[int] = set()        # caller-lane nodes that read a worker-lane node
    for node in reversed(order):    # parents first
        if node.lane:
            if any(not p.lane and p.backward_fn is not None for p in node.parents):
                return None
        elif any(p.lane or id(p) in joined for p in node.parents):
            joined.add(id(node))
    return ([node for node in order if id(node) in joined],
            [node for node in order if node.lane],
            [node for node in order if not node.lane and id(node) not in joined])


def _walk(nodes):
    """Run each node's closure on its gradient, in order, and release it.
    A node is marked released before its closure runs, so a tape whose
    walk raised cannot be walked again."""
    for node in nodes:
        fn = node.backward_fn
        node.released = True
        if fn is not None and node.grad is not None:
            fn(node.grad)
        node.backward_fn = None
        node.parents = ()
        node.grad = None


def _walk_aside(nodes) -> list:
    """``_walk`` that returns, in order, the ``(node, grad)`` contributions
    it would have added to caller-lane nodes."""
    aside = []
    with _setting("aside", aside):
        _walk(nodes)
    return aside
