"""Late fusion of the two tower features, frame-difference ensembling,
and the regression objective.

Predictions are normalized survival times; the head output is linear
(no squashing). The raw volume and its frame-difference volumes share one
parameter set, so the ensemble is one forward pass of one network per
view, weighted as ``ensemble_views`` says.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError, UsageError
from .params import ParameterStore, uniform_fan_in

FRAME_DIFF_MODES = ("on", "forward-only", "backward-only", "off")


def init_head_params(store: ParameterStore, in_dim: int, hidden: int, rng, dtype=np.float32):
    store.add("head.w1", uniform_fan_in(rng, (in_dim, hidden), in_dim, dtype))
    store.add("head.b1", np.zeros(hidden, dtype=dtype))
    store.add("head.w2", uniform_fan_in(rng, (hidden, 1), hidden, dtype))
    # start predictions mid-range of the [0,1]-normalized targets
    store.add("head.b2", np.full(1, 0.5, dtype=dtype))


def fuse_predict(store: ParameterStore, features: ad.Tensor) -> ad.Tensor:
    """Two-layer ReLU MLP with linear output: (n, in_dim) -> (n, 1)."""
    w1 = store["head.w1"]
    if features.shape[1] != w1.shape[0]:
        raise ConfigError(
            f"fusion head expects width {w1.shape[0]}, got features of width {features.shape[1]}"
        )
    hidden = ad.relu(ad.add(ad.matmul(features, w1), ad.reshape(store["head.b1"], (1, -1))))
    return ad.add(ad.matmul(hidden, store["head.w2"]), ad.reshape(store["head.b2"], (1, -1)))


def frame_difference(volume: np.ndarray, direction: str) -> np.ndarray:
    """Consecutive-slice subtraction along the frame axis, zero-padded.

    The frame axis is -3, so this takes one (f,h,w) volume or any stack
    (..., f, h, w) of them, such as an (n,1,f,h,w) batch.
    forward: out[i] = v[i+1] - v[i], last slice zero.
    backward: out[i] = v[i-1] - v[i], first slice zero.
    """
    if volume.ndim < 3:
        raise DimensionError(f"expected (..., f, h, w) volumes, got shape {volume.shape}")
    if volume.shape[-3] < 2:
        raise DimensionError(f"frame difference needs at least 2 slices, got {volume.shape[-3]}")
    out = np.zeros_like(volume)
    if direction == "forward":
        out[..., :-1, :, :] = volume[..., 1:, :, :] - volume[..., :-1, :, :]
    elif direction == "backward":
        out[..., 1:, :, :] = volume[..., :-1, :, :] - volume[..., 1:, :, :]
    else:
        raise ConfigError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return out


def ensemble_views(frame_diff: str, omega: float) -> list[tuple[str | None, float]]:
    """(direction, weight) of each pass in the ensemble; ``None`` is the raw volume.

    The raw view gets omega and the difference views share 1 - omega
    evenly, so ``on`` weighs (omega, (1-omega)/2, (1-omega)/2) and a
    one-direction mode (omega, 1-omega). With no difference pass (``off``
    or omega=1) the raw view stands alone with weight 1.
    """
    directions = [d for d in ("forward", "backward") if frame_diff in ("on", f"{d}-only")]
    if not directions or omega == 1.0:
        return [(None, 1.0)]
    share = (1.0 - omega) / len(directions)
    return [(None, float(omega))] + [(d, share) for d in directions]


def mse_loss(predictions: ad.Tensor, targets: np.ndarray) -> ad.Tensor:
    if predictions.data.size == 0:
        raise UsageError("loss needs a non-empty batch")
    t = np.asarray(targets, dtype=predictions.dtype).reshape(predictions.shape)
    resid = ad.sub(predictions, ad.Tensor(t, dtype=predictions.dtype))
    return ad.mean_over(ad.mul(resid, resid), tuple(range(resid.data.ndim)))


def training_loss(
    predictions: ad.Tensor,
    targets: np.ndarray,
    store: ParameterStore,
    lam: float,
) -> tuple[ad.Tensor, ad.Tensor]:
    """``(loss, mse)``: the loss is the mean squared error plus lam * sum of
    squared decayed parameters, and ``mse`` is its first term, built once."""
    mse = mse_loss(predictions, targets)
    if not lam:
        return mse, mse
    return ad.add(mse, ad.mul(store.l2_penalty(), float(lam))), mse
