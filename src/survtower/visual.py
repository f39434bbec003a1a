"""Volume tower: a small 3D residual network whose blocks carry
squeeze-and-excitation gates (Hu et al., arXiv 1709.01507).

Feature maps are laid out [n, c, f, h, w] (batch, channels, frames,
in-plane). One gate, ``squeeze_excite``, serves both blocks of the
paper's 3D-SE Resblock: along axis 1 it is the channel SE block, along
axis 2 the temporal SE block. It reads the (n, c, f) spatial means of
the map; the global descriptor also averages the other axis, the local
descriptors keep it, and the SAME bottleneck weights excite both. Each
joint gate entry is a product of two sigmoids, so it lies strictly
inside (0,1). ``VisualBackboneConfig.se_blocks`` names the gates a
block runs, first one first, and ``se_mode`` the descriptors of every
gate; "off" runs none.

A gate is constant over space, so gating a map scales its spatial means
by the gate. A block therefore pools its branch once, computes the
second gate from the pooled means times the first gate, and multiplies
the full branch once, by the product of its gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .params import uniform_fan_in

SE_MODES = ("joint", "global", "local", "off")
# which gates a block runs, the first one first
SE_BLOCKS = ("channel-temporal", "temporal-channel", "channel", "temporal")
# each gate's parameter prefix and the axis of the (n, c, f) means it gates;
# a block registers its gates' parameters in this order, whichever runs first
SE_GATES = {"channel": ("se_c", 1), "temporal": ("se_t", 2)}
# the bottleneck of every gate halves its input width
SE_RATIO = 2


@dataclass(frozen=True)
class VisualBackboneConfig:
    """The visual tower's view of a ``TrainConfig``, built by its ``model_config``."""

    frames: int
    in_plane: int
    widths: tuple
    blocks_per_stage: int
    se_mode: str     # one of SE_MODES: the descriptors of every gate
    se_blocks: str   # one of SE_BLOCKS: the gates a block runs, the first one first
    # fixed: no stride touches the frame axis, so the temporal gate fits every stage
    stem_stride: ClassVar[tuple] = (1, 2, 2)
    stage_stride: ClassVar[tuple] = (1, 2, 2)

    @property
    def gates(self) -> tuple:
        """(parameter prefix, axis) of each gate a block runs, in order."""
        return () if self.se_mode == "off" else tuple(SE_GATES[g] for g in self.se_blocks.split("-"))

    @property
    def feature_dim(self) -> int:
        return self.widths[-1]

    def blocks(self):
        """(prefix, c_in, c_out, stride) of each residual block, in order:
        the first block of every stage after the first is strided."""
        c_in = self.widths[0]
        for s, width in enumerate(self.widths):
            for b in range(self.blocks_per_stage):
                stride = self.stage_stride if s > 0 and b == 0 else 1
                yield f"visual.stage{s}.block{b}", c_in, width, stride
                c_in = width


def excitation(pooled: ad.Tensor, w1: ad.Tensor, w2: ad.Tensor) -> ad.Tensor:
    """Bottleneck gate sigmoid(W1 relu(W2 p)) applied to rows of pooled."""
    c = pooled.shape[-1]
    if w2.shape[1] != c or w1.shape[0] != c or w1.shape[1] != w2.shape[0]:
        raise DimensionError(
            f"excitation weights {tuple(w1.shape)}/{tuple(w2.shape)} do not match width {c}"
        )
    hidden = ad.relu(ad.matmul(pooled, ad.transpose(w2)))
    return ad.sigmoid(ad.matmul(hidden, ad.transpose(w1)))


def squeeze_excite(pooled: ad.Tensor, w1: ad.Tensor, w2: ad.Tensor, axis: int, mode: str = "joint") -> ad.Tensor:
    """Gate along ``axis`` (1: channels, 2: frames) of a map whose spatial
    means are ``pooled`` (n,c,f).

    The global descriptor averages ``pooled`` over the other axis; the
    local descriptors keep it, one row per channel or frame, and run
    through the same bottleneck. "joint" multiplies the two gates,
    "global" and "local" use one alone. The gate broadcasts against
    (n,c,f); a "global" gate keeps the other axis at size 1.
    """
    if mode not in ("joint", "global", "local"):
        raise ConfigError(f"unknown gate mode {mode!r}")
    other = 3 - axis
    gate = None
    if mode != "local":
        keep = tuple(1 if i == other else d for i, d in enumerate(pooled.shape))
        gate = ad.reshape(excitation(ad.mean_over(pooled, other), w1, w2), keep)
    if mode != "global":
        swap = (0, other, axis)                                              # its own inverse
        local = ad.transpose(excitation(ad.transpose(pooled, swap), w1, w2), swap)
        gate = local if gate is None else ad.mul(local, gate)
    return gate


def _conv(store, prefix, x, stride=1):
    out = ad.conv3d(x, store[f"{prefix}.weight"], stride=stride, padding=1)
    bias = store[f"{prefix}.bias"]
    return ad.add(out, ad.reshape(bias, (-1, 1, 1, 1)))


def init_block_params(store, prefix, c_in, c_out, config: VisualBackboneConfig, rng, dtype, strided):
    k = (c_out, c_in, 3, 3, 3)
    store.add(f"{prefix}.conv1.weight", uniform_fan_in(rng, k, c_in * 27, dtype))
    store.add(f"{prefix}.conv1.bias", np.zeros(c_out, dtype=dtype))
    store.add(f"{prefix}.conv2.weight", uniform_fan_in(rng, (c_out, c_out, 3, 3, 3), c_out * 27, dtype))
    store.add(f"{prefix}.conv2.bias", np.zeros(c_out, dtype=dtype))
    for name, axis in SE_GATES.values():
        if (name, axis) in config.gates:
            width = c_out if axis == 1 else config.frames
            hidden = width // SE_RATIO
            store.add(f"{prefix}.{name}.w1", uniform_fan_in(rng, (width, hidden), hidden, dtype))
            store.add(f"{prefix}.{name}.w2", uniform_fan_in(rng, (hidden, width), width, dtype))
    if strided or c_in != c_out:
        store.add(f"{prefix}.shortcut.weight", uniform_fan_in(rng, (c_out, c_in, 1, 1, 1), c_in, dtype))


def se_resblock_forward(store, prefix, x, config: VisualBackboneConfig, stride=1):
    """Residual block: conv-relu-conv, SE gates on the branch, then add.

    The gates ``config.gates`` names run after the second convolution and
    before the residual addition, in that order. The branch is pooled
    once; the second gate reads the pooled means times the first gate,
    which are the means of the once-gated branch, and the branch is
    multiplied once, by the product of the gates.
    """
    branch = ad.relu(_conv(store, f"{prefix}.conv1", x, stride=stride))
    branch = _conv(store, f"{prefix}.conv2", branch)
    gate = None
    for name, axis in config.gates:
        pooled = ad.mean_over(branch, (3, 4)) if gate is None else ad.mul(pooled, gate)
        g = squeeze_excite(pooled, store[f"{prefix}.{name}.w1"], store[f"{prefix}.{name}.w2"], axis, config.se_mode)
        gate = g if gate is None else ad.mul(gate, g)
    if gate is not None:
        branch = ad.mul(branch, ad.reshape(gate, gate.shape + (1, 1)))
    if f"{prefix}.shortcut.weight" in store:
        shortcut = ad.conv3d(x, store[f"{prefix}.shortcut.weight"], stride=stride, padding=0)
    else:
        shortcut = x
    return ad.add(shortcut, branch)


def init_visual_params(store, config: VisualBackboneConfig, rng, dtype=np.float32):
    first = config.widths[0]
    store.add("visual.stem.weight", uniform_fan_in(rng, (first, 1, 3, 3, 3), 27, dtype))
    store.add("visual.stem.bias", np.zeros(first, dtype=dtype))
    for prefix, c_in, c_out, stride in config.blocks():
        init_block_params(store, prefix, c_in, c_out, config, rng, dtype, stride != 1)


def backbone_forward(store, config: VisualBackboneConfig, volumes: ad.Tensor) -> ad.Tensor:
    """(n,1,f,h,w) volume batch -> (n, feature_dim) pooled features."""
    n = volumes.shape[0]
    expected = (config.frames, config.in_plane, config.in_plane)
    if tuple(volumes.shape[2:]) != expected or volumes.shape[1] != 1:
        raise ConfigError(
            f"volume batch shape {tuple(volumes.shape)} does not match configured input {expected}"
        )
    x = ad.relu(_conv(store, "visual.stem", volumes, stride=config.stem_stride))
    for prefix, _, _, stride in config.blocks():
        x = se_resblock_forward(store, prefix, x, config, stride=stride)
    return ad.mean_over(x, (2, 3, 4))
