"""Visual tower: squeeze-excite algebra, block structure, gradients."""

import weakref

import numpy as np
import pytest

from survtower import autodiff as ad
from survtower import visual as vz
from survtower.errors import ConfigError, DimensionError
from survtower.params import ParameterStore
from survtower.train import TrainConfig
from test_autodiff import closure_values


def rand_feature(rng, n=1, c=4, f=4, h=3, w=3, dtype=np.float64):
    return ad.Tensor(rng.standard_normal((n, c, f, h, w)), dtype=dtype)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def logit(p):
    return np.log(p / (1.0 - p))


def gated(feature, w1, w2, axis, mode="joint"):
    """The map times the gate that squeeze_excite computes from its spatial means."""
    gate = vz.squeeze_excite(ad.mean_over(feature, (3, 4)), w1, w2, axis, mode)
    return ad.mul(feature, ad.reshape(gate, gate.shape + (1, 1)))


def squeeze_excite(arr, w1, w2, axis, mode="joint"):
    return gated(ad.Tensor(arr, dtype=np.float64), ad.Tensor(w1, dtype=np.float64),
                 ad.Tensor(w2, dtype=np.float64), axis, mode).data


def gates(arr, w1, w2, axis, mode="joint"):
    """The (n,c,f) gate squeeze_excite applies, read back as output / input."""
    return (squeeze_excite(arr, w1, w2, axis, mode) / arr)[..., 0, 0]


def se_oracle(arr, w1, w2, axis, mode):
    """Scalar reference for one map: channel j, frame i scaled by its gate."""
    def excite(p):
        return sigmoid(w1 @ np.maximum(w2 @ p, 0))

    c, f = arr.shape[1:3]
    global_gate = excite(arr[0].mean(axis=tuple(a for a in range(4) if a != axis - 1)))
    expected = np.empty_like(arr)
    for j in range(c):
        for i in range(f):
            if axis == 1:   # channel gate; local descriptor is frame i's channel profile
                k, local_gate = j, excite(arr[0, :, i].mean(axis=(1, 2)))[j]
            else:           # frame gate; local descriptor is channel j's frame profile
                k, local_gate = i, excite(arr[0, j].mean(axis=(1, 2)))[i]
            gate = {"joint": local_gate * global_gate[k], "global": global_gate[k], "local": local_gate}[mode]
            expected[0, j, i] = arr[0, j, i] * gate
    return expected


class TestChannelSqueeze:
    def test_constant_map(self):
        eye = np.eye(3)
        out = squeeze_excite(np.full((1, 3, 2, 4, 4), 5.0), eye, eye, axis=1)
        # every descriptor of a constant map is the constant
        np.testing.assert_allclose(out, 5.0 * sigmoid(5.0) ** 2)

    def test_zero_channel(self):
        arr = np.ones((1, 2, 2, 3, 3))
        arr[:, 0] = 0.0
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = squeeze_excite(arr, swap, np.eye(2), axis=1)
        # channel 1 is gated by channel 0's descriptors, which are all zero
        np.testing.assert_allclose(out[0, 1], 0.25)
        assert np.all(out[0, 0] == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        arr = rng.uniform(0.5, 1.5, (1, 2, 3, 4, 4))
        g = logit(gates(arr, np.eye(2), np.eye(2), axis=1, mode="global"))
        for j in range(2):
            acc = 0.0
            for i in range(3):
                for y in range(4):
                    for x in range(4):
                        acc += arr[0, j, i, y, x]
            np.testing.assert_allclose(g[0, j], acc / (3 * 4 * 4), atol=1e-9)

    def test_consistent_with_temporal_pool(self):
        rng = np.random.default_rng(1)
        arr = rng.uniform(0.5, 1.5, (1, 4, 4, 3, 3))
        eye = np.eye(4)
        for axis in (1, 2):
            globl = logit(gates(arr, eye, eye, axis, mode="global"))
            local = logit(gates(arr, eye, eye, axis, mode="local"))
            other = 3 - axis
            np.testing.assert_allclose(globl, np.broadcast_to(local.mean(axis=other, keepdims=True), globl.shape),
                                       atol=1e-9)


class TestExcitation:
    def test_zero_outer_weight_gives_half(self):
        p = ad.Tensor(np.random.default_rng(2).standard_normal((1, 4)))
        w1 = ad.Tensor(np.zeros((4, 2)))
        w2 = ad.Tensor(np.ones((2, 4)))
        np.testing.assert_allclose(vz.excitation(p, w1, w2).data, 0.5)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        p = ad.Tensor(rng.standard_normal((8, 4)) * 10)
        w1 = ad.Tensor(rng.standard_normal((4, 2)))
        w2 = ad.Tensor(rng.standard_normal((2, 4)))
        g = vz.excitation(p, w1, w2).data
        assert np.all(g > 0) and np.all(g < 1)

    def test_matches_hand_computation(self):
        p = np.array([[0.5, -1.0, 2.0, 0.0]])
        w2 = np.arange(8, dtype=float).reshape(2, 4) / 10
        w1 = np.arange(8, dtype=float).reshape(4, 2) / 10 - 0.3
        hidden = np.maximum(w2 @ p[0], 0)
        expected = sigmoid(w1 @ hidden)
        out = vz.excitation(ad.Tensor(p, dtype=np.float64), ad.Tensor(w1, dtype=np.float64),
                            ad.Tensor(w2, dtype=np.float64))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            vz.excitation(ad.Tensor(np.ones((1, 4))), ad.Tensor(np.ones((3, 2))), ad.Tensor(np.ones((2, 4))))


class TestTemporalPool:
    def test_constant_frames(self):
        arr = np.zeros((1, 2, 3, 4, 4))
        for i in range(3):
            arr[:, :, i] = i + 1
        g = logit(gates(arr, np.eye(2), np.eye(2), axis=1, mode="local"))
        assert g.shape == (1, 2, 3)
        for i in range(3):
            np.testing.assert_allclose(g[0, :, i], i + 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        arr = rng.uniform(0.5, 1.5, (1, 2, 2, 4, 5))
        for axis in (1, 2):
            g = logit(gates(arr, np.eye(2), np.eye(2), axis, mode="local"))
            for i in range(2):
                for j in range(2):
                    assert g[0, j, i] == pytest.approx(arr[0, j, i].mean(), abs=1e-9)


class TestPerFrameGates:
    def test_identical_frames_match_global_gate(self):
        rng = np.random.default_rng(5)
        plane = rng.standard_normal((1, 4, 1, 3, 3))
        arr = np.repeat(plane, 5, axis=2)
        w1 = rng.standard_normal((4, 2))
        w2 = rng.standard_normal((2, 4))
        local = squeeze_excite(arr, w1, w2, axis=1, mode="local")
        globl = squeeze_excite(arr, w1, w2, axis=1, mode="global")
        np.testing.assert_allclose(local, globl, atol=1e-9)

    def test_zero_outer_weight(self):
        rng = np.random.default_rng(6)
        arr = rand_feature(rng).data
        for axis in (1, 2):
            out = squeeze_excite(arr, np.zeros((4, 2)), rng.standard_normal((2, 4)), axis, mode="local")
            np.testing.assert_allclose(out, 0.5 * arr)


class TestJointGate:
    def test_unit_global_passes_local(self):
        # the joint gate is the local gate scaled by the global one
        rng = np.random.default_rng(7)
        arr = rand_feature(rng).data
        w1, w2 = rng.standard_normal((4, 2)), rng.standard_normal((2, 4))
        for axis in (1, 2):
            joint = gates(arr, w1, w2, axis, "joint")
            product = gates(arr, w1, w2, axis, "local") * gates(arr, w1, w2, axis, "global")
            np.testing.assert_allclose(joint, product, rtol=1e-12)

    def test_product_of_halves(self):
        rng = np.random.default_rng(8)
        arr = rand_feature(rng).data
        for axis in (1, 2):
            out = squeeze_excite(arr, np.zeros((4, 2)), rng.standard_normal((2, 4)), axis)
            np.testing.assert_allclose(out, 0.25 * arr)

    def test_ablation_modes(self):
        # the global gate is one value per channel (axis 1) or frame (axis 2);
        # the local gates also vary along the other axis
        rng = np.random.default_rng(8)
        arr = rand_feature(rng).data
        w1, w2 = rng.standard_normal((4, 2)), rng.standard_normal((2, 4))
        for axis in (1, 2):
            other = 3 - axis
            globl = gates(arr, w1, w2, axis, "global")
            local = gates(arr, w1, w2, axis, "local")
            np.testing.assert_allclose(globl, np.broadcast_to(globl.take([0], axis=other), globl.shape), rtol=1e-12)
            assert not np.allclose(local, np.broadcast_to(local.take([0], axis=other), local.shape))


class TestChannelSEApply:
    def test_identity_and_annihilation(self):
        rng = np.random.default_rng(9)
        arr = rng.uniform(0.5, 1.5, (1, 4, 3, 3, 3))
        for axis in (1, 2):
            big = 1e3 * np.eye(arr.shape[axis])
            # saturated sigmoids: every gate is exactly 1, then exactly 0
            np.testing.assert_array_equal(squeeze_excite(arr, big, big, axis), arr)
            np.testing.assert_array_equal(squeeze_excite(arr, -big, big, axis), 0.0)

    def test_matches_loop_oracle(self):
        # one gate per (channel, frame) plane, uniform over the plane
        rng = np.random.default_rng(10)
        arr = rand_feature(rng, c=2, f=2).data
        for axis in (1, 2):
            ratio = squeeze_excite(arr, rng.standard_normal((2, 1)), rng.standard_normal((1, 2)), axis) / arr
            for i in range(2):
                for j in range(2):
                    np.testing.assert_allclose(ratio[0, j, i], ratio[0, j, i, 0, 0], rtol=1e-12)


class TestTemporalSE:
    def test_half_gates_when_outer_weights_zero(self):
        rng = np.random.default_rng(11)
        t = rand_feature(rng, c=4, f=4)
        w1 = ad.Tensor(np.zeros((4, 2)), dtype=np.float64)
        w2 = ad.Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
        out = gated(t, w1, w2, axis=2)
        np.testing.assert_allclose(out.data, 0.25 * t.data, atol=1e-9)


class TestSqueezeExcite:
    @pytest.mark.parametrize("mode", ["joint", "global", "local"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_matches_scalar_reimplementation(self, axis, mode):
        rng = np.random.default_rng(12)
        arr = rng.standard_normal((1, 3, 4, 2, 2))
        size = arr.shape[axis]
        w1 = rng.standard_normal((size, 2))
        w2 = rng.standard_normal((2, size))
        out = squeeze_excite(arr, w1, w2, axis, mode)
        np.testing.assert_allclose(out, se_oracle(arr, w1, w2, axis, mode), atol=1e-9)

    def test_unknown_mode(self):
        eye = np.eye(4)
        with pytest.raises(ConfigError):
            squeeze_excite(np.ones((1, 4, 4, 2, 2)), eye, eye, axis=1, mode="off")


def tiny_backbone(se_mode="joint", blocks="channel-temporal", dtype=np.float64, seed=0):
    config = TrainConfig(
        towers="visual", frames=4, in_plane=8, widths=(4, 8), blocks_per_stage=1,
        se_mode=se_mode, se_blocks=blocks,
    ).model_config().visual
    store = ParameterStore()
    vz.init_visual_params(store, config, np.random.default_rng(seed), dtype=dtype)
    return config, store


def conv3d_loop_oracle(x, k, stride, padding):
    """Direct nested-loop cross-correlation for tiny inputs."""
    n, c, f, h, w = x.shape
    ko, _, kf, kh, kw = k.shape
    sf, sh, sw = stride
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding), (padding, padding)))
    of = (f + 2 * padding - kf) // sf + 1
    oh = (h + 2 * padding - kh) // sh + 1
    ow = (w + 2 * padding - kw) // sw + 1
    out = np.zeros((n, ko, of, oh, ow))
    for b in range(n):
        for o in range(ko):
            for i in range(of):
                for y in range(oh):
                    for z in range(ow):
                        patch = xp[b, :, i * sf:i * sf + kf, y * sh:y * sh + kh, z * sw:z * sw + kw]
                        out[b, o, i, y, z] = (patch * k[o]).sum()
    return out


def plain_resblock_oracle(store, prefix, x, stride=1):
    """Residual block without any gating, computed with the loop conv."""
    w1 = store[f"{prefix}.conv1.weight"].data
    b1 = store[f"{prefix}.conv1.bias"].data
    w2 = store[f"{prefix}.conv2.weight"].data
    b2 = store[f"{prefix}.conv2.bias"].data
    s = (stride, stride, stride) if isinstance(stride, int) else tuple(stride)
    branch = conv3d_loop_oracle(x, w1, s, 1) + b1.reshape(-1, 1, 1, 1)
    branch = np.maximum(branch, 0)
    branch = conv3d_loop_oracle(branch, w2, (1, 1, 1), 1) + b2.reshape(-1, 1, 1, 1)
    if f"{prefix}.shortcut.weight" in store:
        shortcut = conv3d_loop_oracle(x, store[f"{prefix}.shortcut.weight"].data, s, 0)
    else:
        shortcut = x
    return shortcut + branch


class TestResBlock:
    def test_zeroed_convs_give_identity(self):
        config, store = tiny_backbone()
        for name, t in store.items():
            if "conv" in name and "stage0.block0" in name:
                t.data = np.zeros_like(t.data)
        rng = np.random.default_rng(13)
        x = rand_feature(rng, c=4, f=4, h=8, w=8)
        out = vz.se_resblock_forward(store, "visual.stage0.block0", x, config)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_se_off_equals_plain_residual_oracle(self):
        config, store = tiny_backbone(se_mode="off")
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 4, 4, 6, 6))
        out = vz.se_resblock_forward(store, "visual.stage0.block0", ad.Tensor(x, dtype=np.float64), config)
        expected = plain_resblock_oracle(store, "visual.stage0.block0", x)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_zero_se_outer_weights_quarter_scaling(self):
        config, store = tiny_backbone()
        prefix = "visual.stage0.block0"
        store[f"{prefix}.se_c.w1"].data = np.zeros_like(store[f"{prefix}.se_c.w1"].data)
        store[f"{prefix}.se_t.w1"].data = np.zeros_like(store[f"{prefix}.se_t.w1"].data)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 4, 4, 6, 6))
        out = vz.se_resblock_forward(store, prefix, ad.Tensor(x, dtype=np.float64), config)
        plain = plain_resblock_oracle(store, prefix, x)
        branch = plain - x
        # each SE block contributes a 0.25 factor, stacked: 0.0625
        np.testing.assert_allclose(out.data, x + 0.0625 * branch, atol=1e-6)

    def test_stacking_order_changes_output(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 4, 4, 6, 6))
        cf, store = tiny_backbone(blocks="channel-temporal", seed=3)
        out1 = vz.se_resblock_forward(store, "visual.stage0.block0", ad.Tensor(x, dtype=np.float64), cf)
        tf, store2 = tiny_backbone(blocks="temporal-channel", seed=3)
        out2 = vz.se_resblock_forward(store2, "visual.stage0.block0", ad.Tensor(x, dtype=np.float64), tf)
        assert not np.allclose(out1.data, out2.data)

    def test_gates_strictly_in_unit_interval(self):
        rng = np.random.default_rng(17)
        arr = rand_feature(rng, c=4, f=4).data
        for axis in (1, 2):
            g = gates(arr, rng.standard_normal((4, 2)) * 5, rng.standard_normal((2, 4)) * 5, axis)
            assert np.all(g > 0) and np.all(g < 1)

    @pytest.mark.parametrize("mode", ["joint", "global", "local"])
    def test_block_gradcheck(self, mode):
        from survtower import gradcheck as gc

        config, store = tiny_backbone(se_mode=mode)
        rng = np.random.default_rng(18)
        x_arr = rng.standard_normal((1, 4, 4, 6, 6))
        weights = rng.standard_normal((1, 4, 4, 6, 6))

        def forward():
            out = vz.se_resblock_forward(store, "visual.stage0.block0", ad.Tensor(x_arr, dtype=np.float64), config)
            return ad.sum_over(ad.mul(out, weights))

        loss = forward()
        ad.backward(loss)

        def f():
            with ad.no_grad():
                return float(forward().data)

        worst = 0.0
        for name, tensor in store.items():
            if tensor.grad is None:
                continue
            res = gc.check_tensor_grad(name, f, tensor.data, tensor.grad, rng, n_samples=3)
            worst = max(worst, res.max_rel_error)
        assert worst <= 1e-4, f"block gradient mismatch: {worst:.2e}"

    def test_shared_weights_accumulate_both_paths(self):
        # the shared bottleneck gradient must include the global path and
        # every local path; dropping either must change it
        rng = np.random.default_rng(19)
        t = rand_feature(rng, c=4, f=4)
        w1 = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True, dtype=np.float64)
        w2 = ad.Tensor(rng.standard_normal((2, 4)), requires_grad=True, dtype=np.float64)
        grads = {}
        for axis in (1, 2):
            for mode in ("joint", "global", "local"):
                w1.grad = w2.grad = None
                ad.backward(ad.sum_over(gated(t, w1, w2, axis, mode)))
                grads[mode] = w2.grad.copy()
            assert not np.allclose(grads["joint"], grads["global"])
            assert not np.allclose(grads["joint"], grads["local"])

    @pytest.mark.parametrize("first, gates", [("channel-first", "both"), ("channel-first", "channel"),
                                              ("channel-first", "temporal"), ("temporal-first", "both")])
    @pytest.mark.parametrize("mode", vz.SE_MODES)
    def test_matches_two_multiply_composition(self, mode, first, gates):
        # one multiply by the product gate equals gating the map once per gate,
        # in order; se_blocks names the stack, and a stack of one gate has no order,
        # so only the two-gate stack runs temporal-first
        stack = [g for g in ("channel", "temporal") if gates in ("both", g)]
        if first == "temporal-first":
            stack.reverse()
        config, store = tiny_backbone(se_mode=mode, blocks="-".join(stack), seed=5)
        prefix = "visual.stage0.block0"
        x = ad.Tensor(np.random.default_rng(23).standard_normal((2, 4, 4, 6, 6)), dtype=np.float64)
        branch = vz._conv(store, f"{prefix}.conv2", ad.relu(vz._conv(store, f"{prefix}.conv1", x)))
        for gate in stack if mode != "off" else ():
            name, axis = {"channel": ("se_c", 1), "temporal": ("se_t", 2)}[gate]
            branch = gated(branch, store[f"{prefix}.{name}.w1"], store[f"{prefix}.{name}.w2"], axis, mode)
        out = vz.se_resblock_forward(store, prefix, x, config)
        np.testing.assert_allclose(out.data, x.data + branch.data, rtol=1e-12, atol=0)

    def test_tape_holds_each_activation_once(self):
        # a stride-1 block's backward reads four full-size arrays: x (conv1's
        # kernel gradient), the ReLU output (its mask, conv2's kernel gradient),
        # the pre-gate branch (the gate's gradient) and the block output; the
        # conv outputs, the bias sums and the gated branch are not kept
        store = ParameterStore()
        config = TrainConfig(towers="visual", frames=4).model_config().visual
        vz.init_block_params(store, "b", 8, 8, config, np.random.default_rng(24), np.float64, strided=False)
        x = ad.Tensor(np.random.default_rng(25).standard_normal((2, 8, 4, 6, 6)), dtype=np.float64)
        out = vz.se_resblock_forward(store, "b", x, config)
        held, seen, stack = {id(out.data): out.data}, set(), [out._node]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            values = closure_values(node.backward_fn) if node.backward_fn else []
            assert not any(isinstance(v, ad.Tensor) for v in values), node.backward_fn.__qualname__
            held.update((id(v), v) for v in values if isinstance(v, np.ndarray))
            stack.extend(node.parents)
        assert sum(a.size >= x.data.size for a in held.values()) == 4

    def test_conv_output_before_bias_is_freed(self, monkeypatch):
        config, store = tiny_backbone()
        x = rand_feature(np.random.default_rng(26), c=4, f=4, h=6, w=6)
        refs = []
        conv3d = ad.conv3d

        def spy(*args, **kwargs):
            out = conv3d(*args, **kwargs)
            refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(ad, "conv3d", spy)
        out = vz._conv(store, "visual.stage0.block0.conv1", x)
        assert out.requires_grad and len(refs) == 1
        freed = refs[0]() is None
        assert freed, "the tape keeps the conv output that only the bias add read"


class TestBackbone:
    def test_feature_width_matches_last_stage(self):
        config, store = tiny_backbone()
        rng = np.random.default_rng(20)
        vol = ad.Tensor(rng.standard_normal((2, 1, 4, 8, 8)), dtype=np.float64)
        out = vz.backbone_forward(store, config, vol)
        assert out.shape == (2, config.feature_dim)

    def test_deterministic(self):
        config, store = tiny_backbone()
        rng = np.random.default_rng(21)
        vol = rng.standard_normal((1, 1, 4, 8, 8))
        a = vz.backbone_forward(store, config, ad.Tensor(vol, dtype=np.float64)).data
        b = vz.backbone_forward(store, config, ad.Tensor(vol, dtype=np.float64)).data
        assert np.array_equal(a, b)

    def test_input_dim_mismatch(self):
        config, store = tiny_backbone()
        with pytest.raises(ConfigError):
            vz.backbone_forward(store, config, ad.Tensor(np.ones((1, 1, 4, 9, 9))))

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="frame count 3"):
            TrainConfig(frames=3)
        with pytest.raises(ConfigError, match="stage width 5"):
            TrainConfig(widths=(5,))
        with pytest.raises(ConfigError, match="blocks_per_stage must be positive"):
            TrainConfig(blocks_per_stage=0)
        with pytest.raises(ConfigError, match="se_mode must be one of"):
            TrainConfig(se_mode="sideways")
        # two gates run in the order the setting names; there is no unordered "both"
        with pytest.raises(ConfigError, match="'channel-temporal', 'temporal-channel'"):
            TrainConfig(se_blocks="both")

    def test_each_se_setting_names_one_model(self):
        # "off" runs no gate, so it alone leaves se_blocks unread
        x = ad.Tensor(np.random.default_rng(27).standard_normal((2, 1, 4, 8, 8)), dtype=np.float64)
        outputs = {}
        for mode in vz.SE_MODES:
            for blocks in vz.SE_BLOCKS:
                config, store = tiny_backbone(se_mode=mode, blocks=blocks, seed=8)
                outputs[mode, blocks] = vz.backbone_forward(store, config, x).data.tobytes()
        off = {outputs.pop(("off", blocks)) for blocks in vz.SE_BLOCKS}
        assert len(off) == 1
        assert len(set(outputs.values()) | off) == len(outputs) + 1

    def test_smallest_input_keeps_every_stage(self):
        # a stride-2, padding-1 conv maps in-plane 1 to 1, and no stride touches the frames
        config = TrainConfig(towers="visual", frames=1, in_plane=1, widths=(2, 2, 2), blocks_per_stage=1,
                             se_mode="off", frame_diff="off").model_config().visual
        store = ParameterStore()
        vz.init_visual_params(store, config, np.random.default_rng(0), dtype=np.float64)
        out = vz.backbone_forward(store, config, ad.Tensor(np.ones((2, 1, 1, 1, 1))))
        assert out.shape == (2, 2)

    def test_stem_conv_matches_loop_oracle(self):
        # the one-channel stem takes conv3d's im2col branch
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 1, 4, 7, 8))
        k = rng.standard_normal((3, 1, 3, 3, 3))
        for stride in ((1, 2, 2), (2, 1, 3)):
            out = ad.conv3d(ad.Tensor(x, dtype=np.float64), ad.Tensor(k, dtype=np.float64),
                            stride=stride, padding=1)
            np.testing.assert_allclose(out.data, conv3d_loop_oracle(x, k, stride, 1), rtol=1e-12, atol=1e-12)
