"""Fusion head, frame differencing, ensembling, and the loss."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survtower import autodiff as ad
from survtower import fusion as fu
from survtower.errors import ConfigError, DimensionError, UsageError
from survtower.params import ParameterStore
from survtower.train import TrainConfig


def make_head(in_dim=6, hidden=8, dtype=np.float64, seed=0):
    store = ParameterStore()
    fu.init_head_params(store, in_dim, hidden, np.random.default_rng(seed), dtype=dtype)
    return store


class TestFusePredict:
    def test_zero_weights_give_output_bias(self):
        store = make_head()
        for name, t in store.items():
            t.data = np.zeros_like(t.data) if name != "head.b2" else np.full(1, 0.3)
        out = fu.fuse_predict(store, ad.Tensor(np.ones((4, 6)), dtype=np.float64))
        np.testing.assert_allclose(out.data, 0.3)

    def test_scalar_per_row(self):
        for in_dim in (3, 10):
            store = make_head(in_dim=in_dim)
            out = fu.fuse_predict(store, ad.Tensor(np.ones((5, in_dim)), dtype=np.float64))
            assert out.shape == (5, 1)

    def test_width_mismatch(self):
        store = make_head(in_dim=6)
        with pytest.raises(ConfigError, match="width"):
            fu.fuse_predict(store, ad.Tensor(np.ones((2, 7))))

    def test_gradcheck(self):
        from survtower import gradcheck as gc

        store = make_head()
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((3, 6))
        w = rng.standard_normal((3, 1))

        def forward():
            return ad.sum_over(ad.mul(fu.fuse_predict(store, ad.Tensor(feats, dtype=np.float64)), w))

        for res in gc.check_gradients(forward, store.items(), rng, n_samples=4):
            assert res.passed, f"{res.name}: {res.max_rel_error:.2e}"


class TestFrameDifference:
    def test_constant_volume_zeroes_out(self):
        v = np.full((4, 3, 3), 2.5)
        assert np.all(fu.frame_difference(v, "forward") == 0)
        assert np.all(fu.frame_difference(v, "backward") == 0)

    def test_ramp_forward(self):
        v = np.stack([np.full((2, 2), i, dtype=float) for i in range(4)])
        out = fu.frame_difference(v, "forward")
        np.testing.assert_allclose(out[:, 0, 0], [1, 1, 1, 0])
        # an (n,1,f,h,w) batch differences each volume along its frame axis
        batch = np.stack([[v], [2.0 * v]])
        out = fu.frame_difference(batch, "forward")
        np.testing.assert_allclose(out[:, 0, :, 0, 0], [[1, 1, 1, 0], [2, 2, 2, 0]])

    def test_backward_antisymmetric_on_ramp(self):
        v = np.stack([np.full((2, 2), 2.0 * i) for i in range(5)])
        fwd = fu.frame_difference(v, "forward")
        bwd = fu.frame_difference(v, "backward")
        # interior slices carry opposite signs; the zero pad sits at opposite ends
        np.testing.assert_allclose(bwd[1:], -fwd[:-1])

    def test_too_few_slices(self):
        with pytest.raises(DimensionError, match="2 slices"):
            fu.frame_difference(np.ones((1, 3, 3)), "forward")

    def test_unknown_direction(self):
        with pytest.raises(ConfigError):
            fu.frame_difference(np.ones((3, 2, 2)), "sideways")


class TestEnsemble:
    @staticmethod
    def ensemble(frame_diff, omega, raw, fwd, bwd):
        preds = {None: raw, "forward": fwd, "backward": bwd}
        return sum(w * preds[d] for d, w in fu.ensemble_views(frame_diff, omega))

    def test_omega_one_is_bitwise_raw_prediction(self):
        for frame_diff in fu.FRAME_DIFF_MODES:
            assert fu.ensemble_views(frame_diff, 1.0) == [(None, 1.0)]
        for omega in (0.0, 0.4):
            assert fu.ensemble_views("off", omega) == [(None, 1.0)]
        assert self.ensemble("on", 1.0, 0.731, 0.2, 0.9) == 0.731

    def test_reference_substitution(self):
        assert self.ensemble("on", 0.4, 1.0, 0.5, 0.7) == pytest.approx(0.76)
        assert fu.ensemble_views("forward-only", 0.4) == [(None, 0.4), ("forward", 0.6)]
        assert fu.ensemble_views("backward-only", 0.4) == [(None, 0.4), ("backward", 0.6)]

    @given(
        st.sampled_from(fu.FRAME_DIFF_MODES), st.floats(0, 1),
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_convex_combination_bounds(self, frame_diff, omega, a, b, c):
        weights = [w for _, w in fu.ensemble_views(frame_diff, omega)]
        assert min(weights) >= 0
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        t_bar = self.ensemble(frame_diff, omega, a, b, c)
        lo, hi = min(a, b, c), max(a, b, c)
        assert lo - 1e-12 <= t_bar <= hi + 1e-12

    def test_omega_out_of_range(self):
        for omega in (-0.1, 1.5):
            with pytest.raises(ConfigError, match="omega"):
                TrainConfig(omega=omega)


class TestLoss:
    def test_perfect_predictions(self):
        pred = ad.Tensor(np.array([[0.2], [0.8]]), dtype=np.float64)
        loss = fu.mse_loss(pred, np.array([0.2, 0.8]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_single_residual(self):
        pred = ad.Tensor(np.array([[0.7]]), dtype=np.float64)
        loss = fu.mse_loss(pred, np.array([0.2]))
        assert loss.item() == pytest.approx(0.25)

    def test_l2_decomposition(self):
        store = make_head()
        pred = ad.Tensor(np.array([[0.5]]), dtype=np.float64)
        lam = 0.01
        loss, mse = fu.training_loss(pred, np.array([0.5]), store, lam)
        brute = sum(
            float((t.data ** 2).sum()) for name, t in store.items() if store.decays(name)
        )
        assert mse.item() == 0.0
        assert loss.item() == pytest.approx(lam * brute, rel=1e-9)

    def test_l2_excludes_non_decay_parameters(self):
        store = ParameterStore()
        store.add("w", np.full((2, 2), 3.0))
        store.add("ln.gain", np.full(4, 100.0), decay=False)
        assert float(store.l2_penalty().data) == pytest.approx(36.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(UsageError):
            fu.mse_loss(ad.Tensor(np.zeros((0, 1))), np.zeros(0))
