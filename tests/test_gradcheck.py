"""The finite-difference oracles themselves, at tier-1 sizes."""

import numpy as np
import pytest

from survtower import autodiff as ad
from survtower import gradcheck
from survtower.errors import UsageError


def test_op_checks_pass():
    results = gradcheck.op_checks(0)
    failed = [f"{r.name}: {r.max_rel_error:.2e}" for r in results if not r.passed]
    assert len(results) == 24 and not failed, failed


def test_model_check_passes():
    # covers every parameter tensor through the frame-difference ensemble's backward
    results = gradcheck.model_check(0, samples_per_tensor=2)
    failed = [f"{r.name}: {r.max_rel_error:.2e}" for r in results if not r.passed]
    assert len(results) == 60 and not failed, failed


@pytest.mark.parametrize("scaled", [False, True], ids=["exact", "scaled"])
def test_check_catches_a_slightly_scaled_gradient(scaled):
    # a backward that is off by 0.1 % fails for every argument, so the
    # small step leaves the oracle sharp enough to see it
    def conv(x, k):
        out = ad.conv3d(x, k, stride=(1, 2, 2), padding=1)
        fn = out._backward_fn
        if scaled and fn is not None:
            out._backward_fn = lambda g: fn(g * (1 + 1e-3))
        return out

    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((2, 2, 3, 5, 5)), rng.standard_normal((3, 2, 2, 3, 3))]
    results = gradcheck.check_builder("conv3d", conv, arrays, rng)
    assert [r.passed for r in results] == [not scaled] * 2, [r.max_rel_error for r in results]


def test_missing_gradient_is_a_usage_error():
    # a tensor that the loss does not reach has no gradient to check
    used, unused = (ad.Tensor(np.ones(3), requires_grad=True, dtype=np.float64) for _ in range(2))
    with pytest.raises(UsageError, match="no gradient reached unused"):
        gradcheck.check_gradients(lambda: ad.sum_over(used), [("used", used), ("unused", unused)],
                                  np.random.default_rng(0), 2)
