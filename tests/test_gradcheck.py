"""The finite-difference oracles themselves, at tier-1 sizes."""

from survtower import gradcheck


def test_op_checks_pass():
    results = gradcheck.op_checks(0)
    failed = [f"{r.name}: {r.max_rel_error:.2e}" for r in results if not r.passed]
    assert len(results) == 22 and not failed, failed


def test_model_check_passes():
    # covers every parameter tensor through the frame-difference ensemble's backward
    results = gradcheck.model_check(0, samples_per_tensor=2)
    failed = [f"{r.name}: {r.max_rel_error:.2e}" for r in results if not r.passed]
    assert len(results) == 64 and not failed, failed
