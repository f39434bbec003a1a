"""Central finite-difference gradient checking.

This is the independent oracle for every backward implementation: the
checker never calls ``backward`` to form its reference, only repeated
forward evaluations at 64-bit precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative error floor: errors are measured against at least this scale so
# that a near-zero analytic/numeric pair does not explode the ratio
REL_FLOOR = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_FLOOR)


def numeric_gradient(f, x: np.ndarray, indices, step: float = 1e-4) -> dict[tuple, float]:
    """Central differences of scalar-valued f at the given flat indices of x.

    x is perturbed in place and restored; f must not retain references into x.
    """
    grads = {}
    flat = x.reshape(-1)
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + step
        f_plus = f()
        flat[idx] = orig - step
        f_minus = f()
        flat[idx] = orig
        grads[idx] = (f_plus - f_minus) / (2.0 * step)
    return grads


def check_tensor_grad(
    name: str,
    f,
    x: np.ndarray,
    analytic: np.ndarray,
    rng: np.random.Generator,
    n_samples: int = 5,
    step: float = 1e-4,
    tolerance: float = 1e-4,
) -> CheckResult:
    """Compare analytic grads of f w.r.t. x against central differences.

    Checks ``n_samples`` randomly chosen entries (or all entries when the
    tensor is small enough).
    """
    size = x.size
    if size <= n_samples:
        indices = list(range(size))
    else:
        indices = list(rng.choice(size, size=n_samples, replace=False))
    numeric = numeric_gradient(f, x, indices, step=step)
    flat_analytic = analytic.reshape(-1)
    max_err = 0.0
    for idx, num in numeric.items():
        max_err = max(max_err, relative_error(float(flat_analytic[idx]), num))
    return CheckResult(name=name, max_rel_error=max_err, checked=len(indices), tolerance=tolerance)


def directional_check(
    f,
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    rng: np.random.Generator,
    step: float = 1e-4,
    tolerance: float = 1e-4,
) -> CheckResult:
    """Whole-parameter-vector check: d/dt f(theta + t*u) at t=0 vs u . grad.

    Covers every entry of every tensor in two forward passes.
    """
    directions = [rng.standard_normal(a.shape) for a in arrays]
    norm = np.sqrt(sum(float((d * d).sum()) for d in directions))
    directions = [d / norm for d in directions]

    originals = [a.copy() for a in arrays]
    for a, d in zip(arrays, directions):
        a += step * d
    f_plus = f()
    for a, o, d in zip(arrays, originals, directions):
        a[...] = o - step * d
    f_minus = f()
    for a, o in zip(arrays, originals):
        a[...] = o

    numeric = (f_plus - f_minus) / (2.0 * step)
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, directions))
    err = relative_error(analytic, numeric)
    return CheckResult(name="directional(all-params)", max_rel_error=err, checked=sum(a.size for a in arrays), tolerance=tolerance)


# ---------------------------------------------------------------------------
# op-level and full-model checks

def check_builder(name, builder, arrays, rng, n_samples=4) -> list[CheckResult]:
    """Backprop gradients of sum(w * builder(*arrays)), for random weights
    w, against central differences: one result per argument, at 64-bit."""
    from . import autodiff as ad

    leaves = [ad.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    out = builder(*leaves)
    weights = rng.standard_normal(out.shape)
    ad.backward(ad.sum_over(ad.mul(out, weights)))

    def f():
        with ad.no_grad():
            fresh = [ad.Tensor(a, dtype=np.float64) for a in arrays]
            return float(ad.sum_over(ad.mul(builder(*fresh), weights)).data)

    results = []
    for i, (leaf, arr) in enumerate(zip(leaves, arrays)):
        assert leaf.grad is not None, f"no gradient reached {name}[arg{i}]"
        results.append(check_tensor_grad(f"{name}[arg{i}]", f, arr, leaf.grad, rng, n_samples=n_samples))
    return results


def op_checks(seed: int = 0, instances: int = 20) -> list[CheckResult]:
    """Randomized finite-difference checks for every differentiable op."""
    from . import autodiff as ad

    rng = np.random.default_rng(seed)
    results = []

    def run(name, builder, arrays_fn, count=instances):
        worst = 0.0
        checked = 0
        for _ in range(count):
            for res in check_builder(name, builder, arrays_fn(), rng):
                worst = max(worst, res.max_rel_error)
                checked += res.checked
        results.append(CheckResult(name, worst, checked, 1e-4))

    def away_from_kink(shape):
        return rng.uniform(0.1, 1.0, shape) * rng.choice([-1.0, 1.0], shape)

    run("matmul", ad.matmul,
        lambda: [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))])
    run("matmul[3d x 2d]", ad.matmul,
        lambda: [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2))])
    # the SE excitation multiplies by a transposed (non-contiguous) weight view
    run("matmul[3d x transposed 2d]", lambda a, b: ad.matmul(a, ad.transpose(b)),
        lambda: [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4))])
    run("matmul[4d x 4d]", ad.matmul,
        lambda: [rng.standard_normal((2, 1, 3, 4)), rng.standard_normal((1, 3, 4, 2))])
    run("conv3d", lambda x, k: ad.conv3d(x, k, stride=(1, 2, 2), padding=1),
        lambda: [rng.standard_normal((2, 2, 3, 5, 5)), rng.standard_normal((3, 2, 2, 3, 3))])
    run("conv3d[s1]", lambda x, k: ad.conv3d(x, k, stride=1, padding=1),
        lambda: [rng.standard_normal((2, 2, 3, 5, 5)), rng.standard_normal((3, 2, 3, 3, 3))])
    run("conv3d[stem]", lambda x, k: ad.conv3d(x, k, stride=(1, 2, 2), padding=1),
        lambda: [rng.standard_normal((2, 1, 3, 5, 5)), rng.standard_normal((3, 1, 3, 3, 3))])
    # at the default BLOCK_BYTES the output spans four tiles of 4 + 3 frames;
    # the costliest case here, so it runs a fifth of the instances
    run("conv3d[tiled]", lambda x, k: ad.conv3d(x, k, stride=1, padding=1),
        lambda: [rng.standard_normal((2, 2, 7, 64, 64)), rng.standard_normal((2, 2, 3, 3, 3))],
        count=max(1, instances // 5))
    run("conv3d[1x1x1]", lambda x, k: ad.conv3d(x, k, stride=(1, 2, 2), padding=0),
        lambda: [rng.standard_normal((2, 2, 3, 5, 5)), rng.standard_normal((3, 2, 1, 1, 1))])
    run("softmax", lambda t: ad.softmax(t, axis=-1),
        lambda: [rng.standard_normal((3, 5))])
    # two heads of width 2 over three tokens: every head attends across tokens
    run("attention", lambda t: ad.attention(t, 2)[0], lambda: [rng.standard_normal((2, 3, 12))])
    run("layer_norm", ad.layer_norm,
        lambda: [rng.standard_normal((3, 6)), rng.standard_normal(6), rng.standard_normal(6)])
    run("sigmoid", ad.sigmoid, lambda: [rng.standard_normal((4, 3))])
    run("relu", ad.relu, lambda: [away_from_kink((4, 3))])
    run("add", ad.add, lambda: [rng.standard_normal((2, 3, 4)), rng.standard_normal((3, 1))])
    run("mul", ad.mul, lambda: [rng.standard_normal((2, 3, 4)), rng.standard_normal((3, 1))])
    run("mean_over", lambda t: ad.mean_over(t, (0, 2)),
        lambda: [rng.standard_normal((3, 4, 2))])
    run("sum_over", lambda t: ad.sum_over(t, (1,)), lambda: [rng.standard_normal((3, 4))])
    run("concat", lambda a, b: ad.concat([a, b], axis=1),
        lambda: [rng.standard_normal((2, 3)), rng.standard_normal((2, 2))])
    run("reshape", lambda t: ad.reshape(t, (-1,)), lambda: [rng.standard_normal((3, 4))])
    run("transpose", lambda t: ad.transpose(t, (1, 0, 2)),
        lambda: [rng.standard_normal((2, 3, 2))])
    run("sum_of_squares", lambda a, b: ad.sum_of_squares([a, b]),
        lambda: [rng.standard_normal((3, 4)), rng.standard_normal(5)])
    run("gather_rows", lambda t: ad.gather_rows(t, [0, 2, 2]),
        lambda: [rng.standard_normal((4, 3))])
    return results


def model_check(seed: int = 0, samples_per_tensor: int = 5, retries: int = 4) -> list[CheckResult]:
    """End-to-end check: every parameter tensor of the full model against
    central differences on the ensembled training loss, 2-sample batch,
    tiny dims, 64-bit, plus one whole-vector directional probe.

    A central difference that happens to straddle a ReLU kink at one
    evaluation point produces a spurious O(step) error, so tensors that
    fail are re-checked at fresh random points: kink artifacts move with
    the point, real gradient bugs do not.
    """
    results = _model_check_at(seed, samples_per_tensor)
    by_name = {r.name: r for r in results}
    for attempt in range(1, retries + 1):
        failing = [name for name, r in by_name.items() if not r.passed]
        if not failing:
            break
        retry = _model_check_at(seed + 1000 * attempt, samples_per_tensor, only=set(failing))
        for r in retry:
            if r.max_rel_error < by_name[r.name].max_rel_error:
                by_name[r.name] = r
    return list(by_name.values())


def _model_check_at(seed: int, samples_per_tensor: int, only: set | None = None) -> list[CheckResult]:
    from . import autodiff as ad
    from . import fusion as fu
    from .model import BatchInputs, forward_batch, init_model_params
    from .train import TrainConfig

    rng = np.random.default_rng(seed)
    config = TrainConfig(
        embed_dim=12, heads=3, layers=2, mlp_hidden=24,
        frames=4, in_plane=16, widths=(4, 8, 16), blocks_per_stage=1,
        head_hidden=16, omega=0.4, frame_diff="on",
    ).model_config()
    store = init_model_params(config, 6, seed, dtype=np.float64)
    # the zero-initialized residual projections would hide their upstream
    # parameters from the check, and zero conv biases put every window of
    # post-ReLU zeros exactly on the next ReLU's kink, at every retry;
    # randomize them
    for name, t in store.items():
        if name.endswith(("attn_out.weight", "mlp.w2", "stem.bias", "conv1.bias", "conv2.bias")):
            t.data = rng.standard_normal(t.data.shape) * 0.3

    batch = BatchInputs(
        tokens=np.array([[0, 2, 5], [1, 3, 4]]),
        ages=np.array([0.4, -1.1]),
        volumes=rng.uniform(0, 1, (2, 1, 4, 16, 16)),
        targets=np.array([0.3, 0.7]),
    )

    def loss_fn():
        return fu.training_loss(forward_batch(store, config, batch), batch.targets, store, lam=1e-3)[0]

    ad.backward(loss_fn())

    def f():
        with ad.no_grad():
            return float(loss_fn().data)

    results = []
    names = store.names()
    grads = {}
    for name in names:
        t = store[name]
        assert t.grad is not None, f"no gradient reached {name}"
        grads[name] = t.grad.copy()
    for name in names:
        if only is not None and name not in only:
            continue
        results.append(
            check_tensor_grad(name, f, store[name].data, grads[name], rng, n_samples=samples_per_tensor)
        )
    if only is None:
        results.append(
            directional_check(f, [store[n].data for n in names], [grads[n] for n in names], rng)
        )
    return results
