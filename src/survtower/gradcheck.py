"""Central finite-difference gradient checking.

This is the independent oracle for every backward implementation: the
checker never calls ``backward`` to form its reference, only repeated
forward evaluations at 64-bit precision.

Every difference steps by ``STEP``, 1e-6. The model is smooth except at
its ReLU kinks, and a central difference whose interval straddles a kink
is off by a share of the gradient that no tolerance can absorb. That
happens with probability proportional to the step: at 1e-4, 9 of
``model_check``'s seeds 0-11 hit one, at 1e-6 none did. The cost of the
small step is rounding: at 64 bits a difference of two O(1) losses
carries about 1e-16 / 1e-6 = 1e-10 of absolute error, far below
``TOLERANCE``. So every check runs once, at one point, and nothing is
retried: a result above ``TOLERANCE`` is a gradient bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fusion as fu
from .errors import UsageError
from .model import BatchInputs, forward_batch, init_model_params
from .train import TrainConfig

# the central-difference step and the largest relative error that passes
STEP = 1e-6
TOLERANCE = 1e-4
# relative error floor: errors are measured against at least this scale so
# that a near-zero analytic/numeric pair does not explode the ratio
REL_FLOOR = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= TOLERANCE


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_FLOOR)


def numeric_gradient(f, x: np.ndarray, indices) -> dict[tuple, float]:
    """Central differences of scalar-valued f at the given flat indices of x.

    x is perturbed in place and restored; f must not retain references into x.
    """
    grads = {}
    flat = x.reshape(-1)
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + STEP
        f_plus = f()
        flat[idx] = orig - STEP
        f_minus = f()
        flat[idx] = orig
        grads[idx] = (f_plus - f_minus) / (2.0 * STEP)
    return grads


def check_tensor_grad(
    name: str, f, x: np.ndarray, analytic: np.ndarray, rng: np.random.Generator, n_samples: int
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
    numeric = numeric_gradient(f, x, indices)
    flat_analytic = analytic.reshape(-1)
    max_err = 0.0
    for idx, num in numeric.items():
        max_err = max(max_err, relative_error(float(flat_analytic[idx]), num))
    return CheckResult(name=name, max_rel_error=max_err, checked=len(indices))


def loss_value(loss_fn) -> float:
    """The scalar ``loss_fn()`` returns, computed without a tape."""
    with ad.no_grad():
        return float(loss_fn().data)


def check_gradients(loss_fn, tensors, rng: np.random.Generator, n_samples: int) -> list[CheckResult]:
    """Backprop ``loss_fn()`` once, then check each ``(name, tensor)`` pair's
    gradient against central differences of ``loss_fn``, in the order given:
    one result per tensor. UsageError when a tensor got no gradient."""
    tensors = list(tensors)
    ad.backward(loss_fn())
    missing = [name for name, t in tensors if t.grad is None]
    if missing:
        raise UsageError(f"no gradient reached {', '.join(missing)}")

    def f():
        return loss_value(loss_fn)

    return [check_tensor_grad(name, f, t.data, t.grad, rng, n_samples) for name, t in tensors]


def directional_check(loss_fn, tensors: list[ad.Tensor], rng: np.random.Generator) -> CheckResult:
    """Whole-parameter-vector check: d/dt loss(theta + t*u) at t=0 vs
    u . grad, for a random unit direction u, against the gradients that a
    backward of ``loss_fn()`` left on ``tensors``.

    Covers every entry of every tensor in two forward passes.
    """
    arrays = [t.data for t in tensors]
    directions = [rng.standard_normal(a.shape) for a in arrays]
    norm = np.sqrt(sum(float((d * d).sum()) for d in directions))
    directions = [d / norm for d in directions]

    originals = [a.copy() for a in arrays]
    for a, d in zip(arrays, directions):
        a += STEP * d
    f_plus = loss_value(loss_fn)
    for a, o, d in zip(arrays, originals, directions):
        a[...] = o - STEP * d
    f_minus = loss_value(loss_fn)
    for a, o in zip(arrays, originals):
        a[...] = o

    numeric = (f_plus - f_minus) / (2.0 * STEP)
    analytic = sum(float((t.grad * d).sum()) for t, d in zip(tensors, directions))
    err = relative_error(analytic, numeric)
    return CheckResult(name="directional(all-params)", max_rel_error=err, checked=sum(a.size for a in arrays))


# ---------------------------------------------------------------------------
# op-level and full-model checks

def check_builder(name, builder, arrays, rng, n_samples=4) -> list[CheckResult]:
    """Backprop gradients of sum(w * builder(*arrays)), for random weights
    w, against central differences: one result per argument, at 64-bit."""
    leaves = [ad.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    with ad.no_grad():
        weights = rng.standard_normal(builder(*leaves).shape)

    def loss_fn():
        return ad.sum_over(ad.mul(builder(*leaves), weights))

    return check_gradients(loss_fn, [(f"{name}[arg{i}]", leaf) for i, leaf in enumerate(leaves)], rng, n_samples)


def op_checks(seed: int = 0, instances: int = 20) -> list[CheckResult]:
    """Randomized finite-difference checks for every differentiable op."""
    rng = np.random.default_rng(seed)
    results = []

    def run(name, builder, arrays_fn, count=instances):
        worst = 0.0
        checked = 0
        for _ in range(count):
            for res in check_builder(name, builder, arrays_fn(), rng):
                worst = max(worst, res.max_rel_error)
                checked += res.checked
        results.append(CheckResult(name, worst, checked))

    def away_from_kink(shape):
        return rng.uniform(0.1, 1.0, shape) * rng.choice([-1.0, 1.0], shape)

    run("matmul", ad.matmul,
        lambda: [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))])
    run("matmul[3d x 2d]", ad.matmul,
        lambda: [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2))])
    # the SE excitation multiplies by a transposed (non-contiguous) weight view
    run("matmul[3d x transposed 2d]", lambda a, b: ad.matmul(a, ad.transpose(b)),
        lambda: [rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4))])
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
    run("sub", ad.sub, lambda: [rng.standard_normal((2, 3, 4)), rng.standard_normal((3, 1))])
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


def model_check(seed: int = 0, samples_per_tensor: int = 5) -> list[CheckResult]:
    """End-to-end check: every parameter tensor of the full model against
    central differences on the ensembled training loss, 2-sample batch,
    tiny dims, 64-bit, plus one whole-vector directional probe."""
    rng = np.random.default_rng(seed)
    config = TrainConfig(
        embed_dim=12, heads=3, layers=2, mlp_hidden=24,
        frames=4, in_plane=16, widths=(4, 8, 16), blocks_per_stage=1,
        head_hidden=16, omega=0.4, frame_diff="on",
    ).model_config()
    store = init_model_params(config, 6, seed, dtype=np.float64)
    # the zero-initialized residual projections would hide their upstream
    # parameters from the check, and zero conv biases put every window of
    # post-ReLU zeros exactly on the next ReLU's kink, whatever the step;
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

    results = check_gradients(loss_fn, store.items(), rng, samples_per_tensor)
    results.append(directional_check(loss_fn, [t for _, t in store.items()], rng))
    return results
