"""Workloads, measurement and output checks of the survtower benchmark.

One call of ``main`` runs one workload in this process. It writes a
seeded synthetic cohort to a PSND bundle (untimed), loads it with
``data.load_dataset`` several times (``setup_s``), then repeats a
*repetition* -- ``train.train`` from a fresh state followed by
``train.evaluate`` on the train, val and test splits -- while the next
one still fits in ``--seconds``, and summarises each metric over the
repetitions. With ``--trace 1`` it instead runs one untraced and one
traced repetition and reports per-layer metrics from the traced one.

The last line of standard output is the result object; the line before
it holds provenance, the quality figures and every check made.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# setup_s is the median over SETUP_BATCHES batches of the mean time of one
# data.load_dataset call; each batch loads until SETUP_BATCH_S has passed,
# so a few-millisecond load is still timed over many calls
SETUP_BATCHES = 11
SETUP_BATCH_S = 0.2


def _import_package():
    """Import survtower from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from survtower import train
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import survtower from {ROOT / 'src'}: {exc}")
    if not Path(train.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: survtower imported from {train.__file__}, not {ROOT / 'src'}")


_import_package()

import numpy as np  # noqa: E402

from survtower import data, synthetic, train  # noqa: E402
from survtower.errors import SurvTowerError  # noqa: E402

import tracing as tr  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    patients: int
    epochs: int                       # per repetition; epoch 0 is the warm-up epoch
    config: Callable[..., "train.TrainConfig"]
    # (train, val) sample counts the cohort must give; the cohort seed is
    # the first of seed*1000, seed*1000+1, ... that gives them, so every
    # seed trains on the same number of samples
    split_sizes: tuple[int, int] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_train",
            "desk preset, both towers, frame differencing, one batch of 32 per epoch: conv3d forward and backward at in-plane 24 to 3 dominate",
            patients=60, epochs=3, split_sizes=(32, 10),
            config=lambda **kw: train.desk_preset(batch_size=32, frame_diff="on", **kw),
        ),
        Workload(
            "clinical_train",
            "clinical tower alone (towers=textual): autodiff tape and per-record attention loops, no conv3d",
            patients=300, epochs=3,
            config=lambda **kw: train.TrainConfig(towers="textual", batch_size=32, **kw),
        ),
        Workload(
            "paper_train",
            "paper-default model at batch 8, in-plane 96: the same layers at large shapes, and peak memory",
            patients=15, epochs=2, split_sizes=(8, 3),
            config=lambda **kw: train.TrainConfig(batch_size=8, **kw),
        ),
    )
}


# ---------------------------------------------------------------------------
# end-to-end and per-layer metric catalogue (BENCHMARK.json mirrors it)

END_TO_END = {
    "setup_s": ("s", "lower"),
    "first_epoch_s": ("s", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "eval_samples_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def conv_catalogue() -> list[str]:
    """Conv3d shape names of every workload that runs the visual tower."""
    names: list[str] = []
    for w in WORKLOADS.values():
        model_cfg = w.config(seed=0).model_config()
        if model_cfg.towers != "textual":
            names += tr.conv_shapes(model_cfg.visual)
    return list(dict.fromkeys(names))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, as ``--trace 1`` reports them."""
    # per_layer needs at least one training step to divide by
    tracer = tr.Tracer()
    tracer.spans.append(("autodiff.backward", 0, 1, -1, "train"))
    tracer.spans.append(("train.train", 0, 1, -1, "train"))
    units = {name: unit for name, (_, unit) in tr.per_layer(tracer, conv_catalogue()).items()}
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# checks and counts

class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail=None):
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    def error(self, name: str, failed: int, exc: Exception):
        """Record ``failed`` already-attempted operations that ``exc`` stopped."""
        self.failed += failed
        self.checks.append({"check": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"})

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass
class Repetition:
    history: list
    evals: dict
    train_s: float
    eval_s: float
    n_train: int

    @property
    def first_epoch_s(self) -> float:
        return self.history[0]["seconds"]

    @property
    def steady_s(self) -> float:
        return sum(row["seconds"] for row in self.history[1:])

    @property
    def steady_samples(self) -> int:
        return self.n_train * (len(self.history) - 1)

    @property
    def eval_samples(self) -> int:
        return sum(e["n"] for e in self.evals.values())

    @property
    def quality(self) -> dict:
        return {
            "final_train_mse": self.history[-1]["train_mse"],
            "test_c_index": self.evals["test"]["c_index"],
            "test_mae": self.evals["test"]["mae"],
        }


def repetition(cfg, ds, n_train: int, ledger: Ledger, checkpoint: Path | None = None) -> Repetition | None:
    """Train from a fresh state, then evaluate the three splits.

    With ``checkpoint``, also round-trips the trained state through a
    checkpoint file there. The state is not kept, so that repetitions
    do not add up in ``peak_rss_mb``. A survtower error in a step or an
    evaluation is counted in ``ledger`` and ends the repetition, which
    then returns None.
    """
    gc.collect()
    steps_per_epoch = -(-n_train // cfg.batch_size)
    history: list = []
    ledger.attempted += cfg.epochs * steps_per_epoch + 3
    t0 = time.perf_counter()
    try:
        state, _ = train.train(cfg, ds, progress=history.append)
    except SurvTowerError as exc:
        # the steps of the epoch that raised and of every later epoch, and
        # the evaluations that cannot run
        ledger.error("train.train", (cfg.epochs - len(history)) * steps_per_epoch + 3, exc)
        return None
    train_s = time.perf_counter() - t0
    # train.train raises TrainingDivergedError on a non-finite loss, caught
    # above, so only the MSE is left to check here
    finite = all(np.isfinite(r["train_mse"]) for r in history)
    ledger.check("train_mse finite every epoch", finite and len(history) == cfg.epochs)

    evals = {}
    t0 = time.perf_counter()
    for i, split in enumerate(("train", "val", "test")):
        try:
            evals[split] = train.evaluate(state, ds, split)
        except SurvTowerError as exc:
            ledger.error(f"train.evaluate {split}", 3 - i, exc)
            return None
    eval_s = time.perf_counter() - t0
    c_ok = all(0.0 <= e["c_index"] <= 1.0 for e in evals.values())
    ledger.check("0 <= c_index <= 1", c_ok, {s: e["c_index"] for s, e in evals.items()})
    if checkpoint is not None:
        ledger.attempted += 1
        try:
            train.save_checkpoint(state, checkpoint)
            got = train.evaluate(train.load_checkpoint(checkpoint), ds, "test")
        except SurvTowerError as exc:
            ledger.error("checkpoint round trip", 1, exc)
            return None
        ledger.check("save_checkpoint -> load_checkpoint -> evaluate is bit-identical",
                     got == evals["test"], {"loaded": got, "in_memory": evals["test"]})
    return Repetition(history, evals, train_s, eval_s, n_train)


# ---------------------------------------------------------------------------
# provenance

def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(w: Workload, seed: int, cohort_seed: int, cfg) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": w.name,
        "seed": seed,
        "cohort_seed": cohort_seed,
        "patients": w.patients,
        "config_hash": train.config_hash(cfg),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# one run

def write_cohort(seed: int, patients: int, split_sizes, bundle: Path) -> int:
    """Write a seeded cohort to ``bundle``; returns the cohort seed used."""
    bundle = Path(bundle)
    for k in range(1000):
        cohort_seed = seed * 1000 + k if split_sizes else seed
        ds = synthetic.generate_synthetic(cohort_seed, patients)
        _, train_s, val_s, _ = train.split_dataset(ds, train.TrainConfig(seed=cohort_seed))
        if split_sizes is None or (len(train_s), len(val_s)) == tuple(split_sizes):
            data.save_dataset(ds, bundle)
            return cohort_seed
    raise RuntimeError(f"no cohort of {patients} patients gives split sizes {split_sizes}")


def write_cohort_in_child(seed: int, patients: int, split_sizes, bundle: Path) -> int:
    """``write_cohort`` in a child process, which has ended when this returns."""
    args = json.dumps([seed, patients, split_sizes, str(bundle)])
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, bench; print(bench.write_cohort(*json.loads(sys.argv[1])))", args],
        cwd=HERE, stdout=subprocess.PIPE, text=True, timeout=150, check=True,
    )
    return int(proc.stdout.split()[-1])


def time_setup(bundle: Path) -> tuple:
    """Load ``bundle`` in SETUP_BATCHES timed batches.

    Returns the last dataset loaded and each batch's mean seconds per
    ``data.load_dataset`` call. Only the calls are timed; the previous
    dataset is freed before each call, so that set-up holds one dataset
    at a time, as training does, and does not raise ``peak_rss_mb``.
    """
    batches = []
    for _ in range(SETUP_BATCHES):
        ds = None
        gc.collect()
        loads, spent = 0, 0.0
        while spent < SETUP_BATCH_S:
            ds = None
            t0 = time.perf_counter()
            ds = data.load_dataset(bundle)
            spent += time.perf_counter() - t0
            loads += 1
        batches.append(spent / loads)
    return ds, batches


def measure(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result object, report)."""
    # generating the cohort takes more memory than training on it, so a
    # child process writes it and peak_rss_mb covers only loading,
    # training and evaluation
    cohort_seed = write_cohort_in_child(seed, w.patients, w.split_sizes, workdir / "bundle")
    cfg = w.config(seed=cohort_seed, epochs=w.epochs)
    ledger = Ledger()

    ds, setup = time_setup(workdir / "bundle")
    n_train = len(train.split_dataset(ds, cfg)[1])

    checkpoint = workdir / "checkpoint.psnc"
    reps: list[Repetition] = []
    metrics: dict = {}
    report: dict = {"provenance": provenance(w, seed, cohort_seed, cfg)}
    if trace:
        untraced = repetition(cfg, ds, n_train, ledger, checkpoint)
        tracer = tr.Tracer()
        with tracer.installed():
            ds = data.load_dataset(workdir / "bundle")
            traced = repetition(cfg, ds, n_train, ledger) if untraced else None
        reps = [r for r in (untraced, traced) if r]
        if traced:
            model_cfg = cfg.model_config()
            own = tr.conv_shapes(model_cfg.visual) if model_cfg.towers != "textual" else []
            unknown = tr.unknown_conv_shapes(tracer, own)
            ledger.check("every traced conv3d shape is named by conv_shapes", not unknown, sorted(unknown))
            ledger.check("traced final_train_mse, test_c_index and test_mae equal untraced",
                         traced.quality == untraced.quality,
                         {"traced": traced.quality, "untraced": untraced.quality})
            metrics = tr.per_layer(tracer, conv_catalogue())
            metrics["trace.overhead_ratio"] = (traced.steady_s / untraced.steady_s, "ratio")
            spans_path = WORK / "traces" / f"{w.name}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans_path, workload=w.name, seed=seed)
            report["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rep = repetition(cfg, ds, n_train, ledger, None if reps else checkpoint)
            if rep is None:
                break
            reps.append(rep)
            elapsed, last = time.perf_counter() - start, time.perf_counter() - t0
            if elapsed + last > seconds:
                break
        if reps:
            metrics = {
                "setup_s": statistics.median(setup),
                # means, not medians: the box switches between a fast and a slow
                # speed every few seconds, and a median of such samples jumps
                # between the two where a mean moves with the share of each
                "first_epoch_s": statistics.mean(r.first_epoch_s for r in reps),
                "train_samples_per_s": sum(r.steady_samples for r in reps) / sum(r.steady_s for r in reps),
                "eval_samples_per_s": sum(r.eval_samples for r in reps) / sum(r.eval_s for r in reps),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}
            ledger.check("repetitions are bit-identical",
                         all(r.quality == reps[0].quality for r in reps),
                         [r.quality for r in reps])

    report.update({
        "quality": reps[0].quality if reps else None,
        "repetitions": [
            {"first_epoch_s": r.first_epoch_s, "steady_epochs_s": [row["seconds"] for row in r.history[1:]],
             "train_s": r.train_s, "eval_s": r.eval_s}
            for r in reps
        ],
        "setup_batches_s": setup,
        "checks": ledger.checks,
    })
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0
