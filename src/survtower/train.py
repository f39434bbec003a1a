"""Training protocol: splits, Adam with step decay, checkpointing,
evaluation, and the ablation driver.

Reproducibility contract: a fixed seed yields bit-identical checkpoints
and metric histories on one build, and training e1 epochs, saving,
loading, and training e2 more equals one continuous e1+e2 run bit-exactly.
Checkpoints are written at epoch boundaries and carry everything that
feeds the next step: parameters, optimizer moments, the shuffle RNG
state, and the best-validation snapshot.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import clinical as cl
from . import fusion as fu
from . import visual as vz
from .data import N_FOLDS, SurvivalDataset, apply_split, check_ratios, write_atomic
from .errors import ConfigError, FormatError, MetricUndefinedError, TrainingDivergedError
from .metrics import concordance_index, mae
from .model import ModelConfig, forward_batch, init_model_params, make_batch, predict_times
from .params import ParameterStore


@dataclass
class TrainConfig:
    # optimization protocol
    seed: int = 0
    epochs: int = 120
    batch_size: int = 64
    lr: float = 0.001
    lr_decay_factor: float = 0.5
    lr_decay_every: int = 40
    lam: float = 0.001
    omega: float = 0.4
    # clinical tower
    heads: int = 3
    layers: int = 5
    embed_dim: int = 48
    mlp_hidden: int = 192
    textual_encoder: str = "attention"
    # visual tower
    se_ratio: int = 2
    se_mode: str = "joint"
    se_order: str = "channel-first"
    se_blocks: str = "both"
    frames: int = 8
    in_plane: int = 96
    widths: tuple = (16, 32, 64)
    blocks_per_stage: int = 2
    # assembly
    towers: str = "both"
    frame_diff: str = "on"
    head_hidden: int = 64
    # data protocol
    ratios: tuple = (0.6, 0.2, 0.2)
    fold: int = 0
    augmented_train: bool = False
    # optional early exit once the train MSE drops below this value
    stop_train_mse: float | None = None

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        self.ratios = check_ratios(self.ratios)
        if not 0 <= self.fold < N_FOLDS:
            raise ConfigError(f"fold must lie in [0,{N_FOLDS}), got {self.fold}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.lr <= 0 or self.lr_decay_every < 1 or not 0 < self.lr_decay_factor <= 1:
            raise ConfigError("invalid learning-rate schedule")
        if self.lam < 0:
            raise ConfigError(f"lam must be non-negative, got {self.lam}")
        self.model_config()  # rejects a model that cannot run

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            towers=self.towers,
            clinical=cl.ClinicalEncoderConfig(
                embed_dim=self.embed_dim, heads=self.heads, layers=self.layers,
                mlp_hidden=self.mlp_hidden, encoder=self.textual_encoder,
            ),
            visual=vz.VisualBackboneConfig(
                frames=self.frames, in_plane=self.in_plane, widths=self.widths,
                blocks_per_stage=self.blocks_per_stage,
                se=vz.SqueezeExciteConfig(
                    ratio=self.se_ratio, mode=self.se_mode,
                    order=self.se_order, blocks=self.se_blocks,
                ),
            ),
            head_hidden=self.head_hidden,
            omega=self.omega,
            frame_diff=self.frame_diff,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["widths"] = list(self.widths)
        d["ratios"] = list(self.ratios)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["widths"] = tuple(d["widths"])
        d["ratios"] = tuple(d["ratios"])
        return cls(**d)


def desk_preset(**overrides) -> TrainConfig:
    """Small configuration that trains in minutes on a laptop-class CPU."""
    base = dict(
        epochs=30, batch_size=32, in_plane=24, widths=(16, 32, 64),
        blocks_per_stage=1, mlp_hidden=96,
    )
    base.update(overrides)
    return TrainConfig(**base)


def config_hash(config: TrainConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """lr(epoch) = lr0 * factor^floor(epoch / every), epochs 0-based."""
    return config.lr * config.lr_decay_factor ** (epoch // config.lr_decay_every)


class Adam:
    # constants: a checkpoint stores neither the betas nor eps
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, store: ParameterStore):
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}

    def step(self, store: ParameterStore, lr: float):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.step_count
        corr2 = 1.0 - b2 ** self.step_count
        for name, t in store.items():
            if t.grad is None:
                continue
            g = t.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            t.data = t.data - lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)


@dataclass
class TrainerState:
    config: TrainConfig
    store: ParameterStore
    adam: Adam
    rng_state: dict
    epoch: int = 0
    best_epoch: int = -1
    best_c_index: float = float("-inf")
    best_mse: float = float("inf")
    best_params: dict = field(default_factory=dict)
    vocab_items: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)


def _split_samples(ds: SurvivalDataset, split: str, augmented: bool = False):
    """The split rule: train and val keep uncensored samples only; test keeps them all."""
    return ds.select(split, uncensored_only=split in ("train", "val"), augmented=augmented)


def split_dataset(dataset: SurvivalDataset, config: TrainConfig):
    """The split dataset and its (train, val, test) sample lists.

    Only the training list holds augmented variants, and only when
    ``config.augmented_train`` is set.
    """
    ds = apply_split(dataset, config.seed, config.ratios, config.fold)
    train = _split_samples(ds, "train", augmented=config.augmented_train)
    val = _split_samples(ds, "val")
    test = _split_samples(ds, "test")
    if not train:
        raise ConfigError("training split has no uncensored samples")
    return ds, train, val, test


def _init_state(config: TrainConfig, dataset: SurvivalDataset) -> TrainerState:
    vocab = dataset.vocab
    model_cfg = config.model_config()
    store = init_model_params(model_cfg, vocab, dataset.continuous_fields, config.seed)
    shuffle_rng = np.random.default_rng([config.seed, 0xA5])
    return TrainerState(
        config=config,
        store=store,
        adam=Adam(store),
        rng_state=shuffle_rng.bit_generator.state,
        vocab_items=dict(vocab.items),
        stats={k: vars(s).copy() for k, s in dataset.stats.items()},
        fields={
            "categorical": list(dataset.categorical_fields),
            "continuous": list(dataset.continuous_fields),
        },
    )


def train(
    config: TrainConfig,
    dataset: SurvivalDataset,
    state: TrainerState | None = None,
    epochs: int | None = None,
    progress=None,
) -> tuple[TrainerState, list[dict]]:
    """Minimize the ensembled regression loss; returns state and history.

    ``state`` resumes from a loaded checkpoint. ``epochs`` overrides how
    many *additional* epochs to run (default: up to config.epochs total).
    """
    ds, train_samples, val_samples, _ = split_dataset(dataset, config)
    if state is None:
        state = _init_state(config, ds)
    model_cfg = config.model_config()
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state.rng_state
    history: list[dict] = []

    target_epoch = state.epoch + epochs if epochs is not None else config.epochs
    while state.epoch < target_epoch:
        epoch_start = time.perf_counter()
        lr = learning_rate(config, state.epoch)
        order = rng.permutation(len(train_samples))
        sse = 0.0
        loss_sum = 0.0
        n_seen = 0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            samples = [train_samples[i] for i in idx]
            batch = make_batch(ds, samples, model_cfg)
            pred = forward_batch(state.store, model_cfg, batch)
            loss, mse_t = fu.training_loss(pred, batch.targets, state.store, config.lam)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss {loss_value} at epoch {state.epoch}, batch {n_batches}"
                )
            state.store.zero_grad()
            ad.backward(loss)
            state.adam.step(state.store, lr)
            sse += mse_t.item() * len(samples)
            loss_sum += loss_value
            n_seen += len(samples)
            n_batches += 1

        train_mse = sse / n_seen
        val_row = _validate(state, model_cfg, ds, val_samples)
        row = {
            "epoch": state.epoch,
            "lr": lr,
            "train_loss": loss_sum / n_batches,
            "train_mse": train_mse,
            "val_mse": val_row["mse"],
            "val_c_index": val_row["c_index"],
            "seconds": time.perf_counter() - epoch_start,
        }
        history.append(row)
        if progress:
            progress(row)
        better = val_row["c_index"] > state.best_c_index or (
            val_row["c_index"] == state.best_c_index and val_row["mse"] < state.best_mse
        )
        if better:
            state.best_c_index = val_row["c_index"]
            state.best_mse = val_row["mse"]
            state.best_epoch = state.epoch
            state.best_params = {k: t.data.copy() for k, t in state.store.items()}
        state.epoch += 1
        state.rng_state = rng.bit_generator.state
        if config.stop_train_mse is not None and train_mse < config.stop_train_mse:
            break
    return state, history


def _score(store, model_cfg, ds, samples):
    """The ``(predicted, observed, event)`` arrays the metrics take."""
    preds = predict_times(store, model_cfg, ds, samples)
    return preds, np.array([s.time_norm for s in samples]), np.array([s.event for s in samples])


def _validate(state, model_cfg, ds, val_samples) -> dict:
    if not val_samples:
        return {"mse": float("nan"), "c_index": float("nan")}
    scored = _score(state.store, model_cfg, ds, val_samples)
    preds, targets, _ = scored
    mse = float(np.mean((preds - targets) ** 2))
    try:
        c = concordance_index(scored)
    except MetricUndefinedError:
        c = float("nan")
    return {"mse": mse, "c_index": c}


def evaluate(
    state: TrainerState,
    dataset: SurvivalDataset,
    split: str = "test",
    which: str = "best",
) -> dict:
    """Concordance on the split's samples under the split rule, MAE on its uncensored ones."""
    config = state.config
    ds = apply_split(dataset, config.seed, config.ratios, config.fold)
    samples = _split_samples(ds, split)
    if not samples:
        raise ConfigError(f"split {split!r} has no samples")

    store = state.store
    if which == "best" and state.best_params:
        store = ParameterStore()
        for name, t in state.store.items():
            store.add(name, state.best_params[name], decay=state.store.decays(name))
    scored = _score(store, config.model_config(), ds, samples)
    return {"c_index": concordance_index(scored), "mae": mae(scored), "n": len(samples)}


# ---------------------------------------------------------------------------
# checkpoint format (PSNC)

_CKPT_MAGIC = b"PSNC"
# version 2 names one (d, d) wq/wk/wv per clinical layer; a version 1 file
# holds per-head parameters that no model of this version has
_CKPT_VERSION = 2
_CKPT_HEADER_KEYS = ("adam_step", "best", "config", "epoch", "fields", "rng_state", "stats", "tensors", "vocab")
_CKPT_BEST_KEYS = ("epoch", "c_index", "mse")
_CKPT_TENSOR_KEYS = ("group", "name", "shape", "dtype", "offset", "nbytes")
_CKPT_DTYPES = ("float32", "float64")
_CKPT_GROUPS = ("param", "adam_m", "adam_v", "best")


def save_checkpoint(state: TrainerState, path):
    groups = [("param", {k: t.data for k, t in state.store.items()})]
    groups.append(("adam_m", state.adam.m))
    groups.append(("adam_v", state.adam.v))
    if state.best_params:
        groups.append(("best", state.best_params))

    tensors = []
    payload = bytearray()
    for group, arrays in groups:
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            blob = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
            tensors.append({
                "group": group, "name": name, "shape": list(arr.shape),
                "dtype": str(arr.dtype), "offset": len(payload), "nbytes": len(blob),
            })
            payload.extend(blob)

    header = {
        "config": state.config.to_dict(),
        "epoch": state.epoch,
        "adam_step": state.adam.step_count,
        "rng_state": state.rng_state,
        "best": {
            "epoch": state.best_epoch,
            "c_index": state.best_c_index,
            "mse": state.best_mse,
        },
        "vocab": state.vocab_items,
        "stats": state.stats,
        "fields": state.fields,
        "tensors": tensors,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, _CKPT_MAGIC, struct.pack("<HQ", _CKPT_VERSION, len(blob)), blob, payload)


def _read_tensors(path, blob: bytes, header_end: int, table) -> dict[str, dict[str, np.ndarray]]:
    """group -> name -> array, from the header's tensor table and the payload."""
    def malformed(what):
        return FormatError(f"checkpoint {path}: {what}", offset=14)

    if not isinstance(table, list):
        raise malformed("tensor table is not a list")
    arrays: dict[str, dict[str, np.ndarray]] = {}
    for i, meta in enumerate(table):
        missing = [k for k in _CKPT_TENSOR_KEYS if not isinstance(meta, dict) or k not in meta]
        if missing:
            raise malformed(f"tensor entry {i} lacks {missing}")
        group, name, shape, dtype, offset, nbytes = (meta[k] for k in _CKPT_TENSOR_KEYS)
        if group not in _CKPT_GROUPS or not isinstance(name, str):
            raise malformed(f"tensor entry {i} has group {group!r} and name {name!r}")
        if dtype not in _CKPT_DTYPES:
            raise malformed(f"tensor {name!r} has dtype {dtype!r}, not one of {_CKPT_DTYPES}")
        if not (isinstance(shape, list) and all(type(v) is int and v >= 0 for v in [*shape, offset, nbytes])):
            raise malformed(f"tensor {name!r} has a malformed shape, offset or nbytes")
        count = int(np.prod(shape, dtype=np.int64))
        if nbytes != count * np.dtype(dtype).itemsize:
            raise malformed(f"tensor {name!r} holds {nbytes} bytes, not the {count} {dtype} values of shape {shape}")
        start = header_end + offset
        if len(blob) < start + nbytes:
            raise FormatError(f"checkpoint {path}: tensor {name} truncated", offset=len(blob))
        arr = np.frombuffer(blob, dtype=np.dtype(dtype), count=count, offset=start)
        arrays.setdefault(group, {})[name] = arr.reshape(shape).copy()
    return arrays


def load_checkpoint(path) -> TrainerState:
    blob = Path(path).read_bytes()
    if len(blob) < 14:
        raise FormatError(f"checkpoint {path} truncated in header", offset=len(blob))
    if blob[:4] != _CKPT_MAGIC:
        raise FormatError(f"checkpoint {path}: expected magic {_CKPT_MAGIC!r}, found {blob[:4]!r}", offset=0)
    version, header_len = struct.unpack_from("<HQ", blob, 4)
    if version != _CKPT_VERSION:
        raise FormatError(f"checkpoint {path}: unsupported version {version}", offset=4)
    header_end = 14 + header_len
    if len(blob) < header_end:
        raise FormatError(f"checkpoint {path}: header truncated", offset=len(blob))
    try:
        header = json.loads(blob[14:header_end].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"checkpoint {path}: header is not UTF-8 JSON: {exc}", offset=14) from None
    missing = [k for k in _CKPT_HEADER_KEYS if not isinstance(header, dict) or k not in header]
    if not missing:
        best = header["best"]
        missing = [f"best.{k}" for k in _CKPT_BEST_KEYS if not isinstance(best, dict) or k not in best]
    if missing:
        raise FormatError(f"checkpoint {path}: header lacks {missing}", offset=14)

    arrays = _read_tensors(path, blob, header_end, header["tensors"])
    try:
        config = TrainConfig.from_dict(header["config"])
        vocab = cl.ClinicalVocabulary(items={k: int(v) for k, v in header["vocab"].items()})
        continuous = list(header["fields"]["continuous"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint {path}: malformed config, vocab or fields: {exc!r}", offset=14) from None
    store = init_model_params(config.model_config(), vocab, continuous, config.seed)
    shapes = {name: t.shape for name, t in store.items()}
    for group in [g for g in _CKPT_GROUPS if g != "best" or g in arrays]:
        if {name: a.shape for name, a in arrays.get(group, {}).items()} != shapes:
            raise FormatError(
                f"checkpoint {path}: tensor group {group!r} does not match the model's parameters", offset=14
            )

    adam = Adam(store)
    adam.step_count = header["adam_step"]
    for name, t in store.items():
        t.data = arrays["param"][name].astype(t.dtype)
        adam.m[name] = arrays["adam_m"][name].astype(t.dtype)
        adam.v[name] = arrays["adam_v"][name].astype(t.dtype)

    state = TrainerState(
        config=config,
        store=store,
        adam=adam,
        rng_state=header["rng_state"],
        epoch=header["epoch"],
        best_epoch=header["best"]["epoch"],
        best_c_index=header["best"]["c_index"],
        best_mse=header["best"]["mse"],
        best_params=arrays.get("best", {}),
        vocab_items=dict(header["vocab"]),
        stats=header["stats"],
        fields=header["fields"],
    )
    return state


# ---------------------------------------------------------------------------
# results file

RESULTS_HEADER = "config_hash,fold,epoch,split,c_index,mae,wall_seconds"


def append_results(path, rows: list[dict]):
    path = Path(path)
    new = not path.exists()
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write(RESULTS_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r['config_hash']},{r['fold']},{r['epoch']},{r['split']},"
                f"{r['c_index']!r},{r['mae']!r},{r['wall_seconds']:.3f}\n"
            )


# ---------------------------------------------------------------------------
# ablation grids

OMEGA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
LAMBDA_GRID = (0.0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)

ABLATION_AXES = ("modules", "towers", "gates", "order", "direction", "omega", "lambda")


def ablation_grid(base: TrainConfig, axis: str) -> list[tuple[str, TrainConfig]]:
    if axis == "modules":
        rows = []
        for encoder in ("mlp", "attention"):
            for se in ("off", "joint"):
                for fd in ("off", "on"):
                    label = f"encoder={encoder},se={se},frame_diff={fd}"
                    rows.append((label, replace(base, textual_encoder=encoder, se_mode=se, frame_diff=fd)))
        for se in ("off", "joint"):
            rows.append((f"towers=visual,se={se}", replace(base, towers="visual", se_mode=se)))
        for encoder in ("mlp", "attention"):
            rows.append((f"towers=textual,encoder={encoder}",
                         replace(base, towers="textual", textual_encoder=encoder)))
        return rows
    if axis == "towers":
        return [(f"towers={t}", replace(base, towers=t)) for t in ("both", "visual", "textual")]
    if axis == "gates":
        return [(f"se_mode={m}", replace(base, se_mode=m)) for m in ("off", "global", "local", "joint")]
    if axis == "order":
        return [
            ("se_blocks=channel", replace(base, se_blocks="channel")),
            ("se_blocks=temporal", replace(base, se_blocks="temporal")),
            ("se_order=temporal-first", replace(base, se_blocks="both", se_order="temporal-first")),
            ("se_order=channel-first", replace(base, se_blocks="both", se_order="channel-first")),
        ]
    if axis == "direction":
        return [(f"frame_diff={d}", replace(base, frame_diff=d))
                for d in ("off", "forward-only", "backward-only", "on")]
    if axis == "omega":
        return [(f"omega={w}", replace(base, omega=w)) for w in OMEGA_GRID]
    if axis == "lambda":
        return [(f"lambda={l}", replace(base, lam=l)) for l in LAMBDA_GRID]
    raise ConfigError(f"unknown ablation axis {axis!r}; pick one of {ABLATION_AXES}")


def ablate(base: TrainConfig, dataset: SurvivalDataset, axis: str, progress=None) -> list[dict]:
    """Retrain one variant per grid point and evaluate on the test split."""
    rows = []
    for label, cfg in ablation_grid(base, axis):
        t0 = time.perf_counter()
        state, _ = train(cfg, dataset)
        metrics = evaluate(state, dataset)
        row = {
            "axis": axis,
            "variant": label,
            "config_hash": config_hash(cfg),
            "fold": cfg.fold,
            "epoch": state.best_epoch,
            "split": "test",
            "c_index": metrics["c_index"],
            "mae": metrics["mae"],
            "wall_seconds": time.perf_counter() - t0,
        }
        rows.append(row)
        if progress:
            progress(row)
    return rows
