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
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import clinical as cl
from . import fusion as fu
from . import visual as vz
from .data import AUGMENTATIONS, N_FOLDS, SurvivalDataset, apply_split, write_atomic
from .errors import ConfigError, FormatError, MetricUndefinedError, TrainingDivergedError, UsageError
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
    lam: float = 0.001
    omega: float = 0.4
    # clinical tower
    heads: int = 3
    layers: int = 5
    embed_dim: int = 48
    mlp_hidden: int = 192
    textual_encoder: str = "attention"
    # visual tower
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
    fold: int = 0
    augmented_train: bool = False
    # fixed: the step decay halves the learning rate every 40 epochs
    lr_decay_factor: ClassVar[float] = 0.5
    lr_decay_every: ClassVar[int] = 40

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if not 0 <= self.fold < N_FOLDS:
            raise ConfigError(f"fold must lie in [0,{N_FOLDS}), got {self.fold}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.lam < 0:
            raise ConfigError(f"lam must be non-negative, got {self.lam}")
        self.model_config()  # rejects a model that cannot run

    def model_config(self) -> ModelConfig:
        # a one-tower model never builds the other tower, so its settings go unchecked
        visual = vz.VisualBackboneConfig() if self.towers == "textual" else vz.VisualBackboneConfig(
            frames=self.frames, in_plane=self.in_plane, widths=self.widths,
            blocks_per_stage=self.blocks_per_stage,
            se=vz.SqueezeExciteConfig(mode=self.se_mode, order=self.se_order, blocks=self.se_blocks),
        )
        clinical = cl.ClinicalEncoderConfig() if self.towers == "visual" else cl.ClinicalEncoderConfig(
            embed_dim=self.embed_dim, heads=self.heads, layers=self.layers,
            mlp_hidden=self.mlp_hidden, encoder=self.textual_encoder,
        )
        return ModelConfig(
            towers=self.towers,
            clinical=clinical,
            visual=visual,
            head_hidden=self.head_hidden,
            omega=self.omega,
            frame_diff=self.frame_diff,
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["widths"] = list(self.widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["widths"] = tuple(d["widths"])
        return cls(**d)


def desk_preset(**overrides) -> TrainConfig:
    """Small configuration that trains in minutes on a laptop-class CPU."""
    base = dict(
        epochs=30, batch_size=32, in_plane=24, widths=(16, 32, 64),
        blocks_per_stage=1, mlp_hidden=96,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def config_hash(config: TrainConfig) -> str:
    return _digest(config.to_dict())


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """lr(epoch) = config.lr * lr_decay_factor^floor(epoch / lr_decay_every),
    epochs 0-based: the fixed step decay halves ``lr`` every 40 epochs."""
    return config.lr * config.lr_decay_factor ** (epoch // config.lr_decay_every)


def _flat(store: ParameterStore, out=None) -> np.ndarray:
    """Every parameter's values in one vector, in the store's registration order."""
    return np.concatenate([t.data.reshape(-1) for _, t in store.items()], out=out)


def _views(store: ParameterStore, flat: np.ndarray):
    """(name, view of ``flat``) for each parameter, in the layout of ``_flat``."""
    end = 0
    for name, t in store.items():
        yield name, flat[end:end + t.data.size].reshape(t.shape)
        end += t.data.size


class Adam:
    """Adam (Kingma & Ba, arXiv 1412.6980) over flat moment vectors.

    ``m`` and ``v`` are flat arrays that hold every parameter's moments in
    the store's registration order, the layout of ``_flat`` and of a
    checkpoint's vectors; a new value is written into them
    (``adam.m[...] = ...``), never bound in their place. A step
    concatenates the gradients and runs the per-element update once over
    the whole vector, in the same operation order as a per-tensor loop,
    so it gives the same bits; each parameter's ``data`` then becomes a
    view of the step's new flat parameter vector. A parameter without a
    gradient raises UsageError at ``step``, and a store whose parameters
    do not share one dtype raises it here.
    """

    # constants: a checkpoint stores neither the betas nor eps
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, store: ParameterStore):
        dtypes = {str(t.dtype) for _, t in store.items()}
        if len(dtypes) != 1:
            raise UsageError(f"Adam needs parameters of one dtype, got {sorted(dtypes)}")
        self.step_count = 0
        self.m = np.zeros(sum(t.data.size for _, t in store.items()), dtype=dtypes.pop())
        self.v = np.zeros_like(self.m)

    def step(self, store: ParameterStore, lr: float):
        missing = [name for name, t in store.items() if t.grad is None]
        if missing:
            raise UsageError(f"no gradient reached {', '.join(missing)}; run backward on a loss that uses them")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.step_count
        corr2 = 1.0 - b2 ** self.step_count
        # two flat temporaries: g ends as the step, tmp as the new parameters
        g = np.concatenate([t.grad.reshape(-1) for _, t in store.items()])
        tmp = np.multiply(g, 1 - b1)
        self.m *= b1
        self.m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1 - b2
        self.v *= b2
        self.v += tmp
        np.divide(self.m, corr1, out=g)
        g *= lr
        np.divide(self.v, corr2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        g /= tmp
        _flat(store, out=tmp)
        tmp -= g
        for name, view in _views(store, tmp):
            store[name].data = view


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
    best_params: np.ndarray | None = None     # the flat parameters of the best epoch
    vocab_items: dict = field(default_factory=dict)


def _split_samples(ds: SurvivalDataset, split: str):
    """The split rule: train and val keep uncensored samples only; test keeps them all."""
    return ds.select(split, uncensored_only=split in ("train", "val"))


def split_dataset(dataset: SurvivalDataset, config: TrainConfig):
    """The split dataset and its (train, val, test) sample lists.

    Only the training list holds augmented variants, and only when
    ``config.augmented_train`` is set: every sample in each of the
    ``AUGMENTATIONS``, patient by patient.
    """
    ds = apply_split(dataset, config.seed, config.fold)
    train = _split_samples(ds, "train")
    if config.augmented_train:
        train = [replace(s, aug_id=a) for s in train for a in range(len(AUGMENTATIONS))]
    val = _split_samples(ds, "val")
    test = _split_samples(ds, "test")
    if not train:
        raise ConfigError("training split has no uncensored samples")
    return ds, train, val, test


def _init_state(config: TrainConfig, dataset: SurvivalDataset) -> TrainerState:
    vocab = dataset.vocab
    model_cfg = config.model_config()
    store = init_model_params(model_cfg, vocab, config.seed)
    shuffle_rng = np.random.default_rng([config.seed, 0xA5])
    return TrainerState(
        config=config,
        store=store,
        adam=Adam(store),
        rng_state=shuffle_rng.bit_generator.state,
        vocab_items=dict(vocab.items),
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

        val_row = _validate(state, model_cfg, ds, val_samples)
        row = {
            "epoch": state.epoch,
            "lr": lr,
            "train_loss": loss_sum / n_batches,
            "train_mse": sse / n_seen,
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
            state.best_params = _flat(state.store)
        state.epoch += 1
        state.rng_state = rng.bit_generator.state
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
    """Concordance on the split's samples under the split rule, MAE on its
    uncensored ones, scored with the ``"best"`` or the ``"last"`` parameters."""
    if which not in ("best", "last"):
        raise ConfigError(f"which must be 'best' or 'last', got {which!r}")
    config = state.config
    ds = apply_split(dataset, config.seed, config.fold)
    samples = _split_samples(ds, split)
    if not samples:
        raise ConfigError(f"split {split!r} has no samples")

    store = state.store
    if which == "best":
        if state.best_params is None:
            raise UsageError(f"no epoch set best-validation parameters (best_epoch is {state.best_epoch}); "
                             "score which='last'")
        store = ParameterStore()
        for name, view in _views(state.store, state.best_params):
            store.add(name, view, decay=state.store.decays(name))
    scored = _score(store, config.model_config(), ds, samples)
    return {"c_index": concordance_index(scored), "mae": mae(scored), "n": len(samples)}


# ---------------------------------------------------------------------------
# checkpoint format (PSNC)

_CKPT_MAGIC = b"PSNC"
# versions 1-3 held a per-tensor table, and 1-2 also keys and parameters
# that no longer exist; all three are rejected
_CKPT_VERSION = 4
_CKPT_HEADER_KEYS = ("adam_step", "best", "config", "epoch", "layout", "rng_state", "vocab")
_CKPT_BEST_KEYS = ("epoch", "c_index", "mse", "saved")


def _layout_hash(store: ParameterStore) -> str:
    return _digest([[name, list(t.shape), str(t.dtype)] for name, t in store.items()])


def save_checkpoint(state: TrainerState, path):
    """Write ``state`` as PSNC version 4.

    The file is the magic, a u16 version and a u64 header length (all
    little-endian), a UTF-8 JSON header, then a payload of three or four
    little-endian vectors in the layout of ``_flat``: the parameters,
    Adam's ``m``, Adam's ``v``, and, when ``best.saved`` is true, the
    parameters of the best validation epoch. The header's ``layout`` is a
    hash of each parameter's name, shape and dtype in store order, so a
    load can check that the model it rebuilds from ``config`` is the one
    the vectors describe.
    """
    vectors = [_flat(state.store), state.adam.m, state.adam.v]
    if state.best_params is not None:
        vectors.append(state.best_params)
    header = {
        "config": state.config.to_dict(),
        "epoch": state.epoch,
        "adam_step": state.adam.step_count,
        "rng_state": state.rng_state,
        "best": {
            "epoch": state.best_epoch,
            "c_index": state.best_c_index,
            "mse": state.best_mse,
            "saved": state.best_params is not None,
        },
        "vocab": state.vocab_items,
        "layout": _layout_hash(state.store),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = [v.astype(v.dtype.newbyteorder("<"), copy=False) for v in vectors]
    write_atomic(path, _CKPT_MAGIC, struct.pack("<HQ", _CKPT_VERSION, len(blob)), blob, *payload)


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
    valid = {
        "epoch": type(header["epoch"]) is int and header["epoch"] >= 0,
        "adam_step": type(header["adam_step"]) is int and header["adam_step"] >= 0,
        "best.epoch": type(best["epoch"]) is int and best["epoch"] >= -1,
        "best.c_index": type(best["c_index"]) in (int, float),
        "best.mse": type(best["mse"]) in (int, float),
        "best.saved": type(best["saved"]) is bool,
    }
    try:
        np.random.PCG64().state = header["rng_state"]
    except (KeyError, OverflowError, TypeError, ValueError):
        valid["rng_state"] = False
    malformed = [key for key, ok in valid.items() if not ok]
    if malformed:
        raise FormatError(f"checkpoint {path}: malformed {malformed}", offset=14)

    try:
        config = TrainConfig.from_dict(header["config"])
        vocab = cl.ClinicalVocabulary(items={k: int(v) for k, v in header["vocab"].items()})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint {path}: malformed config or vocab: {exc!r}", offset=14) from None
    store = init_model_params(config.model_config(), vocab, config.seed)
    layout = _layout_hash(store)
    if header["layout"] != layout:
        raise FormatError(
            f"checkpoint {path}: layout {header['layout']!r} is not the rebuilt model's {layout!r}", offset=14
        )

    adam = Adam(store)
    adam.step_count = header["adam_step"]
    n_vectors = 4 if best["saved"] else 3
    if len(blob) - header_end != n_vectors * adam.m.nbytes:
        raise FormatError(
            f"checkpoint {path}: payload holds {len(blob) - header_end} bytes, "
            f"not {n_vectors} vectors of {adam.m.nbytes}", offset=header_end,
        )
    flat = np.frombuffer(blob, adam.m.dtype.newbyteorder("<"), offset=header_end).reshape(n_vectors, -1)
    for name, view in _views(store, flat[0].astype(adam.m.dtype)):
        store[name].data = view
    adam.m[...] = flat[1]
    adam.v[...] = flat[2]

    return TrainerState(
        config=config,
        store=store,
        adam=adam,
        rng_state=header["rng_state"],
        epoch=header["epoch"],
        best_epoch=best["epoch"],
        best_c_index=best["c_index"],
        best_mse=best["mse"],
        best_params=flat[3].astype(adam.m.dtype) if best["saved"] else None,
        vocab_items=dict(header["vocab"]),
    )


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
