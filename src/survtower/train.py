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
import math
import struct
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar, Literal, get_args, get_origin, get_type_hints

import numpy as np

from . import autodiff as ad
from . import clinical as cl
from . import fusion as fu
from . import visual as vz
from .data import AUGMENTATIONS, N_FOLDS, SPLITS, SurvivalDataset, apply_split, check_object, read_json, write_atomic
from .errors import ConfigError, FormatError, MetricUndefinedError, TrainingDivergedError, UsageError
from .metrics import concordance_index, mae
from .model import (TOWER_MODES, BatchInputs, ModelConfig, forward_batch, halves, init_model_params, make_batch,
                    map_parts, predict_times)
from .params import ParameterStore


@dataclass
class TrainConfig:
    """Every setting of a run and its default: the one place either lives.

    Building a config checks each field once, by the rules ``_FIELD_RULES``
    derives from its annotation (and ``_BOUNDS`` for a number), whatever
    the towers; a check that relates two fields runs only for a tower
    (and a clinical encoder) that runs. ``model_config`` derives the frozen
    views the model reads. The clinical tower reads heads (its attention
    encoder only), layers, embed_dim, mlp_hidden and textual_encoder; the
    visual tower reads se_mode, se_blocks, frames, in_plane, widths,
    blocks_per_stage, frame_diff and omega; every run reads the rest.
    """

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
    textual_encoder: Literal[cl.ENCODERS] = "attention"
    # visual tower
    se_mode: Literal[vz.SE_MODES] = "joint"
    se_blocks: Literal[vz.SE_BLOCKS] = "channel-temporal"
    frames: int = 8
    in_plane: int = 96
    widths: tuple[int, ...] = (16, 32, 64)
    blocks_per_stage: int = 2
    # assembly
    towers: Literal[TOWER_MODES] = "both"
    frame_diff: Literal[fu.FRAME_DIFF_MODES] = "on"
    head_hidden: int = 64
    # data protocol
    fold: int = 0
    augmented_train: bool = False
    # fixed: the step decay halves the learning rate every 40 epochs
    lr_decay_factor: ClassVar[float] = 0.5
    lr_decay_every: ClassVar[int] = 40

    def __post_init__(self):
        for name, rules in _FIELD_RULES.items():
            value = getattr(self, name)
            for test, words in rules:
                if not test(value):
                    raise ConfigError(f"{name} must be {words}, got {value!r}")
        self.widths = tuple(self.widths)
        # the checks that relate two fields, for the towers and encoder that run
        model_cfg = self.model_config()
        if model_cfg.runs_clinical and self.textual_encoder == "attention" and self.embed_dim % self.heads:
            raise ConfigError(f"embed_dim {self.embed_dim} must split evenly over {self.heads} heads")
        if model_cfg.runs_visual:
            for _, axis in model_cfg.visual.gates:
                what, sizes = ("stage width", self.widths) if axis == 1 else ("frame count", (self.frames,))
                for size in sizes:
                    if size % vz.SE_RATIO:
                        raise ConfigError(f"{what} {size} not divisible by SE ratio {vz.SE_RATIO}")
            if len(fu.ensemble_views(self.frame_diff, self.omega)) > 1 and self.frames < 2:
                raise ConfigError(f"frame differencing needs at least 2 frames, got {self.frames}")

    def model_config(self) -> ModelConfig:
        """The frozen views of this config that the model code reads."""
        config = ModelConfig(
            towers=self.towers,
            clinical=cl.ClinicalEncoderConfig(
                embed_dim=self.embed_dim, heads=self.heads, layers=self.layers,
                mlp_hidden=self.mlp_hidden, encoder=self.textual_encoder,
            ),
            visual=vz.VisualBackboneConfig(
                frames=self.frames, in_plane=self.in_plane, widths=self.widths,
                blocks_per_stage=self.blocks_per_stage, se_mode=self.se_mode, se_blocks=self.se_blocks,
            ),
            head_hidden=self.head_hidden,
            omega=self.omega,
            frame_diff=self.frame_diff,
        )
        # without the visual tower no volumes flow, so differencing has nothing to act on
        return config if config.runs_visual else replace(config, frame_diff="off")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["widths"] = list(self.widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config of a ``to_dict`` dict: exactly this class's fields,
        each checked as at construction. ConfigError otherwise."""
        missing, unknown = sorted(_FIELD_RULES.keys() - d.keys()), sorted(d.keys() - _FIELD_RULES.keys())
        if missing or unknown:
            raise ConfigError(f"config lacks {missing} and holds unknown {unknown}")
        return cls(**d)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# what a value of each annotated type must be, as a test and the words for it;
# a float field keeps an int as given, so config_hash does not move
_TYPE_RULES = {
    bool: (lambda v: type(v) is bool, "a bool"),
    int: (_is_int, "an int"),
    float: (lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max, "a finite number"),
    tuple[int, ...]: (lambda v: type(v) in (tuple, list) and len(v) > 0 and all(_is_int(w) and w > 0 for w in v),
                      "a non-empty tuple of positive ints"),
}
_POSITIVE = (lambda v: v > 0, "positive")
_NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
# the values each number admits beyond its type; an in_plane of 1 runs, as a
# stride-2, padding-1 conv maps any p >= 1 to (p-1)//2+1 >= 1
_BOUNDS = {
    "seed": _NON_NEGATIVE, "epochs": _NON_NEGATIVE, "batch_size": _POSITIVE, "lr": _POSITIVE,
    "lam": _NON_NEGATIVE, "omega": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "heads": _POSITIVE, "layers": _POSITIVE, "embed_dim": _POSITIVE, "mlp_hidden": _POSITIVE,
    "frames": _POSITIVE, "in_plane": _POSITIVE, "blocks_per_stage": _POSITIVE, "head_hidden": _POSITIVE,
    "fold": (lambda v: 0 <= v < N_FOLDS, f"in [0, {N_FOLDS})"),
}


def _rules(name: str, kind) -> list:
    """The (test, words) pairs a value of field ``name``, annotated ``kind``, must pass, in order."""
    if get_origin(kind) is Literal:
        choices = get_args(kind)
        return [(lambda v: v in choices, f"one of {choices}")]
    return [_TYPE_RULES[kind]] + ([_BOUNDS[name]] if name in _BOUNDS else [])


# each field's rules, in field order: the one table that __post_init__ and from_dict read
_FIELD_RULES = {name: _rules(name, kind) for name, kind in get_type_hints(TrainConfig).items()
                if get_origin(kind) is not ClassVar}


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
    """What a checkpoint holds; ``vocab`` is the ``SurvivalDataset.vocab``
    whose items the embedding rows index, as the PSNC header's ``vocab``."""

    config: TrainConfig
    store: ParameterStore
    adam: Adam
    rng_state: dict
    epoch: int = 0
    best_epoch: int = -1
    best_c_index: float = float("-inf")
    best_mse: float = float("inf")
    best_params: np.ndarray | None = None     # the flat parameters of the best epoch
    vocab: dict[str, int] = field(default_factory=dict)


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


def _check_vocabulary(state: TrainerState, dataset: SurvivalDataset):
    """A state's embedding rows index its own vocabulary, so it scores only
    a dataset whose items map to the same rows."""
    if dataset.vocab != state.vocab:
        raise UsageError("the dataset's clinical vocabulary is not the one the state was trained on")


def _init_state(config: TrainConfig, dataset: SurvivalDataset) -> TrainerState:
    store = init_model_params(config.model_config(), len(dataset.vocab), config.seed)
    shuffle_rng = np.random.default_rng([config.seed, 0xA5])
    return TrainerState(
        config=config,
        store=store,
        adam=Adam(store),
        rng_state=shuffle_rng.bit_generator.state,
        vocab=dict(dataset.vocab),
    )


def train(
    config: TrainConfig,
    dataset: SurvivalDataset,
    state: TrainerState | None = None,
    progress=None,
) -> tuple[TrainerState, list[dict]]:
    """Minimize the ensembled regression loss until ``config.epochs`` epochs
    have run; returns state and history.

    ``state`` resumes from a loaded checkpoint; ``config`` must then be
    ``state.config`` up to ``epochs``, and the dataset's vocabulary the
    state's. The resumed state takes ``config`` as its own.
    """
    if state is not None:
        changed = [f.name for f in fields(TrainConfig)
                   if f.name != "epochs" and getattr(config, f.name) != getattr(state.config, f.name)]
        if changed:
            raise UsageError(f"config differs from the state's in {', '.join(changed)}; resume with state.config")
        _check_vocabulary(state, dataset)
        state.config = config
    ds, train_samples, val_samples, _ = split_dataset(dataset, config)
    if state is None:
        state = _init_state(config, ds)
    model_cfg = config.model_config()
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state.rng_state
    history: list[dict] = []

    while state.epoch < config.epochs:
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
            try:
                loss_value, mse_value = train_step(state.store, model_cfg, batch, config.lam)
            except TrainingDivergedError as err:
                raise TrainingDivergedError(f"{err} at epoch {state.epoch}, batch {n_batches}") from None
            state.adam.step(state.store, lr)
            sse += mse_value * len(samples)
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


def train_step(store: ParameterStore, model_cfg: ModelConfig, batch: BatchInputs, lam: float) -> tuple[float, float]:
    """The loss and MSE of one training step, leaving every parameter's
    gradient in ``store``; TrainingDivergedError, before any gradient, on a
    non-finite loss.

    Each part of ``halves(batch)`` runs on its own replica of ``store``,
    the second on a worker (``map_parts``), as data-parallel replicas do
    (Li et al., VLDB 2020). A part's loss is its share of the batch loss:
    its squared errors over the batch's size, plus the L2 term on the first
    part only. One ``ad.backward`` walks both tapes, and the replica's
    gradients are added into ``store``'s.
    """
    parts = halves(batch)
    stores = [store] + [store.replica() for _ in parts[1:]]
    count = len(batch) if len(parts) > 1 else None
    lams = [lam] + [0.0] * (len(parts) - 1)

    def part_loss(part_store, part, part_lam):
        pred = forward_batch(part_store, model_cfg, part)
        return fu.training_loss(pred, part.targets, part_store, part_lam, count)

    losses = map_parts(part_loss, stores, parts, lams)
    loss_value = sum(loss.item() for loss, _ in losses)
    if not np.isfinite(loss_value):
        raise TrainingDivergedError(f"non-finite loss {loss_value}")
    store.zero_grad()
    ad.backward(*(loss for loss, _ in losses))
    for replica in stores[1:]:
        store.add_grads(replica)
    return loss_value, sum(mse.item() for _, mse in losses)


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
    if split not in SPLITS:
        raise ConfigError(f"split must be one of {SPLITS}, got {split!r}")
    _check_vocabulary(state, dataset)
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
# that no longer exist; version 4 held separate attn.wq/wk/wv parameters
# where version 5 holds one attn.wqkv; all four are rejected
_CKPT_VERSION = 5
# the keys of the header and of its "best", with the JSON types of their values
_CKPT_HEADER_TYPES = {"adam_step": (int,), "best": (dict,), "config": (dict,), "epoch": (int,),
                      "layout": (str,), "rng_state": (dict,), "vocab": (dict,)}
_CKPT_BEST_TYPES = {"epoch": (int,), "c_index": (int, float), "mse": (int, float), "saved": (bool,)}


def _layout_hash(store: ParameterStore) -> str:
    return _digest([[name, list(t.shape), str(t.dtype)] for name, t in store.items()])


def save_checkpoint(state: TrainerState, path):
    """Write ``state`` as PSNC version 5.

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
        "vocab": state.vocab,
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
    header = read_json(blob[14:header_end], f"checkpoint {path}", offset=14)
    try:
        check_object("the header", header, _CKPT_HEADER_TYPES)
        best, vocab = header["best"], header["vocab"]
        check_object("best", best, _CKPT_BEST_TYPES)
        if header["epoch"] < 0 or header["adam_step"] < 0:
            raise ValueError(f"epoch {header['epoch']} or adam_step {header['adam_step']} out of range")
        # as train leaves it: an earlier epoch with its parameters saved, or -1 with none
        if not -1 <= best["epoch"] < header["epoch"] or best["saved"] != (best["epoch"] >= 0):
            raise ValueError(f"best epoch {best['epoch']}, saved {best['saved']}, "
                             f"contradicts epoch {header['epoch']}")
        # train's initial scores with no best epoch, else a C-index and an MSE it measured
        if best["epoch"] < 0:
            scored = best["c_index"] == -math.inf and best["mse"] == math.inf
        else:
            scored = 0 <= best["c_index"] <= 1 and 0 <= best["mse"] < math.inf
        if not scored:
            raise ValueError(f"best c_index {best['c_index']} and mse {best['mse']} "
                             f"contradict best epoch {best['epoch']}")
        # the embedding row of each item: a dense index 0..n-1
        if not all(type(v) is int for v in vocab.values()) or sorted(vocab.values()) != list(range(len(vocab))):
            raise ValueError("vocab rows are not the indices 0..n-1")
        try:
            np.random.PCG64().state = header["rng_state"]
        except (KeyError, OverflowError, TypeError, ValueError):
            raise ValueError("malformed rng_state") from None
        config = TrainConfig.from_dict(header["config"])
    except ValueError as exc:   # a ConfigError too
        raise FormatError(f"checkpoint {path}: {exc}", offset=14) from None
    store = init_model_params(config.model_config(), len(vocab), config.seed)
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
        vocab=vocab,
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
        return [(f"se_blocks={b}", replace(base, se_blocks=b)) for b in vz.SE_BLOCKS]
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
