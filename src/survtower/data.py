"""Preprocessing, augmentation, and the dataset file formats.

A dataset bundle is a directory:

    manifest.txt          key: value lines (PSND version 2: a header,
                          then one line per patient)
    volumes/<id>.psnv     one binary volume per patient

Volume files: magic "PSNV", u16 little-endian version (=1), u32 dims
d,h,w, then d*h*w float32 little-endian values, slice-major. Volumes are
stored preprocessed (resized to 8x96x96, range-normalized to [0,1]).
A dataset holds one sample per patient, of augmentation id 0; an
augmented variant is a copy of that sample with another id, and
``SurvivalDataset.sample_volume`` derives its volume from the stored one.

The manifest header holds ``format``, ``version``,
``categorical_fields``, ``patients`` and the split parameters
``split_seed``, ``split_ratios`` and ``split_fold``. Each patient is
stored once, as ``patient.<id>: age=<a> days=<d> event=<e>
items=<field=value,...>`` (``age=missing`` when absent). Nothing derived
from those lines is stored: ``load_dataset`` rebuilds the split
assignment, vocabulary and samples, scaled by training-split statistics,
with the same ``_assemble`` that ``build_dataset`` and ``apply_split`` use.
Round-trips are byte-exact: floats are serialized with ``repr``, and
patients are written in sorted order.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clinical import ClinicalVocabulary
from .errors import (
    ConfigError,
    DegenerateFeatureError,
    FormatError,
    PipelineError,
)

logger = logging.getLogger(__name__)

VOLUME_DIMS = (8, 96, 96)
SPLITS = ("train", "val", "test")
N_FOLDS = 5

# fixed augmentation enumeration (format version 1); every operator is a
# bijection on the voxel grid
AUGMENTATIONS = (
    "identity",
    "rotate90",
    "rotate180",
    "rotate270",
    "flip-horizontal",
    "flip-vertical",
    "swap-axes",
    "reverse-slices",
)


# ---------------------------------------------------------------------------
# feature scaling

def minmax_fit(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        raise DegenerateFeatureError(f"constant feature (value {lo}): min-max scaling undefined")
    return lo, hi


def minmax_apply(values, lo: float, hi: float):
    arr = np.asarray(values, dtype=np.float64)
    return (arr - lo) / (hi - lo)


def zscore_fit(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std())  # population std
    if std == 0.0:
        raise DegenerateFeatureError(f"constant feature (value {mean}): z-scoring undefined")
    return mean, std


def zscore_apply(values, mean: float, std: float):
    return (np.asarray(values, dtype=np.float64) - mean) / std


def impute_ages(ages: list[float | None], is_train: list[bool]) -> list[float]:
    """Replace missing ages with the mean of observed *training* ages.

    The mean is computed over observed values only; imputation happens
    before any scaling.
    """
    observed = [a for a, t in zip(ages, is_train) if t and a is not None]
    if not observed:
        raise PipelineError("cannot impute: every training-split age is missing")
    mean = float(np.mean(observed))
    return [mean if a is None else float(a) for a in ages]


# ---------------------------------------------------------------------------
# volumes

def resize_volume(raw: np.ndarray, out_dims=VOLUME_DIMS) -> np.ndarray:
    """Separable trilinear resize with corner-aligned sampling.

    Corner alignment makes the interpolation reproduce linear ramps
    exactly, which is the oracle used to test it.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise ConfigError(f"expected a non-empty 3D volume, got shape {arr.shape}")
    for axis, new_n in enumerate(out_dims):
        old_n = arr.shape[axis]
        if old_n == new_n:
            continue
        if old_n == 1:
            arr = np.repeat(arr, new_n, axis=axis)
            continue
        pos = np.linspace(0.0, old_n - 1, new_n)
        lo = np.floor(pos).astype(np.int64)
        hi = np.minimum(lo + 1, old_n - 1)
        frac = pos - lo
        shape = [1, 1, 1]
        shape[axis] = new_n
        frac = frac.reshape(shape)
        arr = np.take(arr, lo, axis=axis) * (1.0 - frac) + np.take(arr, hi, axis=axis) * frac
    return arr


def normalize_volume(raw: np.ndarray) -> np.ndarray:
    """Resize to 8x96x96 and linearly map the value range onto [0,1].

    A constant volume has no range; by convention it maps to all-0.5
    (logged, since it indicates a degenerate scan).
    """
    if not np.all(np.isfinite(raw)):
        raise PipelineError("volume contains non-finite values")
    resized = resize_volume(raw, VOLUME_DIMS)
    lo, hi = float(resized.min()), float(resized.max())
    if hi == lo:
        logger.warning("constant volume (value %s); normalizing to all-0.5", lo)
        return np.full(VOLUME_DIMS, 0.5, dtype=np.float32)
    return ((resized - lo) / (hi - lo)).astype(np.float32)


def augment_volume(volume: np.ndarray, aug_id: int) -> np.ndarray:
    """One of the eight deterministic variants of a (f,h,w) volume."""
    if volume.shape[1] != volume.shape[2]:
        raise ConfigError(f"augmentation needs square in-plane dims, got {volume.shape}")
    if aug_id == 0:
        out = volume
    elif aug_id in (1, 2, 3):
        out = np.rot90(volume, k=aug_id, axes=(1, 2))
    elif aug_id == 4:
        out = volume[:, :, ::-1]
    elif aug_id == 5:
        out = volume[:, ::-1, :]
    elif aug_id == 6:
        out = np.swapaxes(volume, 1, 2)
    elif aug_id == 7:
        out = volume[::-1]
    else:
        raise ConfigError(f"augmentation id must be 0..7, got {aug_id}")
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# volume file format (PSNV)

def write_atomic(path, *chunks: bytes):
    """Write ``chunks`` to ``path`` through a sibling temporary file and a
    rename, so ``path`` holds either its old bytes or all of the new ones.
    A write that fails leaves no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


_VOLUME_MAGIC = b"PSNV"
_VOLUME_VERSION = 1
_VOLUME_HEADER = struct.Struct("<4sHIII")


def save_volume(path, volume: np.ndarray):
    arr = np.ascontiguousarray(np.asarray(volume, dtype="<f4"))
    if arr.ndim != 3:
        raise ConfigError(f"volume files hold 3D arrays, got shape {arr.shape}")
    header = _VOLUME_HEADER.pack(_VOLUME_MAGIC, _VOLUME_VERSION, *arr.shape)
    write_atomic(path, header, arr.tobytes())


def load_volume(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < _VOLUME_HEADER.size:
        raise FormatError(f"volume file {path} truncated in header", offset=len(blob))
    magic, version, d, h, w = _VOLUME_HEADER.unpack_from(blob)
    if magic != _VOLUME_MAGIC:
        raise FormatError(
            f"volume file {path}: expected magic {_VOLUME_MAGIC!r}, found {magic!r}", offset=0
        )
    if version != _VOLUME_VERSION:
        raise FormatError(f"volume file {path}: unsupported version {version}", offset=4)
    need = _VOLUME_HEADER.size + d * h * w * 4
    if len(blob) != need:
        raise FormatError(
            f"volume file {path}: holds {len(blob)} bytes, not the {need} of a {d}x{h}x{w} volume",
            offset=min(len(blob), need),
        )
    arr = np.frombuffer(blob, dtype="<f4", count=d * h * w, offset=_VOLUME_HEADER.size)
    return arr.reshape(d, h, w).copy()


# ---------------------------------------------------------------------------
# raw clinical records

@dataclass
class RawPatient:
    patient_id: str
    categorical: dict[str, str]
    age: float | None
    survival_days: float
    event: int
    volume: np.ndarray | None = None

    @property
    def items(self) -> list[str]:
        return [f"{k}={self.categorical[k]}" for k in sorted(self.categorical)]


# ---------------------------------------------------------------------------
# dataset assembly

@dataclass
class Sample:
    patient_id: str
    aug_id: int
    tokens: np.ndarray
    age: float           # z-scored over the training split
    time_norm: float
    event: int


@dataclass
class SurvivalDataset:
    categorical_fields: list[str]
    vocab: ClinicalVocabulary
    patients: dict[str, RawPatient]          # raw clinical meta, no volume attached
    volumes: dict[str, np.ndarray]           # preprocessed 8x96x96 in [0,1]
    split: dict[str, str]
    split_seed: int
    split_ratios: tuple[float, float, float]
    split_fold: int
    samples: list[Sample] = field(default_factory=list)  # one per patient, aug_id 0

    def sample_volume(self, sample: Sample) -> np.ndarray:
        return augment_volume(self.volumes[sample.patient_id], sample.aug_id)

    def select(self, split: str, uncensored_only: bool = False) -> list[Sample]:
        out = []
        for s in self.samples:
            if self.split[s.patient_id] != split:
                continue
            if uncensored_only and s.event != 1:
                continue
            out.append(s)
        return out


def check_ratios(ratios) -> tuple[float, float, float]:
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be three positive numbers summing to 1, got {ratios}")
    return ratios


def assign_splits(patient_ids, seed: int, ratios, fold: int) -> dict[str, str]:
    """Deterministic patient-level split with rotating test folds.

    The held-out portion rotates over N_FOLDS equal chunks of a seeded
    shuffle; the remainder is divided train/val by the first two ratios.
    Across folds the test chunks partition the patients exactly.
    """
    ratios = check_ratios(ratios)
    if not 0 <= fold < N_FOLDS:
        raise ConfigError(f"fold must lie in [0,{N_FOLDS}), got {fold}")
    ids = sorted(patient_ids)
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    chunks = np.array_split(np.arange(len(order)), N_FOLDS)
    test = {order[i] for i in chunks[fold]}
    rest = [p for p in order if p not in test]
    n_train = int(round(len(rest) * ratios[0] / (ratios[0] + ratios[1])))
    split = {}
    for i, p in enumerate(rest):
        split[p] = "train" if i < n_train else "val"
    for p in test:
        split[p] = "test"
    counts = {name: sum(1 for v in split.values() if v == name) for name in SPLITS}
    if min(counts.values()) < 1:
        raise ConfigError(f"too few patients for a {ratios} split: got counts {counts}")
    return split


def _check_token(kind: str, value: str):
    if not value or any(ch in value for ch in " ,;\t\n"):
        raise PipelineError(f"{kind} {value!r} contains characters the manifest format reserves")


def _check_patient_id(pid: str):
    """A patient id is a manifest token and the name of its volume file."""
    _check_token("patient id", pid)
    if "/" in pid or "\\" in pid:
        raise PipelineError(f"patient id {pid!r} contains a path separator")


def _check_outcome(event, days: float, age: float | None):
    """The values a stored patient may hold: an event of 0 or 1, finite
    survival days, and a finite or missing age. ValueError otherwise."""
    if event not in (0, 1):
        raise ValueError(f"event {event} is neither 0 nor 1")
    if not math.isfinite(days) or (age is not None and not math.isfinite(age)):
        raise ValueError(f"days {days} and age {age} must be finite")


def _assemble(
    patients: dict[str, RawPatient],
    volumes: dict[str, np.ndarray],
    seed: int,
    ratios,
    fold: int,
) -> SurvivalDataset:
    ids = sorted(patients)
    split = assign_splits(ids, seed, ratios, fold)
    categorical_fields = sorted(patients[ids[0]].categorical)
    if not categorical_fields:
        # a patient line would read items= with nothing after it
        raise PipelineError("the cohort has no categorical fields; the bundle format needs at least one")
    for pid in ids:
        p = patients[pid]
        _check_patient_id(pid)
        if sorted(p.categorical) != categorical_fields:
            raise PipelineError(f"patient {pid} has inconsistent categorical fields")
        for item in p.items:
            _check_token("clinical item", item)
        try:
            _check_outcome(p.event, p.survival_days, p.age)
        except ValueError as exc:
            raise PipelineError(f"patient {pid}: {exc}") from None

    is_train = [split[p] == "train" for p in ids]
    ages = impute_ages([patients[p].age for p in ids], is_train)
    age_by_pid = dict(zip(ids, ages))

    train_ages = [age_by_pid[p] for p in ids if split[p] == "train"]
    age_mu, age_sd = zscore_fit(train_ages)
    train_days = [patients[p].survival_days for p in ids if split[p] == "train"]
    days_lo, days_hi = minmax_fit(train_days)

    vocab = ClinicalVocabulary(
        items={v: i for i, v in enumerate(sorted({it for p in patients.values() for it in p.items}))}
    )

    samples = []
    for pid in ids:
        p = patients[pid]
        tokens = vocab.encode_items(p.items)
        age = float(zscore_apply(age_by_pid[pid], age_mu, age_sd))
        time_norm = float(minmax_apply(p.survival_days, days_lo, days_hi))
        samples.append(Sample(pid, 0, tokens, age, time_norm, p.event))

    return SurvivalDataset(
        categorical_fields=categorical_fields,
        vocab=vocab,
        patients={pid: patients[pid] for pid in ids},
        volumes=volumes,
        split=split,
        split_seed=int(seed),
        split_ratios=check_ratios(ratios),
        split_fold=int(fold),
        samples=samples,
    )


def build_dataset(raw_patients: list[RawPatient], seed: int, ratios=(0.6, 0.2, 0.2), fold: int = 0) -> SurvivalDataset:
    """Preprocess raw patients (volumes included) into a dataset."""
    if len({p.patient_id for p in raw_patients}) != len(raw_patients):
        raise PipelineError("duplicate patient ids")
    volumes = {}
    for p in raw_patients:
        if p.volume is None:
            raise PipelineError(f"patient {p.patient_id} has no volume")
        volumes[p.patient_id] = normalize_volume(p.volume)
    patients = {p.patient_id: RawPatient(p.patient_id, dict(p.categorical), p.age, p.survival_days, p.event)
                for p in raw_patients}
    return _assemble(patients, volumes, seed, ratios, fold)


def apply_split(dataset: SurvivalDataset, seed: int, ratios, fold: int) -> SurvivalDataset:
    """Re-split an existing dataset; ages and targets are rescaled by the
    new training split's statistics (volumes are reused as stored)."""
    if (
        dataset.split_seed == int(seed)
        and dataset.split_ratios == check_ratios(ratios)
        and dataset.split_fold == int(fold)
    ):
        return dataset
    return _assemble(dataset.patients, dataset.volumes, seed, ratios, fold)


# ---------------------------------------------------------------------------
# dataset bundle on disk

_MANIFEST_MAGIC = "PSND"
# version 2 stores each patient once and derives the rest on load; version 1
# also stored the vocabulary, statistics, split and samples, and is rejected
_MANIFEST_VERSION = 2


def _manifest_lines(ds: SurvivalDataset) -> list[str]:
    lines = [
        f"format: {_MANIFEST_MAGIC}",
        f"version: {_MANIFEST_VERSION}",
        f"categorical_fields: {','.join(ds.categorical_fields)}",
        f"patients: {len(ds.patients)}",
        f"split_seed: {ds.split_seed}",
        f"split_ratios: {','.join(repr(r) for r in ds.split_ratios)}",
        f"split_fold: {ds.split_fold}",
    ]
    for pid in sorted(ds.patients):
        p = ds.patients[pid]
        age = "missing" if p.age is None else repr(float(p.age))
        lines.append(
            f"patient.{pid}: age={age} days={float(p.survival_days)!r} "
            f"event={p.event} items={','.join(p.items)}"
        )
    return lines


def save_dataset(ds: SurvivalDataset, path):
    """Write the bundle; the manifest goes last, so a bundle that has one
    also has all of its volumes."""
    root = Path(path)
    (root / "volumes").mkdir(parents=True, exist_ok=True)
    for pid in sorted(ds.volumes):
        save_volume(root / "volumes" / f"{pid}.psnv", ds.volumes[pid])
    write_atomic(root / "manifest.txt", ("\n".join(_manifest_lines(ds)) + "\n").encode("utf-8"))


def _parse_version(value: str) -> int:
    if int(value) != _MANIFEST_VERSION:
        raise ValueError(f"unsupported version {value}")
    return _MANIFEST_VERSION


# the header keys, each with the parser of its value; load_dataset requires
# all of them and rejects any other key
_HEADER_FIELDS = {
    "version": _parse_version,
    "categorical_fields": lambda value: value.split(","),
    "patients": int,
    "split_seed": int,
    "split_ratios": lambda value: tuple(float(r) for r in value.split(",")),
    "split_fold": int,
}


def _parse_kv(line: str, lineno: int):
    if ": " not in line:
        raise FormatError(f"manifest line {lineno}: expected 'key: value', got {line!r}")
    key, value = line.split(": ", 1)
    return key, value


def _parse_fields(value: str) -> dict[str, str]:
    out = {}
    for part in value.split(" "):
        k, v = part.split("=", 1)
        out[k] = v
    return out


def load_dataset(path) -> SurvivalDataset:
    """Read a bundle: parse the header and patient lines, load the volumes,
    and rebuild everything else with ``_assemble``."""
    root = Path(path)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise FormatError(f"{root}: no manifest.txt found")
    lines = manifest.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("format: "):
        raise FormatError(f"{manifest}: missing format line")
    if lines[0] != f"format: {_MANIFEST_MAGIC}":
        raise FormatError(f"{manifest}: expected format magic {_MANIFEST_MAGIC}, got {lines[0]!r}")
    header: dict[str, object] = {}
    patients: dict[str, RawPatient] = {}
    key_lines: dict[str, int] = {}     # key -> the line it is on
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        key, value = _parse_kv(line, lineno)
        if key in key_lines:
            raise FormatError(f"manifest line {lineno}: {key} repeats line {key_lines[key]}")
        key_lines[key] = lineno
        try:
            if key.startswith("patient."):
                pid = key.split(".", 1)[1]
                _check_patient_id(pid)   # before its volume file is opened
                kv = _parse_fields(value)
                age, days, event, items = (kv.pop(k) for k in ("age", "days", "event", "items"))
                if kv:
                    raise ValueError(f"unknown fields {', '.join(sorted(kv))}")
                categorical = dict(item.split("=", 1) for item in items.split(","))
                age = None if age == "missing" else float(age)
                days, event = float(days), int(event)
                _check_outcome(event, days, age)
                patients[pid] = RawPatient(pid, categorical, age, days, event)
            elif key in _HEADER_FIELDS:
                header[key] = _HEADER_FIELDS[key](value)
            else:
                raise ValueError("unknown key")
        except KeyError as exc:
            raise FormatError(f"manifest line {lineno}: {key} lacks field {exc}") from None
        except ValueError as exc:
            raise FormatError(f"manifest line {lineno}: malformed {key} entry: {exc}") from None
    missing = [k for k in _HEADER_FIELDS if k not in header]
    if missing:
        raise FormatError(f"{manifest}: header lacks {', '.join(missing)}")
    if len(patients) != header["patients"]:
        raise FormatError(f"{manifest}: header says {header['patients']} patients, found {len(patients)}")
    for pid, p in patients.items():
        if sorted(p.categorical) != header["categorical_fields"]:
            raise FormatError(
                f"manifest line {key_lines['patient.' + pid]}: fields {sorted(p.categorical)} "
                f"differ from categorical_fields {header['categorical_fields']}"
            )
    volumes = {pid: load_volume(root / "volumes" / f"{pid}.psnv") for pid in patients}
    try:
        return _assemble(patients, volumes, header["split_seed"], header["split_ratios"], header["split_fold"])
    except (PipelineError, ConfigError, DegenerateFeatureError) as exc:
        raise FormatError(f"{manifest}: {exc}") from None
