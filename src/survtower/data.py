"""Preprocessing, augmentation, and the dataset file formats.

A dataset bundle is a directory:

    manifest.json         PSND version 4: the split and one entry per patient
    volumes/<id>.psnv     one binary volume per patient

Volume files: magic "PSNV", u16 little-endian version (=1), u32 dims
d,h,w, then d*h*w float32 little-endian values, slice-major. Volumes are
stored preprocessed (resized to 8x96x96, range-normalized to [0,1]).
``load_dataset`` only lists ``volumes/``; each volume is read on its first
access and kept, so a malformed one raises ``FormatError`` when first used.
A dataset holds one sample per patient, of augmentation id 0; an
augmented variant is a copy of that sample with another id, and
``SurvivalDataset.sample_volume`` derives its volume from the stored one.

The manifest is one UTF-8 JSON object with exactly the keys ``format``
("PSND"), ``version`` (4), ``split_seed`` and ``split_fold`` (integers)
and ``patients``. ``patients`` maps each patient id to an object with
exactly the keys ``age`` (a float, or ``null`` when missing), ``days``
(a float), ``event`` (the integer 0 or 1) and ``items`` (an object from
each categorical field to its string value). A patient id is a non-empty
string with no ``/``, ``\\`` or NUL, since it names the patient's volume
file. Nothing derived from the patients is stored: ``load_dataset``
rebuilds the split assignment, vocabulary and samples with the same
``_assemble`` that ``build_dataset`` and ``apply_split`` use, one column
at a time: one call imputes the ages, one z-scores them and one min-maxes
the survival days, each fitted on the training rows, and one pass looks
every item up into the token matrix. Round-trips are byte-exact: the
manifest is written with sorted keys, and JSON floats round-trip.
A repeated key anywhere in the manifest is an error.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
# the paper's 60/20/20 split: one of N_FOLDS folds is test, the rest train:val 0.6:0.2
TRAIN_SHARE, VAL_SHARE = 0.6, 0.2

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

def minmax(values, is_train) -> np.ndarray:
    """``values`` min-max scaled so that its ``is_train`` entries span [0, 1]."""
    arr = np.asarray(values, dtype=np.float64)
    fit = arr[is_train]
    lo, hi = float(fit.min()), float(fit.max())
    if hi == lo:
        raise DegenerateFeatureError(f"constant feature (value {lo}): min-max scaling undefined")
    return (arr - lo) / (hi - lo)


def zscore(values, is_train) -> np.ndarray:
    """``values`` centred and scaled by the mean and population std of its ``is_train`` entries."""
    arr = np.asarray(values, dtype=np.float64)
    fit = arr[is_train]
    mean, std = float(fit.mean()), float(fit.std())
    if std == 0.0:
        raise DegenerateFeatureError(f"constant feature (value {mean}): z-scoring undefined")
    return (arr - mean) / std


def impute_ages(ages: list[float | None], is_train) -> np.ndarray:
    """``ages`` with each missing one replaced by the mean of the observed
    ``is_train`` ages; imputation happens before any scaling."""
    arr = np.array(ages, dtype=np.float64)   # a missing age, None, reads as NaN
    missing = np.isnan(arr)
    observed = arr[np.asarray(is_train) & ~missing]
    if not observed.size:
        raise PipelineError("cannot impute: every training-split age is missing")
    arr[missing] = observed.mean()
    return arr


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


def normalize_volume(raw: np.ndarray, patient_id: str = "?") -> np.ndarray:
    """Resize to 8x96x96 and linearly map the value range onto [0,1].

    A constant volume has no range; by convention it maps to all-0.5
    (logged with ``patient_id``, since it indicates a degenerate scan).
    """
    if not np.all(np.isfinite(raw)):
        raise PipelineError(f"patient {patient_id}: volume contains non-finite values")
    resized = resize_volume(raw, VOLUME_DIMS)
    lo, hi = float(resized.min()), float(resized.max())
    if hi == lo:
        logger.warning("patient %s: constant volume (value %s); normalizing to all-0.5", patient_id, lo)
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
    """Write ``volume`` as a PSNV file; a volume ``load_volume`` would
    refuse raises ConfigError before anything is written."""
    arr = np.ascontiguousarray(np.asarray(volume, dtype="<f4"))
    if arr.ndim != 3 or 0 in arr.shape:
        raise ConfigError(f"volume files hold non-empty 3D arrays, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError("volume files hold finite voxels only")
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
    if 0 in (d, h, w):
        # the three u32 dims follow the magic and the u16 version
        raise FormatError(f"volume file {path}: empty {d}x{h}x{w} volume", offset=6 + 4 * (d, h, w).index(0))
    need = _VOLUME_HEADER.size + d * h * w * 4
    if len(blob) != need:
        raise FormatError(
            f"volume file {path}: holds {len(blob)} bytes, not the {need} of a {d}x{h}x{w} volume",
            offset=min(len(blob), need),
        )
    arr = np.frombuffer(blob, dtype="<f4", count=d * h * w, offset=_VOLUME_HEADER.size)
    if not np.isfinite(arr).all():
        first = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise FormatError(f"volume file {path}: voxel {first} is {arr[first]}", offset=_VOLUME_HEADER.size + 4 * first)
    return arr.reshape(d, h, w).copy()


class _VolumeFiles(Mapping):
    """The volumes of a bundle's patients by id: each is read from
    ``<folder>/<id>.psnv`` by ``load_volume`` on its first access and kept."""

    def __init__(self, folder: Path, ids):
        self.folder, self.ids, self.read = folder, ids, {}

    def __getitem__(self, pid: str) -> np.ndarray:
        if pid not in self.read:
            if pid not in self.ids:
                raise KeyError(pid)
            self.read[pid] = load_volume(self.folder / f"{pid}.psnv")
        return self.read[pid]

    def __contains__(self, pid) -> bool:
        return pid in self.ids

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


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
    # the embedding row of each of the cohort's ``field=value`` items: the
    # sorted items at rows 0..n-1; an item outside the cohort raises KeyError
    vocab: dict[str, int]
    patients: dict[str, RawPatient]          # raw clinical meta, no volume attached
    volumes: Mapping[str, np.ndarray]        # preprocessed 8x96x96 in [0,1]; read at first use when loaded
    split: dict[str, str]
    split_seed: int
    split_fold: int
    samples: list[Sample] = field(default_factory=list)  # one per patient, aug_id 0

    def sample_volume(self, sample: Sample) -> np.ndarray:
        return augment_volume(self.volumes[sample.patient_id], sample.aug_id)

    def select(self, split: str, uncensored_only: bool = False) -> list[Sample]:
        return [s for s in self.samples
                if self.split[s.patient_id] == split and (s.event == 1 or not uncensored_only)]


def assign_splits(patient_ids, seed: int, fold: int) -> dict[str, str]:
    """Deterministic patient-level split with rotating test folds.

    The test split is chunk ``fold`` of N_FOLDS equal chunks of a seeded
    shuffle; of the rest, in shuffled order, the first
    round(len(rest) * TRAIN_SHARE / (TRAIN_SHARE + VAL_SHARE)) are train
    and the others val.
    Across folds the test chunks partition the patients exactly.
    """
    if not 0 <= fold < N_FOLDS:
        raise ConfigError(f"fold must lie in [0,{N_FOLDS}), got {fold}")
    if seed < 0:
        raise ConfigError(f"split seed must be non-negative, got {seed}")
    ids = sorted(patient_ids)
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    chunks = np.array_split(np.arange(len(order)), N_FOLDS)
    test = {order[i] for i in chunks[fold]}
    rest = [p for p in order if p not in test]
    n_train = int(round(len(rest) * TRAIN_SHARE / (TRAIN_SHARE + VAL_SHARE)))
    split = {}
    for i, p in enumerate(rest):
        split[p] = "train" if i < n_train else "val"
    for p in test:
        split[p] = "test"
    counts = {name: sum(1 for v in split.values() if v == name) for name in SPLITS}
    if min(counts.values()) < 1:
        raise ConfigError(f"too few patients to split: got counts {counts}")
    return split


def _check_patient_id(pid: str):
    """A patient id names its volume file."""
    if not pid or any(ch in pid for ch in "/\\\x00"):
        raise PipelineError(f"patient id {pid!r} is empty or contains a path separator or NUL")


def _check_outcome(event, days: float, age: float | None):
    """The values a stored patient may hold: an event of 0 or 1, finite
    survival days, and a finite or missing age. ValueError otherwise."""
    if event not in (0, 1):
        raise ValueError(f"event {event} is neither 0 nor 1")
    if not math.isfinite(days) or (age is not None and not math.isfinite(age)):
        raise ValueError(f"days {days} and age {age} must be finite")


def _assemble(
    patients: dict[str, RawPatient],
    volumes: Mapping[str, np.ndarray],
    seed: int,
    fold: int,
) -> SurvivalDataset:
    """The dataset of ``patients`` under split (``seed``, ``fold``), built
    column by column.

    One pass over the patients, in id order, checks each record and
    gathers its training flag, age, survival days and ``field=value``
    items. Then each column is transformed by one call: ages are imputed
    and z-scored, survival days min-maxed, every statistic fitted on the
    training rows only; and the items are looked up in one pass into a
    (patients, fields) int64 token matrix, whose rows are the samples'
    tokens.
    """
    ids = sorted(patients)
    split = assign_splits(ids, seed, fold)
    fields = sorted(patients[ids[0]].categorical)
    if not fields:
        # the clinical tower attends over the item tokens, so a record needs one
        raise PipelineError("the cohort has no categorical fields; a clinical record needs at least one")
    records = [patients[pid] for pid in ids]
    items = []
    for pid, p in zip(ids, records):
        _check_patient_id(pid)
        if sorted(p.categorical) != fields:
            raise PipelineError(f"patient {pid} has inconsistent categorical fields")
        if not all(isinstance(v, str) for v in p.categorical.values()):
            raise PipelineError(f"patient {pid}: categorical values must be strings")
        try:
            _check_outcome(p.event, p.survival_days, p.age)
        except ValueError as exc:
            raise PipelineError(f"patient {pid}: {exc}") from None
        items.append([f"{k}={p.categorical[k]}" for k in fields])

    is_train = np.array([split[pid] == "train" for pid in ids])
    ages = zscore(impute_ages([p.age for p in records], is_train), is_train)
    times = minmax([p.survival_days for p in records], is_train)
    vocab = {v: i for i, v in enumerate(sorted({it for row in items for it in row}))}
    tokens = np.array([[vocab[it] for it in row] for row in items], dtype=np.int64)

    return SurvivalDataset(
        vocab=vocab,
        patients=dict(zip(ids, records)),
        volumes=volumes,
        split=split,
        split_seed=int(seed),
        split_fold=int(fold),
        samples=[Sample(pid, 0, row, age, time_norm, p.event)
                 for pid, p, row, age, time_norm in zip(ids, records, tokens, ages.tolist(), times.tolist())],
    )


def build_dataset(raw_patients: list[RawPatient], seed: int, fold: int = 0) -> SurvivalDataset:
    """Preprocess raw patients (volumes included) into a dataset."""
    if len({p.patient_id for p in raw_patients}) != len(raw_patients):
        raise PipelineError("duplicate patient ids")
    volumes = {}
    for p in raw_patients:
        if p.volume is None:
            raise PipelineError(f"patient {p.patient_id} has no volume")
        volumes[p.patient_id] = normalize_volume(p.volume, p.patient_id)
    patients = {p.patient_id: RawPatient(p.patient_id, dict(p.categorical), p.age, p.survival_days, p.event)
                for p in raw_patients}
    return _assemble(patients, volumes, seed, fold)


def apply_split(dataset: SurvivalDataset, seed: int, fold: int) -> SurvivalDataset:
    """Re-split an existing dataset; ages and targets are rescaled by the
    new training split's statistics (volumes are reused as stored)."""
    if dataset.split_seed == int(seed) and dataset.split_fold == int(fold):
        return dataset
    return _assemble(dataset.patients, dataset.volumes, seed, fold)


# ---------------------------------------------------------------------------
# dataset bundle on disk

_MANIFEST_MAGIC = "PSND"
# version 4 is one JSON object; versions 1-3 were key: value lines in manifest.txt
_MANIFEST_VERSION = 4
# the keys of the manifest and of each patient entry, with the JSON types of their values
_HEADER_TYPES = {"format": (str,), "version": (int,), "split_seed": (int,), "split_fold": (int,), "patients": (dict,)}
_PATIENT_TYPES = {"age": (float, type(None)), "days": (float,), "event": (int,), "items": (dict,)}


def save_dataset(ds: SurvivalDataset, path):
    """Write the bundle; the manifest goes last, so a bundle that has one
    also has all of its volumes."""
    root = Path(path)
    (root / "volumes").mkdir(parents=True, exist_ok=True)
    for pid in sorted(ds.volumes):
        save_volume(root / "volumes" / f"{pid}.psnv", ds.volumes[pid])
    manifest = {
        "format": _MANIFEST_MAGIC,
        "version": _MANIFEST_VERSION,
        "split_seed": ds.split_seed,
        "split_fold": ds.split_fold,
        # cast to the JSON types load_dataset requires
        "patients": {
            pid: {
                "age": None if p.age is None else float(p.age),
                "days": float(p.survival_days),
                "event": int(p.event),
                "items": p.categorical,
            }
            for pid, p in ds.patients.items()
        },
    }
    write_atomic(root / "manifest.json", (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode("utf-8"))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict | tuple:
    """``object_pairs_hook`` for ``json.loads``: an object that repeats a key, or holds
    one that does, becomes the tuple of keys leading to it (JSON gives no tuples)."""
    out = {}
    for key, value in pairs:
        if isinstance(value, tuple):
            return (key, *value)
        if key in out:
            return (key,)
        out[key] = value
    return out


def read_json(blob: bytes, where: str, offset: int = 0):
    """The UTF-8 JSON document ``blob``, which starts at byte ``offset`` of
    the file ``where`` names. FormatError otherwise: at the byte that fails
    to decode or parse, or at ``offset`` for an object that repeats a key."""
    try:
        doc = json.loads(blob.decode("utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where}: can't decode byte 0x{blob[exc.start]:02x} as UTF-8: {exc.reason}",
                          offset=offset + exc.start) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: {exc.msg}", offset=offset + len(exc.doc[:exc.pos].encode("utf-8"))) from None
    if isinstance(doc, tuple):
        raise FormatError(f"{where}: repeated key {doc[-1]!r}" + "".join(f" in {k!r}" for k in doc[-2::-1]),
                          offset=offset)
    return doc


def check_object(what: str, obj, types: dict):
    """``obj`` must be a JSON object with exactly the keys of ``types``, each
    holding a value of one of its types. ValueError otherwise."""
    if type(obj) is not dict or obj.keys() != types.keys():
        found = sorted(obj) if type(obj) is dict else repr(obj)
        raise ValueError(f"{what} holds {found}, not the keys {sorted(types)}")
    wrong = [f"{key} {obj[key]!r}" for key, allowed in types.items() if type(obj[key]) not in allowed]
    if wrong:
        raise ValueError(f"{what}: {', '.join(wrong)} has the wrong JSON type")


def load_dataset(path) -> SurvivalDataset:
    """Read a bundle: parse and check the manifest, rebuild everything else
    with ``_assemble``, and check that every patient has a volume file. No
    volume is read here: a malformed one raises ``FormatError`` at first use."""
    root = Path(path)
    manifest = root / "manifest.json"
    if not manifest.exists():
        raise FormatError(f"{root}: no manifest.json found")
    doc = read_json(manifest.read_bytes(), str(manifest))
    if type(doc) is not dict or doc.get("format") != _MANIFEST_MAGIC:
        raise FormatError(f"{manifest}: not a {_MANIFEST_MAGIC} manifest")
    if doc.get("version") != _MANIFEST_VERSION:
        raise FormatError(f"{manifest}: unsupported version {doc.get('version')!r}")
    patients = {}
    try:
        check_object("the header", doc, _HEADER_TYPES)
        for pid, entry in doc["patients"].items():
            check_object(f"patient {pid!r}", entry, _PATIENT_TYPES)
            patients[pid] = RawPatient(pid, entry["items"], entry["age"], entry["days"], entry["event"])
    except ValueError as exc:
        raise FormatError(f"{manifest}: {exc}") from None
    folder = root / "volumes"
    # _assemble checks each patient id before its volume file is looked for;
    # _VolumeFiles opens nothing until a volume is first used
    try:
        ds = _assemble(patients, _VolumeFiles(folder, patients.keys()), doc["split_seed"], doc["split_fold"])
    except (PipelineError, ConfigError, DegenerateFeatureError) as exc:
        raise FormatError(f"{manifest}: {exc}") from None
    files = set(os.listdir(folder)) if folder.is_dir() else set()
    missing = [pid for pid in patients if f"{pid}.psnv" not in files]
    if missing:
        raise FormatError(f"{root}: patient {missing[0]!r} has no volume file {folder / missing[0]}.psnv")
    return ds
