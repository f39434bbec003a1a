"""Assembly of the two towers and the fusion head into one model.

One parameter set serves the raw volume and both frame-difference
volumes; training runs three passes and ensembles the three scalar
predictions, so gradients from the ensembled loss reach the shared
weights through every pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import clinical as cl
from . import fusion as fu
from . import visual as vz
from .data import Sample, SurvivalDataset, resize_volume
from .errors import ConfigError
from .params import ParameterStore

TOWER_MODES = ("both", "visual", "textual")


@dataclass
class ModelConfig:
    towers: str = "both"
    clinical: cl.ClinicalEncoderConfig = field(default_factory=cl.ClinicalEncoderConfig)
    visual: vz.VisualBackboneConfig = field(default_factory=vz.VisualBackboneConfig)
    head_hidden: int = 64
    omega: float = 0.4
    frame_diff: str = "on"

    def __post_init__(self):
        if self.towers not in TOWER_MODES:
            raise ConfigError(f"towers must be one of {TOWER_MODES}, got {self.towers!r}")
        if self.frame_diff not in fu.FRAME_DIFF_MODES:
            raise ConfigError(
                f"frame_diff must be one of {fu.FRAME_DIFF_MODES}, got {self.frame_diff!r}"
            )
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError(f"omega must lie in [0,1], got {self.omega}")
        if self.towers == "textual":
            # no volumes flow, so differencing has nothing to act on
            self.frame_diff = "off"

    @property
    def head_in_dim(self) -> int:
        dim = 0
        if self.towers in ("both", "textual"):
            dim += self.clinical.embed_dim
        if self.towers in ("both", "visual"):
            dim += self.visual.feature_dim
        return dim

    @property
    def uses_diff_passes(self) -> bool:
        return self.towers != "textual" and self.frame_diff != "off" and self.omega < 1.0


def init_model_params(
    config: ModelConfig,
    vocab: cl.ClinicalVocabulary,
    continuous_fields: list[str],
    seed: int,
    dtype=np.float32,
) -> ParameterStore:
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    if config.towers in ("both", "textual"):
        cl.init_clinical_params(store, config.clinical, vocab, continuous_fields, rng, dtype=dtype)
    if config.towers in ("both", "visual"):
        vz.init_visual_params(store, config.visual, rng, dtype=dtype)
    fu.init_head_params(store, config.head_in_dim, config.head_hidden, rng, dtype=dtype)
    return store


@dataclass
class BatchInputs:
    """Numeric inputs for one batch, decoupled from the dataset object."""

    tokens: np.ndarray                 # (n, m) item indices
    covariates: dict[str, np.ndarray]  # field -> (n,) values
    volumes: np.ndarray | None         # (n,1,f,h,w) raw pass
    volumes_fwd: np.ndarray | None     # forward-difference pass
    volumes_bwd: np.ndarray | None
    targets: np.ndarray
    events: np.ndarray

    def __len__(self):
        return len(self.tokens)


def make_batch(
    dataset: SurvivalDataset,
    samples: list[Sample],
    config: ModelConfig,
    dtype=np.float32,
    volume_cache: dict | None = None,
) -> BatchInputs:
    tokens = np.stack([s.tokens for s in samples])
    covariates = {name: np.array([s.covariates[name] for s in samples])
                  for name in samples[0].covariates}
    targets = np.array([s.time_norm for s in samples], dtype=dtype)
    events = np.array([s.event for s in samples], dtype=np.int64)
    volumes = volumes_fwd = volumes_bwd = None
    if config.towers != "textual":
        fhw = (config.visual.frames, config.visual.in_plane, config.visual.in_plane)
        stack = np.empty((len(samples), 1, *fhw), dtype=dtype)
        for i, s in enumerate(samples):
            key = (s.patient_id, s.aug_id)
            vol = volume_cache.get(key) if volume_cache is not None else None
            if vol is None:
                vol = dataset.sample_volume(s)
                if vol.shape != fhw:
                    vol = resize_volume(vol, fhw).astype(dtype)
                if volume_cache is not None:
                    volume_cache[key] = vol
            stack[i, 0] = vol
        volumes = stack
        if config.uses_diff_passes:
            if config.frame_diff in ("on", "forward-only"):
                volumes_fwd = fu.frame_difference(volumes, "forward")
            if config.frame_diff in ("on", "backward-only"):
                volumes_bwd = fu.frame_difference(volumes, "backward")
    return BatchInputs(tokens, covariates, volumes, volumes_fwd, volumes_bwd, targets, events)


@dataclass
class BatchPrediction:
    ensembled: ad.Tensor          # (n,1), the training/evaluation target
    raw: ad.Tensor
    forward_diff: ad.Tensor
    backward_diff: ad.Tensor


def _clinical_features(store, config, batch):
    tokens = cl.embed_tokens(store, batch.tokens, batch.covariates)
    return cl.encode_clinical(store, config.clinical, tokens)


def _predict_pass(store, config, clinical_feats, volumes):
    parts = []
    if clinical_feats is not None:
        parts.append(clinical_feats)
    if volumes is not None:
        parts.append(vz.backbone_forward(store, config.visual, ad.as_tensor(volumes)))
    features = parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)
    return fu.fuse_predict(store, features)


def forward_batch(store: ParameterStore, config: ModelConfig, batch: BatchInputs) -> BatchPrediction:
    """Three shared-weight passes (raw, forward diff, backward diff).

    When a difference direction is disabled its slot reuses the raw
    prediction, which keeps the ensemble formula intact. Without
    difference passes (omega=1, frame_diff="off" or no visual tower) the
    ensembled prediction is the raw one itself, so omega=1 is bit-equal
    to frame differencing switched off.
    """
    clinical_feats = None
    if config.towers in ("both", "textual"):
        clinical_feats = _clinical_features(store, config, batch)

    raw = _predict_pass(store, config, clinical_feats, batch.volumes)
    if not config.uses_diff_passes:
        return BatchPrediction(ensembled=raw, raw=raw, forward_diff=raw, backward_diff=raw)
    fwd = raw
    bwd = raw
    if batch.volumes_fwd is not None:
        fwd = _predict_pass(store, config, clinical_feats, batch.volumes_fwd)
    if batch.volumes_bwd is not None:
        bwd = _predict_pass(store, config, clinical_feats, batch.volumes_bwd)
    if config.frame_diff == "forward-only" and batch.volumes_fwd is not None:
        bwd = fwd
    if config.frame_diff == "backward-only" and batch.volumes_bwd is not None:
        fwd = bwd
    ensembled = fu.ensemble_predict(raw, fwd, bwd, config.omega)
    return BatchPrediction(ensembled=ensembled, raw=raw, forward_diff=fwd, backward_diff=bwd)


def predict_times(
    store: ParameterStore,
    config: ModelConfig,
    dataset: SurvivalDataset,
    samples: list[Sample],
    batch_size: int = 64,
    volume_cache: dict | None = None,
) -> np.ndarray:
    """Ensembled predictions for a sample list, without building a tape."""
    out = np.empty(len(samples), dtype=np.float64)
    with ad.no_grad():
        for start in range(0, len(samples), batch_size):
            chunk = samples[start:start + batch_size]
            batch = make_batch(dataset, chunk, config, volume_cache=volume_cache)
            pred = forward_batch(store, config, batch)
            out[start:start + len(chunk)] = pred.ensembled.data.reshape(-1)
    return out
