"""Assembly of the two towers and the fusion head into one model.

One parameter set serves the raw volume and its frame-difference
volumes. ``forward_batch`` runs one pass per ensemble view and sums the
weighted predictions, so gradients from the ensembled loss reach the
shared weights through every pass.
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
# samples per forward pass when predicting without a tape
PREDICT_BATCH = 64


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
        if len(fu.ensemble_views(self.frame_diff, self.omega)) > 1 and self.visual.frames < 2:
            raise ConfigError(f"frame differencing needs at least 2 frames, got {self.visual.frames}")

    @property
    def head_in_dim(self) -> int:
        dim = 0
        if self.towers in ("both", "textual"):
            dim += self.clinical.embed_dim
        if self.towers in ("both", "visual"):
            dim += self.visual.feature_dim
        return dim


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
    volumes: np.ndarray | None         # (n,1,f,h,w) raw volumes
    targets: np.ndarray

    def __len__(self):
        return len(self.tokens)


def make_batch(
    dataset: SurvivalDataset,
    samples: list[Sample],
    config: ModelConfig,
    dtype=np.float32,
) -> BatchInputs:
    """Stack the samples' inputs; volumes only when a visual tower runs.

    Each volume is the sample's augmented variant of the stored volume,
    resized only when its shape differs from the model's
    ``(frames, in_plane, in_plane)``, then cast to ``dtype``.
    """
    tokens = np.stack([s.tokens for s in samples])
    covariates = {name: np.array([s.covariates[name] for s in samples])
                  for name in samples[0].covariates}
    targets = np.array([s.time_norm for s in samples], dtype=dtype)
    volumes = None
    if config.towers != "textual":
        fhw = (config.visual.frames, config.visual.in_plane, config.visual.in_plane)
        volumes = np.empty((len(samples), 1, *fhw), dtype=dtype)
        for i, s in enumerate(samples):
            vol = dataset.sample_volume(s)
            if vol.shape != fhw:
                vol = resize_volume(vol, fhw)
            volumes[i, 0] = vol
    return BatchInputs(tokens, covariates, volumes, targets)


def forward_batch(store: ParameterStore, config: ModelConfig, batch: BatchInputs) -> ad.Tensor:
    """Ensembled (n, 1) predictions: one shared-weight pass per view.

    Each view of ``fu.ensemble_views`` differences the raw volumes in its
    direction and adds its weighted prediction. A single view (omega=1,
    frame_diff="off" or no visual tower) returns its pass unweighted, so
    omega=1 is bit-equal to frame differencing switched off.
    """
    clinical_feats = None
    if config.towers in ("both", "textual"):
        tokens = cl.embed_tokens(store, batch.tokens, batch.covariates)
        clinical_feats = cl.encode_clinical(store, config.clinical, tokens)

    views = fu.ensemble_views(config.frame_diff, config.omega)
    ensembled = None
    for direction, weight in views:
        parts = [] if clinical_feats is None else [clinical_feats]
        if batch.volumes is not None:
            volumes = batch.volumes
            if direction is not None:
                volumes = fu.frame_difference(volumes, direction)
            parts.append(vz.backbone_forward(store, config.visual, ad.as_tensor(volumes)))
        features = parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)
        pred = fu.fuse_predict(store, features)
        if len(views) == 1:
            return pred
        pred = ad.mul(pred, weight)
        ensembled = pred if ensembled is None else ad.add(ensembled, pred)
    return ensembled


def predict_times(
    store: ParameterStore,
    config: ModelConfig,
    dataset: SurvivalDataset,
    samples: list[Sample],
) -> np.ndarray:
    """Ensembled predictions for a sample list, without building a tape."""
    out = np.empty(len(samples), dtype=np.float64)
    with ad.no_grad():
        for start in range(0, len(samples), PREDICT_BATCH):
            chunk = samples[start:start + PREDICT_BATCH]
            batch = make_batch(dataset, chunk, config)
            pred = forward_batch(store, config, batch)
            out[start:start + len(chunk)] = pred.data.reshape(-1)
    return out
