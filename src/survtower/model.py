"""Assembly of the two towers and the fusion head into one model.

One parameter set serves the raw volume and its frame-difference
volumes. ``forward_batch`` runs one pass per ensemble view and sums the
weighted predictions, so gradients from the ensembled loss reach the
shared weights through every pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import clinical as cl
from . import fusion as fu
from . import visual as vz
from .data import Sample, SurvivalDataset, resize_volume
from .params import ParameterStore

TOWER_MODES = ("both", "visual", "textual")
# samples per forward pass when predicting without a tape
PREDICT_BATCH = 64


@dataclass(frozen=True)
class ModelConfig:
    """The model's view of a ``TrainConfig``, built by its ``model_config``."""

    towers: str
    clinical: cl.ClinicalEncoderConfig
    visual: vz.VisualBackboneConfig
    head_hidden: int
    omega: float
    frame_diff: str

    @property
    def runs_clinical(self) -> bool:
        return self.towers != "visual"

    @property
    def runs_visual(self) -> bool:
        return self.towers != "textual"

    @property
    def head_in_dim(self) -> int:
        dim = 0
        if self.runs_clinical:
            dim += self.clinical.embed_dim
        if self.runs_visual:
            dim += self.visual.feature_dim
        return dim


def init_model_params(
    config: ModelConfig,
    vocab_size: int,
    seed: int,
    dtype=np.float32,
) -> ParameterStore:
    """``config``'s parameters from one seeded generator; ``vocab_size`` embedding rows."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    if config.runs_clinical:
        cl.init_clinical_params(store, config.clinical, vocab_size, rng, dtype=dtype)
    if config.runs_visual:
        vz.init_visual_params(store, config.visual, rng, dtype=dtype)
    fu.init_head_params(store, config.head_in_dim, config.head_hidden, rng, dtype=dtype)
    return store


@dataclass
class BatchInputs:
    """Numeric inputs for one batch, decoupled from the dataset object."""

    tokens: np.ndarray                 # (n, m) item indices
    ages: np.ndarray                   # (n,) z-scored ages
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
    ages = np.array([s.age for s in samples])
    targets = np.array([s.time_norm for s in samples], dtype=dtype)
    volumes = None
    if config.runs_visual:
        fhw = (config.visual.frames, config.visual.in_plane, config.visual.in_plane)
        volumes = np.empty((len(samples), 1, *fhw), dtype=dtype)
        for i, s in enumerate(samples):
            vol = dataset.sample_volume(s)
            if vol.shape != fhw:
                vol = resize_volume(vol, fhw)
            volumes[i, 0] = vol
    return BatchInputs(tokens, ages, volumes, targets)


def forward_batch(store: ParameterStore, config: ModelConfig, batch: BatchInputs) -> ad.Tensor:
    """Ensembled (n, 1) predictions: one shared-weight pass per view.

    Each view of ``fu.ensemble_views`` differences the raw volumes in its
    direction and adds its weighted prediction. A single view (omega=1,
    frame_diff="off" or no visual tower) returns its pass unweighted, so
    omega=1 is bit-equal to frame differencing switched off.

    A batch of n >= 2 samples with volumes is split in two halves, as
    data-parallel training splits a batch over replicas: this thread
    encodes the clinical tokens and runs every view's backbone over the
    first n // 2 samples, while a worker thread of ``ad.overlap``, alive
    for this call only, runs every view's backbone over the rest inside
    ``ad.worker_lane``, so that ``ad.backward`` walks that half's nodes
    on a worker thread too. Each view's two feature blocks are joined by
    one ``concat`` on the batch axis, first half first, and the head and
    the weighted sum then run here in view order. A batch of one runs on
    this thread alone.
    """
    views = fu.ensemble_views(config.frame_diff, config.omega)

    def clinical():
        if config.runs_clinical:
            return cl.encode_clinical(store, config.clinical, cl.embed_tokens(store, batch.tokens, batch.ages))
        return None

    def backbones(volumes):
        return [
            vz.backbone_forward(
                store, config.visual, ad.as_tensor(volumes if d is None else fu.frame_difference(volumes, d))
            )
            for d, _ in views
        ]

    def worker_half(volumes):
        with ad.worker_lane():
            return backbones(volumes)

    if batch.volumes is None:
        clinical_feats, visual_feats = clinical(), [None] * len(views)
    elif len(batch) == 1:
        clinical_feats, visual_feats = clinical(), backbones(batch.volumes)
    else:
        half = len(batch) // 2
        second, (clinical_feats, first) = ad.overlap(
            lambda: worker_half(batch.volumes[half:]),
            lambda: (clinical(), backbones(batch.volumes[:half])),
        )
        visual_feats = [ad.concat(pair, axis=0) for pair in zip(first, second)]

    ensembled = None
    for (_, weight), visual in zip(views, visual_feats):
        parts = [p for p in (clinical_feats, visual) if p is not None]
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
