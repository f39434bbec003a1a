"""Seeded synthetic cohort generator.

Each patient gets categorical risk factors, an age, and a volume with an
ellipsoidal lesion on a textured background. Ground-truth time combines
a clinical risk score and the lesion's mean intensity in equal parts
plus Gaussian noise, so neither modality alone can reach the oracle's
concordance. Because stored volumes are range-normalized per volume, a
bright rim is stamped onto every scan as a fixed intensity reference;
the lesion's absolute intensity then survives normalization.

About 11.6% of patients are censored uniformly before their event time
(the exact count, not an expectation, so small cohorts stay on ratio).
"""

from __future__ import annotations

import numpy as np

from .data import RawPatient, SurvivalDataset, build_dataset, resize_volume
from .errors import ConfigError

# per-value contributions to the clinical risk score
RISK_TABLES = {
    "stage": {"I": 0.0, "II": 0.11, "IIIa": 0.22, "IIIb": 0.33, "IV": 0.44},
    "histology": {"adeno": 0.0, "squamous": 0.07, "large-cell": 0.14, "nos": 0.21},
    "smoker": {"never": 0.0, "former": 0.08, "current": 0.16},
    "ecog": {"0": 0.0, "1": 0.06, "2": 0.13, "3": 0.19},
}
AGE_WEIGHT = 0.06
CLINICAL_WEIGHT = 0.5
VISUAL_WEIGHT = 0.5
NOISE_SD = 0.05
# both risk scores span [0, SCORE_SCALE]; the spread (not the noise) is
# what lets the noise-free generative formula score >= 0.95 concordance
# on its own cohorts while either modality alone stays well below
SCORE_SCALE = 2.0
CENSOR_RATE = 49 / 422  # ~11.6%
DAYS_LO, DAYS_HI = 30.0, 2950.0

_MAX_RISK = sum(max(t.values()) for t in RISK_TABLES.values()) + AGE_WEIGHT

GEN_DIMS = (8, 96, 96)
LESION_RADII = (2.2, 14.0, 14.0)
RADIUS_JITTER = 0.06
INTENSITY_RANGE = (0.25, 0.95)
BACKGROUND_LEVEL = 0.06
RIM_VALUE = 1.0


def _clinical_score(categorical: dict[str, str], age: float) -> float:
    risk = sum(RISK_TABLES[f][categorical[f]] for f in RISK_TABLES)
    risk += AGE_WEIGHT * float(np.clip((age - 45.0) / 40.0, 0.0, 1.0))
    return SCORE_SCALE * risk / _MAX_RISK


def _visual_score(intensity: float) -> float:
    lo, hi = INTENSITY_RANGE
    return SCORE_SCALE * (intensity - lo) / (hi - lo)


def _make_volume(rng: np.random.Generator, intensity: float) -> np.ndarray:
    f, h, w = GEN_DIMS
    # smooth background texture: coarse noise upsampled trilinearly
    coarse = rng.uniform(0.0, BACKGROUND_LEVEL, size=(4, 12, 12))
    vol = resize_volume(coarse, GEN_DIMS)
    # fixed bright rim as the intensity reference surviving normalization
    vol[:, :2, :] = RIM_VALUE
    vol[:, -2:, :] = RIM_VALUE
    vol[:, :, :2] = RIM_VALUE
    vol[:, :, -2:] = RIM_VALUE
    # ellipsoidal lesion, jittered center and radii
    center = (
        f / 2 + rng.uniform(-0.5, 0.5),
        h / 2 + rng.uniform(-8, 8),
        w / 2 + rng.uniform(-8, 8),
    )
    radii = [r * (1.0 + rng.uniform(-RADIUS_JITTER, RADIUS_JITTER)) for r in LESION_RADII]
    zi, yi, xi = np.ogrid[:f, :h, :w]
    mask = (
        ((zi - center[0]) / radii[0]) ** 2
        + ((yi - center[1]) / radii[1]) ** 2
        + ((xi - center[2]) / radii[2]) ** 2
    ) <= 1.0
    vol[mask] = intensity
    return vol


def generate_patients(seed: int, n_patients: int) -> list[RawPatient]:
    if n_patients < 8:
        raise ConfigError(f"need at least 8 patients, got {n_patients}")
    rng = np.random.default_rng(seed)
    n_censored = int(round(CENSOR_RATE * n_patients))
    censored_ids = set(rng.choice(n_patients, size=n_censored, replace=False).tolist())
    n_missing_age = max(1, n_patients // 20)
    missing_age_ids = set(rng.choice(n_patients, size=n_missing_age, replace=False).tolist())

    patients = []
    for i in range(n_patients):
        categorical = {f: _pick(rng, t) for f, t in RISK_TABLES.items()}
        age = float(np.round(rng.normal(63.0, 9.0), 1))
        intensity = rng.uniform(*INTENSITY_RANGE)
        clin_score = _clinical_score(categorical, age)

        raw = (
            CLINICAL_WEIGHT * clin_score
            + VISUAL_WEIGHT * _visual_score(intensity)
            + rng.normal(0.0, NOISE_SD)
        )
        days = DAYS_LO + (DAYS_HI - DAYS_LO) * max(raw, 0.001) / SCORE_SCALE
        event = 1
        if i in censored_ids:
            days *= rng.uniform(0.25, 0.95)
            event = 0
        patients.append(
            RawPatient(
                patient_id=f"SP{i:04d}",
                categorical=categorical,
                age=None if i in missing_age_ids else age,
                survival_days=float(days),
                event=event,
                volume=_make_volume(rng, intensity),
            )
        )
    return patients


def _pick(rng: np.random.Generator, table: dict[str, float]) -> str:
    keys = list(table)
    return keys[int(rng.integers(len(keys)))]


def oracle_scores(patients: list[RawPatient]) -> np.ndarray:
    """The generative formula itself as a predictor (noise-free part),
    from the two single-modality oracles."""
    return (CLINICAL_WEIGHT * clinical_oracle_scores(patients)
            + VISUAL_WEIGHT * _visual_score(visual_oracle_scores(patients)))


def clinical_oracle_scores(patients: list[RawPatient]) -> np.ndarray:
    """The clinical score, with a missing age read as the generator's mean age, 63."""
    return np.array([
        _clinical_score(p.categorical, 63.0 if p.age is None else p.age) for p in patients
    ])


def visual_oracle_scores(patients: list[RawPatient]) -> np.ndarray:
    """Lesion intensity, read back from the stored volume's interior
    maximum, so the oracle sees exactly what a model could see."""
    return np.array([float(p.volume[:, 8:-8, 8:-8].max()) for p in patients])


def generate_synthetic(seed: int, n_patients: int, ratios=(0.6, 0.2, 0.2), fold: int = 0) -> SurvivalDataset:
    """Deterministic synthetic dataset; same seed, same bytes."""
    return build_dataset(generate_patients(seed, n_patients), seed=seed, ratios=ratios, fold=fold)
