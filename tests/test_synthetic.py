"""Synthetic cohort generator: determinism, censoring, learnable signal."""

import numpy as np
import pytest

from survtower import synthetic as syn
from survtower.errors import ConfigError
from survtower.metrics import concordance_index


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = syn.generate_patients(4, 12)
        b = syn.generate_patients(4, 12)
        for pa, pb in zip(a, b):
            assert pa.patient_id == pb.patient_id
            assert pa.categorical == pb.categorical
            assert pa.age == pb.age
            assert pa.survival_days == pb.survival_days
            assert pa.event == pb.event
            np.testing.assert_array_equal(pa.volume, pb.volume)

    def test_dataset_level_determinism(self):
        d1 = syn.generate_synthetic(6, 10)
        d2 = syn.generate_synthetic(6, 10)
        assert d1.split == d2.split
        for pid in d1.volumes:
            np.testing.assert_array_equal(d1.volumes[pid], d2.volumes[pid])
        assert [s.time_norm for s in d1.samples] == [s.time_norm for s in d2.samples]

    def test_different_seed_differs(self):
        a = syn.generate_patients(1, 10)
        b = syn.generate_patients(2, 10)
        assert any(pa.survival_days != pb.survival_days for pa, pb in zip(a, b))


class TestCohortShape:
    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            syn.generate_patients(0, 7)

    def test_censored_fraction_near_target(self):
        patients = syn.generate_patients(1, 422)
        frac = sum(1 for p in patients if p.event == 0) / len(patients)
        assert abs(frac - 0.12) <= 0.03

    def test_some_ages_missing(self):
        patients = syn.generate_patients(3, 40)
        assert any(p.age is None for p in patients)
        assert sum(p.age is None for p in patients) <= 4

    def test_censoring_shortens_observed_time(self):
        # censored observation sits strictly before the latent event time,
        # which the generator derives from the same scores
        patients = syn.generate_patients(2, 422)
        censored = [p for p in patients if p.event == 0]
        assert censored
        assert all(p.survival_days > 0 for p in patients)

    def test_vocabulary_size(self):
        ds = syn.generate_synthetic(1, 30)
        assert len(ds.vocab) <= 20
        assert all(p.categorical.keys() == syn.RISK_TABLES.keys() for p in ds.patients.values())


class TestSignal:
    def test_oracle_beats_095(self):
        patients = syn.generate_patients(1, 422)
        obs = np.array([p.survival_days for p in patients])
        ev = np.array([p.event for p in patients])
        c = concordance_index((syn.oracle_scores(patients), obs, ev))
        assert c >= 0.95, f"generator signal too weak: oracle C={c:.3f}"

    def test_oracle_bit_equals_per_patient_formula(self):
        patients = syn.generate_patients(0, 40)
        want = [
            syn.CLINICAL_WEIGHT * syn._clinical_score(p.categorical, 63.0 if p.age is None else p.age)
            + syn.VISUAL_WEIGHT * syn._visual_score(float(p.volume[:, 8:-8, 8:-8].max()))
            for p in patients
        ]
        np.testing.assert_array_equal(syn.oracle_scores(patients), want)

    def test_single_modality_oracles_clearly_below_full(self):
        patients = syn.generate_patients(1, 422)
        obs = np.array([p.survival_days for p in patients])
        ev = np.array([p.event for p in patients])
        full = concordance_index((syn.oracle_scores(patients), obs, ev))
        clin = concordance_index((syn.clinical_oracle_scores(patients), obs, ev))
        vis = concordance_index((syn.visual_oracle_scores(patients), obs, ev))
        assert full >= clin + 0.05 and full >= vis + 0.05

    def test_lesion_intensity_survives_normalization(self):
        ds = syn.generate_synthetic(2, 12)
        for pid, p in ds.patients.items():
            interior_max = float(ds.volumes[pid][:, 8:-8, 8:-8].max())
            assert 0.1 < interior_max < 1.0
