"""Scaling, imputation, resizing, augmentation, and file formats."""

import errno
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survtower import data as dp
from survtower.errors import ConfigError, DegenerateFeatureError, FormatError, PipelineError
from survtower.synthetic import generate_patients


def minmax_scale(values):
    return dp.minmax_apply(values, *dp.minmax_fit(values))


def zscore(values):
    return dp.zscore_apply(values, *dp.zscore_fit(values))


class TestScaling:
    def test_minmax_basic(self):
        np.testing.assert_allclose(minmax_scale([0, 5, 10]), [0, 0.5, 1])

    def test_minmax_extends_beyond_training_range(self):
        lo, hi = dp.minmax_fit([0, 10])
        assert dp.minmax_apply(12.0, lo, hi) == pytest.approx(1.2)

    def test_minmax_degenerate(self):
        with pytest.raises(DegenerateFeatureError):
            dp.minmax_fit([3.0, 3.0, 3.0])

    def test_zscore_population_convention(self):
        out = zscore([1, 2, 3])
        np.testing.assert_allclose(out, [-1.22474, 0.0, 1.22474], atol=1e-4)

    def test_zscore_shift_invariance(self):
        x = np.array([3.0, 9.0, 4.0, 7.0])
        np.testing.assert_allclose(zscore(x), zscore(x + 11.0), atol=1e-12)

    def test_zscore_moments(self):
        out = zscore(np.array([2.0, 4.0, 9.0, 1.0]))
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.var() == pytest.approx(1.0, rel=1e-9)

    def test_zscore_degenerate(self):
        with pytest.raises(DegenerateFeatureError):
            dp.zscore_fit([5.0, 5.0])

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=30).filter(lambda xs: max(xs) > min(xs)))
    @settings(max_examples=50, deadline=None)
    def test_minmax_lands_in_unit_interval(self, xs):
        out = minmax_scale(xs)
        assert out.min() >= -1e-12 and out.max() <= 1 + 1e-12


class TestImputation:
    def test_mean_fill(self):
        assert dp.impute_ages([40.0, None, 60.0], [True, True, True]) == [40.0, 50.0, 60.0]

    def test_no_missing_is_identity(self):
        assert dp.impute_ages([41.0, 52.0], [True, True]) == [41.0, 52.0]

    def test_mean_over_observed_training_only(self):
        # the non-train 90.0 and the missing entry must not shift the mean
        filled = dp.impute_ages([40.0, None, 90.0, 60.0], [True, True, False, True])
        assert filled == [40.0, 50.0, 90.0, 60.0]

    def test_all_missing(self):
        with pytest.raises(PipelineError):
            dp.impute_ages([None, None], [True, True])


class TestVolumeResize:
    def test_identity_on_target_dims(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 1, dp.VOLUME_DIMS)
        v.flat[0], v.flat[1] = 0.0, 1.0  # pin the range
        out = dp.normalize_volume(v)
        np.testing.assert_allclose(out, v, atol=1e-6)

    def test_range_contract(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(-1000, 3000, (12, 100, 110))
        out = dp.normalize_volume(v)
        assert out.min() == 0.0 and out.max() == 1.0
        assert out.shape == dp.VOLUME_DIMS

    def test_trilinear_reproduces_ramp_exactly(self):
        f = np.linspace(0, 1, 5)[:, None, None]
        h = np.linspace(0, 2, 11)[None, :, None]
        w = np.linspace(0, 3, 7)[None, None, :]
        vol = f + h + w
        out = dp.resize_volume(vol, (8, 96, 96))
        ef = np.linspace(0, 1, 8)[:, None, None]
        eh = np.linspace(0, 2, 96)[None, :, None]
        ew = np.linspace(0, 3, 96)[None, None, :]
        np.testing.assert_allclose(out, ef + eh + ew, atol=1e-10)

    def test_constant_volume_convention(self, caplog):
        with caplog.at_level("WARNING"):
            out = dp.normalize_volume(np.full((4, 10, 10), 7.0))
        np.testing.assert_allclose(out, 0.5)
        assert "constant volume" in caplog.text

    def test_non_finite_rejected(self):
        v = np.ones((4, 5, 5))
        v[0, 0, 0] = np.nan
        with pytest.raises(PipelineError):
            dp.normalize_volume(v)


class TestAugmentation:
    def test_exactly_eight(self):
        v = np.zeros((8, 96, 96), dtype=np.float32)
        assert len(dp.AUGMENTATIONS) == 8
        for aug_id in range(8):
            assert dp.augment_volume(v, aug_id).shape == v.shape

    def test_rotate180_is_involution(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 1, (8, 96, 96)).astype(np.float32)
        twice = dp.augment_volume(dp.augment_volume(v, 2), 2)
        np.testing.assert_array_equal(twice, v)

    def test_all_variants_pairwise_distinct(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 1, (8, 96, 96)).astype(np.float32)
        variants = [dp.augment_volume(v, aug_id) for aug_id in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.array_equal(variants[i], variants[j]), (i, j)

    def test_every_operator_is_a_bijection(self):
        # each variant is a permutation of the voxel multiset
        rng = np.random.default_rng(4)
        v = rng.uniform(0, 1, (8, 16, 16)).astype(np.float32)
        base = np.sort(v.ravel())
        for aug_id in range(8):
            out = dp.augment_volume(v, aug_id)
            np.testing.assert_array_equal(np.sort(out.ravel()), base)

    def test_inverses_exist_within_closure(self):
        inverse = {0: 0, 1: 3, 2: 2, 3: 1, 4: 4, 5: 5, 6: 6, 7: 7}
        rng = np.random.default_rng(5)
        v = rng.uniform(0, 1, (8, 16, 16)).astype(np.float32)
        for aug_id, inv in inverse.items():
            roundtrip = dp.augment_volume(dp.augment_volume(v, aug_id), inv)
            np.testing.assert_array_equal(roundtrip, v)

    def test_bad_id(self):
        with pytest.raises(ConfigError):
            dp.augment_volume(np.zeros((2, 4, 4)), 8)


class TestVolumeFile:
    def test_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        v = rng.uniform(0, 1, (8, 96, 96)).astype(np.float32)
        p1, p2 = tmp_path / "a.psnv", tmp_path / "b.psnv"
        dp.save_volume(p1, v)
        loaded = dp.load_volume(p1)
        np.testing.assert_array_equal(loaded, v)
        dp.save_volume(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.psnv"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="PSNV"):
            dp.load_volume(p)

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "t.psnv"
        dp.save_volume(p, np.ones((2, 3, 3), dtype=np.float32))
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="offset"):
            dp.load_volume(p)

    def test_trailing_bytes_report_offset(self, tmp_path):
        p = tmp_path / "t.psnv"
        dp.save_volume(p, np.ones((2, 3, 3), dtype=np.float32))
        blob = p.read_bytes()
        p.write_bytes(blob + bytes(8))
        with pytest.raises(FormatError, match="offset") as info:
            dp.load_volume(p)
        assert info.value.offset == len(blob)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "h.psnv"
        p.write_bytes(b"PSN")
        with pytest.raises(FormatError):
            dp.load_volume(p)


class TestSplits:
    def test_ratio_counts(self):
        ids = [f"p{i}" for i in range(10)]
        split = dp.assign_splits(ids, seed=1, ratios=(0.6, 0.2, 0.2), fold=0)
        counts = {s: list(split.values()).count(s) for s in dp.SPLITS}
        assert counts == {"train": 6, "val": 2, "test": 2}

    def test_deterministic(self):
        ids = [f"p{i}" for i in range(23)]
        a = dp.assign_splits(ids, 7, (0.6, 0.2, 0.2), 2)
        b = dp.assign_splits(ids, 7, (0.6, 0.2, 0.2), 2)
        assert a == b

    def test_folds_partition_patients(self):
        ids = [f"p{i}" for i in range(53)]
        seen = []
        for fold in range(dp.N_FOLDS):
            split = dp.assign_splits(ids, 11, (0.6, 0.2, 0.2), fold)
            seen.extend(p for p, s in split.items() if s == "test")
        assert sorted(seen) == sorted(ids)

    def test_too_few_patients(self):
        with pytest.raises(ConfigError):
            dp.assign_splits(["a", "b"], 0, (0.6, 0.2, 0.2), 0)

    def test_bad_fold_and_ratios(self):
        ids = [f"p{i}" for i in range(10)]
        with pytest.raises(ConfigError):
            dp.assign_splits(ids, 0, (0.6, 0.2, 0.2), 5)
        with pytest.raises(ConfigError):
            dp.assign_splits(ids, 0, (0.7, 0.2, 0.2), 0)


@pytest.fixture(scope="module")
def dataset():
    return dp.build_dataset(generate_patients(5, 12), seed=5)


class TestDatasetAssembly:

    def test_patient_level_split_integrity(self, dataset):
        by_patient = {}
        for s in dataset.samples:
            by_patient.setdefault(s.patient_id, set()).add(dataset.split[s.patient_id])
        assert all(len(v) == 1 for v in by_patient.values())

    def test_one_sample_per_patient(self, dataset):
        assert [(s.patient_id, s.aug_id) for s in dataset.samples] == [(pid, 0) for pid in sorted(dataset.patients)]

    def test_stats_come_from_training_split_only(self, dataset):
        train = [s for s in dataset.samples if dataset.split[s.patient_id] == "train"]
        times = [s.time_norm for s in train]
        assert (min(times), max(times)) == (0.0, 1.0)
        ages = np.array([s.age for s in train])
        assert ages.mean() == pytest.approx(0.0, abs=1e-12)
        assert ages.std() == pytest.approx(1.0, rel=1e-12)

    def test_targets_unclamped_outside_training_range(self, dataset):
        days = [p.survival_days for pid, p in dataset.patients.items() if dataset.split[pid] == "train"]
        lo, hi = min(days), max(days)
        for s in dataset.samples:
            expected = (dataset.patients[s.patient_id].survival_days - lo) / (hi - lo)
            assert s.time_norm == pytest.approx(expected, abs=1e-12)
        assert min(s.time_norm for s in dataset.samples) < 0 or max(s.time_norm for s in dataset.samples) > 1

    def test_apply_split_changes_assignment_and_stats(self, dataset):
        moved = dp.apply_split(dataset, seed=99, ratios=(0.6, 0.2, 0.2), fold=1)
        assert moved.split != dataset.split
        assert dp.apply_split(dataset, dataset.split_seed, dataset.split_ratios, dataset.split_fold) is dataset

    def test_volume_values_in_unit_interval(self, dataset):
        for v in dataset.volumes.values():
            assert v.min() >= 0.0 and v.max() <= 1.0

    @pytest.mark.parametrize("pid", ["SP/x", "SP\\x"])
    def test_path_separator_in_patient_id_rejected(self, pid):
        # the id names the patient's volume file in a saved bundle
        patients = generate_patients(1, 10)
        patients[0].patient_id = pid
        with pytest.raises(PipelineError, match=f"patient id {re.escape(repr(pid))} contains a path separator"):
            dp.build_dataset(patients, seed=1)

    @pytest.mark.parametrize("field, value, message", [
        ("event", 2, "event 2 is neither 0 nor 1"),
        ("event", -1, "event -1 is neither 0 nor 1"),
        ("survival_days", float("nan"), "must be finite"),
        ("survival_days", float("inf"), "must be finite"),
        ("age", float("nan"), "must be finite"),
        ("age", float("-inf"), "must be finite"),
    ])
    def test_values_a_bundle_cannot_hold_rejected(self, field, value, message):
        # load_dataset refuses these on a manifest line, so build_dataset must not accept them
        patients = generate_patients(1, 10)
        setattr(patients[3], field, value)
        with pytest.raises(PipelineError, match=f"patient {patients[3].patient_id}: .*{message}"):
            dp.build_dataset(patients, seed=1)

    def test_cohort_without_categorical_fields_rejected(self):
        # a saved bundle could not encode the patients' empty item lists
        patients = generate_patients(1, 10)
        for p in patients:
            p.categorical = {}
        with pytest.raises(PipelineError, match="no categorical fields"):
            dp.build_dataset(patients, seed=1)


class TestBundleRoundtrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        ds = dp.build_dataset(generate_patients(8, 10), seed=8)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        dp.save_dataset(ds, d1)
        loaded = dp.load_dataset(d1)
        dp.save_dataset(loaded, d2)
        assert (d1 / "manifest.txt").read_bytes() == (d2 / "manifest.txt").read_bytes()
        for f in sorted((d1 / "volumes").iterdir()):
            assert f.read_bytes() == (d2 / "volumes" / f.name).read_bytes()

    def test_loaded_equals_built(self, tmp_path):
        ds = dp.build_dataset(generate_patients(9, 10), seed=9)
        dp.save_dataset(ds, tmp_path / "ds")
        loaded = dp.load_dataset(tmp_path / "ds")
        assert loaded.split == ds.split
        assert loaded.vocab.items == ds.vocab.items
        assert loaded.patients == ds.patients
        assert any(p.age is None for p in loaded.patients.values())
        assert loaded.categorical_fields == ds.categorical_fields
        assert (loaded.split_seed, loaded.split_ratios, loaded.split_fold) == (
            ds.split_seed, ds.split_ratios, ds.split_fold)
        assert len(loaded.samples) == len(ds.samples)
        for a, b in zip(loaded.samples, ds.samples):
            assert (a.patient_id, a.aug_id, a.age, a.time_norm, a.event) == (
                b.patient_id, b.aug_id, b.age, b.time_norm, b.event)
            assert a.tokens.dtype == b.tokens.dtype
            np.testing.assert_array_equal(a.tokens, b.tokens)
        for pid in ds.volumes:
            np.testing.assert_array_equal(loaded.volumes[pid], ds.volumes[pid])

    def test_failed_write_leaves_no_manifest(self, tmp_path, monkeypatch):
        ds = dp.build_dataset(generate_patients(12, 10), seed=12)
        real_open, opened = open, []

        def open_until_disk_full(*args, **kwargs):
            opened.append(args[0])
            if len(opened) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(*args, **kwargs)

        monkeypatch.setattr(dp, "open", open_until_disk_full, raising=False)
        with pytest.raises(OSError):
            dp.save_dataset(ds, tmp_path / "ds")
        # the manifest is written last, so a bundle without all its volumes has none
        assert sorted(p.name for p in (tmp_path / "ds").rglob("*")) == sorted(
            ["volumes", *(f"{pid}.psnv" for pid in sorted(ds.volumes)[:2])]
        )

    def test_corrupted_magic(self, tmp_path):
        ds = dp.build_dataset(generate_patients(10, 10), seed=10)
        dp.save_dataset(ds, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("format: PSND", "format: ZZZZ", 1))
        with pytest.raises(FormatError, match="PSND"):
            dp.load_dataset(tmp_path / "ds")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest"):
            dp.load_dataset(tmp_path)

    @pytest.mark.parametrize("kind, pattern, replacement", [
        ("patient", r" days=\S+", ""),                     # missing key
        ("patient", r" event=\d", " event=?"),             # malformed number
        ("patient", r"items=\w+", "items=colour"),         # foreign categorical field
        ("patient", r"items=[^,]+,", "items="),            # missing categorical field
        ("patient", r" items=", " split=test items="),     # field the format does not have
        ("patient", r"^patient\.", "patient.../"),          # id outside the volumes directory
        ("patient", r" event=\d", " event=2"),             # event neither 0 nor 1
        ("patient", r" days=\S+", " days=nan"),            # non-finite target
        ("patient", r" days=\S+", " days=inf"),
        ("patient", r" age=\S+", " age=nan"),              # non-finite age
        *[(key, r".+", "") for key in (                    # missing header line
            "split_seed", "split_fold", "split_ratios", "patients", "categorical_fields",
        )],
        ("split_seed", r"\d+$", "x"),                      # malformed header value
        ("split_fold", r"\d+$", "x"),
        ("split_ratios", r"[\d.]+$", "a"),
        ("patients", r"\d+$", ""),
        ("patients", r"^patients", "samples"),             # key the format does not have
    ])
    def test_malformed_entry_names_line(self, tmp_path, kind, pattern, replacement):
        ds = dp.build_dataset(generate_patients(11, 10), seed=11)
        dp.save_dataset(ds, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith((kind + ".", kind + ":")))
        lines[lineno - 1] = re.sub(pattern, replacement, lines[lineno - 1], count=1)
        manifest.write_text("\n".join(lines) + "\n")
        # an emptied line drops its key, so the error names the key instead
        match = f"manifest line {lineno}:" if lines[lineno - 1] else f"lacks {kind}"
        with pytest.raises(FormatError, match=match):
            dp.load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("key", ["patient.SP0000", "split_seed"])
    def test_repeated_key_names_second_line(self, tmp_path, key):
        ds = dp.build_dataset(generate_patients(11, 10), seed=11)
        dp.save_dataset(ds, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        first = next(i for i, line in enumerate(lines, start=1) if line.startswith(key + ":"))
        manifest.write_text("\n".join(lines + [lines[first - 1]]) + "\n")
        with pytest.raises(FormatError, match=f"manifest line {len(lines) + 1}: {key} repeats line {first}"):
            dp.load_dataset(tmp_path / "ds")

    def test_version_1_rejected(self, tmp_path):
        ds = dp.build_dataset(generate_patients(13, 10), seed=13)
        dp.save_dataset(ds, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("version: 2", "version: 1", 1))
        with pytest.raises(FormatError, match="manifest line 2: .*unsupported version 1"):
            dp.load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("pattern, replacement, message", [
        pytest.param(r"^patient\.SP0003: .*\n", "", "header says 10 patients, found 9", id="dropped_patient"),
        pytest.param(r"age=[\d.]+", "age=missing", "every training-split age is missing", id="all_ages_missing"),
        pytest.param(r"days=[\d.]+", "days=100.0", "constant feature", id="constant_days"),
        pytest.param(r"split_fold: \d+", "split_fold: 7", "fold must lie", id="fold_out_of_range"),
    ])
    def test_inconsistent_bundle_names_manifest(self, tmp_path, pattern, replacement, message):
        # every line parses, but the header and patients do not make a dataset
        ds = dp.build_dataset(generate_patients(14, 10), seed=14)
        dp.save_dataset(ds, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.txt"
        manifest.write_text(re.sub(pattern, replacement, manifest.read_text(), flags=re.M))
        with pytest.raises(FormatError, match=f"manifest.txt: .*{message}"):
            dp.load_dataset(tmp_path / "ds")
