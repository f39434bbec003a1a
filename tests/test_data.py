"""Scaling, imputation, resizing, augmentation, and file formats."""

import errno
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from survtower import data as dp
from survtower.errors import ConfigError, DegenerateFeatureError, FormatError, PipelineError
from survtower.synthetic import generate_patients


def minmax_scale(values):
    return dp.minmax(values, np.ones(len(values), dtype=bool))


def zscore(values):
    return dp.zscore(values, np.ones(len(values), dtype=bool))


class TestScaling:
    def test_minmax_basic(self):
        np.testing.assert_allclose(minmax_scale([0, 5, 10]), [0, 0.5, 1])

    def test_minmax_extends_beyond_training_range(self):
        assert dp.minmax([0, 12.0, 10], [True, False, True])[1] == pytest.approx(1.2)

    def test_minmax_degenerate(self):
        with pytest.raises(DegenerateFeatureError):
            minmax_scale([3.0, 3.0, 3.0])

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
        # the training entries are constant; the others do not count
        with pytest.raises(DegenerateFeatureError):
            dp.zscore([5.0, 5.0, 8.0], [True, True, False])

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=30).filter(lambda xs: max(xs) > min(xs)))
    @settings(max_examples=50, deadline=None)
    def test_minmax_lands_in_unit_interval(self, xs):
        out = minmax_scale(xs)
        assert out.min() >= -1e-12 and out.max() <= 1 + 1e-12


class TestImputation:
    def test_mean_fill(self):
        assert dp.impute_ages([40.0, None, 60.0], [True, True, True]).tolist() == [40.0, 50.0, 60.0]

    def test_no_missing_is_identity(self):
        assert dp.impute_ages([41.0, 52.0], [True, True]).tolist() == [41.0, 52.0]

    def test_mean_over_observed_training_only(self):
        # the non-train 90.0 and the missing entry must not shift the mean
        filled = dp.impute_ages([40.0, None, 90.0, 60.0], [True, True, False, True])
        assert filled.tolist() == [40.0, 50.0, 90.0, 60.0]

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
        # build_dataset names the patient whose volume it is
        patients = generate_patients(1, 10)
        patients[4].volume = np.full((4, 10, 10), 7.0)
        caplog.clear()
        with caplog.at_level("WARNING"):
            ds = dp.build_dataset(patients, seed=1)
        np.testing.assert_allclose(ds.volumes[patients[4].patient_id], 0.5)
        assert f"patient {patients[4].patient_id!r}: constant volume (value 7.0)" in caplog.text

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


def write_raw_volume(path, arr):
    """A PSNV file holding ``arr`` as is, whether or not ``save_volume`` would write it."""
    arr = np.asarray(arr, dtype="<f4")
    path.write_bytes(dp._VOLUME_HEADER.pack(b"PSNV", 1, *arr.shape) + arr.tobytes())


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

    @pytest.mark.parametrize("shape, offset", [((0, 96, 96), 6), ((2, 3, 0), 14)], ids=["frames", "width"])
    def test_empty_volume_reports_its_zero_dim(self, tmp_path, shape, offset):
        p = tmp_path / "e.psnv"
        write_raw_volume(p, np.ones(shape))
        with pytest.raises(FormatError, match="e.psnv: empty") as info:
            dp.load_volume(p)
        assert info.value.offset == offset

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_reports_offset(self, tmp_path, bad):
        p = tmp_path / "n.psnv"
        v = np.ones((2, 3, 3), dtype=np.float32)
        v[1, 0, 2] = v[1, 2, 2] = bad
        write_raw_volume(p, v)
        with pytest.raises(FormatError, match="n.psnv: voxel 11") as info:
            dp.load_volume(p)
        assert info.value.offset == 18 + 4 * 11

    @pytest.mark.parametrize("shape, bad", [((0, 3, 3), 1.0), ((2, 3, 0), 1.0), ((2, 3, 3), np.nan),
                                            ((2, 3, 3), np.inf)], ids=["frames", "width", "nan", "inf"])
    def test_save_refuses_what_load_refuses(self, tmp_path, shape, bad):
        with pytest.raises(ConfigError, match="volume files hold"):
            dp.save_volume(tmp_path / "v.psnv", np.full(shape, bad))
        assert list(tmp_path.iterdir()) == []


class TestSplits:
    def test_ratio_counts(self):
        ids = [f"p{i}" for i in range(10)]
        split = dp.assign_splits(ids, seed=1, fold=0)
        counts = {s: list(split.values()).count(s) for s in dp.SPLITS}
        assert counts == {"train": 6, "val": 2, "test": 2}

    @pytest.mark.parametrize("n, counts", [(3, (1, 1, 1)), (13, (8, 2, 3)), (23, (13, 5, 5)), (213, (128, 42, 43))])
    def test_float_rounding_of_train_share(self, n, counts):
        # round(len(rest) * 0.6 / 0.8) in floats rounds an x.5 up or down:
        # (3 * rest + 1) // 4 differs at 13 and 213 patients, round(0.75 * rest) at 3 and 23
        split = dp.assign_splits([f"p{i}" for i in range(n)], 0, 0)
        assert tuple(list(split.values()).count(s) for s in dp.SPLITS) == counts

    def test_deterministic(self):
        ids = [f"p{i}" for i in range(23)]
        a = dp.assign_splits(ids, 7, 2)
        b = dp.assign_splits(ids, 7, 2)
        assert a == b

    def test_folds_partition_patients(self):
        ids = [f"p{i}" for i in range(53)]
        seen = []
        for fold in range(dp.N_FOLDS):
            split = dp.assign_splits(ids, 11, fold)
            seen.extend(p for p, s in split.items() if s == "test")
        assert sorted(seen) == sorted(ids)

    def test_too_few_patients(self):
        with pytest.raises(ConfigError):
            dp.assign_splits(["a", "b"], 0, 0)

    def test_negative_seed(self):
        ids = [f"p{i}" for i in range(10)]
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            dp.assign_splits(ids, -1, 0)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            dp.build_dataset(generate_patients(1, 10), seed=-1)

    def test_bad_fold(self):
        ids = [f"p{i}" for i in range(10)]
        for fold in (-1, dp.N_FOLDS):
            with pytest.raises(ConfigError, match="fold"):
                dp.assign_splits(ids, 0, fold)


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
        moved = dp.apply_split(dataset, seed=99, fold=1)
        assert moved.split != dataset.split
        assert dp.apply_split(dataset, dataset.split_seed, dataset.split_fold) is dataset

    def test_volume_values_in_unit_interval(self, dataset):
        for v in dataset.volumes.values():
            assert v.min() >= 0.0 and v.max() <= 1.0

    @pytest.mark.parametrize("pid", ["SP/x", "SP\\x", "SP\x00x", ""])
    def test_path_separator_in_patient_id_rejected(self, pid):
        # the id names the patient's volume file in a saved bundle
        patients = generate_patients(1, 10)
        patients[0].patient_id = pid
        with pytest.raises(PipelineError, match=f"patient id {re.escape(repr(pid))} is empty or contains"):
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
        # load_dataset refuses these in a manifest, so build_dataset must not accept them
        patients = generate_patients(1, 10)
        setattr(patients[3], field, value)
        with pytest.raises(PipelineError, match=f"patient {patients[3].patient_id!r}: .*{message}"):
            dp.build_dataset(patients, seed=1)

    def test_non_string_categorical_value_rejected(self):
        # a saved bundle stores item values as JSON strings
        patients = generate_patients(1, 10)
        patients[3].categorical["stage"] = 3
        with pytest.raises(PipelineError, match=f"patient {patients[3].patient_id!r}: categorical values"):
            dp.build_dataset(patients, seed=1)

    def test_cohort_without_categorical_fields_rejected(self):
        # the clinical tower would have no item token to attend over
        patients = generate_patients(1, 10)
        for p in patients:
            p.categorical = {}
        with pytest.raises(PipelineError, match="no categorical fields"):
            dp.build_dataset(patients, seed=1)


def saved_bundle(tmp_path, seed, edit=None):
    """The bundle of ``generate_patients(seed, 10)``, its manifest document
    changed by ``edit`` when given."""
    dp.save_dataset(dp.build_dataset(generate_patients(seed, 10), seed=seed), tmp_path / "ds")
    if edit is not None:
        manifest = tmp_path / "ds" / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
    return tmp_path / "ds"


def rename_patient(doc, old, new):
    doc["patients"][new] = doc["patients"].pop(old)


# (edit of the manifest document, what the error names)
MANIFEST_EDITS = {
    "no days": (lambda d: d["patients"]["SP0003"].pop("days"), "patient 'SP0003' holds"),
    "no age": (lambda d: d["patients"]["SP0003"].pop("age"), "patient 'SP0003' holds"),
    "extra split": (lambda d: d["patients"]["SP0003"].update(split="test"), "patient 'SP0003' holds"),
    "entry not object": (lambda d: d["patients"].update(SP0003=[]), "patient 'SP0003' holds"),
    "event true": (lambda d: d["patients"]["SP0003"].update(event=True), "patient 'SP0003': event True has"),
    "event float": (lambda d: d["patients"]["SP0003"].update(event=1.0), "patient 'SP0003': event 1.0 has"),
    "days string": (lambda d: d["patients"]["SP0003"].update(days="12"), "patient 'SP0003': days '12' has"),
    "days int": (lambda d: d["patients"]["SP0003"].update(days=12), "patient 'SP0003': days 12 has"),
    "age string": (lambda d: d["patients"]["SP0003"].update(age="missing"), "patient 'SP0003': age 'missing'"),
    "items list": (lambda d: d["patients"]["SP0003"].update(items=["stage=I"]), "patient 'SP0003': items"),
    "item int": (lambda d: d["patients"]["SP0003"]["items"].update(stage=1), "patient 'SP0003': categorical"),
    "foreign field": (lambda d: d["patients"]["SP0003"]["items"].update(colour="red"),
                      "patient 'SP0003' has inconsistent categorical fields"),
    "missing field": (lambda d: d["patients"]["SP0003"]["items"].pop("stage"),
                      "patient 'SP0003' has inconsistent categorical fields"),
    "id with separator": (lambda d: rename_patient(d, "SP0003", "../SP0003"), "patient id '../SP0003' is empty"),
    "id with NUL": (lambda d: rename_patient(d, "SP0003", "SP\x00x"), r"patient id 'SP\\x00x' is empty"),
    "event 2": (lambda d: d["patients"]["SP0003"].update(event=2), "patient 'SP0003': event 2"),
    "days NaN": (lambda d: d["patients"]["SP0003"].update(days=float("nan")), "patient 'SP0003': .*must be finite"),
    "days Infinity": (lambda d: d["patients"]["SP0003"].update(days=float("inf")), "patient 'SP0003': .*finite"),
    "age NaN": (lambda d: d["patients"]["SP0003"].update(age=float("nan")), "patient 'SP0003': .*must be finite"),
    "no split_seed": (lambda d: d.pop("split_seed"), "the header holds"),
    "no split_fold": (lambda d: d.pop("split_fold"), "the header holds"),
    "no patients": (lambda d: d.pop("patients"), "the header holds"),
    "extra samples": (lambda d: d.update(samples=10), "the header holds"),
    "split_seed string": (lambda d: d.update(split_seed="x"), "the header: split_seed 'x' has"),
    "split_fold float": (lambda d: d.update(split_fold=1.0), "the header: split_fold 1.0 has"),
    "patients list": (lambda d: d.update(patients=[]), r"the header: patients \[\] has"),
    "version float": (lambda d: d.update(version=4.0), "the header: version 4.0 has"),
}


def read_all(ds):
    """Read every volume of ``ds``, so that none is left to read at first use."""
    for pid in ds.volumes:
        ds.volumes[pid]
    return ds


class TestBundleRoundtrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        # saved once with no volume read since the load, and once with all of them read
        ds = dp.build_dataset(generate_patients(8, 10), seed=8)
        d1 = tmp_path / "one"
        dp.save_dataset(ds, d1)
        for d2, touch in ((tmp_path / "untouched", lambda ds: ds), (tmp_path / "read", read_all)):
            dp.save_dataset(touch(dp.load_dataset(d1)), d2)
            assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
            assert sorted(f.name for f in (d2 / "volumes").iterdir()) == sorted(f"{p}.psnv" for p in ds.patients)
            for f in sorted((d1 / "volumes").iterdir()):
                assert f.read_bytes() == (d2 / "volumes" / f.name).read_bytes()

    def test_loaded_equals_built(self, tmp_path):
        ds = dp.build_dataset(generate_patients(9, 10), seed=9)
        dp.save_dataset(ds, tmp_path / "ds")
        # volumes read at first use, in the checks below, and read before them
        for loaded in (dp.load_dataset(tmp_path / "ds"), read_all(dp.load_dataset(tmp_path / "ds"))):
            assert loaded.split == ds.split
            assert loaded.vocab == ds.vocab
            assert loaded.patients == ds.patients
            assert any(p.age is None for p in loaded.patients.values())
            assert (loaded.split_seed, loaded.split_fold) == (ds.split_seed, ds.split_fold)
            assert len(loaded.samples) == len(ds.samples)
            for a, b in zip(loaded.samples, ds.samples):
                assert (a.patient_id, a.aug_id, a.age, a.time_norm, a.event) == (
                    b.patient_id, b.aug_id, b.age, b.time_norm, b.event)
                assert a.tokens.dtype == b.tokens.dtype
                np.testing.assert_array_equal(a.tokens, b.tokens)
            assert sorted(loaded.volumes) == sorted(ds.volumes) and len(loaded.volumes) == len(ds.volumes)
            for pid in ds.volumes:
                assert pid in loaded.volumes
                np.testing.assert_array_equal(loaded.volumes[pid], ds.volumes[pid])
            assert "SP9999" not in loaded.volumes and loaded.volumes.get("SP9999") is None

    def test_ids_and_items_with_spaces_commas_semicolons(self, tmp_path):
        patients = generate_patients(15, 10)
        for i, p in enumerate(patients):
            p.patient_id = f"SP {i}, left; upper"
            p.categorical["histology"] += ", nos; grade 2"
        ds = dp.build_dataset(patients, seed=15)
        dp.save_dataset(ds, tmp_path / "ds")
        loaded = dp.load_dataset(tmp_path / "ds")
        assert loaded.patients == ds.patients
        assert loaded.vocab == ds.vocab
        assert all(", nos; grade 2" in item for item in loaded.vocab if item.startswith("histology="))
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
        bundle = saved_bundle(tmp_path, 10, lambda d: d.update(format="ZZZZ"))
        with pytest.raises(FormatError, match="manifest.json: not a PSND manifest") as info:
            dp.load_dataset(bundle)
        assert info.value.offset == 0

    def test_missing_volume_file_names_bundle_and_patient(self, tmp_path):
        bundle = saved_bundle(tmp_path, 10)
        (bundle / "volumes" / "SP0004.psnv").unlink()
        with pytest.raises(FormatError, match=f"{re.escape(str(bundle))}: patient 'SP0004' has no volume file"):
            dp.load_dataset(bundle)
        shutil.rmtree(bundle / "volumes")
        with pytest.raises(FormatError, match="patient 'SP0000' has no volume file"):
            dp.load_dataset(bundle)

    def test_missing_manifest(self, tmp_path):
        # a bundle from before version 4 holds manifest.txt
        (tmp_path / "manifest.txt").write_text("format: PSND\nversion: 3\n")
        with pytest.raises(FormatError, match="no manifest.json"):
            dp.load_dataset(tmp_path)

    @pytest.mark.parametrize("case", MANIFEST_EDITS)
    def test_malformed_entry_names_key(self, tmp_path, case):
        edit, names = MANIFEST_EDITS[case]
        bundle = saved_bundle(tmp_path, 11, edit)
        with pytest.raises(FormatError, match=f"manifest.json: .*{names}"):
            dp.load_dataset(bundle)

    @pytest.mark.parametrize("case, pid", [
        ("no age", "SP0003"), ("days string", "SP0003"), ("event 2", "SP0003"), ("foreign field", "SP0003"),
        ("id with NUL", "SP\x00x"), ("split_seed string", None), ("no patients", None),
    ])
    def test_malformed_entry_is_located(self, tmp_path, case, pid):
        # at the patient's key as save_dataset writes it, else at the document
        bundle = saved_bundle(tmp_path, 11, MANIFEST_EDITS[case][0])
        blob = (bundle / "manifest.json").read_bytes()
        with pytest.raises(FormatError) as info:
            dp.load_dataset(bundle)
        assert info.value.offset == (0 if pid is None else blob.index(json.dumps(pid).encode() + b":"))

    def test_syntax_error_reports_byte_offset(self, tmp_path):
        # the offset counts bytes: the id before the error is two bytes longer in UTF-8
        manifest = saved_bundle(tmp_path, 11) / "manifest.json"
        text = manifest.read_text().replace('"SP0000"', '"SPéé"', 1)
        at = text.index('"SP0001"')
        manifest.write_bytes((text[:at] + "@" + text[at:]).encode("utf-8"))
        with pytest.raises(FormatError, match="manifest.json: Expecting property name") as info:
            dp.load_dataset(manifest.parent)
        assert info.value.offset == at + 2

    def test_not_utf8_rejected(self, tmp_path):
        manifest = saved_bundle(tmp_path, 11) / "manifest.json"
        manifest.write_bytes(manifest.read_bytes().replace(b"SP0000", b"SP\xff000", 1))
        with pytest.raises(FormatError, match="manifest.json: .*can't decode byte 0xff") as info:
            dp.load_dataset(manifest.parent)
        assert info.value.offset == manifest.read_bytes().index(b"\xff")

    @pytest.mark.parametrize("names, old, new", [
        ("'SP0000' in 'patients'", '"SP0001": {', '"SP0000": {}, "SP0001": {'),
        # a repeated key is located at the document's first byte
        (r"'split_seed' \(at byte offset 0\)$", '"version": 4', '"version": 4, "split_seed": 0'),
        # the first "smoker" is in the items of SP0000
        ("'smoker' in 'items' in 'SP0000' in 'patients'", '"smoker": "former"',
         '"smoker": "former", "smoker": "never"'),
    ], ids=["SP0000", "split_seed", "items"])
    def test_repeated_key_rejected(self, tmp_path, names, old, new):
        manifest = saved_bundle(tmp_path, 11) / "manifest.json"
        manifest.write_text(manifest.read_text().replace(old, new, 1))
        with pytest.raises(FormatError, match=f"manifest.json: repeated key {names}"):
            dp.load_dataset(manifest.parent)

    def test_version_1_rejected(self, tmp_path):
        # so are versions 2 and 3
        for version in (1, 2, 3, "4"):
            bundle = saved_bundle(tmp_path, 13, lambda d: d.update(version=version))
            match = f"manifest.json: unsupported version {re.escape(repr(version))}"
            with pytest.raises(FormatError, match=match) as info:
                dp.load_dataset(bundle)
            assert info.value.offset == 0

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: [e.update(age=None) for e in d["patients"].values()],
                     "every training-split age is missing", id="all_ages_missing"),
        pytest.param(lambda d: [e.update(days=100.0) for e in d["patients"].values()],
                     "constant feature", id="constant_days"),
        pytest.param(lambda d: d.update(split_fold=7), "fold must lie", id="fold_out_of_range"),
        pytest.param(lambda d: d.update(split_seed=-1), "seed must be non-negative", id="negative_seed"),
    ])
    def test_inconsistent_bundle_names_manifest(self, tmp_path, edit, message):
        # every entry is well-formed, but the header and patients do not make a
        # dataset: a fault of the whole document, located at its first byte
        with pytest.raises(FormatError, match=f"manifest.json: .*{message}") as info:
            dp.load_dataset(saved_bundle(tmp_path, 14, edit))
        assert info.value.offset == 0
