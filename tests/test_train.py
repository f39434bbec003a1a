"""Model assembly and training protocol: float32 stays float32, checkpoint
round trip, and the bit-exact resume contract."""

import dataclasses
import errno
import json
import struct

import numpy as np
import pytest

from survtower import data, fusion, model, train
from survtower.errors import ConfigError, FormatError
from survtower.synthetic import generate_synthetic


def tiny_config(**kw):
    base = dict(
        towers="textual", epochs=2, batch_size=8, embed_dim=12, heads=3, layers=2,
        mlp_hidden=24, head_hidden=8, frames=4, in_plane=8, widths=(4, 8), blocks_per_stage=1,
    )
    base.update(kw)
    return train.TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(4, 30)


@pytest.mark.parametrize("towers", ["both", "visual", "textual"])
def test_forward_batch_keeps_float32(dataset, towers):
    config = tiny_config(towers=towers).model_config()
    store = model.init_model_params(config, dataset.vocab, dataset.continuous_fields, seed=0)
    batch = model.make_batch(dataset, dataset.samples[:3], config)
    pred = model.forward_batch(store, config, batch)
    assert pred.shape == (3, 1)
    assert pred.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_make_batch_volumes_are_resized_variants(dataset, dtype):
    config = tiny_config(towers="both").model_config()
    pid = dataset.samples[0].patient_id
    samples = [s for s in dataset.samples if s.patient_id == pid]
    assert [s.aug_id for s in samples] == list(range(8))
    batch = model.make_batch(dataset, samples, config, dtype=dtype)
    fhw = (config.visual.frames, config.visual.in_plane, config.visual.in_plane)
    assert batch.volumes.shape == (8, 1, *fhw) and batch.volumes.dtype == dtype
    for i, s in enumerate(samples):
        want = data.resize_volume(data.augment_volume(dataset.volumes[pid], s.aug_id), fhw).astype(dtype)
        np.testing.assert_array_equal(batch.volumes[i, 0], want)


@pytest.mark.parametrize("frame_diff", ["on", "forward-only", "backward-only", "off"])
def test_forward_batch_is_weighted_sum_of_views(dataset, frame_diff):
    omega = 0.4
    config = tiny_config(towers="both", frame_diff=frame_diff, omega=omega).model_config()
    store = model.init_model_params(config, dataset.vocab, dataset.continuous_fields, seed=0, dtype=np.float64)
    batch = model.make_batch(dataset, dataset.samples[:5], config, dtype=np.float64)

    single = dataclasses.replace(config, frame_diff="off")
    passes = {None: model.forward_batch(store, single, batch).data}
    for direction in ("forward", "backward"):
        diffed = dataclasses.replace(batch, volumes=fusion.frame_difference(batch.volumes, direction))
        passes[direction] = model.forward_batch(store, single, diffed).data
    expected = {
        "on": omega * passes[None] + (1 - omega) / 2 * (passes["forward"] + passes["backward"]),
        "forward-only": omega * passes[None] + (1 - omega) * passes["forward"],
        "backward-only": omega * passes[None] + (1 - omega) * passes["backward"],
        "off": passes[None],
    }[frame_diff]
    pred = model.forward_batch(store, config, batch)
    assert pred.dtype == np.float64
    np.testing.assert_allclose(pred.data, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("bad", [
    dict(omega=2.0), dict(se_mode="sideways"), dict(towers="none"), dict(heads=5), dict(frames=3),
    dict(heads=0), dict(embed_dim=0), dict(heads=-3), dict(widths=(0,)), dict(widths=(16, -2)),
    dict(frames=0, se_mode="off"), dict(in_plane=0), dict(frames=1, se_mode="off"),
    dict(towers="visual", frames=1, se_mode="off", frame_diff="forward-only"),
    dict(ratios=(0.5, 0.5, 0.5)), dict(ratios=(0.5, 0.5)), dict(fold=-1), dict(fold=9),
])
def test_config_rejects_model_that_cannot_run(bad):
    with pytest.raises(ConfigError):
        train.TrainConfig(**bad)


@pytest.mark.parametrize("kw", [dict(towers="textual"), dict(towers="both", frame_diff="off"),
                                dict(towers="both", omega=1.0)])
def test_one_frame_runs_without_differencing(dataset, kw):
    # one frame has no neighbour to subtract, but a model that never differences needs none
    config = tiny_config(frames=1, se_mode="off", epochs=1, **kw)
    _, history = train.train(config, dataset)
    assert np.isfinite(history[-1]["train_mse"])


def test_omega_one_bit_equals_frame_diff_off(dataset):
    preds = []
    for kw in (dict(omega=1.0), dict(frame_diff="off")):
        config = tiny_config(towers="both", **kw).model_config()
        store = model.init_model_params(config, dataset.vocab, dataset.continuous_fields, seed=0)
        preds.append(model.predict_times(store, config, dataset, dataset.samples[:48]))
    np.testing.assert_array_equal(preds[0], preds[1])


def test_augmented_train_holds_every_variant(dataset):
    config = tiny_config(towers="both", epochs=1, augmented_train=True)
    ds, train_samples, _, _ = train.split_dataset(dataset, config)
    uncensored = [pid for pid in ds.patient_ids("train") if ds.patients[pid].event == 1]
    assert uncensored
    assert sorted((s.patient_id, s.aug_id) for s in train_samples) == [
        (pid, aug_id) for pid in uncensored for aug_id in range(8)
    ]
    _, history = train.train(config, dataset)
    assert np.isfinite(history[-1]["train_mse"])


def test_validation_matches_evaluate(dataset):
    config = tiny_config()
    state, history = train.train(config, dataset)
    scores = train.evaluate(state, dataset, "val", which="last")
    assert scores["n"] == len(train.split_dataset(dataset, config)[2])
    assert history[-1]["val_c_index"] == scores["c_index"]


@pytest.mark.parametrize("axis", train.ABLATION_AXES)
def test_ablation_grid_builds_unique_variants(dataset, axis):
    rows = train.ablation_grid(tiny_config(towers="both"), axis)
    labels = [label for label, _ in rows]
    assert len(labels) == len(set(labels)) > 1
    for _, config in rows:
        model.init_model_params(config.model_config(), dataset.vocab, dataset.continuous_fields, seed=0)
    if axis == "direction":
        assert {config.frame_diff for _, config in rows} == set(fusion.FRAME_DIFF_MODES)


def test_ablate_trains_and_scores_each_tower_variant(dataset):
    rows = train.ablate(tiny_config(epochs=1), dataset, "towers")
    assert [r["variant"] for r in rows] == ["towers=both", "towers=visual", "towers=textual"]
    assert len({r["config_hash"] for r in rows}) == 3
    for r in rows:
        assert r["axis"] == "towers" and r["split"] == "test"
        assert 0.0 <= r["c_index"] <= 1.0


def test_append_results_writes_header_once(tmp_path):
    path = tmp_path / "results.csv"
    rows = [
        dict(config_hash="a6e94a3bcff1", fold=0, epoch=2, split="test", c_index=0.1 + 0.2, mae=1 / 3,
             wall_seconds=1.23456),
        dict(config_hash="89241d8108ff", fold=1, epoch=0, split="test", c_index=0.6, mae=2e-17,
             wall_seconds=0.5),
    ]
    train.append_results(path, rows[:1])
    train.append_results(path, rows[1:])
    lines = path.read_text().splitlines()
    assert lines[0] == train.RESULTS_HEADER
    assert len(lines) == 3
    for line, row in zip(lines[1:], rows):
        fields = dict(zip(train.RESULTS_HEADER.split(","), line.split(",")))
        assert fields["config_hash"] == row["config_hash"]
        assert (int(fields["fold"]), int(fields["epoch"])) == (row["fold"], row["epoch"])
        assert float(fields["c_index"]) == row["c_index"]
        assert float(fields["mae"]) == row["mae"]


def test_ablation_grid_rejects_unknown_axis():
    with pytest.raises(ConfigError, match="unknown ablation axis"):
        train.ablation_grid(tiny_config(), "dropout")


# header edits that each leave a checkpoint that must not load
HEADER_EDITS = {
    "no epoch": lambda h: h.pop("epoch"),
    "best without epoch": lambda h: h["best"].pop("epoch"),
    "tensor without offset": lambda h: h["tensors"][0].pop("offset"),
    "dtype object": lambda h: h["tensors"][0].update(dtype="object"),
    "dtype int8": lambda h: h["tensors"][0].update(dtype="int8"),
    "nbytes not shape": lambda h: h["tensors"][0].update(nbytes=h["tensors"][0]["nbytes"] + 4),
    "no param group": lambda h: h.update(tensors=[t for t in h["tensors"] if t["group"] != "param"]),
    "config without widths": lambda h: h["config"].pop("widths"),
    "config with unknown key": lambda h: h["config"].update(dropout=0.1),
    "fields without continuous": lambda h: h["fields"].pop("continuous"),
    "adam_m entry missing": lambda h: h["tensors"].remove(
        next(t for t in h["tensors"] if t["group"] == "adam_m")
    ),
}


class TestCheckpoint:
    def test_save_load_evaluate_bit_identical(self, dataset, tmp_path):
        state, _ = train.train(tiny_config(), dataset)
        train.save_checkpoint(state, tmp_path / "ckpt")
        loaded = train.load_checkpoint(tmp_path / "ckpt")
        for which in ("best", "last"):
            assert train.evaluate(loaded, dataset, which=which) == train.evaluate(state, dataset, which=which)

    def test_resume_equals_continuous_run(self, dataset, tmp_path):
        config = tiny_config()
        full, full_history = train.train(config, dataset)
        half, first = train.train(config, dataset, epochs=1)
        train.save_checkpoint(half, tmp_path / "half")
        resumed, second = train.train(
            config, dataset, state=train.load_checkpoint(tmp_path / "half"), epochs=1
        )

        def timeless(rows):
            return [{k: v for k, v in row.items() if k != "seconds"} for row in rows]

        np.testing.assert_equal(timeless(first + second), timeless(full_history))
        train.save_checkpoint(full, tmp_path / "full")
        train.save_checkpoint(resumed, tmp_path / "resumed")
        assert (tmp_path / "full").read_bytes() == (tmp_path / "resumed").read_bytes()

    def test_version_1_rejected(self, dataset, tmp_path):
        state, _ = train.train(tiny_config(epochs=1), dataset)
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 1"):
            train.load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", ["byte 20", *HEADER_EDITS])
    def test_corrupt_header_rejected(self, dataset, tmp_path, corrupt):
        state, _ = train.train(tiny_config(epochs=1), dataset)
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        if corrupt == "byte 20":
            blob[20] = 0xFF
        else:
            (length,) = struct.unpack_from("<Q", blob, 6)
            header = json.loads(blob[14:14 + length])
            HEADER_EDITS[corrupt](header)
            text = json.dumps(header).encode()
            blob = blob[:6] + struct.pack("<Q", len(text)) + text + blob[14 + length:]
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as info:
            train.load_checkpoint(path)
        assert info.value.offset == 14

    def test_failed_write_keeps_earlier_checkpoint(self, dataset, tmp_path, monkeypatch):
        state, _ = train.train(tiny_config(epochs=1), dataset)
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        before = path.read_bytes()
        state.epoch += 1

        class DiskFull:
            """A file whose second write fails, as on a full disk."""

            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(chunk)

        monkeypatch.setattr(data, "open", DiskFull, raising=False)
        with pytest.raises(OSError):
            train.save_checkpoint(state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

