"""Model assembly and training protocol: float32 stays float32, checkpoint
round trip, and the bit-exact resume contract."""

import dataclasses
import errno
import hashlib
import json
import re
import struct
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from survtower import autodiff as ad
from survtower import data, fusion, model, train, visual
from survtower.errors import ConfigError, FormatError, UsageError
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
    store = model.init_model_params(config, len(dataset.vocab), seed=0)
    batch = model.make_batch(dataset, dataset.samples[:3], config)
    pred = model.forward_batch(store, config, batch)
    assert pred.shape == (3, 1)
    assert pred.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_make_batch_volumes_are_resized_variants(dataset, dtype):
    config = tiny_config(towers="both").model_config()
    pid = dataset.samples[0].patient_id
    samples = [dataclasses.replace(dataset.samples[0], aug_id=a) for a in range(8)]
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
    store = model.init_model_params(config, len(dataset.vocab), seed=0, dtype=np.float64)
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


def _inline_overlap(side, main):
    main_result = main()
    return side(), main_result


def test_worker_changes_no_bit(dataset, monkeypatch):
    config = tiny_config(towers="both", frame_diff="on").model_config()
    samples = dataset.samples[:8]

    def run():
        store = model.init_model_params(config, len(dataset.vocab), seed=0)
        batch = model.make_batch(dataset, samples, config)
        loss, _ = fusion.training_loss(model.forward_batch(store, config, batch), batch.targets, store, 1e-3)
        ad.backward(loss)
        grads = {name: t.grad for name, t in store.items()}
        return loss.data, grads, model.predict_times(store, config, dataset, samples)

    loss, grads, preds = run()
    monkeypatch.setattr(ad, "overlap", _inline_overlap)
    inline_loss, inline_grads, inline_preds = run()
    assert np.array_equal(loss, inline_loss)
    assert grads.keys() == inline_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, inline_grads[name]), name
    assert np.array_equal(preds, inline_preds)


def test_predict_times_records_no_tape_on_the_worker(dataset, monkeypatch):
    seen = []
    backbone = visual.backbone_forward

    def spy(*args):
        out = backbone(*args)
        seen.append((threading.current_thread(), out.requires_grad))
        return out

    monkeypatch.setattr(visual, "backbone_forward", spy)
    config = tiny_config(towers="both", frame_diff="on").model_config()
    store = model.init_model_params(config, len(dataset.vocab), seed=0)
    model.predict_times(store, config, dataset, dataset.samples[:8])
    assert any(thread is not threading.current_thread() for thread, _ in seen)
    assert not any(requires_grad for _, requires_grad in seen)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_view_error_surfaces_after_every_view_ends(dataset, monkeypatch, failing):
    caller, ended = threading.current_thread(), []
    backbone = visual.backbone_forward

    def view(*args):
        on_worker = threading.current_thread() is not caller
        if on_worker == (failing == "worker"):
            raise ConfigError(f"{failing} view failed")
        time.sleep(0.2)
        out = backbone(*args)
        ended.append(on_worker)
        return out

    monkeypatch.setattr(visual, "backbone_forward", view)
    config = tiny_config(towers="both", frame_diff="on").model_config()
    store = model.init_model_params(config, len(dataset.vocab), seed=0)
    batch = model.make_batch(dataset, dataset.samples[:3], config)
    with pytest.raises(ConfigError, match=f"{failing} view failed"):
        model.forward_batch(store, config, batch)
    # each lane runs all three views over its half: the failing lane stops at
    # its first view, and the other lane has ended all three when it surfaces
    assert ended == [failing == "caller"] * 3


def test_no_thread_outlives_training(dataset, no_thread_outlives):
    train.train(tiny_config(towers="both", frame_diff="on", epochs=1), dataset)
    no_thread_outlives()


def _desk_step(dataset, n):
    """Loss and every parameter gradient of one seeded desk-shaped step on n samples."""
    config = train.desk_preset(seed=0).model_config()
    store = model.init_model_params(config, len(dataset.vocab), seed=0)
    batch = model.make_batch(dataset, dataset.samples[:n], config)
    loss, _ = fusion.training_loss(model.forward_batch(store, config, batch), batch.targets, store, 1e-3)
    ad.backward(loss)
    return loss.data, {name: t.grad for name, t in store.items()}


def test_two_lane_steps_repeat_bit_for_bit_under_fast_thread_switching(dataset):
    # a thread switch every microsecond reorders everything that timing can reorder
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [_desk_step(dataset, 4) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    loss, grads = runs[0]
    for other_loss, other_grads in runs[1:]:
        assert np.array_equal(loss, other_loss)
        for name, grad in grads.items():
            assert np.array_equal(grad, other_grads[name]), name


def test_a_closure_runs_on_the_caller_exactly_when_recorded_there(dataset, monkeypatch):
    made, ran = {}, {}
    record = ad._record

    def spy(out, parents, backward_fn):
        out = record(out, parents, backward_fn)
        node = out._node
        if node is not None:
            made[node] = threading.current_thread()

            def run(g, fn=node.backward_fn):
                ran[node] = threading.current_thread()
                fn(g)

            node.backward_fn = run
        return out

    monkeypatch.setattr(ad, "_record", spy)
    _desk_step(dataset, 4)
    caller = threading.current_thread()
    assert {thread is caller for thread in ran.values()} == {True, False}
    assert all((thread is caller) == (made[node] is caller) for node, thread in ran.items())


@pytest.mark.parametrize("towers", ["both", "visual"])
def test_each_samples_features_do_not_depend_on_its_batch(dataset, monkeypatch, towers):
    # the head's input row of every view, per sample: split into halves,
    # worked on two threads and joined, it equals the sample's row alone
    seen = []
    fuse_predict = fusion.fuse_predict

    def spy(store, features):
        seen.append(features.data)
        return fuse_predict(store, features)

    monkeypatch.setattr(fusion, "fuse_predict", spy)
    config = tiny_config(towers=towers, frame_diff="on").model_config()
    store = model.init_model_params(config, len(dataset.vocab), seed=0)
    batch = model.make_batch(dataset, dataset.samples[:5], config)

    def features(rows):
        seen.clear()
        part = model.BatchInputs(batch.tokens[rows], batch.ages[rows], batch.volumes[rows], batch.targets[rows])
        model.forward_batch(store, config, part)
        return np.stack(seen)                               # (views, rows, width)

    alone = np.concatenate([features(slice(i, i + 1)) for i in range(5)], axis=1)
    for n in (1, 2, 3, 5):
        assert np.array_equal(features(slice(0, n)), alone[:, :n]), n


@pytest.mark.parametrize("bad", [
    dict(omega=2.0), dict(se_mode="sideways"), dict(towers="none"), dict(heads=5), dict(frames=3),
    dict(heads=0), dict(embed_dim=0), dict(heads=-3), dict(widths=(0,)), dict(widths=(16, -2)),
    dict(frames=0, se_mode="off"), dict(in_plane=0), dict(frames=1, se_mode="off"),
    dict(towers="visual", frames=1, se_mode="off", frame_diff="forward-only"),
    dict(lr=0.0), dict(lam=-1e-3), dict(fold=-1), dict(fold=9), dict(seed=-1),
    # each field holds a value of its type: no bool for a number, no float for an int,
    # no truncated width, and a float is finite
    dict(epochs=1.5), dict(batch_size=2.5), dict(fold=1.0), dict(heads=True), dict(seed=True),
    dict(omega=True), dict(lr=float("nan")), dict(lam=float("inf")), dict(lr=10**400), dict(in_plane=24.0),
    dict(augmented_train="no"), dict(widths=(4.5, 8)), dict(widths=()), dict(widths=16),
    dict(mlp_hidden=0), dict(head_hidden=0),
    # a field's own check applies whatever the towers
    dict(towers="textual", se_mode="sideways"), dict(towers="visual", textual_encoder="rnn"),
    # epochs is the total a run reaches, so train takes no epoch count of its own
    dict(epochs=-3),
])
def test_config_rejects_model_that_cannot_run(bad):
    with pytest.raises(ConfigError):
        train.TrainConfig(**bad)


def test_config_hash_is_pinned():
    # a float field keeps an int as given, so the last two hash as they always did
    configs = [train.TrainConfig(), train.desk_preset(), train.TrainConfig(towers="textual", lam=0),
               train.TrainConfig(towers="visual", omega=1)]
    assert [train.config_hash(c) for c in configs] == ["a213f4e7063e", "08551cedf8f8", "978b4c2a5fb2", "270411702292"]


# settings that fail the check of one field, whatever the towers
FIELD_ERRORS = [dict(se_mode="sideways"), dict(embed_dim=0), dict(layers=0), dict(textual_encoder="rnn")]


def assert_rejected_for(setting, rejecting):
    """TrainConfig rejects ``setting`` for the towers in ``rejecting`` and accepts it for the others."""
    for towers in model.TOWER_MODES:
        if towers in rejecting:
            with pytest.raises(ConfigError):
                train.TrainConfig(towers=towers, **setting)
        else:
            assert train.TrainConfig(towers=towers, **setting).model_config().towers == towers


@pytest.mark.parametrize("visual", [dict(frames=1), dict(frames=3), dict(widths=(5,)), dict(se_mode="sideways")])
def test_clinical_only_config_ignores_visual_settings(visual):
    # a check that relates two visual fields runs only when the visual tower does
    assert_rejected_for(visual, model.TOWER_MODES if visual in FIELD_ERRORS else ("both", "visual"))


@pytest.mark.parametrize("clinical", [dict(heads=5), dict(embed_dim=0), dict(layers=0), dict(textual_encoder="rnn")])
def test_visual_only_config_ignores_clinical_settings(clinical):
    # a check that relates two clinical fields runs only when the clinical tower does
    assert_rejected_for(clinical, model.TOWER_MODES if clinical in FIELD_ERRORS else ("both", "textual"))


def test_mlp_encoder_ignores_heads(dataset):
    # the mlp encoder has no heads, so embed_dim need not split over them
    _, history = train.train(tiny_config(textual_encoder="mlp", heads=5, epochs=1), dataset)
    assert np.isfinite(history[-1]["train_mse"])
    with pytest.raises(ConfigError, match="split evenly over 5 heads"):
        tiny_config(heads=5)


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
        store = model.init_model_params(config, len(dataset.vocab), seed=0)
        preds.append(model.predict_times(store, config, dataset, dataset.samples[:48]))
    np.testing.assert_array_equal(preds[0], preds[1])


def test_augmented_train_holds_every_variant(dataset):
    config = tiny_config(towers="both", epochs=1, augmented_train=True)
    ds, train_samples, _, _ = train.split_dataset(dataset, config)
    uncensored = sorted(pid for pid, split in ds.split.items() if split == "train" and ds.patients[pid].event == 1)
    assert uncensored
    assert [(s.patient_id, s.aug_id) for s in train_samples] == [
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


def test_evaluate_best_needs_a_best_epoch(dataset):
    # with no epoch run, no epoch set a best-validation snapshot
    state, _ = train.train(tiny_config(epochs=0), dataset)
    with pytest.raises(UsageError, match="best_epoch is -1"):
        train.evaluate(state, dataset, which="best")
    assert train.evaluate(state, dataset, which="last")["n"] > 0


def test_seeded_desk_run_is_pinned():
    # a seeded run's numbers; a change that keeps the computation keeps them
    dataset = generate_synthetic(0, 60)
    state, history = train.train(train.desk_preset(epochs=3, seed=0), dataset)
    np.testing.assert_allclose(
        [[row[k] for k in ("train_loss", "train_mse", "val_mse")] for row in history],
        [[0.6532268226146698, 0.05296019667928869, 0.2559287742562751],
         [0.6991854608058929, 0.14330514746181894, 0.07553206699164304],
         [0.6095013618469238, 0.10151537826503486, 0.09072875237259154]],
        rtol=1e-5,
    )
    assert [row["val_c_index"] for row in history] == [0.7555555555555555, 0.8222222222222222, 0.7777777777777778]
    assert state.best_epoch == 1
    assert train.evaluate(state, dataset)["c_index"] == 0.6
    assert train.evaluate(state, dataset, which="last")["c_index"] == 0.6181818181818182


def test_assembly_and_initial_parameters_are_bit_pinned():
    # sha256 of every fold's assembled columns and of the seeded initial
    # parameters: a change that keeps the computation keeps every bit
    dataset = generate_synthetic(0, 60)
    columns = hashlib.sha256()
    for fold in range(data.N_FOLDS):
        ds = data.apply_split(dataset, 0, fold)
        columns.update(np.stack([s.tokens for s in ds.samples]).astype("<i8").tobytes())
        for name, dtype in (("age", "<f8"), ("time_norm", "<f8"), ("event", "<i8")):
            columns.update(np.array([getattr(s, name) for s in ds.samples], dtype=dtype).tobytes())
        columns.update(json.dumps(ds.split, sort_keys=True).encode())
    config = train.desk_preset(seed=0)
    store = model.init_model_params(config.model_config(), len(dataset.vocab), config.seed)
    params = hashlib.sha256(train._flat(store).astype("<f4").tobytes())
    assert [columns.hexdigest(), params.hexdigest()] == [
        "b54fb4329023c159bca48ead5919e337413ee27bd4c9e0f9563b54c32e6c9bc6",
        "1609095b89aec4844b5e919afa0e6b60501b8ea7b6fddf32e1e3bb89faf3a934",
    ]


@pytest.fixture
def volume_reads(monkeypatch):
    """The names of the volume files ``data.load_volume`` reads, in order."""
    names, load_volume = [], data.load_volume

    def counted(path):
        names.append(Path(path).name)
        return load_volume(path)

    monkeypatch.setattr(data, "load_volume", counted)
    return names


@pytest.fixture(scope="module")
def bundle(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "ds"
    data.save_dataset(dataset, path)
    return path


def run_and_evaluate(config, ds):
    """Train, then evaluate each split; the history and the scores."""
    state, history = train.train(config, ds)
    return history, [train.evaluate(state, ds, split) for split in data.SPLITS]


def test_clinical_only_run_reads_no_volume(bundle, volume_reads):
    run_and_evaluate(tiny_config(towers="textual"), data.load_dataset(bundle))
    assert volume_reads == []


def test_visual_run_reads_each_volume_once(dataset, bundle, volume_reads):
    # two epochs and three evaluations use the training and validation patients again
    config = train.desk_preset(epochs=2, seed=4)
    ds = data.load_dataset(bundle)
    history, scores = run_and_evaluate(config, ds)
    _, train_s, val_s, test_s = train.split_dataset(ds, config)
    used = {s.patient_id for s in train_s + val_s + test_s}
    assert sorted(volume_reads) == sorted(f"{pid}.psnv" for pid in used)
    assert len(used) < len(ds.patients)   # censored training and validation patients are never read

    def timeless(rows):
        return [{k: v for k, v in row.items() if k != "seconds"} for row in rows]

    built_history, built_scores = run_and_evaluate(config, dataset)
    assert timeless(history) == timeless(built_history) and scores == built_scores


def test_apply_split_reads_nothing(bundle, volume_reads):
    ds = data.load_dataset(bundle)
    moved = data.apply_split(ds, ds.split_seed + 1, ds.split_fold)
    assert moved.split != ds.split and moved.volumes is ds.volumes
    assert volume_reads == []


def test_malformed_volume_raises_at_first_use(dataset, tmp_path):
    data.save_dataset(dataset, tmp_path / "ds")
    config = tiny_config(towers="visual")
    victim = train.split_dataset(dataset, config)[1][0].patient_id
    path = tmp_path / "ds" / "volumes" / f"{victim}.psnv"
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    ds = data.load_dataset(tmp_path / "ds")
    run_and_evaluate(tiny_config(towers="textual"), ds)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: expected magic b'PSNV'") as info:
        train.train(config, ds)
    assert info.value.offset == 0


def test_evaluate_rejects_unknown_parameter_choice(dataset):
    state, _ = train.train(tiny_config(epochs=1), dataset)
    with pytest.raises(ConfigError, match="'bets'"):
        train.evaluate(state, dataset, which="bets")
    with pytest.raises(ConfigError, match=r"\('train', 'val', 'test'\), got 'bogus'"):
        train.evaluate(state, dataset, split="bogus")


def test_resume_rejects_another_config(dataset):
    state, _ = train.train(tiny_config(epochs=1), dataset)
    # another seed trains and scores other splits, another tower set other parameters
    with pytest.raises(UsageError, match="in seed, lr;"):
        train.train(tiny_config(epochs=2, seed=5, lr=0.5), dataset, state=state)
    with pytest.raises(UsageError, match="in towers;"):
        train.train(tiny_config(epochs=2, towers="both"), dataset, state=state)
    assert state.epoch == 1
    state, _ = train.train(tiny_config(epochs=2), dataset, state=state)
    assert state.epoch == 2


def test_state_rejects_dataset_with_another_vocabulary(dataset):
    # the same items at other embedding rows would score without error
    state, _ = train.train(tiny_config(epochs=1), dataset)
    other = generate_synthetic(8, 9)
    assert other.vocab != dataset.vocab
    with pytest.raises(UsageError, match="vocabulary"):
        train.evaluate(state, other, which="last")
    with pytest.raises(UsageError, match="vocabulary"):
        train.train(tiny_config(epochs=2), other, state=state)
    assert state.epoch == 1


@pytest.mark.parametrize("axis", train.ABLATION_AXES)
def test_ablation_grid_builds_unique_variants(dataset, axis):
    rows = train.ablation_grid(tiny_config(towers="both"), axis)
    labels = [label for label, _ in rows]
    assert len(labels) == len(set(labels)) > 1
    for _, config in rows:
        model.init_model_params(config.model_config(), len(dataset.vocab), seed=0)
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


def _every_config():
    """(id, settings) of each tower x encoder x set of SE gates, with no
    repeat of a model that a setting does not reach. Which of two gates
    runs first does not change the parameters a step reaches, so "both"
    runs the channel gate first."""
    se = [("off", dict(se_mode="off"))] + [
        (f"{mode}-{gates}", dict(se_mode=mode, se_blocks=blocks))
        for mode in ("global", "local", "joint")
        for gates, blocks in (("channel", "channel"), ("temporal", "temporal"), ("both", "channel-temporal"))
    ]
    encoders = [(e, dict(textual_encoder=e)) for e in ("attention", "mlp")]
    return ([(f"textual-{e}", dict(towers="textual", **ekw)) for e, ekw in encoders]
            + [(f"visual-{s}", dict(towers="visual", **skw)) for s, skw in se]
            + [(f"both-{e}-{s}", dict(towers="both", **ekw, **skw)) for e, ekw in encoders for s, skw in se])


@pytest.mark.parametrize("kw", [pytest.param(kw, id=i) for i, kw in _every_config()])
def test_train_step_reaches_every_parameter(dataset, kw):
    config = tiny_config(**kw).model_config()
    store = model.init_model_params(config, len(dataset.vocab), seed=0)
    batch = model.make_batch(dataset, dataset.samples[:3], config)
    loss, _ = fusion.training_loss(model.forward_batch(store, config, batch), batch.targets, store, 1e-3)
    ad.backward(loss)
    missing = [name for name, t in store.items() if t.grad is None]
    assert not missing
    train.Adam(store).step(store, 1e-3)
    assert all(np.isfinite(t.data).all() for _, t in store.items())


def _per_tensor_adam(params, grads, m, v, step, lr):
    """The Adam update one tensor at a time, the reference for the flat one."""
    b1, b2, eps = train.Adam.beta1, train.Adam.beta2, train.Adam.eps
    corr1, corr2 = 1.0 - b1 ** step, 1.0 - b2 ** step
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1 - b1) * g
        v[name] *= b2
        v[name] += (1 - b2) * (g * g)
        params[name] = params[name] - lr * (m[name] / corr1) / (np.sqrt(v[name] / corr2) + eps)


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_update_bit_equals_per_tensor_loop(self, dataset, dtype):
        config = tiny_config(towers="both").model_config()
        store = model.init_model_params(config, len(dataset.vocab), seed=0, dtype=dtype)
        adam = train.Adam(store)
        params = {name: t.data.copy() for name, t in store.items()}
        m = {name: np.zeros_like(a) for name, a in params.items()}
        v = {name: np.zeros_like(a) for name, a in params.items()}
        rng = np.random.default_rng(0)
        for step, lr in enumerate((1e-3, 1e-3, 5e-4, 5e-4, 2.5e-4), start=1):
            grads = {name: rng.standard_normal(a.shape).astype(dtype) for name, a in params.items()}
            for name, t in store.items():
                t.grad = grads[name]
            adam.step(store, lr)
            _per_tensor_adam(params, grads, m, v, step, lr)
            for name, t in store.items():
                assert t.data.dtype == dtype and t.data.shape == params[name].shape
                np.testing.assert_array_equal(t.data, params[name])
            # the flat moments hold the reference's, concatenated in store order
            np.testing.assert_array_equal(adam.m, np.concatenate([m[name].reshape(-1) for name in store.names()]))
            np.testing.assert_array_equal(adam.v, np.concatenate([v[name].reshape(-1) for name in store.names()]))
        assert adam.step_count == 5

    def test_missing_gradient_names_the_parameter(self, dataset):
        store = model.init_model_params(tiny_config().model_config(), len(dataset.vocab), seed=0)
        names = store.names()
        for t in (store[name] for name in names[1:]):
            t.grad = np.zeros_like(t.data)
        before = store[names[1]].data
        with pytest.raises(UsageError, match=names[0]):
            train.Adam(store).step(store, 1e-3)
        assert store[names[1]].data is before

    def test_mixed_dtypes_rejected(self, dataset):
        store = model.init_model_params(tiny_config().model_config(), len(dataset.vocab), seed=0)
        store.add("extra", np.zeros(3))     # float64 among float32
        with pytest.raises(UsageError, match="one dtype"):
            train.Adam(store)


# header edits that each leave a checkpoint that must not load
HEADER_EDITS = {
    "no epoch": lambda h: h.pop("epoch"),
    "best without epoch": lambda h: h["best"].pop("epoch"),
    "config without widths": lambda h: h["config"].pop("widths"),
    "config with unknown key": lambda h: h["config"].update(dropout=0.1),
    "config with ratios": lambda h: h["config"].update(ratios=[0.6, 0.2, 0.2]),   # a removed field
    "epoch not int": lambda h: h.update(epoch="x"),
    "negative epoch": lambda h: h.update(epoch=-5),
    "adam_step not int": lambda h: h.update(adam_step="x"),
    "negative adam_step": lambda h: h.update(adam_step=-1),
    "best epoch below -1": lambda h: h["best"].update(epoch=-2),
    "best c_index not number": lambda h: h["best"].update(c_index="x"),
    "best mse not number": lambda h: h["best"].update(mse=None),
    "rng_state empty": lambda h: h.update(rng_state={}),
    "rng_state not a dict": lambda h: h.update(rng_state="x"),
    "no layout": lambda h: h.pop("layout"),
    "best saved not bool": lambda h: h["best"].update(saved=1),
    # the vocab maps each item to its embedding row, 0..n-1
    "vocab index 0.5": lambda h: h["vocab"].update({min(h["vocab"], key=h["vocab"].get): 0.5}),
    "vocab all 0": lambda h: h.update(vocab=dict.fromkeys(h["vocab"], 0)),
    "vocab shifted": lambda h: h.update(vocab={k: v + 100 for k, v in h["vocab"].items()}),
    # a header holds each of its keys once, and no other
    "epoch repeated": lambda h: setattr(h, "repeats", [("epoch", 0)]),
    "unknown key": lambda h: h.update(extra=1),
    "best with unknown key": lambda h: h["best"].update(extra=1),
    # a config holds every field, each checked as a built one is
    "config without omega": lambda h: h["config"].pop("omega"),
    "config epochs 1.5": lambda h: h["config"].update(epochs=1.5),
    "config heads true": lambda h: h["config"].update(heads=True),
    "config widths 4.5": lambda h: h["config"].update(widths=[4.5, 8]),
}


class _Header(dict):
    """A JSON object that ``json.dumps`` writes with the pairs of ``repeats``
    after its own, so an edit can repeat a key."""

    repeats = ()

    def items(self):
        return [*super().items(), *self.repeats]


def _edit_header(blob: bytes, edit) -> bytes:
    """``blob`` with ``edit`` applied to its JSON header."""
    (length,) = struct.unpack_from("<Q", blob, 6)
    header = json.loads(blob[14:14 + length], object_pairs_hook=_Header)
    edit(header)
    text = json.dumps(header).encode()
    return blob[:6] + struct.pack("<Q", len(text)) + text + blob[14 + length:]


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
        half, first = train.train(dataclasses.replace(config, epochs=1), dataset)
        train.save_checkpoint(half, tmp_path / "half")
        resumed, second = train.train(config, dataset, state=train.load_checkpoint(tmp_path / "half"))

        def timeless(rows):
            return [{k: v for k, v in row.items() if k != "seconds"} for row in rows]

        np.testing.assert_equal(timeless(first + second), timeless(full_history))
        train.save_checkpoint(full, tmp_path / "full")
        train.save_checkpoint(resumed, tmp_path / "resumed")
        assert (tmp_path / "full").read_bytes() == (tmp_path / "resumed").read_bytes()

    def test_loaded_vectors_equal_the_saved_ones(self, dataset, tmp_path):
        state, _ = train.train(tiny_config(epochs=1), dataset)
        train.save_checkpoint(state, tmp_path / "ckpt")
        loaded = train.load_checkpoint(tmp_path / "ckpt")
        np.testing.assert_array_equal(loaded.adam.m, state.adam.m)
        np.testing.assert_array_equal(loaded.adam.v, state.adam.v)
        np.testing.assert_array_equal(loaded.best_params, state.best_params)

    def test_version_1_rejected(self, dataset, tmp_path):
        # so are version 2, whose header and config hold keys that version 3
        # dropped, version 3, whose header holds a per-tensor table, and
        # version 4, whose attn.wq/wk/wv would otherwise fail only the layout
        state, _ = train.train(tiny_config(epochs=1), dataset)
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        for version in (1, 2, 3, 4):
            struct.pack_into("<H", blob, 4, version)
            path.write_bytes(bytes(blob))
            with pytest.raises(FormatError, match=f"version {version}") as info:
                train.load_checkpoint(path)
            assert info.value.offset == 4

    def test_other_model_rejected_by_layout(self, dataset, tmp_path):
        state, _ = train.train(tiny_config(epochs=1), dataset)
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        path.write_bytes(_edit_header(path.read_bytes(), lambda h: h["config"].update(towers="both")))
        with pytest.raises(FormatError, match="layout") as info:
            train.load_checkpoint(path)
        assert info.value.offset == 14

    @pytest.mark.parametrize("extra", [-4, 4])
    def test_payload_of_wrong_length_rejected(self, dataset, tmp_path, extra):
        # with and without the best-validation vector
        for epochs in (0, 1):
            state, _ = train.train(tiny_config(epochs=epochs), dataset)
            path = tmp_path / "ckpt"
            train.save_checkpoint(state, path)
            blob = path.read_bytes()
            (length,) = struct.unpack_from("<Q", blob, 6)
            assert (state.best_params is None) == (epochs == 0)
            assert len(blob) - 14 - length == (3 if epochs == 0 else 4) * state.adam.m.nbytes
            path.write_bytes(blob[:extra] if extra < 0 else blob + bytes(extra))
            with pytest.raises(FormatError, match="payload") as info:
                train.load_checkpoint(path)
            assert info.value.offset == 14 + length

    @pytest.mark.parametrize("corrupt", ["byte 20", *HEADER_EDITS])
    def test_corrupt_header_rejected(self, dataset, tmp_path, corrupt):
        state, _ = train.train(tiny_config(epochs=1), dataset)
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        if corrupt == "byte 20":
            blob[20] = 0xFF
        else:
            blob = _edit_header(bytes(blob), HEADER_EDITS[corrupt])
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="vocab" if corrupt.startswith("vocab") else None) as info:
            train.load_checkpoint(path)
        # a byte that is not UTF-8 is reported where it is, any other fault at the header's start
        assert info.value.offset == (20 if corrupt == "byte 20" else 14)

    @pytest.mark.parametrize("best, dropped", [
        ({"epoch": 7}, 0),                  # a best epoch after the file's epoch 1
        ({"saved": False}, 1),              # best epoch 0 without its parameters
        ({"epoch": -1}, 0),                 # no best epoch, but parameters saved
    ], ids=["best after last", "best not saved", "saved without best"])
    def test_contradictory_best_rejected(self, dataset, tmp_path, best, dropped):
        # each file is otherwise valid: its payload holds the vectors its "saved" names
        state, _ = train.train(tiny_config(epochs=1), dataset)
        assert (state.epoch, state.best_epoch) == (1, 0) and state.best_params is not None
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        blob = path.read_bytes()
        blob = blob[:len(blob) - dropped * state.adam.m.nbytes]
        path.write_bytes(_edit_header(blob, lambda h: h["best"].update(best)))
        with pytest.raises(FormatError, match="contradicts epoch 1") as info:
            train.load_checkpoint(path)
        assert info.value.offset == 14

    @pytest.mark.parametrize("epochs, best", [
        (0, {"c_index": 2.0}),              # no best epoch, but scores
        (0, {"mse": 0.5}),
        (1, {"c_index": 2.0}),              # a best epoch with scores no validation gives
        (1, {"c_index": -0.5}),
        (1, {"c_index": float("nan")}),
        (1, {"c_index": float("-inf")}),
        (1, {"mse": -1.0}),
        (1, {"mse": float("inf")}),
        (1, {"mse": float("nan")}),
    ], ids=["unscored c_index", "unscored mse", "c_index 2", "c_index -0.5", "c_index nan",
            "c_index -inf", "mse -1", "mse inf", "mse nan"])
    def test_best_scores_that_contradict_best_epoch_rejected(self, dataset, tmp_path, epochs, best):
        # each file is otherwise valid; without the check, a resume from a
        # best epoch -1 with a C-index of 2 never finds a better epoch
        state, _ = train.train(tiny_config(epochs=epochs), dataset)
        assert state.best_epoch == epochs - 1
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        path.write_bytes(_edit_header(path.read_bytes(), lambda h: h["best"].update(best)))
        with pytest.raises(FormatError, match=f"contradict best epoch {epochs - 1}") as info:
            train.load_checkpoint(path)
        assert info.value.offset == 14

    @pytest.mark.parametrize("best", [{"c_index": 0, "mse": 0}, {"c_index": 1.0, "mse": 1e300}])
    def test_best_scores_at_their_bounds_load(self, dataset, tmp_path, best):
        state, _ = train.train(tiny_config(epochs=1), dataset)
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        path.write_bytes(_edit_header(path.read_bytes(), lambda h: h["best"].update(best)))
        loaded = train.load_checkpoint(path)
        assert (loaded.best_c_index, loaded.best_mse) == (best["c_index"], best["mse"])

    def test_header_syntax_error_reports_its_byte(self, dataset, tmp_path):
        state, _ = train.train(tiny_config(epochs=1), dataset)
        path = tmp_path / "ckpt"
        train.save_checkpoint(state, path)
        blob = path.read_bytes()
        at = blob.index(b'"layout":') + len(b'"layout"')
        path.write_bytes(blob[:at] + b";" + blob[at + 1:])
        with pytest.raises(FormatError, match="Expecting ':' delimiter") as info:
            train.load_checkpoint(path)
        assert 14 < at == info.value.offset

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

