"""Per-layer tracing of survtower from outside the package.

``Tracer.installed()`` replaces module and class attributes of the
package with timing wrappers for the duration of a ``with`` block and
restores them afterwards; no file of the package changes. Spans are
kept in memory as ``(name, start_ns, end_ns, parent, phase)`` tuples
and turned into per-layer metrics (``per_layer``) or a trace-event file
(``write_spans``) when the run ends.

Where a name is patched matters:

- ``train.py`` binds ``make_batch``, ``forward_batch`` and
  ``predict_times`` by name, so those are patched on ``survtower.train``
  (and ``make_batch``/``resize_volume`` also on ``survtower.model``,
  which ``predict_times`` calls).
- ``visual``, ``clinical``, ``fusion`` and ``params`` reach the ops as
  ``ad.<op>``, and the ops reach each other through module globals, so
  each op is patched on ``survtower.autodiff``.
- An op's backward time is measured by wrapping the backward closure
  of the tensor the op returns.

Every span carries the phase it started in: ``setup`` (inside
``data.load_dataset``), ``train`` (inside ``train.train``), ``validate``
(the per-epoch validation pass inside ``train.train``) or ``eval``
(inside ``train.evaluate``). Per-step metrics count ``train`` only.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter

# ops whose forward/backward time and call count are reported per step;
# every other op is still traced so that the tape-node count is complete
REPORTED_OPS = (
    "matmul", "layer_norm", "softmax", "add", "mul", "concat", "reshape",
    "transpose", "mean_over",
)
TRACED_OPS = REPORTED_OPS + ("sub", "relu", "sigmoid", "sum_over", "gather_rows", "conv3d")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def conv_key(c_in: int, c_out: int, in_plane: int, stride: int, kernel: int) -> str:
    """Shape name of one conv3d layer, e.g. ``c16-32.p12.s2`` (``.k1`` for 1x1x1)."""
    key = f"c{c_in}-{c_out}.p{in_plane}.s{stride}"
    return key if kernel == 3 else f"{key}.k{kernel}"


def conv_shapes(visual) -> list[str]:
    """Shape names of every conv3d layer of a ``VisualBackboneConfig``.

    Mirrors the layer schedule of ``visual.init_visual_params`` and
    ``visual.backbone_forward``; the traced run checks that every conv3d
    call it sees has one of these names.
    """
    def out(p, s):
        return (p + 2 - 3) // s + 1

    p = visual.in_plane
    names = [conv_key(1, visual.widths[0], p, visual.stem_stride[-1], 3)]
    p = out(p, visual.stem_stride[-1])
    c_in = visual.widths[0]
    for s, width in enumerate(visual.widths):
        for b in range(visual.blocks_per_stage):
            strided = s > 0 and b == 0
            stride = visual.stage_stride[-1] if strided else 1
            names.append(conv_key(c_in, width, p, stride, 3))
            if strided or c_in != width:
                names.append(conv_key(c_in, width, p, stride, 1))
            p = out(p, stride)
            names.append(conv_key(width, width, p, 1, 3))
            c_in = width
    return list(dict.fromkeys(names))


def _conv_span_name(x, kernel, stride=1, padding=0):
    stride = stride if isinstance(stride, int) else tuple(stride)[-1]
    ko, kc = kernel.shape[0], kernel.shape[1]
    return "autodiff.conv3d." + conv_key(kc, ko, x.shape[-1], stride, kernel.shape[-1])


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.phase = "other"
        self.tape_nodes: Counter = Counter()
        self.volumes_batched: Counter = Counter()
        self.rss_deltas: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        """Wrap a call that may contain further traced calls."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            phase = self.phase
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, phase)

        return wrapper

    def _phased(self, phase, name, fn):
        """``_span`` whose call, and everything under it, runs in ``phase``.

        ``validate`` applies only inside ``train``: ``train.evaluate``
        calls ``predict_times`` too, and that stays in ``eval``.
        """
        inner = self._span(name, fn)

        def wrapper(*args, **kwargs):
            outer = self.phase
            if phase != "validate" or outer == "train":
                self.phase = phase
            try:
                return inner(*args, **kwargs)
            finally:
                self.phase = outer

        return wrapper

    def _op(self, name, fn):
        """Wrap a leaf autodiff op and the backward closure it records."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        conv = name == "conv3d"
        span_name = "autodiff." + name

        def timed_backward(backward_fn, bwd_name):
            def run(g):
                start = clock()
                backward_fn(g)
                end = clock()
                spans.append((bwd_name, start, end, stack[-1] if stack else -1, self.phase))
            return run

        def wrapper(*args, **kwargs):
            fwd_name = _conv_span_name(*args, **kwargs) if conv else span_name
            start = clock()
            out = fn(*args, **kwargs)
            end = clock()
            spans.append((fwd_name, start, end, stack[-1] if stack else -1, self.phase))
            backward_fn = out._backward_fn
            if backward_fn is not None:
                self.tape_nodes[self.phase] += 1
                out._backward_fn = timed_backward(backward_fn, fwd_name + ".bwd")
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the block."""
        from survtower import autodiff as ad
        from survtower import clinical, data, fusion, model, params, train, visual

        inner_make_batch = self._span("model.make_batch", model.make_batch)
        inner_forward = self._span("model.forward_batch", train.forward_batch)

        def make_batch(*args, **kwargs):
            batch = inner_make_batch(*args, **kwargs)
            if batch.volumes is not None:
                self.volumes_batched[self.phase] += len(batch)
            return batch

        def forward_batch(*args, **kwargs):
            before = rss_bytes()
            pred = inner_forward(*args, **kwargs)
            if self.phase == "train":
                self.rss_deltas.append(rss_bytes() - before)
            return pred

        patches = [(ad, op, self._op(op, getattr(ad, op))) for op in TRACED_OPS]
        patches += [
            (ad, "backward", self._span("autodiff.backward", ad.backward)),
            (clinical, "embed_tokens", self._span("clinical.embed_tokens", clinical.embed_tokens)),
            (clinical, "encode_clinical", self._span("clinical.encode_clinical", clinical.encode_clinical)),
            (visual, "backbone_forward", self._span("visual.backbone_forward", visual.backbone_forward)),
            (fusion, "fuse_predict", self._span("fusion.fuse_predict", fusion.fuse_predict)),
            (fusion, "training_loss", self._span("fusion.training_loss", fusion.training_loss)),
            (params.ParameterStore, "l2_penalty",
             self._span("params.l2_penalty", params.ParameterStore.l2_penalty)),
            (train.Adam, "step", self._span("train.Adam.step", train.Adam.step)),
            (train, "train", self._phased("train", "train.train", train.train)),
            (train, "evaluate", self._phased("eval", "train.evaluate", train.evaluate)),
            (train, "make_batch", make_batch),
            (model, "make_batch", make_batch),
            (train, "forward_batch", forward_batch),
            (train, "predict_times",
             self._phased("validate", "model.predict_times", train.predict_times)),
            (model, "resize_volume", self._span("data.resize_volume", model.resize_volume)),
            (data, "load_dataset", self._phased("setup", "data.load_dataset", data.load_dataset)),
            (data, "load_volume", self._span("data.load_volume", data.load_volume)),
            (data.SurvivalDataset, "sample_volume",
             self._span("data.sample_volume", data.SurvivalDataset.sample_volume)),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def totals(self) -> dict:
        """(name, phase) -> [calls, total_ns]."""
        out: dict = {}
        for name, start, end, _, phase in self.spans:
            row = out.setdefault((name, phase), [0, 0])
            row[0] += 1
            row[1] += end - start
        return out

    def write_spans(self, path, **meta):
        """Write the spans as JSON: a name table and one row per span.

        A row is ``[name index, start us, duration us, parent row, phase]``;
        start is relative to the first span and parent -1 means none.
        """
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [
            [names.setdefault(name, len(names)), (start - t0) // 1000, (end - start) // 1000,
             parent, phase]
            for name, start, end, parent, phase in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": list(names), "spans": rows}, fh, separators=(",", ":"))


def per_layer(tracer: Tracer, shapes: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced repetition: name -> (value, unit)."""
    totals = tracer.totals()

    def calls(name, *phases):
        return sum(totals.get((name, p), (0, 0))[0] for p in phases)

    def ms(name, *phases):
        return sum(totals.get((name, p), (0, 0))[1] for p in phases) / 1e6

    steps = calls("autodiff.backward", "train")
    if steps == 0:
        raise RuntimeError("traced run recorded no training step")

    def per_step(name):
        return ms(name, "train") / steps

    m: dict[str, tuple[float, str]] = {}
    step_ms = (ms("train.train", "train") - ms("model.predict_times", "validate")) / steps
    for shape in shapes:
        name = "autodiff.conv3d." + shape
        n_fwd, n_bwd = calls(name, "train"), calls(name + ".bwd", "train")
        m[name + ".fwd_ms"] = (ms(name, "train") / n_fwd if n_fwd else 0.0, "ms")
        m[name + ".bwd_ms"] = (ms(name + ".bwd", "train") / n_bwd if n_bwd else 0.0, "ms")
        m[name + ".calls"] = (n_fwd / steps, "count")
    conv_fwd = conv_bwd = conv_calls = 0
    for (name, phase), (n, total_ns) in totals.items():
        if phase != "train" or not name.startswith("autodiff.conv3d."):
            continue
        if name.endswith(".bwd"):
            conv_bwd += total_ns / 1e6
        else:
            conv_fwd += total_ns / 1e6
            conv_calls += n
    m["autodiff.conv3d.fwd_ms_per_step"] = (conv_fwd / steps, "ms")
    m["autodiff.conv3d.bwd_ms_per_step"] = (conv_bwd / steps, "ms")
    m["autodiff.conv3d.calls_per_step"] = (conv_calls / steps, "count")
    m["autodiff.conv3d.share_of_step"] = ((conv_fwd + conv_bwd) / steps / step_ms, "ratio")
    m["autodiff.backward.ms_per_step"] = (per_step("autodiff.backward"), "ms")
    for op in REPORTED_OPS:
        name = "autodiff." + op
        m[name + ".fwd_ms_per_step"] = (per_step(name), "ms")
        m[name + ".bwd_ms_per_step"] = (per_step(name + ".bwd"), "ms")
        m[name + ".calls_per_step"] = (calls(name, "train") / steps, "count")
    m["autodiff.tape_nodes_per_step"] = (tracer.tape_nodes["train"] / steps, "count")

    m["clinical.encode_clinical.ms_per_step"] = (per_step("clinical.encode_clinical"), "ms")
    m["clinical.encode_clinical.calls_per_step"] = (calls("clinical.encode_clinical", "train") / steps, "count")
    m["clinical.embed_tokens.ms_per_step"] = (per_step("clinical.embed_tokens"), "ms")
    m["visual.backbone_forward.ms_per_step"] = (per_step("visual.backbone_forward"), "ms")
    m["visual.backbone_forward.calls_per_step"] = (calls("visual.backbone_forward", "train") / steps, "count")

    m["model.make_batch.ms_per_step"] = (per_step("model.make_batch"), "ms")
    m["model.forward_batch.ms_per_step"] = (per_step("model.forward_batch"), "ms")
    m["model.forward_batch.rss_delta_mb"] = (max(tracer.rss_deltas, default=0) / 2**20, "MB")
    m["model.predict_times.ms"] = (ms("model.predict_times", "validate", "eval"), "ms")

    m["fusion.fuse_predict.ms_per_step"] = (per_step("fusion.fuse_predict"), "ms")
    m["fusion.training_loss.ms_per_step"] = (per_step("fusion.training_loss"), "ms")
    m["params.l2_penalty.ms_per_step"] = (per_step("params.l2_penalty"), "ms")

    m["train.train.ms_per_step"] = (step_ms, "ms")
    m["train.Adam.step.ms_per_step"] = (per_step("train.Adam.step"), "ms")
    m["train.evaluate.ms"] = (ms("train.evaluate", "eval"), "ms")

    batched = tracer.volumes_batched["train"] + tracer.volumes_batched["validate"]
    sampled = calls("data.sample_volume", "train", "validate")
    m["data.load_dataset.ms"] = (ms("data.load_dataset", "setup"), "ms")
    m["data.load_volume.calls"] = (float(calls("data.load_volume", "setup")), "count")
    m["data.volume_cache.hit_ratio"] = (1.0 - sampled / batched if batched else 0.0, "ratio")
    m["data.sample_volume.ms"] = (ms("data.sample_volume", "train", "validate", "eval"), "ms")
    m["data.resize_volume.ms"] = (ms("data.resize_volume", "train", "validate", "eval"), "ms")
    return m


def unknown_conv_shapes(tracer: Tracer, shapes: list[str]) -> set[str]:
    """Conv3d span names the traced run saw that ``shapes`` does not name."""
    known = {"autodiff.conv3d." + s for s in shapes}
    known |= {k + ".bwd" for k in known}
    return {name for name, *_ in tracer.spans
            if name.startswith("autodiff.conv3d.") and name not in known}
