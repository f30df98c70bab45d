"""The four benchmark workloads and the metrics they report.

Each workload builds the system from the package's public API, feeds it
inputs made from the workload seed, times every operation, and checks
its outputs outside the timed phase.

* Untraced run (``trace=False``): the end-to-end metrics.  No module or
  class of the program is patched (fleet-open times arrivals through a
  wrapper on the one scheduler instance it builds).  Every host time is
  normalised to a reference speed (see ``reference_ms``).
* Traced run (``trace=True``): the first half of the run is traced and
  attributed to layers (see ``spans.py``); the rest runs unpatched, and
  the gap between the two phases' median op time is the tracing overhead.

Simulated-clock metrics, counts and the output digest come from a fixed
prefix of operations (``min_ops``), never from however many operations
the wall-clock budget allowed, so two runs of one seed give identical
values.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data.dataset import ShapesDataset
from repro.data.shapes import make_sample
from repro.data.video import VideoStream
from repro.deform.layers import DeformConv2d
from repro.fleet import (AutoscalePolicy, BurstEpisode, ElasticAutoscaler,
                         FleetRejection, FleetScheduler, LoadSpec,
                         RequestClass, sim_worker_provider)
from repro.fleet.worker import FleetWorker
from repro.gpusim import XAVIER
from repro.models.zoo import build_yolact, dual_path_sites
from repro.nas.latency_table import LatencyTable
from repro.nas.search import (IntervalSearch, SearchConfig,
                              manual_interval_placement)
from repro.pipeline import DefconEngine, candidate_site_configs
from repro.pipeline.losses import detection_loss
from repro.tensor import Tensor
from spans import Patches, SpanRecorder, instrument

#: Model weights are fixed: the workload seed varies the traffic, not the
#: model under test.
MODEL_SEED = 0
#: Offset heads start at zero, which makes every offset zero and every
#: deformable call after the first a plan-cache hit.  Weights drawn from
#: N(0, OFFSET_HEAD_STD) stand in for a trained model whose offsets
#: depend on the image.
OFFSET_HEAD_SEED = 2024
OFFSET_HEAD_STD = 0.05
SETUP_REPEATS = 3
DETECT_BATCH = 4
INPUT_SIZE = 64
DELTA_BOUND = 0.65
SEARCH_BATCH = 8
SEARCH_DATASET = 256
#: more epochs than any run finishes (epochs after the budget ran out
#: yield no batch); a constant, so the Gumbel temperature schedule and
#: with it every loss do not depend on the run length
SEARCH_EPOCHS = 100
#: untraced ops a traced run always measures for the overhead figure
MIN_UNTRACED_OPS = 3

#: Host-time normalisation.  The benchmark shares a host with other
#: tenants, whose load slows this process by 15-30% for minutes at a time
#: (a fixed Python loop's median over 5-s stretches moved 20% between
#: stretches of one minute), so wall-clock medians of identical runs drift
#: apart by more than any useful bound.  After each op the benchmark runs
#: a fixed reference slice of interpreter and small-array NumPy work for
#: REF_SHARE of the op's time, and scales each op's wall time by
#: REF_NOMINAL_MS over the median reference time around it.  Slowdowns of
#: the host cancel; a change of the program's own cost does not.  Over
#: 150 s of batch-1 detect calls, 20-s medians of wall time spread 20%
#: (IQR over median), of normalised time 3%; the mix was chosen over
#: large GEMMs or an 8 MB array sweep, which tracked the slowdowns less
#: well (6-8%).  REF_NOMINAL_MS is a fixed scale: the reference took
#: 0.75-1.1 ms on the 2-vCPU development VM, so the figures are of the
#: order of wall-clock ms there; run.py prints both.
REF_NOMINAL_MS = 1.0
REF_SHARE = 0.05
#: reference samples pooled per normalisation factor
REF_GROUP = 16
#: reference slices run at the start of each fleet-open window
FLEET_REFS = 8
_REF_TABLE = {i: i * i for i in range(4096)}
_REF_ARRAY = np.random.default_rng(0).random((8, 16, 16))

#: (name, unit) of every end-to-end metric, reported with tracing off
END_TO_END = [
    ("setup_s", "s"),
    ("host_ms_p50", "ms/op"),
    ("host_ms_p90", "ms/op"),
    ("ops_per_s", "op/s"),
    ("goodput_share", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: simulated-clock metrics, reported by the traced run: on the detect
#: workloads the simulated DCN time does not depend on the input, so they
#: repeat exactly across seeds and cannot carry a run-to-run bound
SIMULATED = [
    ("sim_dcn_ms_per_image", "ms"),
    ("sim_latency_ms_p50", "ms"),
    ("sim_latency_ms_p99", "ms"),
]

REJECT_REASONS = ("queue_full", "deadline_expired", "no_worker_available",
                  "retries_exhausted", "fleet_closed")

#: (name, unit) of every per-layer metric, reported by the traced run.
#: ``.ms``/``.self_ms``/``.calls`` are per operation; a layer a workload
#: never enters reports 0.
PER_LAYER = SIMULATED + [
    ("nn.conv2d_kxk.calls", "count"),
    ("nn.conv2d_kxk.self_ms", "ms"),
    ("nn.conv2d_1x1.calls", "count"),
    ("nn.conv2d_1x1.self_ms", "ms"),
    ("models.backbone.ms", "ms"),
    ("models.fpn.ms", "ms"),
    ("models.head.ms", "ms"),
    ("models.protonet.ms", "ms"),
    ("models.decode.ms", "ms"),
    ("deform.offset_head.self_ms", "ms"),
    ("deform.deform_conv2d.ms", "ms"),
    ("kernels.run_deform_op.calls", "count"),
    ("kernels.run_deform_op.self_ms", "ms"),
    ("kernels.plan_cache.tex_stats_ms", "ms"),
    ("kernels.plan_cache.fused_plan_ms", "ms"),
    ("kernels.plan_cache.hit_ratio", "ratio"),
    ("kernels.plan_cache.delta_hit_ratio", "ratio"),
    ("kernels.plan_cache.trace_builds", "count"),
    ("kernels.plan_cache.fused_builds", "count"),
    ("kernels.plan_cache.evictions", "count"),
    ("gpusim.tex_hit_rate_pct", "%"),
    ("gpusim.dram_read_bytes_per_image", "bytes"),
    ("gpusim.gld_efficiency_pct", "%"),
    ("pipeline.tile_cache.miss_share", "ratio"),
    ("tensor.backward.ms", "ms"),
    ("nas.forward.ms", "ms"),
    ("nas.optim_step.ms", "ms"),
    ("serve.serve_batch.self_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("fleet.submit.ms", "ms"),
    ("fleet.step.ms", "ms"),
    ("fleet.autoscale_evaluate.ms", "ms"),
    ("fleet.queue_wait_ms_p50", "ms"),
    ("fleet.queue_wait_ms_p99", "ms"),
] + [(f"fleet.rejected.{r}", "count") for r in REJECT_REASONS] + [
    ("fleet.retries", "count"),
    ("fleet.peak_workers", "count"),
    ("fleet.worker_ms", "ms"),
    ("obs.evaluate_slo.calls", "count"),
    ("obs.evaluate_slo.ms", "ms"),
    ("obs.quantile.calls", "count"),
    ("trace.spans_per_op", "count"),
    ("trace.overhead_pct", "%"),
]

#: (metric, span, statistic): per-layer metrics read from the span
#: rollup.  ``self_ms`` is self time, ``ms`` inclusive time.
SPAN_METRICS = [
    ("nn.conv2d_kxk.calls", "nn.conv2d_kxk", "calls"),
    ("nn.conv2d_kxk.self_ms", "nn.conv2d_kxk", "self_ms"),
    ("nn.conv2d_1x1.calls", "nn.conv2d_1x1", "calls"),
    ("nn.conv2d_1x1.self_ms", "nn.conv2d_1x1", "self_ms"),
    ("models.backbone.ms", "models.backbone", "ms"),
    ("models.fpn.ms", "models.fpn", "ms"),
    ("models.head.ms", "models.head", "ms"),
    ("models.protonet.ms", "models.protonet", "ms"),
    # time in detect outside the forward pass: box decode, NMS, masks
    ("models.decode.ms", "models.detect", "self_ms"),
    ("deform.offset_head.self_ms", "deform.offset_head", "self_ms"),
    ("deform.deform_conv2d.ms", "deform.deform_conv2d", "ms"),
    ("kernels.run_deform_op.calls", "kernels.run_deform_op", "calls"),
    ("kernels.run_deform_op.self_ms", "kernels.run_deform_op", "self_ms"),
    ("kernels.plan_cache.tex_stats_ms", "kernels.plan_cache.tex_stats", "ms"),
    ("kernels.plan_cache.fused_plan_ms", "kernels.plan_cache.fused_plan",
     "ms"),
    ("tensor.backward.ms", "tensor.backward", "ms"),
    ("nas.forward.ms", "nas.forward", "ms"),
    ("nas.optim_step.ms", "nas.optim_step", "ms"),
    ("serve.serve_batch.self_ms", "serve.serve_batch", "self_ms"),
    ("fleet.submit.ms", "fleet.submit", "ms"),
    ("fleet.step.ms", "fleet.step", "ms"),
    ("fleet.autoscale_evaluate.ms", "fleet.autoscale_evaluate", "ms"),
    ("obs.evaluate_slo.calls", "obs.evaluate_slo", "calls"),
    ("obs.evaluate_slo.ms", "obs.evaluate_slo", "ms"),
]


class CheckFailed(AssertionError):
    """An output check or workload guard failed."""


def reference_ms() -> float:
    """Wall ms of one fixed slice of work: dict lookups in a Python loop,
    then many NumPy calls on small arrays, about half the time each (the
    program's ops are mostly interpreter and per-call NumPy overhead)."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(4000):
        acc += _REF_TABLE[k & 4095]
    x = _REF_ARRAY
    for _ in range(30):
        y = x.reshape(8, -1).mean(axis=1)
        x = np.minimum(_REF_ARRAY, y[:, None, None]) + 0.5
    return (time.perf_counter() - t0) * 1e3


def reference_after(ms: float, minimum: int = 1) -> List[float]:
    """Reference slices for REF_SHARE of ``ms``, at least ``minimum``."""
    refs: List[float] = []
    while len(refs) < minimum or sum(refs) < REF_SHARE * ms:
        refs.append(reference_ms())
    return refs


def normalised_ms(op_ms: List[float],
                  op_refs: List[List[float]]) -> List[float]:
    """Each op's ms scaled by REF_NOMINAL_MS / the median reference time
    of the consecutive ops pooled with it (at least REF_GROUP samples)."""
    out: List[float] = []
    i = 0
    while i < len(op_ms):
        j, pool = i, []
        while j < len(op_ms) and len(pool) < REF_GROUP:
            pool.extend(op_refs[j])
            j += 1
        scale = REF_NOMINAL_MS / statistics.median(pool)
        out.extend(ms * scale for ms in op_ms[i:j])
        i = j
    return out


@dataclass
class Result:
    """What one workload run measured."""

    #: wall seconds of each set-up, and the reference ms run after it
    setup_s: List[float]
    setup_refs: List[List[float]]
    #: untraced per-op wall ms, and the reference ms run after each op
    op_ms: List[float] = field(default_factory=list)
    op_refs: List[List[float]] = field(default_factory=list)
    #: requests per op, when an op is not one request (fleet windows)
    op_weight: Optional[List[int]] = None
    traced_op_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: simulated-clock and share metrics (identical for one seed)
    sim: Dict[str, float] = field(default_factory=dict)
    #: per-layer values that do not come from spans (counts, ratios)
    layer: Dict[str, float] = field(default_factory=dict)
    checks: List[str] = field(default_factory=list)
    digest: str = ""
    recorder: Optional[SpanRecorder] = None
    #: op ids whose spans the per-layer rollup covers
    traced_ops: Optional[set] = None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _check(result: Result, ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)
    result.checks.append(what)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _repeat_setup(build: Callable[[int], object]):
    """Run ``build`` SETUP_REPEATS times; keep the last system.  Returns
    it, the wall seconds of each set-up and the reference ms after each."""
    times, refs, system = [], [], None
    for r in range(SETUP_REPEATS):
        system = None           # let the previous system go first
        gc.collect()
        t0 = time.perf_counter()
        system = build(r)
        times.append(time.perf_counter() - t0)
        refs.append(reference_after(times[-1] * 1e3, minimum=REF_GROUP))
    return system, times, refs


class OpLoop:
    """Closed-loop runner: one client, the next op starts after the last
    one returned.

    With a recorder, ops run traced until half the budget is spent (and
    at least ``min_ops`` ran), then unpatched.  Without one, ops run until
    the budget is spent and at least ``min_ops`` ran.
    """

    def __init__(self, seconds: float, min_ops: int,
                 recorder: Optional[SpanRecorder] = None):
        self.seconds = seconds
        self.min_ops = min_ops
        self.recorder = recorder
        self.patches: Optional[Patches] = (instrument(recorder)
                                           if recorder is not None else None)
        self.op_ms: List[float] = []
        self.op_refs: List[List[float]] = []
        self.traced_op_ms: List[float] = []
        self.i = 0
        self._start = time.perf_counter()
        self._t0 = 0.0
        self._span = None

    @property
    def tracing(self) -> bool:
        return self.patches is not None

    def more(self) -> bool:
        elapsed = time.perf_counter() - self._start
        if self.tracing:
            if self.i >= self.min_ops and elapsed >= self.seconds / 2:
                self.close()
            return True
        if self.recorder is not None and len(self.op_ms) < MIN_UNTRACED_OPS:
            return True
        return self.i < self.min_ops or elapsed < self.seconds

    def begin(self) -> None:
        if self.tracing:
            self.recorder.op_id = self.i
            self._span = self.recorder.open("op")
        self._t0 = time.perf_counter()

    def end(self) -> None:
        ms = (time.perf_counter() - self._t0) * 1e3
        if self._span is not None:
            self.recorder.close(self._span)
            self._span = None
            self.traced_op_ms.append(ms)
        else:
            self.op_ms.append(ms)
            self.op_refs.append(reference_after(ms))
        self.i += 1

    def span(self, name: str):
        return self.recorder.span(name) if self.tracing else nullcontext()

    def close(self) -> None:
        if self.patches is not None:
            self.patches.undo()
            self.patches = None


# ----------------------------------------------------------------------
# detect-fresh and stream-session: DefconEngine.detect
# ----------------------------------------------------------------------
def _deformable_layers(model):
    return [m for m in model.modules() if isinstance(m, DeformConv2d)]


def seed_offset_heads(model) -> None:
    """Draw every offset-head conv weight from a seeded N(0, std)."""
    rng = np.random.default_rng(OFFSET_HEAD_SEED)
    for layer in _deformable_layers(model):
        for _, p in layer.offset_head.named_parameters():
            if p.data.ndim == 4:        # conv kernels, not norm scales
                p.data[...] = rng.normal(0.0, OFFSET_HEAD_STD,
                                         size=p.data.shape)


def detect_model():
    model = build_yolact("r50s", input_size=INPUT_SIZE,
                         placement=manual_interval_placement(9, 3),
                         bound=7.0, seed=MODEL_SEED)
    seed_offset_heads(model)
    return model


def fresh_batch(seed: int, stream: int, i: int) -> np.ndarray:
    """Batch ``i`` of ``stream`` (0 = set-up calls, 1 = timed ops)."""
    rng = np.random.default_rng([seed, stream, i])
    return np.stack([make_sample(INPUT_SIZE, rng=rng).image
                     for _ in range(DETECT_BATCH)])


def _dcn_sim_ms(engine, names: set) -> float:
    """Simulated ms of the deformable layers only, so the metric keeps
    its meaning once the engine also logs regular convs."""
    return sum(row["time_ms"] for row in engine.per_layer_rows()
               if row["layer"] in names)


_KERNEL_COUNTERS = ("tex_cache_hits", "tex_texel_reads", "dram_read_bytes",
                    "gld_bytes_requested", "gld_transactions")


def _engine_counters(engine, names: set) -> Dict[str, float]:
    """Plan-cache, tile-cache and deformable-kernel counters so far."""
    pc = engine.plan_cache_stats
    tile = engine.tile_cache_stats
    out = {"hits": pc.hits, "misses": pc.misses,
           "delta_hits": pc.delta_hits, "delta_rejects": pc.delta_rejects,
           "trace_builds": pc.trace_builds, "fused_builds": pc.fused_builds,
           "evictions": pc.evictions, "tile_misses": tile.misses,
           "tile_lookups": tile.lookups}
    layers = [s for layer, s in engine.log.by_layer().items()
              if layer in names]
    for key in _KERNEL_COUNTERS:
        out[key] = sum(getattr(s, key) for s in layers)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _engine_layer_metrics(before: dict, after: dict,
                          images: int) -> Dict[str, float]:
    d = {k: after[k] - before[k] for k in after}
    return {
        "kernels.plan_cache.hit_ratio": _ratio(d["hits"],
                                               d["hits"] + d["misses"]),
        "kernels.plan_cache.delta_hit_ratio": _ratio(
            d["delta_hits"], d["delta_hits"] + d["delta_rejects"]),
        "kernels.plan_cache.trace_builds": d["trace_builds"],
        "kernels.plan_cache.fused_builds": d["fused_builds"],
        "kernels.plan_cache.evictions": d["evictions"],
        "gpusim.tex_hit_rate_pct": 100.0 * _ratio(d["tex_cache_hits"],
                                                  d["tex_texel_reads"]),
        "gpusim.dram_read_bytes_per_image": d["dram_read_bytes"] / images,
        "gpusim.gld_efficiency_pct": 100.0 * _ratio(
            d["gld_bytes_requested"], 32.0 * d["gld_transactions"]),
        "pipeline.tile_cache.miss_share": _ratio(d["tile_misses"],
                                                 d["tile_lookups"]),
    }


def _detections_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.image_id, x.label, x.score) != (y.image_id, y.label, y.score):
            return False
        if not np.array_equal(x.box, y.box):
            return False
        if not np.array_equal(x.mask, y.mask):
            return False
    return True


def _digest_detections(h, dets) -> None:
    h.update(f"{len(dets)}|".encode())
    for d in dets:
        h.update(f"{d.image_id} {d.label} {float(d.score).hex()}|".encode())
        h.update(np.asarray(d.box, dtype=np.float64).tobytes())
        h.update(np.packbits(np.asarray(d.mask, dtype=bool)).tobytes())


def _serve_loop(model, engine, make_input: Callable[[int], np.ndarray],
                seconds: float, trace: bool, min_ops: int, setup,
                guard: Callable[[dict, dict], bool],
                guard_what: str) -> Result:
    """Closed-loop ``engine.detect`` on ``make_input(0)``, ``make_input(1)``,
    ...; then the output checks against an eager, uncached engine."""
    names = {m.layer_name for m in _deformable_layers(model)}
    recorder = SpanRecorder() if trace else None
    result = Result(*setup, recorder=recorder)
    inputs, outputs, sim_ms = [], [], []
    before = _engine_counters(engine, names)
    loop = OpLoop(seconds, min_ops, recorder)
    try:
        while loop.more():
            i = loop.i
            x = make_input(i)
            sim0 = _dcn_sim_ms(engine, names) if i < min_ops else 0.0
            loop.begin()
            dets = engine.detect(x)
            loop.end()
            if i < min_ops:
                inputs.append(x)
                outputs.append(dets)
                sim_ms.append(_dcn_sim_ms(engine, names) - sim0)
                if i == min_ops - 1:
                    result.layer = _engine_layer_metrics(
                        before, _engine_counters(engine, names),
                        images=min_ops * len(x))
    finally:
        loop.close()
    result.op_ms, result.op_refs = loop.op_ms, loop.op_refs
    result.traced_op_ms = loop.traced_op_ms
    result.traced_ops = set(range(len(loop.traced_op_ms)))
    result.attempted = loop.i
    _check(result, guard(before, _engine_counters(engine, names)),
           guard_what)

    images = sum(len(x) for x in inputs)
    result.sim = {
        "sim_dcn_ms_per_image": sum(sim_ms) / images,
        "sim_latency_ms_p50": _percentile(sim_ms, 50),
        "sim_latency_ms_p99": _percentile(sim_ms, 99),
        "goodput_share": 1.0,
    }
    # the same model through the reference path: no plan cache, eager
    # texture fetches; detections must match bit for bit
    reference = DefconEngine(model, XAVIER, backend="tex2dpp",
                             plan_cache=False, execution="eager")
    for i in sorted({0, min_ops // 2, min_ops - 1}):
        _check(result, _detections_equal(reference.detect(inputs[i]),
                                         outputs[i]),
               f"op {i}: detections bit-identical to the eager, "
               f"uncached engine")
    h = hashlib.blake2b(digest_size=16)
    for dets in outputs:
        _digest_detections(h, dets)
    result.digest = h.hexdigest()
    return result


def detect_fresh(seed: int, seconds: float, trace: bool,
                 min_ops: int = 16) -> Result:
    def build(r):
        model = detect_model()
        engine = DefconEngine(model, XAVIER, backend="tex2dpp",
                              execution="fused")
        engine.detect(fresh_batch(seed, 0, r))
        return model, engine

    (model, engine), *setup = _repeat_setup(build)
    return _serve_loop(
        model, engine, lambda i: fresh_batch(seed, 1, i), seconds, trace,
        min_ops, setup,
        lambda before, after: (after["hits"] == before["hits"]
                               and after["misses"] > before["misses"]),
        "guard: every plan-cache lookup missed (hit_ratio == 0)")


def stream_session(seed: int, seconds: float, trace: bool,
                   min_ops: int = 32) -> Result:
    stream = VideoStream(size=INPUT_SIZE, num_frames=None, seed=seed)

    def frame(t):
        return stream.frame(t).image[None]

    def build(r):
        model = detect_model()
        engine = DefconEngine(model, XAVIER, backend="tex2dpp",
                              execution="fused", delta_bound=DELTA_BOUND)
        engine.set_session(stream.session)
        engine.detect(frame(0))
        return model, engine

    (model, engine), *setup = _repeat_setup(build)
    return _serve_loop(
        model, engine, lambda i: frame(i + 1), seconds, trace, min_ops,
        setup,
        lambda before, after: after["delta_hits"] > before["delta_hits"],
        "guard: the delta-keyed plan cache hit (delta_hit_ratio > 0)")


# ----------------------------------------------------------------------
# search-train: IntervalSearch.run steps over a supernet
# ----------------------------------------------------------------------
def _expected_dcn_ms(sites, latencies) -> float:
    """Eq. 6's expectation: sum over sites of P(deformable) * t(w_n)."""
    total = 0.0
    for site, t in zip(sites, latencies):
        a = site.alpha.data.astype(np.float64)
        p = np.exp(a - a.max())
        total += float(p[1] / p.sum()) * t
    return total


def search_train(seed: int, seconds: float, trace: bool,
                 min_ops: int = 4) -> Result:
    data = ShapesDataset.generate(SEARCH_DATASET, size=INPUT_SIZE, seed=seed)
    batches = list(data.batches(SEARCH_BATCH))
    loop: Optional[OpLoop] = None

    def loss_fn(model, batch):
        images, samples = batch
        with (loop.span("nas.forward") if loop is not None
              else nullcontext()):
            return detection_loss(model(Tensor(images)), samples, INPUT_SIZE)

    def config(epochs, target):
        return SearchConfig(search_epochs=epochs, finetune_epochs=0,
                            target_latency_ms=target, seed=seed)

    def build(r):
        supernet = build_yolact("r50s", input_size=INPUT_SIZE, supernet=True,
                                lightweight=True, bound=7.0, seed=MODEL_SEED)
        sites = dual_path_sites(supernet)
        table = LatencyTable(XAVIER)
        latencies = [table.deform_ms(c)
                     for c in candidate_site_configs("r50s")]
        # the search experiment's default target: the DCN latency of the
        # interval-3 placement
        manual = manual_interval_placement(len(latencies), 3)
        target = sum(t for t, use in zip(latencies, manual) if use)
        IntervalSearch(supernet, sites, latencies, config(1, target)).run(
            lambda: iter(batches[:1]), loss_fn)
        return supernet, sites, latencies, target

    (supernet, sites, latencies, target), *setup = _repeat_setup(build)
    recorder = SpanRecorder() if trace else None
    result = Result(*setup, recorder=recorder)
    step_sim_ms: List[float] = []
    prefix_alphas: List[np.ndarray] = []
    calls = 0

    def epoch():
        for batch in batches:
            if not loop.more():
                return
            if loop.i < min_ops:
                step_sim_ms.append(SEARCH_BATCH
                                   * _expected_dcn_ms(sites, latencies))
            loop.begin()
            yield batch
            loop.end()
            if loop.i == min_ops:
                prefix_alphas.extend(s.alpha.data.copy() for s in sites)
                result.sim["sim_dcn_ms_per_image"] = _expected_dcn_ms(
                    sites, latencies)

    def feed():
        nonlocal calls
        calls += 1
        # IntervalSearch.run first iterates one epoch to count batches
        return iter(batches) if calls == 1 else epoch()

    loop = OpLoop(seconds, min_ops, recorder)
    try:
        search = IntervalSearch(supernet, sites, latencies,
                                config(SEARCH_EPOCHS, target))
        out = search.run(feed, loss_fn)
    finally:
        loop.close()
    result.op_ms, result.op_refs = loop.op_ms, loop.op_refs
    result.traced_op_ms = loop.traced_op_ms
    result.traced_ops = set(range(len(loop.traced_op_ms)))
    result.attempted = loop.i
    losses = out.search_losses
    _check(result, len(losses) == loop.i,
           "one recorded loss per timed step")
    _check(result, all(math.isfinite(v) for v in losses),
           f"all {len(losses)} training losses are finite")
    result.sim.update({
        "sim_latency_ms_p50": _percentile(step_sim_ms, 50),
        "sim_latency_ms_p99": _percentile(step_sim_ms, 99),
        "goodput_share": 1.0,
    })
    h = hashlib.blake2b(digest_size=16)
    for v in losses[:min_ops]:
        h.update(float(v).hex().encode())
    for a in prefix_alphas:
        h.update(a.tobytes())
    result.digest = h.hexdigest()
    return result


# ----------------------------------------------------------------------
# fleet-open: open-loop arrivals on the simulated clock
# ----------------------------------------------------------------------
FLEET_REQUESTS = 5000
#: offered load as a multiple of one Xavier worker's capacity
FLEET_LOAD = 1.5
#: consecutive arrivals per host-time sample
FLEET_WINDOW = 100


#: Sized so that no request is shed: the workload measures the fleet's
#: cost at load, and a shed count that varies with the seed would make
#: ``failed`` differ between runs.  With 4 workers, a 2 ms evaluation
#: interval or a 2 ms cold start, the flash-crowd step, the diurnal peaks
#: or the first milliseconds (one worker) shed 1 or 2 small requests on
#: about a third of the seeds; with this policy none of 70 seeds shed one
#: and the p99 stays below the small class's 3 ms deadline.
FLEET_POLICY = AutoscalePolicy(
    min_workers=1, max_workers=6, catalogue=("xavier", "2080ti"),
    p99_ms=2.5, burn_up=1.0, depth_up=1.0, burn_down=0.25, depth_down=0.5,
    down_intervals=10, interval_ms=1.0, up_cooldown_ms=1.0,
    down_cooldown_ms=50.0, warm_ms=0.5, cold_ms=0.5)
FLEET_CLASSES = (
    RequestClass("small", 1.0, 32, deadline_ms=3.0, priority=0),
    RequestClass("large", 1.0, 64, deadline_ms=8.0, priority=1))


def fleet_spec(seed: int, provider, requests: int):
    """Diurnal + flash-crowd Poisson arrivals at FLEET_LOAD x the
    capacity of one Xavier worker for the class mix."""
    classes = FLEET_CLASSES
    probe = provider("probe", "xavier")
    weight = sum(c.weight for c in classes)
    mean_ms = sum(c.weight * probe.predict_ms((3, c.input_size, c.input_size))
                  for c in classes) / weight
    duration = requests * mean_ms / FLEET_LOAD
    return LoadSpec(requests=requests, duration_ms=duration,
                    diurnal_amplitude=0.4, diurnal_cycles=2.0,
                    bursts=(BurstEpisode(0.3 * duration, 0.4 * duration,
                                         2.5),),
                    classes=classes, seed=seed)


def _fleet_provider():
    return sim_worker_provider(max_batch_size=4, queue_capacity=64)


def _build_fleet(provider):
    sched = FleetScheduler([provider("w0-xavier", "xavier")], router="cost")
    return sched, ElasticAutoscaler(FLEET_POLICY, provider).attach(sched)


def _replay(provider, events, recorder: Optional[SpanRecorder]) -> dict:
    """Serve one arrival stream on a fresh fleet, timing every arrival."""
    # the previous replay's fleet is cyclic garbage; collecting it here
    # keeps its heap out of this replay's time and peak memory
    gc.collect()
    patches = instrument(recorder) if recorder is not None else None
    waits: List[float] = []
    sizes: List[int] = []
    try:
        if recorder is not None:
            serve_batch = FleetWorker.serve_batch

            def observed(worker, batch, now_ms, *args, **kwargs):
                waits.extend(now_ms - r.submit_ms for r in batch)
                sizes.append(len(batch))
                return serve_batch(worker, batch, now_ms, *args, **kwargs)

            patches.set(FleetWorker, "serve_batch", observed)
        sched, auto = _build_fleet(provider)
        submit = sched.submit
        stamps: List[float] = []
        window_refs: List[List[float]] = []
        resolved = []
        op_span = None
        ref_s = 0.0             # reference time, taken out of every stamp

        def timed_submit(*args, **kwargs):
            nonlocal op_span, ref_s
            if recorder is None and len(stamps) % FLEET_WINDOW == 0:
                t0 = time.perf_counter()
                window_refs.append([reference_ms()
                                    for _ in range(FLEET_REFS)])
                ref_s += time.perf_counter() - t0
            stamps.append(time.perf_counter() - ref_s)
            if recorder is not None:
                if op_span is not None:
                    recorder.close(op_span)
                recorder.op_id = len(stamps) - 1
                op_span = recorder.open("op")
            fut = submit(*args, **kwargs)
            fut.add_done_callback(resolved.append)
            return fut

        sched.submit = timed_submit
        futures = sched.run_load(events, autoscaler=auto)
        t_end = time.perf_counter() - ref_s
        if op_span is not None:
            recorder.close(op_span)
        sched.close()
    finally:
        if patches is not None:
            patches.undo()

    snap, asnap = sched.snapshot(), auto.snapshot()
    index = {id(f): i for i, f in enumerate(futures)}
    completed = [index[id(f)] for f in resolved if f.exception() is None]
    errors = sum(1 for f in futures if f.exception() is not None
                 and not isinstance(f.exception(), FleetRejection))
    rejected = sum(snap["rejected_by_reason"].values())
    on_time = sum(1 for i, lat in zip(completed, sched.latencies_ms)
                  if lat <= events[i].cls.deadline_ms)
    hist = sched.registry.histogram("fleet_batch_sim_ms")
    billed_ms = sum(hist.sum(worker=name) for name in auto.ledger)
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps([snap, asnap], sort_keys=True).encode())
    h.update(np.asarray(sched.latencies_ms, dtype=np.float64).tobytes())
    # host ms per request over windows of FLEET_WINDOW arrivals: one
    # arrival's cost is bimodal (an autoscaler evaluation falls into about
    # half of the gaps), which would put a per-arrival median on the
    # boundary between the two modes
    op_ms, weights = [], []
    for k in range(0, len(stamps), FLEET_WINDOW):
        size = min(FLEET_WINDOW, len(stamps) - k)
        end = stamps[k + size] if k + size < len(stamps) else t_end
        op_ms.append((end - stamps[k]) * 1e3 / size)
        weights.append(size)
    return {"snap": snap, "auto": asnap, "unresolved": len(sched.unresolved()),
            "completed": len(completed), "latencies": sched.latencies_ms,
            "errors": errors, "rejected": rejected, "on_time": on_time,
            "billed_ms": billed_ms, "digest": h.hexdigest(), "op_ms": op_ms,
            "op_refs": window_refs, "op_weight": weights, "waits": waits,
            "sizes": sizes}


def fleet_open(seed: int, seconds: float, trace: bool,
               requests: int = FLEET_REQUESTS) -> Result:
    def build(r):
        provider = _fleet_provider()
        sched, auto = _build_fleet(provider)
        # the first call: one request served end to end
        fut = sched.submit(np.zeros((3, 32, 32), np.float32), deadline_ms=3.0)
        sched.drain()
        fut.result()
        sched.close()
        return provider

    provider, *setup = _repeat_setup(build)
    events = fleet_spec(seed, provider, requests).events()
    recorder = SpanRecorder() if trace else None
    result = Result(*setup, op_weight=[], recorder=recorder)
    replays = []
    start = time.perf_counter()
    if recorder is not None:
        replays.append(_replay(provider, events, recorder))
        result.traced_op_ms = replays[0]["op_ms"]
        result.traced_ops = set(range(len(events)))
    # open loop: a replay cannot stop early, so run the whole number of
    # replays that ends nearest the budget
    while True:
        replays.append(_replay(provider, events, None))
        elapsed = time.perf_counter() - start
        if elapsed * (len(replays) + 0.5) / len(replays) > seconds:
            break
    timed = replays[1:] if recorder is not None else replays
    for rep in timed:
        result.op_ms.extend(rep["op_ms"])
        result.op_refs.extend(rep["op_refs"])
        result.op_weight.extend(rep["op_weight"])

    first = replays[0]
    snap = first["snap"]
    for k, rep in enumerate(replays):
        _check(result, rep["unresolved"] == 0,
               f"replay {k}: every future resolved")
        _check(result, rep["snap"]["submitted"] == rep["completed"]
               + rep["rejected"] + rep["errors"] == len(events),
               f"replay {k}: submitted = completed + rejected + failed")
        _check(result, rep["completed"] == len(rep["latencies"]),
               f"replay {k}: one latency per completed request")
        if k:
            _check(result, rep["digest"] == first["digest"],
                   f"replay {k}: identical to replay 0 (deterministic)")
    _check(result, first["auto"]["scale_ups"] >= 1,
           "guard: the autoscaler scaled up at least once")
    result.attempted = len(events) * len(timed)
    result.failed = (first["rejected"] + first["errors"]) * len(timed)
    result.sim = {
        "sim_dcn_ms_per_image": first["billed_ms"] / first["completed"],
        "sim_latency_ms_p50": _percentile(first["latencies"], 50),
        "sim_latency_ms_p99": _percentile(first["latencies"], 99),
        "goodput_share": first["on_time"] / len(events),
    }
    if recorder is not None:
        layer = {f"fleet.rejected.{r}": snap["rejected_by_reason"].get(r, 0)
                 for r in REJECT_REASONS}
        layer.update({
            "fleet.retries": snap["retries"],
            "fleet.peak_workers": first["auto"]["peak_workers"],
            "fleet.worker_ms": first["auto"]["worker_ms"],
            "fleet.queue_wait_ms_p50": _percentile(first["waits"], 50),
            "fleet.queue_wait_ms_p99": _percentile(first["waits"], 99),
            "serve.batch_size_mean": statistics.fmean(first["sizes"]),
        })
        result.layer = layer
    result.digest = first["digest"]
    return result


WORKLOADS = {
    "detect-fresh": detect_fresh,
    "stream-session": stream_session,
    "search-train": search_train,
    "fleet-open": fleet_open,
}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(result: Result, normalise: bool = True
                       ) -> Dict[str, float]:
    """The end-to-end metrics; host times normalised to the reference
    speed unless ``normalise`` is False (then plain wall-clock)."""
    setup_s, op_ms = result.setup_s, result.op_ms
    if normalise:
        setup_s = normalised_ms(setup_s, result.setup_refs)
        op_ms = normalised_ms(op_ms, result.op_refs)
    weight = result.op_weight or [1] * len(op_ms)
    values = {
        "setup_s": statistics.median(setup_s),
        "host_ms_p50": _percentile(op_ms, 50),
        "host_ms_p90": _percentile(op_ms, 90),
        "ops_per_s": sum(weight) * 1e3 / sum(
            ms * w for ms, w in zip(op_ms, weight)),
        "peak_rss_mb": peak_rss_mb(),
        "goodput_share": result.sim["goodput_share"],
    }
    return {name: values[name] for name, _ in END_TO_END}


def span_rollup(result: Result) -> Dict[str, dict]:
    """Calls, inclusive ms and self ms of every span name, per op."""
    n = max(1, len(result.traced_ops))
    return {name: {k: v / n for k, v in row.items()}
            for name, row in result.recorder.rollup(
                result.traced_ops).items()}


def per_layer_metrics(result: Result) -> Dict[str, float]:
    n = max(1, len(result.traced_ops))
    rollup = span_rollup(result)
    values = {name: 0.0 for name, _ in PER_LAYER}
    for metric, span, stat in SPAN_METRICS:
        if span in rollup:
            values[metric] = rollup[span][stat]
    # calls that are counted rather than spanned
    values["obs.quantile.calls"] = result.recorder.counts["obs.quantile"] / n
    values.update(result.layer)
    values.update((name, result.sim[name]) for name, _ in SIMULATED)
    values["trace.spans_per_op"] = sum(r["calls"] for r in rollup.values())
    values["trace.overhead_pct"] = 100.0 * (
        _percentile(result.traced_op_ms, 50)
        / _percentile(result.op_ms, 50) - 1.0)
    return values
