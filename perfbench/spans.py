"""Span recorder for the traced benchmark run.

The benchmark measures the program from the outside: it wraps public
functions of the ``repro`` layers (module attributes and class methods)
for the duration of the traced phase and restores them afterwards.  The
program itself carries no instrumentation, and the untraced phase runs
unpatched code.

The recorder is deliberately separate from ``repro.obs.tracer``: the
instrument must not share code with what it measures, or a change to the
program's tracer would move the benchmark's numbers.

Each span records a name, a start and an end (``time.perf_counter``
seconds), the index of its parent span and the id of the benchmark
operation it belongs to.  Spans stay in memory and are written once, at
the end, as Chrome trace-event JSON (``repro trace --open`` and Perfetto
load it).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Union

NameOrNamer = Union[str, Callable[..., str]]


class SpanRecorder:
    """Nested single-thread spans plus plain call counters."""

    def __init__(self):
        #: one row per span: [name, start_s, end_s, parent_index, op_id]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        #: id of the benchmark operation new spans belong to
        self.op_id: Optional[int] = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        # an exception may unwind several wrappers at once
        while self._stack and self._stack.pop() != idx:
            pass

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: NameOrNamer) -> Callable:
        """``fn`` with every call recorded as a span.  ``name`` may be a
        callable that picks the span name from the call's arguments."""
        recorder = self

        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            idx = recorder.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(idx)

        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        """``fn`` with its calls counted but not timed (for functions
        called too often for a span each)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    def rollup(self, ops: Optional[set] = None) -> Dict[str, dict]:
        """Per span name: calls, inclusive ms and self ms.

        Self time is a span's duration minus the time its direct children
        cover (children nest inside their parent on one thread, so their
        durations add up without overlap).  ``ops`` restricts the rollup
        to spans of those operation ids.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_s[parent] += end - start
        out: Dict[str, dict] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if end is None or (ops is not None and op not in ops):
                continue
            row = out.setdefault(name, {"calls": 0, "ms": 0.0,
                                        "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[i]) * 1e3
        return out

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON; span ids are ``s<index+1>``."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "benchmark host"}}]
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if end is None:
                continue
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1,
                "args": {"span_id": f"s{i + 1}",
                         "parent": f"s{parent + 1}" if parent >= 0 else None,
                         "op": op}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    _ABSENT = object()

    def __init__(self):
        self._saved: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, self._ABSENT)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is self._ABSENT:
                delattr(owner, attr)      # it was inherited
            else:
                setattr(owner, attr, value)


def _conv_span(x, weight, *args, **kwargs) -> str:
    kh, kw = weight.shape[-2:]
    return "nn.conv2d_1x1" if (kh, kw) == (1, 1) else "nn.conv2d_kxk"


def instrument(recorder: SpanRecorder) -> Patches:
    """Wrap the public calls of every ``repro`` layer the benchmark
    attributes time to.  Returns the patches; ``undo()`` removes them.

    Functions another module imported by name are patched where they are
    looked up (``repro.pipeline.engine.run_deform_op``, not
    ``repro.kernels.dispatch.run_deform_op``).
    """
    import repro.deform.layers as deform_layers
    import repro.fleet.autoscale as autoscale
    import repro.nn.functional as F
    import repro.pipeline.engine as engine
    from repro.deform.lightweight import (LightweightOffsetHead,
                                          RegularOffsetHead)
    from repro.fleet.autoscale import ElasticAutoscaler
    from repro.fleet.scheduler import FleetScheduler
    from repro.fleet.worker import FleetWorker
    from repro.kernels.plancache import PlanCache
    from repro.models.fpn import FPNLite
    from repro.models.prediction_head import PredictionHead
    from repro.models.protonet import ProtoNet
    from repro.models.resnet import ResNetBackbone
    from repro.models.yolact import YolactLite
    from repro.nn.optim import SGD, Adam
    from repro.obs.timeseries import QuantileSketch
    from repro.serve.batcher import RequestBatcher
    from repro.tensor.tensor import Tensor

    rec = recorder
    patches = Patches()

    def method(cls, attr: str, name: NameOrNamer) -> None:
        patches.set(cls, attr, rec.wrap(getattr(cls, attr), name))

    # nn: every regular conv, split by kernel size
    patches.set(F, "conv2d", rec.wrap(F.conv2d, _conv_span))
    # models
    method(YolactLite, "detect", "models.detect")
    method(YolactLite, "forward", "models.forward")
    method(ResNetBackbone, "forward", "models.backbone")
    method(FPNLite, "forward", "models.fpn")
    method(PredictionHead, "forward", "models.head")
    method(ProtoNet, "forward", "models.protonet")
    # deform
    method(RegularOffsetHead, "forward", "deform.offset_head")
    method(LightweightOffsetHead, "forward", "deform.offset_head")
    patches.set(deform_layers, "deform_conv2d",
                rec.wrap(deform_layers.deform_conv2d, "deform.deform_conv2d"))
    # kernels
    patches.set(engine, "run_deform_op",
                rec.wrap(engine.run_deform_op, "kernels.run_deform_op"))
    method(PlanCache, "tex_stats", "kernels.plan_cache.tex_stats")
    method(PlanCache, "fused_plan", "kernels.plan_cache.fused_plan")
    # tensor / nas
    method(Tensor, "backward", "tensor.backward")
    method(SGD, "step", "nas.optim_step")
    method(Adam, "step", "nas.optim_step")
    # serve / fleet / obs
    method(RequestBatcher, "flush", "serve.serve_batch")
    method(FleetWorker, "serve_batch", "fleet.serve_batch")
    method(FleetScheduler, "submit", "fleet.submit")
    method(FleetScheduler, "step", "fleet.step")
    method(ElasticAutoscaler, "evaluate", "fleet.autoscale_evaluate")
    patches.set(autoscale, "evaluate_slo",
                rec.wrap(autoscale.evaluate_slo, "obs.evaluate_slo"))
    patches.set(QuantileSketch, "quantile",
                rec.count(QuantileSketch.quantile, "obs.quantile"))
    return patches
