"""Fused execution == eager execution, bit for bit.

The fused mode (docs/performance.md) is a pure wall-time optimisation of
the texture backends' functional path: a compiled
:class:`~repro.kernels.fused.FusedPlan` replays the exact gather/blend/
contract sequence of the eager path into preallocated buffers.  Every
test here pins the bit-identical contract — outputs AND KernelStats —
plus the plan-cache mechanics the mode rides on: shared LRU lifetime
with the trace entry, clean rebuild after eviction, coalesced concurrent
builds, and digest-on-quantised-offsets keying for tex2D++.
"""

import threading

import numpy as np
import pytest

from repro.gpusim import XAVIER
from repro.gpusim.trace import SamplePlan
from repro.kernels import (LayerConfig, PlanCache, run_deform_op,
                           synth_offsets, validate_execution)
from repro.kernels.fused import build_fused_plan
from repro.kernels.shards import ShardSpec, run_shard
from repro.kernels.tex2d import run_tex2d

from helpers import rng

GEOMETRIES = [
    LayerConfig(8, 8, 20, 20),
    LayerConfig(4, 4, 17, 23, stride=2),
    LayerConfig(8, 8, 14, 14, dilation=2, padding=2),
    LayerConfig(8, 8, 16, 16, deformable_groups=2),
    LayerConfig(8, 6, 12, 18, batch=2, deformable_groups=4, stride=2),
]
TILES = [(4, 4), (8, 8), (8, 32)]
#: the three windows one compiled plan covers: the whole layer, a band of
#: output rows and a slice of the per-group channels
WINDOWS = {"full": None,
           "rows": ShardSpec("rows", 0, 2, 0, 12),
           "channels": ShardSpec("channels", 1, 2, 3, 8)}


def _inputs(cfg, seed=0, sigma=2.0):
    g = rng(seed)
    x = g.normal(size=cfg.input_shape()).astype(np.float32)
    w = g.normal(size=cfg.weight_shape()).astype(np.float32)
    b = g.normal(size=(cfg.out_channels,)).astype(np.float32)
    off = synth_offsets(cfg, sigma=sigma, seed=seed)
    return x, off, w, b


def _stats_dicts(res):
    return [k.__dict__ for k in res.kernels]


# ----------------------------------------------------------------------
# fuzz: fused == eager over geometries × backends × tiles × offsets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cfg", GEOMETRIES, ids=lambda c: c.label())
@pytest.mark.parametrize("backend", ["tex2d", "tex2dpp"])
def test_fused_bit_identical_random_offsets(cfg, backend):
    """Random offsets, several seeds and tiles: outputs and every kernel
    stat match eager exactly (fp32 and fp16-offset variants)."""
    for seed in range(3):
        # wild offsets too — border-clipped taps exercise the folded mask
        sigma = 2.0 if seed < 2 else 25.0
        x, off, w, b = _inputs(cfg, seed=seed, sigma=sigma)
        for tile in TILES:
            pc = PlanCache()
            eager = run_deform_op(backend, x, off, w, b, cfg, XAVIER,
                                  tile=tile, plan_cache=pc)
            fused = run_deform_op(backend, x, off, w, b, cfg, XAVIER,
                                  tile=tile, plan_cache=pc,
                                  execution="fused")
            assert np.array_equal(fused.output, eager.output)
            assert _stats_dicts(fused) == _stats_dicts(eager)


def test_fused_bias_free_and_fresh_output():
    """No-bias path matches too, and repeated fused calls hand out
    independent arrays (the internal buffers must never leak out)."""
    cfg = GEOMETRIES[0]
    x, off, w, _ = _inputs(cfg)
    pc = PlanCache()
    eager = run_tex2d(x, off, w, None, cfg, XAVIER, plan_cache=pc)
    first = run_tex2d(x, off, w, None, cfg, XAVIER, plan_cache=pc,
                      execution="fused").output
    assert np.array_equal(first, eager.output)
    snapshot = first.copy()
    second = run_tex2d(x, off, w, None, cfg, XAVIER, plan_cache=pc,
                       execution="fused").output
    second += 1.0  # mutating one result must not corrupt the other
    assert np.array_equal(first, snapshot)


def test_fused_requires_plan_cache():
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    with pytest.raises(ValueError, match="plan_cache"):
        run_tex2d(x, off, w, b, cfg, XAVIER, execution="fused")
    with pytest.raises(ValueError, match="execution mode"):
        run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=PlanCache(),
                  execution="lazy")
    validate_execution("eager", None)  # eager never needs the cache


# ----------------------------------------------------------------------
# plan-cache mechanics: shared lifetime, eviction, reuse accounting
# ----------------------------------------------------------------------
def test_fused_plan_reused_across_calls():
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    pc = PlanCache()
    for _ in range(4):
        run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc,
                  execution="fused")
    assert pc.stats.fused_builds == 1
    assert pc.stats.trace_builds == 1


def test_fused_plan_evicted_mid_stream_rebuilds_cleanly():
    """LRU eviction of the shared trace entry drops the FusedPlan with
    it; the next fused call rebuilds and stays bit-identical."""
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    pc = PlanCache(max_entries=1)
    expected = run_tex2d(x, off, w, b, cfg, XAVIER,
                         plan_cache=PlanCache(), execution="fused").output
    run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc, execution="fused")
    # a different offset tensor claims the only slot → eviction
    other = synth_offsets(cfg, seed=99)
    run_tex2d(x, other, w, b, cfg, XAVIER, plan_cache=pc, execution="fused")
    assert len(pc) == 1
    out = run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc,
                    execution="fused").output
    assert np.array_equal(out, expected)
    assert pc.stats.fused_builds == 3  # original + other + rebuild


def test_fused_plans_per_channel_shape_share_entry():
    """Same offsets, different in/out channels: one trace entry carries
    one FusedPlan per (in_channels, out_channels)."""
    base = LayerConfig(8, 8, 20, 20)
    wide = LayerConfig(8, 12, 20, 20)
    x, off, w, b = _inputs(base)
    g = rng(7)
    w2 = g.normal(size=wide.weight_shape()).astype(np.float32)
    b2 = g.normal(size=(wide.out_channels,)).astype(np.float32)
    pc = PlanCache()
    run_tex2d(x, off, w, b, base, XAVIER, plan_cache=pc, execution="fused")
    run_tex2d(x, off, w2, b2, wide, XAVIER, plan_cache=pc,
              execution="fused")
    assert pc.stats.fused_builds == 2
    assert pc.stats.trace_builds == 1    # the trace itself is shared
    assert len(pc) == 1


def test_build_fused_plan_rejects_oversize_texture():
    cfg = LayerConfig(8, 8, 20, 20, batch=XAVIER.max_texture_extent[2])
    off = synth_offsets(cfg, seed=0)
    from repro.deform.deform_conv import sampling_positions
    with pytest.raises(ValueError, match="texture extent"):
        build_fused_plan(cfg, XAVIER, False, lambda: sampling_positions(
            off, (cfg.height, cfg.width), cfg.kernel_size, cfg.stride,
            cfg.padding, cfg.dilation, cfg.deformable_groups))


_COUNTS = ("hits", "misses", "trace_builds", "fused_builds", "shard_builds")


@pytest.mark.parametrize("window,cold,warm", [
    # a cold fused call misses twice (plan, then tile stats) and hits
    # never — perfbench's detect-fresh guard relies on a zero hit ratio
    ("full", (0, 2, 1, 1, 0), (2, 0, 0, 0, 0)),
    # a row band builds the full-layer entry its plan hangs off, plus
    # the trace of its own offset rows
    ("rows", (0, 2, 2, 0, 1), (2, 0, 0, 0, 0)),
    ("channels", (0, 2, 1, 0, 1), (2, 0, 0, 0, 0)),
], ids=list(WINDOWS))
def test_plan_cache_counter_deltas(window, cold, warm):
    """Exact lookup/build counter deltas of a cold then a warm call."""
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    shard = WINDOWS[window]
    pc = PlanCache()

    def deltas():
        before = [getattr(pc.stats, name) for name in _COUNTS]
        if shard is None:
            run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc,
                      execution="fused")
        else:
            run_shard(x, off, cfg, XAVIER, shard, plan_cache=pc)
        return tuple(getattr(pc.stats, name) - n
                     for name, n in zip(_COUNTS, before))

    assert deltas() == cold
    assert deltas() == warm


# ----------------------------------------------------------------------
# satellite 1 regression: tex2D++ keys on *quantised* offsets
# ----------------------------------------------------------------------
def test_fp16_digest_dedupes_quantisation_equivalent_offsets():
    """Two distinct fp32 offset tensors that quantise to the same fp16
    values are the same tex2D++ launch — one entry, one trace build."""
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    # perturb far below fp16 resolution, then revert the rare elements
    # that sat exactly on a rounding boundary — off2 differs in fp32 but
    # quantises identically by construction
    off2 = off + np.float32(1e-6)
    boundary = off.astype(np.float16) != off2.astype(np.float16)
    off2[boundary] = off[boundary]
    assert not np.array_equal(off, off2)
    assert np.array_equal(off.astype(np.float16), off2.astype(np.float16))
    pc = PlanCache()
    r1 = run_deform_op("tex2dpp", x, off, w, b, cfg, XAVIER, plan_cache=pc)
    r2 = run_deform_op("tex2dpp", x, off2, w, b, cfg, XAVIER, plan_cache=pc)
    assert pc.stats.trace_builds == 1
    assert len(pc) == 1
    assert pc.stats.hits == 1
    assert np.array_equal(r1.output, r2.output)
    # plain tex2d must still see them as distinct offset tensors
    pc32 = PlanCache()
    run_deform_op("tex2d", x, off, w, b, cfg, XAVIER, plan_cache=pc32)
    run_deform_op("tex2d", x, off2, w, b, cfg, XAVIER, plan_cache=pc32)
    assert pc32.stats.trace_builds == 2


# ----------------------------------------------------------------------
# satellite 3 regression: concurrent misses coalesce onto one build
# ----------------------------------------------------------------------
def _hammer(n_threads, fn):
    start = threading.Barrier(n_threads)
    errors = []

    def work():
        start.wait()
        try:
            fn()
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


def test_concurrent_misses_build_trace_exactly_once():
    """The double-build race: N threads missing the same key must
    coalesce onto one ``_build_entry`` — ``trace_builds`` stays exact."""
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    for trial in range(5):
        pc = PlanCache()
        _hammer(8, lambda: run_tex2d(x, off, w, b, cfg, XAVIER,
                                     compute_output=False, plan_cache=pc))
        assert pc.stats.trace_builds == 1, f"trial {trial}"
        assert len(pc) == 1


@pytest.mark.parametrize("window", list(WINDOWS))
def test_concurrent_fused_calls_compile_once_and_agree(window):
    """Concurrent first calls on one plan — whole-layer or shard window —
    coalesce onto one compile and agree with a cold single call."""
    cfg = GEOMETRIES[0]
    x, off, w, b = _inputs(cfg)
    shard = WINDOWS[window]

    def call(pc):
        if shard is None:
            res = run_tex2d(x, off, w, b, cfg, XAVIER, plan_cache=pc,
                            execution="fused")
            return res.output.tobytes(), _stats_dicts(res)
        res = run_shard(x, off, cfg, XAVIER, shard, plan_cache=pc)
        return res.sample.__dict__, res.gemm.__dict__, res.in_bytes

    expected = call(PlanCache())
    builds = "fused_builds" if shard is None else "shard_builds"
    for trial in range(3):
        pc = PlanCache()
        outs = []
        _hammer(6, lambda: outs.append(call(pc)))
        assert getattr(pc.stats, builds) == 1, f"trial {trial}"
        # a row band also simulates its own sliced trace
        assert pc.stats.trace_builds == (2 if window == "rows" else 1)
        assert all(out == expected for out in outs)
        if shard is not None:
            # the shared column buffer is only stable once the threads
            # are done; the compiled plan must still gather exact columns
            cols = run_shard(x, off, cfg, XAVIER, shard, plan_cache=pc).cols
            assert np.array_equal(
                cols, run_shard(x, off, cfg, XAVIER, shard).cols)


def test_concurrent_distinct_keys_still_build_each():
    """Coalescing must be per key — distinct offsets build separately."""
    cfg = GEOMETRIES[0]
    x, _, w, b = _inputs(cfg)
    offsets = [synth_offsets(cfg, seed=s) for s in range(4)]
    pc = PlanCache()
    idx = {"i": 0}
    lock = threading.Lock()

    def call():
        with lock:
            off = offsets[idx["i"] % len(offsets)]
            idx["i"] += 1
        run_tex2d(x, off, w, b, cfg, XAVIER, compute_output=False,
                  plan_cache=pc)

    _hammer(8, call)
    assert pc.stats.trace_builds == len(offsets)
    assert len(pc) == len(offsets)


# ----------------------------------------------------------------------
# sample-plan interaction: fused path works with a sampled trace too
# ----------------------------------------------------------------------
def test_fused_with_sampling_plan_bit_identical():
    cfg = LayerConfig(8, 8, 24, 24)
    x, off, w, b = _inputs(cfg)
    plan = SamplePlan(max_fetches=64, max_warps=8)
    pc = PlanCache()
    eager = run_tex2d(x, off, w, b, cfg, XAVIER, plan=plan, plan_cache=pc)
    fused = run_tex2d(x, off, w, b, cfg, XAVIER, plan=plan, plan_cache=pc,
                      execution="fused")
    assert np.array_equal(fused.output, eager.output)
    assert _stats_dicts(fused) == _stats_dicts(eager)
