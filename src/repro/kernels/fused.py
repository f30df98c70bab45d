"""Fused lazy-execution plans for the texture hot path.

The eager functional path of :func:`~repro.kernels.tex2d.run_tex2d`
re-derives everything per call: sampling positions, a freshly staged
:class:`~repro.gpusim.texture.LayeredTexture2D`, four fancy-indexed
corner gathers with address-mode resolution, a column reshape, and a
GEMM — each step allocating new temporaries, even when the plan
cache already proves the offsets and geometry are identical to the
previous step (the steady state of serving).

A :class:`FusedPlan` compiles the offset-dependent half of that work
once per (offset digest, geometry, device, fp16) plan-cache entry:

* **flattened tap coordinates** — the four bilinear corner texel indices
  per tap, address mode already resolved to flat ``iy * W + jx`` form;
* **fixed-point blend weights** — the 1.8 fixed-point corner weights
  with the out-of-bounds (border) mask folded in, via the same
  :func:`~repro.gpusim.texture.linear_filter_taps` helper the eager
  fetch uses, so the numerics cannot drift;
* **preallocated buffers** — a per-corner gather buffer, the im2col
  column buffer, and the GEMM output buffer, reused across calls.

:meth:`FusedPlan.execute` then runs gather → blend → GEMM as one
preplanned pass writing into those buffers: four ``np.take`` gathers
blended in place into the column buffer and one
:func:`~repro.kernels.reference.contract` call (the *same* GEMM as the
eager path, so the contraction order — and therefore every output bit —
is identical).

The same class serves fleet shards (:mod:`repro.kernels.shards`): a
plan built with a :class:`~repro.kernels.shards.ShardSpec` covers only
that shard's channel or output-row window of the column matrix, and its
:meth:`FusedPlan.gather` output is bitwise the same slice of the
whole-layer columns.  The conformance suite's plan-cache-transparency
check and ``tests/test_fused.py`` pin bit-identical outputs and
KernelStats against eager execution.

Plans hang off the :class:`~repro.kernels.plancache.PlanCache` trace
entry for their offsets, sharing one LRU lifetime and one digest key
with the memoised fetch trace; eviction drops the buffers and the next
call rebuilds cleanly.  Execution is serialised per plan (the buffers
are shared mutable state), so one plan may be driven from the serving
worker thread and the caller's thread concurrently.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.texture import linear_filter_taps
from repro.kernels.config import LayerConfig
from repro.kernels.reference import contract

#: Execution modes understood by the texture backends.
EXECUTION_MODES = ("eager", "fused")


def validate_execution(execution: str, plan_cache) -> None:
    """Reject unknown modes and fused execution without a plan cache."""
    if execution not in EXECUTION_MODES:
        raise ValueError(f"unknown execution mode {execution!r}; "
                         f"choose from {EXECUTION_MODES}")
    if execution == "fused" and plan_cache is None:
        raise ValueError("fused execution requires a plan_cache — the "
                         "FusedPlan lives on the PlanCache trace entry "
                         "(see docs/performance.md)")


class FusedPlan:
    """One compiled tex2D/tex2D++ gather for a fixed (offsets, geometry).

    Covers a window of the layer's column matrix: per-group input
    channels ``[c0, c1)`` and output pixels ``[l0, l1)``, the whole layer
    by default or one :class:`~repro.kernels.shards.ShardSpec` slice of
    it.  Built from the sampling positions by :func:`build_fused_plan`;
    :meth:`gather` fills the window's columns from a per-call input and
    :meth:`execute` (whole-layer plans) adds the contraction.  All
    offset-dependent work — coordinate quantisation, address-mode
    resolution, fixed-point blend weights — happened at build time.
    """

    def __init__(self, cfg: LayerConfig, fp16: bool,
                 idx: np.ndarray, wts: np.ndarray, shard=None):
        n, dg = cfg.batch, cfg.deformable_groups
        cpg, k = cfg.in_channels // dg, cfg.taps
        self.cfg = cfg
        self.fp16 = bool(fp16)
        self.shard = shard
        self.n, self.dg, self.cpg = n, dg, cpg
        self.hw = cfg.height * cfg.width
        self.c0, self.c1, self.l0, self.l1 = _window(cfg, shard)
        self.csel = self.c1 - self.c0
        self.lsel = self.l1 - self.l0
        #: (4, n·dg, K·lsel) flat corner texel indices into one layer
        self.idx = idx
        #: (4, n·dg, 1, K·lsel) blend weights, border mask folded in
        self.wts = wts
        #: destination rows of the full column matrix (channel shards)
        self.dest_rows = None
        if shard is not None and shard.kind == "channels":
            self.dest_rows = np.concatenate([
                np.arange((g * cpg + self.c0) * k, (g * cpg + self.c1) * k)
                for g in range(dg)])
        # Preallocated execution buffers, reused across calls.  ``cols``
        # is the window's im2col column matrix; viewed per (batch, group)
        # for the blend.  ``corner`` stages one corner's gathered texels;
        # ``out`` receives a whole-layer plan's contraction.
        self.cols = np.empty((n, dg * self.csel * k, self.lsel),
                             dtype=np.float32)
        self._cols_bg = self.cols.reshape(n * dg, self.csel, k * self.lsel)
        self.corner = np.empty((self.csel, k * self.lsel), dtype=np.float32)
        self.out = (np.empty((n, cfg.out_channels, cfg.out_pixels),
                             dtype=np.float32) if shard is None else None)
        #: buffers are shared mutable state — one execution at a time
        self._lock = threading.RLock()

    @property
    def nbytes(self) -> int:
        """Resident bytes of the precomputed state + reusable buffers."""
        return sum(a.nbytes for a in (self.idx, self.wts, self.cols,
                                      self.corner, self.out)
                   if a is not None)

    def retarget(self, idx: np.ndarray, wts: np.ndarray) -> "FusedPlan":
        """Swap in freshly computed tap tables, keeping the buffers.

        The delta-keyed streaming path of the plan cache recomputes the
        corner indices and fixed-point blend weights for every frame (the
        exactness guarantee) but reuses this plan's preallocated
        gather/column/output buffers across the stream.  Taken under the
        execution lock, so an in-flight :meth:`execute` never sees a
        half-swapped table pair.
        """
        if idx.shape != self.idx.shape or wts.shape != self.wts.shape:
            raise ValueError(
                f"retarget tables {idx.shape}/{wts.shape} do not match the "
                f"compiled plan {self.idx.shape}/{self.wts.shape} — the "
                f"session anchor should have pinned the geometry")
        with self._lock:
            self.idx = idx
            self.wts = wts
        return self

    # ------------------------------------------------------------------
    def gather(self, x: np.ndarray) -> np.ndarray:
        """Gather/blend this plan's column window from the full input.

        Replays :meth:`LayeredTexture2D.fetch`'s corner accumulation
        order, so the columns are bitwise the eager path's (or the same
        slice of them).  Returns the reusable ``cols`` buffer — consume
        (contract or stitch) it before gathering with this plan again.
        Gathers read the *full* input feature map: border addressing is
        resolved in the tap tables against full-image extents, so a
        physically cropped input would change semantics.
        """
        cfg = self.cfg
        if x.shape != cfg.input_shape():
            raise ValueError(f"fused plan compiled for input "
                             f"{cfg.input_shape()}, got {x.shape}")
        xf = np.ascontiguousarray(x, dtype=np.float32).reshape(
            self.n * self.dg, self.cpg, self.hw)
        with self._lock:
            cols, corner = self._cols_bg, self.corner
            for b in range(self.n * self.dg):
                xb, acc = xf[b, self.c0:self.c1], cols[b]
                # corner 0 lands straight in the column buffer; corners
                # 1-3 stage through ``corner`` and accumulate — the same
                # ((t0 + t1) + t2) + t3 order as the eager fetch.
                np.take(xb, self.idx[0, b], axis=1, out=acc, mode="clip")
                acc *= self.wts[0, b]
                for q in (1, 2, 3):
                    np.take(xb, self.idx[q, b], axis=1, out=corner,
                            mode="clip")
                    np.multiply(corner, self.wts[q, b], out=corner)
                    acc += corner
            return self.cols

    def execute(self, x: np.ndarray, weight: np.ndarray,
                bias: Optional[np.ndarray]) -> np.ndarray:
        """Run the fused forward; returns a fresh (N, OC, OH, OW) array.

        :meth:`gather` plus :func:`~repro.kernels.reference.contract` —
        bit-identical to the eager texture path.  Whole-layer plans only:
        a shard's columns are stitched before the one contraction.
        """
        if self.out is None:
            raise ValueError(f"shard plan {self.shard.label()} has no "
                             f"contraction — stitch its columns")
        with self._lock:
            return contract(weight, self.gather(x), bias, self.cfg,
                            out=self.out)


def _window(cfg: LayerConfig, shard) -> Tuple[int, int, int, int]:
    """``(c0, c1, l0, l1)`` of a shard (``None``: the whole layer)."""
    cpg = cfg.in_channels // cfg.deformable_groups
    if shard is None:
        return 0, cpg, 0, cfg.out_pixels
    if shard.kind == "rows":
        if shard.hi > cfg.out_height:
            raise ValueError(f"row shard {shard.label()} exceeds "
                             f"out_height {cfg.out_height}")
        return 0, cpg, shard.lo * cfg.out_width, shard.hi * cfg.out_width
    if shard.hi > cpg:
        raise ValueError(f"channel shard {shard.label()} exceeds "
                         f"channels-per-group {cpg}")
    return shard.lo, shard.hi, 0, cfg.out_pixels


def build_fused_plan(cfg: LayerConfig, spec: DeviceSpec, fp16: bool,
                     positions: Callable[[], Tuple[np.ndarray, np.ndarray]],
                     shard=None) -> FusedPlan:
    """Compile a :class:`FusedPlan` from the full sampling positions.

    ``positions`` supplies the (N, dg, K, L) fractional sampling
    positions (already fp16-quantised offsets for tex2D++).  A row-band
    ``shard`` slices them along L before the tables are built; a channel
    slice keeps them whole (all channels of a group share them).  The
    corner indices and weights reproduce the eager path exactly: pixel →
    texture coordinate shift, fp16 coordinate quantisation, then
    :func:`~repro.gpusim.texture.linear_filter_taps`.
    """
    n, dg = cfg.batch, cfg.deformable_groups
    h, w = cfg.height, cfg.width
    if cfg.in_channels % dg:
        raise ValueError(f"in_channels {cfg.in_channels} not divisible by "
                         f"deformable_groups {dg}")
    c0, c1, l0, l1 = _window(cfg, shard)
    max_h, max_w, max_layers = spec.max_texture_extent
    layers = n * dg * (c1 - c0)
    if h > max_h or w > max_w or layers > max_layers:
        raise ValueError(
            f"texture extent {(layers, h, w)} exceeds device "
            f"limit {spec.max_texture_extent} — partition the mini-batch "
            f"(paper Section III-B)")
    py, px = positions()
    idx, wts = tap_tables(py[..., l0:l1], px[..., l0:l1], h, w, fp16)
    return FusedPlan(cfg, fp16, idx, wts, shard)


def tap_tables(py: np.ndarray, px: np.ndarray, h: int, w: int,
               fp16: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Corner index/weight tables for arbitrary (N, dg, ...) positions.

    The one compilation step of :func:`build_fused_plan` (whole layer or
    a row band of the positions) and of the streaming retarget path:
    pixel coords → texture coords (+0.5), the tex2D++ fp16
    coordinate quantisation, then
    :func:`~repro.gpusim.texture.linear_filter_taps` — exactly
    ``fetch_at_pixel_coords`` + ``fetch``.  Because every operation is
    elementwise, tables built from a *slice* of the positions are
    bitwise equal to the same slice of the full tables, which is what
    makes stitched shard outputs bit-identical to the unsharded forward.

    Returns ``idx`` of shape (4, N·dg, S) — flat corner texel indices —
    and ``wts`` of shape (4, N·dg, 1, S), the fixed-point blend weights
    with the border mask folded in, where S flattens every trailing
    position axis.
    """
    n, dg = py.shape[0], py.shape[1]
    s = int(np.prod(py.shape[2:], dtype=np.int64))
    y = (py.reshape(n, dg, 1, s) + 0.5).astype(np.float32)
    x = (px.reshape(n, dg, 1, s) + 0.5).astype(np.float32)
    if fp16:
        y = y.astype(np.float16).astype(np.float32)
        x = x.astype(np.float16).astype(np.float32)
    taps = linear_filter_taps(y, x, h, w, "border", False)
    idx = np.stack([(iy * w + jx).reshape(n * dg, s)
                    for iy, jx, _ in taps])
    wts = np.stack([wq.astype(np.float32, copy=False).reshape(
        n * dg, 1, s) for _, _, wq in taps])
    return idx, wts
