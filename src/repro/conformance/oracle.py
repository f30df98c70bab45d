"""Differential oracles and the derived tolerance model.

Each backend in :mod:`repro.kernels` has an **independently implemented**
float64 oracle here that follows the same numerics *specification*:

* ``pytorch``  — software bilinear at fp32 sampling positions (the
  reference kernel blends in float64 because of NumPy promotion; the
  oracle does too, so the comparison bound is a float64 ULP bound);
* ``tex2d``    — CUDA texture-unit filtering: coordinates shifted by 0.5,
  blend fractions rounded to 1.8 fixed point *with the backend's exact
  fp32 rounding decisions*, border addressing returning zero;
* ``tex2dpp``  — tex2D plus fp16 quantisation of the offsets and of the
  fetch coordinates.

The oracle deliberately shares **no gather / blend / GEMM code** with the
backends (different index construction, different reduction path), so any
disagreement beyond floating-point reordering is a real bug.  The only
shared decisions are the spec constants (0.5 shift, 8 fraction bits) and
the fp32 coordinate arithmetic, replicated op-for-op so that rounding
*ties* resolve identically — without that, a tie flip would shift a blend
weight by a full 2⁻⁸ quantum and no ULP-scale comparison could work.

Tolerance model (docs/conformance.md derives these):

``ulp_tolerance``
    Backend vs its own oracle.  The backend evaluates the same real-valued
    expression in fp32 (fp64 for the reference path): per output element
    the classic dot-product error bound gives
    ``|err| ≤ (R + 16)·ε·(Σ|w|·|col| + |bias|)`` where ``R = C·K`` is the
    reduction depth, ε the element-type epsilon, and the +16 covers the
    per-tap blend arithmetic.  ``Σ|w|·|col|`` uses the oracle's *absolute*
    corner accumulations, which dominate every intermediate magnitude.
``fixed_point_tolerance``
    tex2D vs the fp32 reference.  Hardware filtering perturbs each blend
    fraction by at most δ_q = 2⁻⁹ (round-to-nearest in 1.8 fixed point)
    plus the fp32 ±0.5 coordinate round-trip slack ε_c; bilinear values
    are 2A-Lipschitz per coordinate axis (A = max|x| over the deformable
    group), so each column entry moves by ≤ 4A·(δ_q + ε_c) and the output
    by the |w|-weighted sum of that.
``fp16_pair_tolerance``
    tex2D++ vs tex2D.  fp16 quantisation moves each *effective* fetch
    coordinate by a measurable amount Δ (the oracle computes the actual
    deltas, not a worst case); each column entry moves by
    ≤ 2A·(Δy + Δx) plus an 8A·δ_q re-quantisation envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.kernels.config import LayerConfig

#: 1.8 fixed-point quantum (spec constant, kept independent of
#: repro.gpusim.texture so fault injection there cannot blind the oracle).
FRACTION_BITS = 8
#: Round-to-nearest quantisation error bound of a 1.8 fixed-point fraction.
DELTA_Q = 2.0 ** -(FRACTION_BITS + 1)

EPS32 = float(np.finfo(np.float32).eps)
EPS64 = float(np.finfo(np.float64).eps)

ORACLE_BACKENDS = ("pytorch", "tex2d", "tex2dpp")


# ----------------------------------------------------------------------
# coordinate pipeline (fp32 decisions replicated op-for-op)
# ----------------------------------------------------------------------
def base_positions(cfg: LayerConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Undeformed integer tap positions, shape (K, L) — independent
    construction (meshgrid) from the kernels' repeat/tile one."""
    oy, ox = np.meshgrid(np.arange(cfg.out_height), np.arange(cfg.out_width),
                         indexing="ij")
    ky, kx = np.meshgrid(np.arange(cfg.kernel_size),
                         np.arange(cfg.kernel_size), indexing="ij")
    by = (ky.reshape(-1, 1) * cfg.dilation
          + oy.reshape(1, -1) * cfg.stride - cfg.padding)
    bx = (kx.reshape(-1, 1) * cfg.dilation
          + ox.reshape(1, -1) * cfg.stride - cfg.padding)
    return by, bx


def sample_positions32(offset: np.ndarray, cfg: LayerConfig,
                       fp16_offsets: bool = False
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """fp32 sampling positions (N, dg, K, L): base + offset, one fp32 add.

    The offset layout is re-derived from the spec (offset channel
    ``2·(g·K + k)`` is Δy, ``+1`` is Δx), not borrowed from the kernels.
    """
    n = offset.shape[0]
    k, dg = cfg.taps, cfg.deformable_groups
    off = np.asarray(offset, dtype=np.float32)
    if fp16_offsets:
        off = off.astype(np.float16).astype(np.float32)
    off5 = off.reshape(n, dg, k, 2, cfg.out_pixels)
    by, bx = base_positions(cfg)
    py = by.astype(np.float32)[None, None] + off5[:, :, :, 0]
    px = bx.astype(np.float32)[None, None] + off5[:, :, :, 1]
    return py, px


def _texture_fraction32(pos32: np.ndarray, fp16_coords: bool
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replicate the texture unit's coordinate maths in fp32.

    Returns ``(cell, alpha32, eff32)``: the floored cell index, the 1.8
    fixed-point blend fraction (still fp32) and the effective coordinate
    the hardware actually sampled (for delta-based tolerances).
    """
    half = np.float32(0.5)
    y = pos32 + half
    if fp16_coords:
        y = y.astype(np.float16).astype(np.float32)
    yb = y - half
    cell = np.floor(yb)
    frac = yb - cell
    alpha = np.round(frac * np.float32(1 << FRACTION_BITS)) / np.float32(
        1 << FRACTION_BITS)
    return cell.astype(np.int64), alpha, yb


# ----------------------------------------------------------------------
# oracle evaluation
# ----------------------------------------------------------------------
@dataclass
class OracleRun:
    """Float64 spec evaluation of one backend on one case."""

    backend: str
    output: np.ndarray       # (N, O, OH, OW) float64
    abs_cols: np.ndarray     # (N, C·K, L) float64 — Σ_corner w·|texel|
    group_maxabs: np.ndarray  # (N, dg) max|x| per deformable group
    py: np.ndarray           # effective fp32 row positions (N, dg, K, L)
    px: np.ndarray           # effective fp32 col positions (N, dg, K, L)


def _gather_blend(x: np.ndarray, cell_y: np.ndarray, cell_x: np.ndarray,
                  alpha: np.ndarray, beta: np.ndarray, cfg: LayerConfig
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Float64 border-addressed bilinear blend.

    ``cell_*``: (N, dg, K, L) int64; ``alpha``/``beta``: float64 in [0, 1].
    Returns ``(cols, abs_cols)`` of shape (N, C·K, L).
    """
    n, c = x.shape[0], cfg.in_channels
    h, w = cfg.height, cfg.width
    dg = cfg.deformable_groups
    cpg = c // dg
    k, l = cfg.taps, cfg.out_pixels
    xg = x.astype(np.float64).reshape(n, dg, cpg, h * w)
    cols = np.zeros((n, dg, cpg, k * l), dtype=np.float64)
    abs_cols = np.zeros_like(cols)
    wy = (1.0 - alpha, alpha)
    wx = (1.0 - beta, beta)
    for dy in (0, 1):
        for dx in (0, 1):
            ry = cell_y + dy
            rx = cell_x + dx
            valid = (ry >= 0) & (ry < h) & (rx >= 0) & (rx < w)
            flat = (np.clip(ry, 0, h - 1) * w
                    + np.clip(rx, 0, w - 1)).reshape(n, dg, k * l)
            weight = (wy[dy] * wx[dx]).reshape(n, dg, k * l)
            gathered = np.take_along_axis(xg, flat[:, :, None, :], axis=-1)
            contrib = (weight * valid.reshape(n, dg, k * l))[:, :, None, :]
            cols += contrib * gathered
            abs_cols += contrib * np.abs(gathered)
    # (N, dg, cpg, K·L) -> (N, C·K, L) with (channel, tap) ordering
    cols = cols.reshape(n, dg, cpg, k, l).reshape(n, c * k, l)
    abs_cols = abs_cols.reshape(n, dg, cpg, k, l).reshape(n, c * k, l)
    return cols, abs_cols


def oracle_run(x: np.ndarray, offset: np.ndarray, weight: np.ndarray,
               bias: Optional[np.ndarray], cfg: LayerConfig,
               backend: str) -> OracleRun:
    """Evaluate one backend's numerics spec in float64."""
    if backend not in ORACLE_BACKENDS:
        raise ValueError(f"no oracle for backend {backend!r}")
    n, c = x.shape[0], cfg.in_channels
    dg = cfg.deformable_groups
    fp16 = backend == "tex2dpp"
    py, px = sample_positions32(offset, cfg, fp16_offsets=fp16)

    if backend == "pytorch":
        cell_y = np.floor(py).astype(np.int64)
        cell_x = np.floor(px).astype(np.int64)
        alpha = py.astype(np.float64) - cell_y
        beta = px.astype(np.float64) - cell_x
        eff_y, eff_x = py, px
    else:
        cell_y, alpha32, eff_y = _texture_fraction32(py, fp16)
        cell_x, beta32, eff_x = _texture_fraction32(px, fp16)
        alpha = alpha32.astype(np.float64)
        beta = beta32.astype(np.float64)

    cols, abs_cols = _gather_blend(x, cell_y, cell_x, alpha, beta, cfg)
    w2 = weight.reshape(cfg.out_channels, c * cfg.taps).astype(np.float64)
    out = np.matmul(w2, cols)                      # (N, O, L)
    if bias is not None:
        out = out + bias.astype(np.float64)[None, :, None]
    out = out.reshape(n, cfg.out_channels, cfg.out_height, cfg.out_width)
    group_maxabs = np.abs(x).reshape(n, dg, -1).max(axis=-1) \
        if x.size else np.zeros((n, dg))
    return OracleRun(backend=backend, output=out, abs_cols=abs_cols,
                     group_maxabs=group_maxabs, py=eff_y, px=eff_x)


# ----------------------------------------------------------------------
# tolerance model
# ----------------------------------------------------------------------
#: Per-tap fp32 blend arithmetic ops folded into the accumulation bound.
_BLEND_OPS = 16
#: Absolute floor guarding denormal-scale comparisons.
_ABS_FLOOR32 = 1e-12
_ABS_FLOOR64 = 1e-20


def _coord_slack(cfg: LayerConfig) -> float:
    """fp32 slack of the ±0.5 coordinate round trip at map magnitude."""
    return 4.0 * EPS32 * (max(cfg.height, cfg.width) + 2.0)


def _reshape_out(tol_nol: np.ndarray, cfg: LayerConfig) -> np.ndarray:
    return tol_nol.reshape(tol_nol.shape[0], cfg.out_channels,
                           cfg.out_height, cfg.out_width)


def ulp_tolerance(weight: np.ndarray, bias: Optional[np.ndarray],
                  oracle: OracleRun, cfg: LayerConfig,
                  eps: float = EPS32) -> np.ndarray:
    """Accumulation-error bound of the backend vs its own oracle."""
    w2 = np.abs(weight.reshape(cfg.out_channels, -1)).astype(np.float64)
    reduction = w2.shape[1]
    mag = np.matmul(w2, oracle.abs_cols)
    if bias is not None:
        mag = mag + np.abs(bias).astype(np.float64)[None, :, None]
    floor = _ABS_FLOOR32 if eps >= EPS32 else _ABS_FLOOR64
    return _reshape_out((reduction + _BLEND_OPS) * eps * mag + floor, cfg)


def _group_weight_l1(weight: np.ndarray, cfg: LayerConfig) -> np.ndarray:
    """‖w‖₁ per (out_channel, deformable_group): (O, dg)."""
    dg = cfg.deformable_groups
    cpg = cfg.in_channels // dg
    w = np.abs(weight.astype(np.float64)).reshape(
        cfg.out_channels, dg, cpg * cfg.taps)
    return w.sum(axis=-1)


def fixed_point_tolerance(weight: np.ndarray, bias: Optional[np.ndarray],
                          cfg: LayerConfig, ref: OracleRun,
                          tex: OracleRun) -> np.ndarray:
    """Bound for tex2D output vs the fp32 software reference.

    Per column entry: both fractions move by ≤ δ_q + ε_c and bilinear is
    2A-Lipschitz per axis ⇒ ≤ 4A·(δ_q + ε_c); the fp32/fp64 accumulation
    slack of both sides is added on top.
    """
    tap = 4.0 * (DELTA_Q + _coord_slack(cfg)) * tex.group_maxabs  # (N, dg)
    w_l1 = _group_weight_l1(weight, cfg)                          # (O, dg)
    core = np.einsum("og,ng->no", w_l1, tap)                      # (N, O)
    core = np.broadcast_to(core[:, :, None],
                           (tap.shape[0], cfg.out_channels, cfg.out_pixels))
    return (_reshape_out(np.ascontiguousarray(core), cfg)
            + ulp_tolerance(weight, bias, tex, cfg, EPS32)
            + ulp_tolerance(weight, bias, ref, cfg, EPS64))


def pairwise_coord_tolerance(weight: np.ndarray, bias: Optional[np.ndarray],
                             cfg: LayerConfig, a: OracleRun, b: OracleRun,
                             extra_shift: Tuple[float, float] = (0.0, 0.0)
                             ) -> np.ndarray:
    """Bound for two texture runs whose effective coordinates differ.

    Used for tex2D++ vs tex2D (fp16 coordinate quantisation) and for the
    translated tex2D++ pair of the translation-equivariance invariant
    (``extra_shift`` subtracts the deliberate integer translation before
    measuring the residual coordinate deltas).
    """
    dy = np.abs(a.py.astype(np.float64) - b.py - extra_shift[0])
    dx = np.abs(a.px.astype(np.float64) - b.px - extra_shift[1])
    amax = np.maximum(a.group_maxabs, b.group_maxabs)  # (N, dg)
    # per-tap bound: 2A·(Δy + Δx) + 8A·δ_q + 4A·ε_c  — shape (N, dg, K, L)
    tap = (2.0 * (dy + dx) + 8.0 * DELTA_Q + 4.0 * _coord_slack(cfg)
           ) * amax[:, :, None, None]
    n = tap.shape[0]
    cpg = cfg.in_channels // cfg.deformable_groups
    tap_ck = np.broadcast_to(
        tap[:, :, None, :, :],
        (n, cfg.deformable_groups, cpg, cfg.taps, cfg.out_pixels)
    ).reshape(n, cfg.in_channels * cfg.taps, cfg.out_pixels)
    w2 = np.abs(weight.reshape(cfg.out_channels, -1)).astype(np.float64)
    core = np.einsum("ok,nkl->nol", w2, tap_ck)
    return (_reshape_out(core, cfg)
            + ulp_tolerance(weight, bias, a, cfg, EPS32)
            + ulp_tolerance(weight, bias, b, cfg, EPS32))
