"""Independent brute-force references used by tests and `lpcore selfcheck`.

Every function here recomputes a result by a method unrelated to the
implementation it cross-checks: Monte-Carlo hit counting instead of
polygon clipping, exhaustive path enumeration instead of the forward
recursion, dense oversampling instead of fixed sub-grids, and plain
nested loops instead of vectorized convolution.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .feature_ops import CropSpec, FeatureMap
from .geometry import RotatedBox

DEFAULT_MC_SAMPLES = 1_000_000
# samples mapped and tested per slice: a slice's float32 temporaries stay in
# cache, where whole-draw temporaries would stream 4 MB each through memory
_MC_CHUNK = 16_384


def _positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")
    return int(value)


def _corner_bounds(box: RotatedBox) -> tuple[float, float, float, float]:
    c, s = math.cos(box.theta), math.sin(box.theta)
    ex = abs(c) * box.w / 2 + abs(s) * box.h / 2
    ey = abs(s) * box.w / 2 + abs(c) * box.h / 2
    return box.cx - ex, box.cy - ey, box.cx + ex, box.cy + ey


def monte_carlo_iou(
    a: RotatedBox,
    b: RotatedBox,
    samples: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimate IoU by uniform sampling where the boxes could overlap.

    Rectangle areas are exact (w*h); only the intersection is counted, on
    the overlap of the two axis-aligned corner hulls. Disjoint hulls prove
    IoU = 0 without sampling. Both coordinate draws are taken whole, x
    first; hits are then counted in chunks of `_MC_CHUNK` over those same
    samples, each sample through the same float32 operations. `samples`
    must be a positive int (ValueError otherwise).
    """
    samples = _positive_int("samples", samples)
    if rng is None:
        rng = np.random.default_rng(0)
    ax0, ay0, ax1, ay1 = _corner_bounds(a)
    bx0, by0, bx1, by1 = _corner_bounds(b)
    lo_x, lo_y = max(ax0, bx0), max(ay0, by0)
    hi_x, hi_y = min(ax1, bx1), min(ay1, by1)
    if hi_x <= lo_x or hi_y <= lo_y:
        return 0.0
    unit_x = rng.random(samples, dtype=np.float32)
    unit_y = rng.random(samples, dtype=np.float32)

    def inside(box: RotatedBox, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        c, s = math.cos(box.theta), math.sin(box.theta)
        dx = xs - np.float32(box.cx)
        dy = ys - np.float32(box.cy)
        u = dx * np.float32(c) + dy * np.float32(s)
        v = dy * np.float32(c) - dx * np.float32(s)
        return (np.abs(u) <= np.float32(box.w / 2)) & (np.abs(v) <= np.float32(box.h / 2))

    hits = 0
    for start in range(0, samples, _MC_CHUNK):
        xs = unit_x[start : start + _MC_CHUNK] * np.float32(hi_x - lo_x) + np.float32(lo_x)
        ys = unit_y[start : start + _MC_CHUNK] * np.float32(hi_y - lo_y) + np.float32(lo_y)
        hits += int(np.count_nonzero(inside(a, xs, ys) & inside(b, xs, ys)))
    inter = hits / samples * (hi_x - lo_x) * (hi_y - lo_y)
    union = a.area + b.area - inter
    return inter / union


def _collapse(path: Sequence[int], blank: int = 0) -> tuple[int, ...]:
    out = []
    prev = -1
    for cls in path:
        if cls != prev and cls != blank:
            out.append(cls)
        prev = cls
    return tuple(out)


def ctc_loss_brute_force(logp: np.ndarray, target: Sequence[int]) -> float:
    """-log P(target) by summing every one of the K^T alignment paths.

    Returns +inf when no path collapses to the target (infeasible).
    """
    logp = np.asarray(logp, dtype=np.float64)
    t_len, num_classes = logp.shape
    want = tuple(target)
    total = 0.0
    for path in itertools.product(range(num_classes), repeat=t_len):
        if _collapse(path) == want:
            total += math.exp(sum(logp[t, cls] for t, cls in enumerate(path)))
    return -math.log(total) if total > 0.0 else math.inf


def dense_rroi_align(
    fm: FeatureMap, box: RotatedBox, spec: CropSpec = CropSpec(), oversample: int = 64
) -> FeatureMap:
    """Rotated crop via brute-force dense averaging (its own sampling code).

    `oversample` (points per cell side) must be a positive int (ValueError
    otherwise).
    """
    oversample = _positive_int("oversample", oversample)
    out = np.zeros((fm.channels, spec.out_h, spec.out_w))
    data = fm.data
    _, map_h, map_w = data.shape
    cos_t, sin_t = math.cos(box.theta), math.sin(box.theta)
    frac = (np.arange(oversample) + 0.5) / oversample
    for i in range(spec.out_h):
        vs = (i + frac) / spec.out_h * box.h - box.h / 2
        for j in range(spec.out_w):
            us = (j + frac) / spec.out_w * box.w - box.w / 2
            uu, vv = np.meshgrid(us, vs)
            px = box.cx + uu * cos_t - vv * sin_t
            py = box.cy + uu * sin_t + vv * cos_t
            x0 = np.floor(px).astype(int)
            y0 = np.floor(py).astype(int)
            fx = px - x0
            fy = py - y0
            acc = np.zeros((fm.channels, oversample, oversample))
            for oy, ox, wgt in (
                (0, 0, (1 - fx) * (1 - fy)),
                (0, 1, fx * (1 - fy)),
                (1, 0, (1 - fx) * fy),
                (1, 1, fx * fy),
            ):
                yi = y0 + oy
                xi = x0 + ox
                ok = (xi >= 0) & (xi < map_w) & (yi >= 0) & (yi < map_h)
                acc += data[:, np.clip(yi, 0, map_h - 1), np.clip(xi, 0, map_w - 1)] * (wgt * ok)
            out[:, i, j] = acc.mean(axis=(1, 2))
    return FeatureMap(out)


def conv2d_naive(
    fm: FeatureMap,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> FeatureMap:
    """Direct six-loop cross-correlation; the slow but obvious reference."""
    weights = np.asarray(weights, dtype=np.float64)
    out_c, in_c, k, _ = weights.shape
    oh = (fm.height + 2 * padding - k) // stride + 1
    ow = (fm.width + 2 * padding - k) // stride + 1
    out = np.zeros((out_c, oh, ow))
    for oc in range(out_c):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0 if bias is None else float(bias[oc])
                for ic in range(in_c):
                    for ki in range(k):
                        for kj in range(k):
                            iy = oy * stride + ki - padding
                            ix = ox * stride + kj - padding
                            if 0 <= iy < fm.height and 0 <= ix < fm.width:
                                acc += weights[oc, ic, ki, kj] * fm.data[ic, iy, ix]
                out[oc, oy, ox] = acc
    return FeatureMap(out)


def central_difference(f: Callable[[float], float], x: float, step: float = 1e-5) -> float:
    """Two-sided finite-difference derivative estimate."""
    return (f(x + step) - f(x - step)) / (2.0 * step)


def relative_error(got: float, want: float, floor: float = 1e-8) -> float:
    """|got - want| scaled by max(|want|, floor)."""
    return abs(got - want) / max(abs(want), floor)
