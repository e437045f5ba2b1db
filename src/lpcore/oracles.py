"""Independent brute-force references used by tests and `lpcore selfcheck`.

Every function here recomputes a result by a method unrelated to the
implementation it cross-checks: Monte-Carlo hit counting instead of
polygon clipping, exhaustive path enumeration instead of the forward
recursion, dense oversampling instead of fixed sub-grids, plain nested
loops instead of vectorized convolution, and an angle sweep instead of
rotating calipers.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Callable, Sequence

import numpy as np

from .ctc import _check_log_probs, _extended_target
from .feature_ops import CropSpec, FeatureMap, _check_conv_args, _conv_out_dims
from .geometry import Quad, RotatedBox, _is_int

DEFAULT_MC_SAMPLES = 1_000_000
# box and window sides monte_carlo_iou can sample: normal float32 values, at
# most half the float32 maximum so that u = dx*c + dy*s stays finite
MC_SIDE_RANGE = (
    float(np.finfo(np.float32).smallest_normal),
    float(np.finfo(np.float32).max) / 2,
)
# samples mapped and tested per slice: a slice's float32 temporaries stay in
# cache, where whole-draw temporaries would stream 4 MB each through memory
_MC_CHUNK = 16_384
# (row, column) offsets of the four bilinear corners, in weight order
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _positive_int(name: str, value) -> int:
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")
    return int(value)


def _corner_bounds(box: RotatedBox, ox: float, oy: float) -> tuple[float, float, float, float]:
    """The box's corner hull (x0, y0, x1, y1), relative to the point (ox, oy)."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    ex = abs(c) * box.w / 2 + abs(s) * box.h / 2
    ey = abs(s) * box.w / 2 + abs(c) * box.h / 2
    cx, cy = box.cx - ox, box.cy - oy
    return cx - ex, cy - ey, cx + ex, cy + ey


def monte_carlo_iou(
    a: RotatedBox,
    b: RotatedBox,
    samples: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimate IoU by uniform sampling where the boxes could overlap.

    Rectangle areas are exact (w*h); only the intersection is counted, on
    the overlap of the two axis-aligned corner hulls. Disjoint hulls prove
    IoU = 0 without sampling. The window is found in a's frame and the
    samples are placed relative to its low corner; both box centres are
    made relative to that corner in float64 before any float32 cast, so
    the estimate does not depend on how far the pair is from the origin.
    Both coordinate draws are taken whole, x first; hits are then counted
    in chunks of `_MC_CHUNK` over those same samples, each sample through
    the same float32 operations.

    Raises ValueError when `samples` is not a positive int, and when a pair
    it has to sample has a box or window side outside `MC_SIDE_RANGE`,
    the normal float32 values with a factor of 2 of headroom, so no
    float32 step overflows; nothing is drawn then.
    """
    samples = _positive_int("samples", samples)
    if rng is None:
        rng = np.random.default_rng(0)
    ax0, ay0, ax1, ay1 = _corner_bounds(a, a.cx, a.cy)
    bx0, by0, bx1, by1 = _corner_bounds(b, a.cx, a.cy)
    lo_x, lo_y = max(ax0, bx0), max(ay0, by0)
    span_x, span_y = min(ax1, bx1) - lo_x, min(ay1, by1) - lo_y
    if span_x <= 0.0 or span_y <= 0.0:
        return 0.0
    low, high = MC_SIDE_RANGE
    sides = (a.w, a.h, b.w, b.h, span_x, span_y)
    if not all(low <= side <= high for side in sides):
        raise ValueError(
            f"monte_carlo_iou samples in float32: box and window sides must be in "
            f"[{low:.9g}, {high:.9g}], got {', '.join(f'{side:g}' for side in sides)}"
        )
    unit_x = rng.random(samples, dtype=np.float32)
    unit_y = rng.random(samples, dtype=np.float32)

    def inside(box: RotatedBox, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        c, s = math.cos(box.theta), math.sin(box.theta)
        dx = xs - np.float32((box.cx - a.cx) - lo_x)
        dy = ys - np.float32((box.cy - a.cy) - lo_y)
        u = dx * np.float32(c) + dy * np.float32(s)
        v = dy * np.float32(c) - dx * np.float32(s)
        return (np.abs(u) <= np.float32(box.w / 2)) & (np.abs(v) <= np.float32(box.h / 2))

    hits = 0
    for start in range(0, samples, _MC_CHUNK):
        xs = unit_x[start : start + _MC_CHUNK] * np.float32(span_x)
        ys = unit_y[start : start + _MC_CHUNK] * np.float32(span_y)
        hits += int(np.count_nonzero(inside(a, xs, ys) & inside(b, xs, ys)))
    inter = hits / samples * span_x * span_y
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

    Returns +inf when no path collapses to the target (infeasible). The
    arguments are checked as `ctc.ctc_loss` checks them, rows unnormalized
    allowed: log-probs that are not (T, K) with T >= 1 and K >= 2 raise
    ShapeMismatchError, NaN or +inf entries ValueError, and a target entry
    that is not an int or not in [1, K) ValueError.
    """
    logp = _check_log_probs(logp, validate=False)
    t_len, num_classes = logp.shape
    want = tuple(int(cls) for cls in _extended_target(target, num_classes)[1::2])
    total = 0.0
    for path in itertools.product(range(num_classes), repeat=t_len):
        if _collapse(path) == want:
            total += math.exp(sum(logp[t, cls] for t, cls in enumerate(path)))
    return -math.log(total) if total > 0.0 else math.inf


def dense_rroi_align(
    fm: FeatureMap, box: RotatedBox, spec: CropSpec = CropSpec(), oversample: int = 64
) -> FeatureMap:
    """Rotated crop via brute-force dense averaging (its own sampling code).

    Each cell averages the bilinear reads of oversample x oversample points.
    The map is padded with two rings of zeros and the four corners of every
    anchor pixel are laid out in one table, so an off-map corner reads 0.0
    and each cell is one gather. `oversample` (points per cell side) must
    be a positive int (ValueError otherwise).
    """
    oversample = _positive_int("oversample", oversample)
    out = np.zeros((fm.channels, spec.out_h, spec.out_w))
    channels, map_h, map_w = fm.data.shape
    padded = np.pad(fm.data, ((0, 0), (2, 2), (2, 2)))
    # table[k, :, (y + 2) * (map_w + 3) + x + 2] is corner k of anchor pixel
    # (y, x), for y in [-2, map_h] and x in [-2, map_w]; corner-major, so each
    # corner's gathered plane is contiguous
    table = np.stack(
        [padded[:, oy : oy + map_h + 3, ox : ox + map_w + 3] for oy, ox in _CORNERS]
    ).reshape(4, channels, -1)
    cos_t, sin_t = math.cos(box.theta), math.sin(box.theta)
    frac = (np.arange(oversample) + 0.5) / oversample
    for i in range(spec.out_h):
        vs = ((i + frac) / spec.out_h * box.h - box.h / 2)[:, None]
        for j in range(spec.out_w):
            us = (j + frac) / spec.out_w * box.w - box.w / 2
            px = (box.cx + us * cos_t) - vs * sin_t
            py = (box.cy + us * sin_t) + vs * cos_t
            x0 = np.floor(px)
            y0 = np.floor(py)
            fx = px - x0
            fy = py - y0
            # an anchor beyond -2 or the far edge has all four corners off the
            # map, as the clipped anchor does
            anchor = np.clip(y0, -2, map_h) * (map_w + 3) + np.clip(x0, -2, map_w)
            corners = np.take(table, anchor.astype(np.intp) + (2 * (map_w + 3) + 2), axis=2)
            acc = np.zeros((channels, oversample, oversample))
            for k, wgt in enumerate(
                ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)
            ):
                acc += corners[k] * wgt
            out[:, i, j] = acc.mean(axis=(1, 2))
    return FeatureMap(out)


def min_area_rect_sweep(quad: Quad, angles: int) -> float:
    """Smallest area of a rectangle enclosing the quad's vertices, over
    `angles` rectangle orientations evenly spaced in [0, pi/2).

    Each orientation projects every vertex on the rectangle's two axes and
    takes the bounding-box area; no hull, no calipers. The true minimum is
    at most this, and within about (w/h + h/w) * pi / (4 * angles) of it
    relatively, since the area is piecewise smooth in the angle. `angles`
    must be a positive int (ValueError otherwise).
    """
    angles = _positive_int("angles", angles)
    verts = np.array(quad.vertices)
    theta = np.arange(angles) * (math.pi / 2 / angles)
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    u = verts[:, 0] * c + verts[:, 1] * s
    v = verts[:, 1] * c - verts[:, 0] * s
    areas = (u.max(axis=1) - u.min(axis=1)) * (v.max(axis=1) - v.min(axis=1))
    return float(areas.min())


def conv2d_naive(
    fm: FeatureMap,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> FeatureMap:
    """Direct six-loop cross-correlation; the slow but obvious reference.

    The arguments are checked as `feature_ops.conv2d_forward` checks them:
    weights that are not (out_c, fm.channels, k, k), a bias that is not
    (out_c,), or a kernel that does not fit the padded map raise
    ShapeMismatchError, and a stride or padding that is not an int (a bool
    included), a stride < 1 or a padding < 0 ValueError.
    """
    weights, bias, k = _check_conv_args(fm, weights, bias, stride, padding)
    out_c, in_c = weights.shape[:2]
    oh, ow = _conv_out_dims(fm.height, fm.width, k, stride, padding)
    out = np.zeros((out_c, oh, ow))
    for oc in range(out_c):
        for oy in range(oh):
            for ox in range(ow):
                acc = float(bias[oc])
                for ic in range(in_c):
                    for ki in range(k):
                        for kj in range(k):
                            iy = oy * stride + ki - padding
                            ix = ox * stride + kj - padding
                            if 0 <= iy < fm.height and 0 <= ix < fm.width:
                                acc += weights[oc, ic, ki, kj] * fm.data[ic, iy, ix]
                out[oc, oy, ox] = acc
    return FeatureMap(out)


def _positive_finite(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def central_difference(f: Callable[[float], float], x: float, step: float = 1e-5) -> float:
    """Two-sided finite-difference derivative estimate.

    `step` must be a positive finite number (ValueError otherwise).
    """
    step = _positive_finite("step", step)
    return (f(x + step) - f(x - step)) / (2.0 * step)


def relative_error(got: float, want: float, floor: float = 1e-8) -> float:
    """|got - want| scaled by max(|want|, floor).

    `floor` must be a positive finite number (ValueError otherwise).
    """
    floor = _positive_finite("floor", floor)
    return abs(got - want) / max(abs(want), floor)
