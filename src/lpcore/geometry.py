"""Rotated-rectangle geometry: five-tuple boxes, quad conversion, exact IoU, NMS.

A rotated box is (cx, cy, w, h, theta) with theta the angle to horizontal.
Angles are kept in [-pi/4, pi/4) with ``w`` along the side closest to
horizontal; any (w, h, theta) describing the same rectangle is folded into
that canonical form on construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuadError

# Quads with less area than this (in px^2) are rejected by quad_to_rbox.
QUAD_AREA_EPS = 1e-6
# RotatedBox sides must lie in [MIN_SIDE, MAX_SIDE]. Inside this range areas
# and clipping products stay finite normal floats, so IoU keeps full
# precision; past it a self-IoU reads 0.0 (1e+-200) or NaN (1e154).
MIN_SIDE = 1e-150
MAX_SIDE = 1e150

_QUARTER_PI = math.pi / 4
_HALF_PI = math.pi / 2
# quad_to_rbox moves angles this close below +pi/4 to -pi/4 (w and h swapped).
_ANGLE_SNAP = 1e-12

Point = tuple[float, float]


@dataclass(frozen=True)
class RotatedBox:
    """Rotated rectangle (cx, cy, w, h, theta); angle in radians."""

    cx: float
    cy: float
    w: float
    h: float
    theta: float = 0.0

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "theta"):
            v = getattr(self, name)
            f = v if type(v) is float else _real_as_float(v)
            if not math.isfinite(f):
                raise ValueError(f"RotatedBox.{name} must be finite, got {v!r}")
            if f is not v:
                object.__setattr__(self, name, f)
        if not (MIN_SIDE <= self.w <= MAX_SIDE and MIN_SIDE <= self.h <= MAX_SIDE):
            raise ValueError(
                f"RotatedBox sides must be in [{MIN_SIDE:g}, {MAX_SIDE:g}], "
                f"got w={self.w}, h={self.h}"
            )
        if not -_QUARTER_PI <= self.theta < _QUARTER_PI:
            w, h, theta = _fold_angle(self.w, self.h, self.theta)
            object.__setattr__(self, "w", w)
            object.__setattr__(self, "h", h)
            object.__setattr__(self, "theta", theta)

    @property
    def area(self) -> float:
        return self.w * self.h


def _real_as_float(v) -> float:
    """A Python or numpy real scalar as a Python float; anything else as NaN."""
    try:
        return float(v) if isinstance(v, numbers.Real) else math.nan
    except OverflowError:  # an int past the float range
        return math.inf


def _is_int(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_unit_threshold(value, name: str) -> None:
    """ValueError unless value is a real number (not a bool) in [0, 1]."""
    if isinstance(value, bool) or not 0.0 <= _real_as_float(value) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _fold_angle(w: float, h: float, theta: float) -> tuple[float, float, float]:
    """Fold (w, h, theta) into the canonical theta in [-pi/4, pi/4)."""
    t = math.remainder(theta, math.pi)  # [-pi/2, pi/2], same rectangle
    if t >= _QUARTER_PI:
        return h, w, t - _HALF_PI
    if t < -_QUARTER_PI:
        return h, w, t + _HALF_PI
    return w, h, t


@dataclass(frozen=True)
class Quad:
    """Four-vertex polygon in annotation order; must be simple with area > 0."""

    vertices: tuple[Point, Point, Point, Point]

    def __post_init__(self):
        if len(self.vertices) != 4:
            raise DegenerateQuadError(f"quad needs 4 vertices, got {len(self.vertices)}")
        verts = []
        for p in self.vertices:
            x, y = float(p[0]), float(p[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DegenerateQuadError(f"non-finite vertex {p!r}")
            verts.append((x, y))
        object.__setattr__(self, "vertices", tuple(verts))
        if _shoelace(self.vertices) == 0.0:
            raise DegenerateQuadError("quad has zero area")
        if _segments_cross(verts[0], verts[1], verts[2], verts[3]) or _segments_cross(
            verts[1], verts[2], verts[3], verts[0]
        ):
            raise DegenerateQuadError("quad edges self-intersect")

    @property
    def area(self) -> float:
        return abs(_shoelace(self.vertices))


@dataclass(frozen=True)
class ScoredBox:
    """Detection candidate: a rotated box with a confidence in [0, 1]."""

    box: RotatedBox
    score: float

    def __post_init__(self):
        s = self.score if type(self.score) is float else _real_as_float(self.score)
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score!r}")
        if s is not self.score:
            object.__setattr__(self, "score", s)


def _shoelace(pts) -> float:
    """Signed area of a polygon (positive for counter-clockwise order)."""
    acc = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff segments ab and cd properly intersect (not mere touching)."""
    d1 = _cross(a, b, c)
    d2 = _cross(a, b, d)
    d3 = _cross(c, d, a)
    d4 = _cross(c, d, b)
    return d1 * d2 < 0 and d3 * d4 < 0


def _convex_hull(pts) -> list[Point]:
    """Monotone-chain convex hull, counter-clockwise, no duplicate points."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return list(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def quad_to_rbox(q: Quad) -> RotatedBox:
    """Minimum-area enclosing rotated rectangle of the quad's vertices.

    Rotating calipers over the convex hull: the optimal rectangle has one
    side collinear with a hull edge. Raises DegenerateQuadError for an area
    below QUAD_AREA_EPS, collinear vertices, or a side outside [MIN_SIDE, MAX_SIDE].
    """
    if q.area < QUAD_AREA_EPS:
        raise DegenerateQuadError(f"quad area {q.area:g} below {QUAD_AREA_EPS:g}")
    hull = _convex_hull(q.vertices)
    if len(hull) < 3:
        raise DegenerateQuadError("quad vertices are collinear")
    best: tuple[float, float, float, float, float, float] | None = None
    n = len(hull)
    for i in range(n):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % n]
        ex, ey = x1 - x0, y1 - y0
        norm = math.hypot(ex, ey)
        if norm == 0.0:
            continue
        ux, uy = ex / norm, ey / norm
        us = [px * ux + py * uy for px, py in hull]
        vs = [py * ux - px * uy for px, py in hull]
        w = max(us) - min(us)
        h = max(vs) - min(vs)
        area = w * h
        if best is None or area < best[0]:
            cu = 0.5 * (max(us) + min(us))
            cv = 0.5 * (max(vs) + min(vs))
            cx = cu * ux - cv * uy
            cy = cu * uy + cv * ux
            best = (area, cx, cy, w, h, math.atan2(uy, ux))
    assert best is not None
    try:
        box = RotatedBox(best[1], best[2], best[3], best[4], best[5])
    except ValueError as exc:
        raise DegenerateQuadError(f"enclosing rectangle is not a valid box: {exc}") from None
    # A rectangle at exactly -pi/4 can read as just under +pi/4 after rounding;
    # both name the same rectangle, and -pi/4 is the closed end of the range.
    if box.theta >= _QUARTER_PI - _ANGLE_SNAP:
        return RotatedBox(box.cx, box.cy, box.h, box.w, -_QUARTER_PI)
    return box


def rbox_to_quad(b: RotatedBox) -> Quad:
    """Corners counter-clockwise starting at box-local (-w/2, -h/2).

    Raises DegenerateQuadError when the corners, rounded to floats, enclose
    no area: a box too small for its distance from the origin, such as
    RotatedBox(1e6, 0, 1e-12, 1e-12, 0), whose corners all round to the centre.
    """
    c, s = math.cos(b.theta), math.sin(b.theta)
    return Quad(_corner_points(b.cx, b.cy, b.w / 2.0, b.h / 2.0, c, s))


def _prepare(cx: float, cy: float, w: float, h: float, theta: float) -> tuple:
    """Box (cx, cy, w, h, theta) with what clipping it needs worked out once:
    the five fields, its diagonal ``sqrt(w*w + h*h)`` as _iou's circumcircle
    test takes it, the cos and sin of its angle and its half sides
    ``(w/2, h/2)``."""
    return (
        cx, cy, w, h, theta, math.sqrt(w * w + h * h), math.cos(theta), math.sin(theta),
        w / 2.0, h / 2.0,
    )


def _corner_points(x: float, y: float, hw: float, hh: float, c: float, s: float) -> list[Point]:
    """Corners of the box of half sides (hw, hh) centred at (x, y), its w side
    along (c, s), in rbox_to_quad's order; floats, or arrays of them."""
    wc, ws, hc, hs = hw * c, hw * s, hh * c, hh * s
    return [
        (x - wc + hs, y - ws - hc),
        (x + wc + hs, y + ws - hc),
        (x + wc - hs, y + ws + hc),
        (x - wc - hs, y - ws + hc),
    ]


def _clip_side(pts: list[Point], k: int, sign: float, lim: float) -> list[Point]:
    """One Sutherland-Hodgman step against an axis-aligned side: the part of
    polygon ``pts`` where ``d = sign * (lim - coordinate k)`` is at least 0."""
    out = []
    px, py = prev = pts[-1]
    d_prev = sign * (lim - prev[k])
    for cur in pts:
        d = sign * (lim - cur[k])
        if d >= 0.0:
            if d_prev < 0.0:
                t = d_prev / (d_prev - d)
                out.append((px + t * (cur[0] - px), py + t * (cur[1] - py)))
            out.append(cur)
        elif d_prev >= 0.0:
            t = d_prev / (d_prev - d)
            out.append((px + t * (cur[0] - px), py + t * (cur[1] - py)))
        px, py = cur
        d_prev = d
    return out


def rotated_iou(a: RotatedBox, b: RotatedBox) -> float:
    """Exact intersection-over-union via polygon clipping in one box's frame.

    Disjoint circumcircles give exactly 0.0: a pair whose centres lie
    farther apart than half the sum of the diagonals ``sqrt(w*w + h*h)`` is
    not clipped. The other pairs are clipped in the frame of one box, where
    it is the axis-aligned rectangle [-w/2, w/2] x [-h/2, h/2], so precision
    does not depend on the distance from the origin.
    """
    return _iou(a.cx, a.cy, a.w, a.h, a.theta, b.cx, b.cy, b.w, b.h, b.theta)


def _iou(ax, ay, aw, ah, at, bx, by, bw, bh, bt) -> float:
    """rotated_iou of two boxes given as canonical (cx, cy, w, h, theta) floats."""
    dx, dy = bx - ax, by - ay
    reach = 0.5 * (math.sqrt(aw * aw + ah * ah) + math.sqrt(bw * bw + bh * bh))
    if dx * dx + dy * dy > reach * reach:
        return 0.0
    return _overlap(_prepare(ax, ay, aw, ah, at), _prepare(bx, by, bw, bh, bt))


def _overlap(a: tuple, b: tuple) -> float:
    """IoU of two prepared boxes by clipping, for pairs past _iou's circumcircle test.

    Of the two, ``a`` is the lexicographically smaller (cx, cy, w, h, theta),
    so the result is exactly symmetric. In a's frame a is [-p, p] x [-q, q]:
    b's corners, turned into it, are clipped against x <= p, y <= q,
    x >= -p and y >= -q in turn. The clipped area is capped at the smaller box
    area, an exact bound, so for areas A and B the IoU is at most
    (min(A, B) / max(A, B))(1 + 5 * 2**-53).
    """
    if b[:5] < a[:5]:
        a, b = b, a
    ca, sa, cb, sb = a[6], a[7], b[6], b[7]
    dx, dy = b[0] - a[0], b[1] - a[1]
    pts = _corner_points(
        dx * ca + dy * sa, dy * ca - dx * sa, b[8], b[9], cb * ca + sb * sa, sb * ca - cb * sa
    )
    p, q = a[8], a[9]
    for k, sign, lim in ((0, 1.0, p), (1, 1.0, q), (0, -1.0, -p), (1, -1.0, -q)):
        pts = _clip_side(pts, k, sign, lim)
        if not pts:
            return 0.0
    inter = abs(_shoelace(pts)) if len(pts) >= 3 else 0.0
    area_a, area_b = a[2] * a[3], b[2] * b[3]
    small = area_a if area_a < area_b else area_b
    if inter > small:
        inter = small
    # inter <= min(A, B), so the union is at least max(A, B)(1 - 3 * 2**-53) > 0
    return min(inter / (area_a + area_b - inter), 1.0)


# _iou_pairs clips at most this many pairs at a time, which bounds its scratch
# arrays and the Python floats its math calls make
_PAIR_CHUNK = 2048
# _iou_pairs loops the scalar _iou below this many pairs, where the batched
# kernel's fixed numpy cost outweighs its per-pair gain. Interleaved timeit,
# overlapping plate-sized pairs (every one clipped), 2-core Xeon, batched vs
# scalar in us: K=1 272 vs 9, K=8 283 vs 68, K=16 286 vs 139, K=32 345 vs
# 281, K=40 340 vs 339, K=48 348 vs 414, K=64 368 vs 545, K=128 480 vs 1083.
# Below it _iou_exceeds clips too, as _iou_bounds' fixed cost outweighs the
# clips it saves. Interleaved timeit on the pairs of synth_fixture(s, 3, 0.3)
# images, bounds vs clipping in us: K=1 60 vs 7, K=8 61 vs 17, K=16 72 vs 37,
# K=32 80 vs 85, K=36 87 vs 91, K=40 87 vs 206 (the batched kernel), K=64 104
# vs 232.
_SCALAR_PAIRS = 40


def _near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_iou's circumcircle test on broadcast (..., 5) rows: True where it clips.

    IEEE multiply, add and sqrt are correctly rounded, so ``np.sqrt`` here
    gives the bits of ``math.sqrt`` there; MIN_SIDE and MAX_SIDE keep each
    ``w*w`` a finite normal float.
    """
    with np.errstate(over="ignore"):  # far-apart centres: inf distance, a miss
        dx, dy = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
        diag_a = np.sqrt(a[..., 2] * a[..., 2] + a[..., 3] * a[..., 3])
        diag_b = np.sqrt(b[..., 2] * b[..., 2] + b[..., 3] * b[..., 3])
        reach = 0.5 * (diag_a + diag_b)
        return dx * dx + dy * dy <= reach * reach


def _iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(K,) array of ``_iou(*a[k], *b[k])`` for two (K, 5) canonical arrays.

    Every entry has exactly the bits of ``_iou``: the same float operations
    run in the same order, for all pairs at once, and ``cos`` and ``sin``
    come from ``math``, as numpy's may differ from them in the last bit.
    Below _SCALAR_PAIRS pairs it is that scalar loop itself.
    """
    if len(a) < _SCALAR_PAIRS:
        return np.array([_iou(*p, *q) for p, q in zip(a.tolist(), b.tolist())], dtype=np.float64)
    out = np.zeros(len(a))
    live = np.flatnonzero(_near(a, b))
    with np.errstate(all="ignore"):  # 0/0 where no edge crosses
        for start in range(0, len(live), _PAIR_CHUNK):
            rows = live[start : start + _PAIR_CHUNK]
            out[rows] = _clip_iou(a[rows], b[rows])
    return out


# _iou_exceeds decides a pair without clipping when its IoU bounds clear the
# threshold by _BOUND_MARGIN. Error budget: clipping errs by at most about
# aspect ratio x 2^-52 in IoU, so about 1e-13 for boxes within _BOUND_ASPECT, and
# the bounds, a few float operations on the same lengths, by as little; the
# inscribed rectangle divides by cos 2δ (δ the angle between the boxes), which
# multiplies its rounding by at most 1 / _MIN_COS_2D. Pairs past either guard
# are clipped. TestAgainstExactIou in tests/test_geometry.py checks that the
# bounds bracket the exact IoU within the margin, on plate-like, thin (aspect
# up to 1e3) and nested pairs.
_BOUND_MARGIN = 1e-9
_BOUND_ASPECT = 1e3
_MIN_COS_2D = 0.1


def _iou_exceeds(a: np.ndarray, b: np.ndarray, thresh: float) -> np.ndarray:
    """(K,) bool array equal to ``_iou_pairs(a, b) > thresh``, bit for bit.

    Below _SCALAR_PAIRS pairs it is that comparison itself. Otherwise a pair
    that fails the circumcircle test of _near has IoU 0.0. Of the others,
    those whose bounds from _iou_bounds lie clear of the threshold are
    decided from them, and only the rest are clipped by _iou_pairs.
    """
    if len(a) < _SCALAR_PAIRS:
        return _iou_pairs(a, b) > thresh
    out = np.full(len(a), 0.0 > thresh)
    live = np.flatnonzero(_near(a, b))
    # float64 whatever the threshold's type: in float32 the margin rounds away
    thresh = float(thresh)
    undecided = []
    for start in range(0, len(live), _PAIR_CHUNK):
        rows = live[start : start + _PAIR_CHUNK]
        lo, hi = _iou_bounds(a[rows], b[rows])
        hit = lo > thresh + _BOUND_MARGIN
        out[rows] = hit
        # NaN bounds (a guard failed) decide nothing
        undecided.append(rows[~hit & ~(hi <= thresh - _BOUND_MARGIN)])
    rows = np.concatenate(undecided) if undecided else live
    out[rows] = _iou_pairs(a[rows], b[rows]) > thresh
    return out


def _iou_bounds(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the IoU of each pair of (K, 5) rows; NaN
    for a pair past the aspect or angle guard.

    The bounds are taken in a's frame: b contains the rectangle aligned with
    a and inscribed in b (exact at equal angles), and lies in its extent
    along a's axes; a's overlaps with these bound the intersection from
    below and above. An overlap with a is at most a's area, bit for bit, so
    only b's area caps the upper bound.
    """
    pa, qa, pb, qb = a[:, 2] / 2.0, a[:, 3] / 2.0, b[:, 2] / 2.0, b[:, 3] / 2.0
    ca, sa = np.cos(a[:, 4]), np.sin(a[:, 4])
    delta = b[:, 4] - a[:, 4]
    c, s = np.abs(np.cos(delta)), np.abs(np.sin(delta))
    cos2d = c * c - s * s
    # b's centre in a's frame
    dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    u, v = dx * ca + dy * sa, dy * ca - dx * sa
    area_b = b[:, 2] * b[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):  # cos 2δ = 0 is guarded
        inner = _frame_overlap(pa, qa, u, v, (c * pb - s * qb) / cos2d, (c * qb - s * pb) / cos2d)
    outer = np.minimum(area_b, _frame_overlap(pa, qa, u, v, c * pb + s * qb, s * pb + c * qb))
    ok = (
        (np.maximum(pa, qa) <= _BOUND_ASPECT * np.minimum(pa, qa))
        & (np.maximum(pb, qb) <= _BOUND_ASPECT * np.minimum(pb, qb))
        & (np.abs(cos2d) >= _MIN_COS_2D)
    )
    both = a[:, 2] * a[:, 3] + area_b
    return (
        np.where(ok, inner / (both - inner), np.nan),
        np.where(ok, outer / (both - outer), np.nan),
    )


def _frame_overlap(p, q, u, v, x, y):
    """Area shared by the rectangle [-p, p] x [-q, q] and the one of
    half-sides (x, y) centred at (u, v); zero where x or y is negative."""
    over_x = np.minimum(p, u + x) - np.maximum(-p, u - x)
    over_y = np.minimum(q, v + y) - np.maximum(-q, v - y)
    return np.maximum(over_x, 0.0) * np.maximum(over_y, 0.0)


def _clip_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_iou of pairs that pass its circumcircle test: _overlap's operations,
    in its order and with its area cap, on every pair at once."""
    # canonical argument order: a is the lexicographically smaller row
    swap = np.zeros(len(a), dtype=bool)
    for k in range(4, -1, -1):
        swap = (b[:, k] < a[:, k]) | ((b[:, k] == a[:, k]) & swap)
    a, b = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
    angles = a[:, 4].tolist(), b[:, 4].tolist()
    ca, sa, cb, sb = (
        np.fromiter(map(f, t), np.float64, len(t)) for t in angles for f in (math.cos, math.sin)
    )
    dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    u, v = dx * ca + dy * sa, dy * ca - dx * sa
    c, s = cb * ca + sb * sa, sb * ca - cb * sa
    corners = _corner_points(u, v, b[:, 2] / 2.0, b[:, 3] / 2.0, c, s)
    # flat vertex lists: polygon j's count[j] vertices follow polygon j-1's
    xs, ys = (np.column_stack(column).ravel() for column in zip(*corners))
    count = np.full(len(a), 4)
    p, q = a[:, 2] / 2.0, a[:, 3] / 2.0
    for k, sign, lim in ((0, 1.0, p), (1, 1.0, q), (0, -1.0, -p), (1, -1.0, -q)):
        xs, ys, count = _clip_side_flat(xs, ys, count, k, sign, lim)
    # shoelace, each polygon's terms summed in _shoelace's order
    first = np.cumsum(count) - count
    nonempty = count > 0
    succ = np.arange(1, len(xs) + 1)
    succ[(first + count - 1)[nonempty]] = first[nonempty]
    terms = xs * ys[succ] - xs[succ] * ys
    acc = np.zeros(len(a))
    for r in range(count.max(initial=0)):
        more = np.flatnonzero(r < count)
        acc[more] += terms[first[more] + r]
    area_a, area_b = a[:, 2] * a[:, 3], b[:, 2] * b[:, 3]
    inter = np.where(count >= 3, np.minimum(np.minimum(np.abs(0.5 * acc), area_a), area_b), 0.0)
    return np.minimum(inter / (area_a + area_b - inter), 1.0)


def _clip_side_flat(xs, ys, count, k, sign, lim):
    """_clip_side on every polygon at once.

    Polygon j, ``count[j]`` vertices of the flat ``xs`` and ``ys`` after
    those of polygons 0..j-1, keeps its part where
    ``sign * (lim[j] - coordinate k) >= 0``. Returns the clipped polygons in
    the same layout.
    """
    owner = np.repeat(np.arange(len(count)), count)
    first = np.cumsum(count) - count
    d = sign * (lim[owner] - (ys if k else xs))
    # each vertex's predecessor: the vertex before it, or its polygon's last
    prev = np.arange(-1, len(xs) - 1)
    nonempty = count > 0
    prev[first[nonempty]] = (first + count - 1)[nonempty]
    px, py, d_prev = xs[prev], ys[prev], d[prev]
    inside = d >= 0.0
    cross = inside != (d_prev >= 0.0)
    t = d_prev / (d_prev - d)
    # a vertex emits the crossing of the side into it, then itself, as each applies
    emit = np.column_stack([cross, inside]).ravel()
    new_xs = np.column_stack([px + t * (xs - px), xs]).ravel()[emit]
    new_ys = np.column_stack([py + t * (ys - py), ys]).ravel()[emit]
    j = len(count)
    new_count = np.bincount(owner[cross], minlength=j) + np.bincount(owner[inside], minlength=j)
    return new_xs, new_ys, new_count


def _box_array(boxes) -> np.ndarray:
    """(N, 5) float64 array of the boxes' (cx, cy, w, h, theta) fields."""
    rows = [(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes]
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


def _checked_box_array(boxes, name: str) -> np.ndarray:
    """``boxes`` as an (N, 5) float64 array of canonical RotatedBox fields.

    An input with no rows (``[]`` included) is a (0, 5) array. Each row must
    be valid RotatedBox fields; rows with theta outside [-pi/4, pi/4) are
    folded as RotatedBox folds them, in a copy.
    """
    arr = np.asarray(boxes)
    if arr.shape[:1] == (0,):
        return np.zeros((0, 5))
    if arr.dtype.kind not in "biuf" or arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"{name} must be an (N, 5) real array, got {arr.dtype} {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    sides = arr[:, 2:4]
    if not (np.isfinite(arr).all() and ((sides >= MIN_SIDE) & (sides <= MAX_SIDE)).all()):
        raise ValueError(
            f"{name} holds a non-finite field or a side outside [{MIN_SIDE:g}, {MAX_SIDE:g}]"
        )
    theta = arr[:, 4]
    unfolded = np.flatnonzero((theta < -_QUARTER_PI) | (theta >= _QUARTER_PI))
    if unfolded.size:
        arr = arr.copy()
        for i in unfolded.tolist():
            arr[i, 2:] = _fold_angle(*arr[i, 2:].tolist())
    return arr


def rotated_iou_matrix(a, b) -> np.ndarray:
    """(N, M) matrix of ``rotated_iou`` between the rows of two box arrays.

    ``a`` and ``b`` are (N, 5) and (M, 5) arrays of (cx, cy, w, h, theta),
    each row valid as RotatedBox fields. rotated_iou's circumcircle test,
    vectorised bit for bit, zeroes the disjoint pairs; the other pairs go,
    canonical rows and all, through one call of the batched kernel
    ``_iou_pairs``, so each entry has exactly the bits of ``rotated_iou`` on
    the rows' boxes.
    """
    return _iou_matrix(_checked_box_array(a, "a"), _checked_box_array(b, "b"))


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rotated_iou_matrix of checked, canonical arrays."""
    rows, cols = np.nonzero(_near(a[:, None], b[None]))
    out = np.zeros((len(a), len(b)))
    out[rows, cols] = _iou_pairs(a[rows], b[cols])
    return out


def rotated_nms(boxes: list[ScoredBox], iou_threshold: float) -> list[ScoredBox]:
    """Greedy suppression by descending score; ties broken by input order.

    A candidate is dropped iff its IoU with an already-kept box exceeds
    ``iou_threshold``, a real number in [0, 1]. The result is ordered by
    descending score.

    Each box is prepared once, and a candidate is clipped only against the
    kept boxes that can decide it. A pair that fails rotated_iou's
    circumcircle test has IoU 0.0, which never exceeds the threshold. Nor
    does a pair whose areas A and B satisfy
    ``min(A, B) <= (iou_threshold - _BOUND_MARGIN) * max(A, B)``: as _overlap
    caps the intersection at min(A, B), its clip is at most
    ``(iou_threshold - 1e-9)(1 + 6 * 2**-53)``, the extra ulp for the
    rounding of the cap's product. The candidate is dropped if any kept
    box exceeds the threshold, so the order in which they are tried cannot
    change the result: the nearest centre, the likeliest suppressor, goes
    first, then the rest in kept order, until one exceeds. Each clip is the
    same ``_overlap`` call on the same prepared boxes, bit for bit.
    """
    _check_unit_threshold(iou_threshold, "iou_threshold")
    order = sorted(range(len(boxes)), key=lambda i: -boxes[i].score)
    # float64 whatever the threshold's type (a float16 cap times an area can
    # overflow); areas are > 0, so a cap <= 0 skips nothing
    cap = float(iou_threshold) - _BOUND_MARGIN
    kept: list[ScoredBox] = []
    kept_rows: list[tuple] = []  # (cx, cy, diagonal, area, prepared box) per kept box
    for i in order:
        cand = boxes[i]
        b = cand.box
        a = _prepare(b.cx, b.cy, b.w, b.h, b.theta)
        ax, ay, diag = a[0], a[1], a[5]
        area = b.w * b.h
        near = []
        nearest = None
        nearest_d2 = math.inf
        for kx, ky, kdiag, karea, k in kept_rows:
            dx, dy = kx - ax, ky - ay
            reach = 0.5 * (diag + kdiag)
            d2 = dx * dx + dy * dy
            if d2 > reach * reach:
                continue
            if (karea <= cap * area) if karea <= area else (area <= cap * karea):
                continue
            near.append(k)
            if d2 < nearest_d2:
                nearest, nearest_d2 = k, d2
        if near and (
            _overlap(a, nearest) > iou_threshold
            or any(_overlap(a, k) > iou_threshold for k in near if k is not nearest)
        ):
            continue
        kept.append(cand)
        kept_rows.append((ax, ay, diag, area, a))
    return kept
