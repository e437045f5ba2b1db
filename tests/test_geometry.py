import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpcore import geometry
from lpcore.cli import iou_box_pairs
from lpcore.errors import DegenerateQuadError
from lpcore.geometry import (
    MAX_SIDE,
    MIN_SIDE,
    Quad,
    RotatedBox,
    ScoredBox,
    _BOUND_ASPECT,
    _BOUND_MARGIN,
    _PAIR_CHUNK,
    _SCALAR_PAIRS,
    _checked_box_array,
    _frame_overlap,
    _iou,
    _iou_bounds,
    _iou_exceeds,
    _iou_pairs,
    _near,
    _overlap,
    _prepare,
    quad_to_rbox,
    rbox_to_quad,
    rotated_iou,
    rotated_iou_matrix,
    rotated_nms,
)
from lpcore.oracles import exact_iou, min_area_rect_sweep

QUARTER_PI = math.pi / 4


def rboxes(max_center=50.0, min_side=0.5, max_side=20.0):
    finite = dict(allow_nan=False, allow_infinity=False)
    return st.builds(
        RotatedBox,
        cx=st.floats(-max_center, max_center, **finite),
        cy=st.floats(-max_center, max_center, **finite),
        w=st.floats(min_side, max_side, **finite),
        h=st.floats(min_side, max_side, **finite),
        theta=st.floats(-QUARTER_PI, QUARTER_PI - 1e-9, **finite),
    )


def dyadic_rboxes():
    """Boxes on a 2^-16 grid (theta on a 2^-20 fraction of pi/4): every field
    is 0 or far from the subnormals, so scaling by 2^k is exact."""
    grid = st.integers(-(2**20), 2**20).map(lambda i: i * 2.0**-16)
    side = st.integers(2**15, 2**20).map(lambda i: i * 2.0**-16)
    turn = st.integers(-(2**20), 2**20 - 1).map(lambda i: i * 2.0**-20 * QUARTER_PI)
    return st.builds(RotatedBox, cx=grid, cy=grid, w=side, h=side, theta=turn)


def scaled(box, f):
    return RotatedBox(box.cx * f, box.cy * f, box.w * f, box.h * f, box.theta)


def random_box(rng, span=5.0):
    return RotatedBox(
        rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(1.0, 8.0),
        rng.uniform(1.0, 8.0),
        rng.uniform(-QUARTER_PI, QUARTER_PI),
    )


class TestRotatedBox:
    def test_rejects_nonpositive_sides(self):
        with pytest.raises(ValueError):
            RotatedBox(0, 0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            RotatedBox(0, 0, 1.0, -2.0, 0.0)

    @pytest.mark.parametrize("side", [1e200, 1e154, MAX_SIDE * 1.0000001, 1e-200, 1e-151])
    def test_rejects_sides_outside_range(self, side):
        with pytest.raises(ValueError, match="sides must be in"):
            RotatedBox(0, 0, side, 1.0, 0.0)
        with pytest.raises(ValueError, match="sides must be in"):
            RotatedBox(0, 0, 1.0, side, 0.7)

    @pytest.mark.parametrize("scale", [MIN_SIDE, MAX_SIDE])
    @pytest.mark.parametrize("theta", [0.0, 0.3, -0.7])
    def test_iou_exact_at_range_ends(self, scale, theta):
        # centres scaled with the box, so only the scale of the sides is tested
        b = RotatedBox(3 * scale, -2 * scale, scale, scale * (2.0 if scale < 1 else 0.5), theta)
        assert rotated_iou(b, b) == pytest.approx(1.0, abs=1e-12)
        c, s = math.cos(b.theta), math.sin(b.theta)
        shifted = RotatedBox(b.cx + 0.25 * b.w * c, b.cy + 0.25 * b.w * s, b.w, b.h, b.theta)
        assert rotated_iou(b, shifted) == pytest.approx(0.6, abs=1e-12)

    def test_rejects_non_finite(self):
        non_finite = (math.nan, math.inf, -math.inf, np.float32("nan"), np.float64("inf"), 10**400)
        for bad in non_finite + ("1", None):
            with pytest.raises(ValueError):
                RotatedBox(bad, 0, 1, 1, 0)
            with pytest.raises(ValueError):
                RotatedBox(0, 0, 1, 1, bad)
            with pytest.raises(ValueError):
                ScoredBox(RotatedBox(0, 0, 1, 1, 0), bad)

    def test_numpy_scalars_stored_as_python_floats(self):
        b = RotatedBox(np.float32(3.0), np.int64(-2), np.float64(4.5), 2, np.float32(0.25))
        assert all(type(v) is float for v in (b.cx, b.cy, b.w, b.h, b.theta))
        assert (b.cx, b.cy, b.w, b.h, b.theta) == (3.0, -2.0, 4.5, 2.0, float(np.float32(0.25)))
        s = ScoredBox(b, np.float32(0.5))
        assert type(s.score) is float and s.score == 0.5

    def test_angle_folding_swaps_sides(self):
        b = RotatedBox(1.0, 2.0, 4.0, 2.0, math.pi / 2)
        assert (b.w, b.h) == (2.0, 4.0)
        assert b.theta == pytest.approx(0.0, abs=1e-15)
        # full turn plus a small tilt comes back to the small tilt
        b2 = RotatedBox(0, 0, 3.0, 1.0, math.pi + 0.1)
        assert b2.theta == pytest.approx(0.1, abs=1e-12)
        assert (b2.w, b2.h) == (3.0, 1.0)

    def test_in_range_angle_untouched(self):
        b = RotatedBox(0, 0, 3.0, 1.0, 0.123456789)
        assert b.theta == 0.123456789


class TestQuad:
    def test_zero_area_rejected(self):
        with pytest.raises(DegenerateQuadError):
            Quad(((0, 0), (1, 0), (0, 0), (1, 0)))

    def test_bowtie_rejected(self):
        with pytest.raises(DegenerateQuadError):
            Quad(((0, 0), (1, 0), (0, 1), (1, 1)))

    def test_valid_quad_area(self):
        q = Quad(((0, 0), (4, 0), (4, 2), (0, 2)))
        assert q.area == pytest.approx(8.0)


class TestQuadToRbox:
    def test_axis_aligned_rectangle(self):
        b = quad_to_rbox(Quad(((0, 0), (4, 0), (4, 2), (0, 2))))
        assert (b.cx, b.cy) == pytest.approx((2.0, 1.0))
        assert (b.w, b.h) == pytest.approx((4.0, 2.0))
        assert b.theta == pytest.approx(0.0, abs=1e-12)

    def test_rotated_square(self):
        # the minimum-area rectangle around a square's corners is the square
        ang = math.pi / 6
        c, s = math.cos(ang), math.sin(ang)
        corners = tuple((c * x - s * y, s * x + c * y) for x, y in ((-1, -1), (1, -1), (1, 1), (-1, 1)))
        b = quad_to_rbox(Quad(corners))
        assert (b.cx, b.cy) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert (b.w, b.h) == pytest.approx((2.0, 2.0), abs=1e-12)
        assert b.theta == pytest.approx(ang, abs=1e-12)

    def test_tiny_area_rejected(self):
        with pytest.raises(DegenerateQuadError):
            quad_to_rbox(Quad(((0, 0), (1e-4, 0), (1e-4, 1e-4), (0, 1e-4))))

    @pytest.mark.parametrize(
        "vertices",
        [
            ((0, 0), (1e200, 0), (1e200, 1), (0, 1)),
            ((0, 0), (1e146, 0), (1e146, 1e-151), (0, 1e-151)),
        ],
    )
    def test_side_outside_box_range_is_degenerate(self, vertices):
        with pytest.raises(DegenerateQuadError, match="not a valid box"):
            quad_to_rbox(Quad(vertices))

    def test_concave_quad_encloses_all_vertices(self):
        q = Quad(((0, 0), (4, 0), (1, 1), (0, 4)))
        b = quad_to_rbox(q)
        c, s = math.cos(b.theta), math.sin(b.theta)
        for x, y in q.vertices:
            dx, dy = x - b.cx, y - b.cy
            u = dx * c + dy * s
            v = dy * c - dx * s
            assert abs(u) <= b.w / 2 + 1e-9
            assert abs(v) <= b.h / 2 + 1e-9


def seeded_quads(n, seed):
    """n convex and n concave simple quads, alternating: vertices near evenly
    spaced angles on a circle (three of them and a point inside their
    triangle for a concave one), stretched up to 3:1, turned, scaled and
    moved; quads quad_to_rbox rejects are drawn again."""
    rng = np.random.default_rng(seed)
    quads = []
    while len(quads) < 2 * n:
        k = 3 if len(quads) % 2 else 4
        spaced = np.arange(k) + rng.uniform(-0.3, 0.3, k)
        ang = rng.uniform(0, 2 * math.pi) + 2 * math.pi / k * spaced
        pts = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.7, 1.0, (k, 1))
        if k == 3:
            pts = np.vstack([pts, rng.dirichlet(np.ones(3)) @ pts])
        pts[:, 0] *= rng.uniform(1.0, 3.0)
        t = rng.uniform(-math.pi, math.pi)
        turn = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        pts = pts @ turn.T * rng.uniform(1.0, 50.0) + rng.uniform(-100.0, 100.0, 2)
        try:
            quad = Quad(tuple(map(tuple, pts)))
            quad_to_rbox(quad)
        except DegenerateQuadError:
            continue
        quads.append(quad)
    return quads


class TestQuadToRboxAgainstSweep:
    ANGLES = 20_000
    # the swept area exceeds the minimum by at most about (w/h + h/w) times
    # half the angle step (pi / 80000) relatively, under 2.5e-4 up to 6:1
    BOUND = 2.5e-4

    def test_minimum_area_and_enclosure_on_seeded_quads(self):
        convex = 0
        for quad in seeded_quads(40, seed=7):
            b = quad_to_rbox(quad)
            assert max(b.w / b.h, b.h / b.w) <= 6.0  # where BOUND holds
            sweep = min_area_rect_sweep(quad, self.ANGLES)
            assert sweep * (1 - self.BOUND) <= b.area <= sweep, quad
            c, s = math.cos(b.theta), math.sin(b.theta)
            slack = 1e-9 * max(b.w, b.h)
            for x, y in quad.vertices:
                dx, dy = x - b.cx, y - b.cy
                assert abs(dx * c + dy * s) <= b.w / 2 + slack, quad
                assert abs(dy * c - dx * s) <= b.h / 2 + slack, quad
            convex += _convex(quad.vertices)
        assert convex == 40

    def test_sweep_of_a_turned_rectangle(self):
        # a 4 x 2 rectangle: exact where an angle meets its own, above elsewhere
        square_on = ((-2, -1), (2, -1), (2, 1), (-2, 1))
        assert min_area_rect_sweep(Quad(square_on), 4) == 8.0
        c, s = math.cos(0.3), math.sin(0.3)
        turned = Quad(tuple((c * x - s * y, s * x + c * y) for x, y in square_on))
        assert min_area_rect_sweep(turned, 4) > 8.0 * 1.1
        assert 8.0 <= min_area_rect_sweep(turned, self.ANGLES) <= 8.0 * (1 + self.BOUND)

    @pytest.mark.parametrize("angles", [0, -1, 2.5, True])
    def test_rejects_non_positive_int_angles(self, angles):
        with pytest.raises(ValueError, match=f"angles must be a positive int, got {angles!r}"):
            min_area_rect_sweep(Quad(((0, 0), (1, 0), (1, 1), (0, 1))), angles)


def _convex(vertices):
    crosses = [
        (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        for (ax, ay), (bx, by), (cx, cy) in zip(vertices, vertices[1:] + vertices[:1],
                                                vertices[2:] + vertices[:2])
    ]
    return all(c > 0 for c in crosses) or all(c < 0 for c in crosses)


class TestRboxToQuad:
    def test_axis_aligned_corners(self):
        got = rbox_to_quad(RotatedBox(2, 1, 4, 2, 0)).vertices
        want = {(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)}
        assert {(round(x, 12), round(y, 12)) for x, y in got} == want

    def test_diagonal_square_corners(self):
        got = rbox_to_quad(RotatedBox(0, 0, 2, 2, math.pi / 4)).vertices
        r = math.sqrt(2.0)
        want = [(-r, 0.0), (0.0, -r), (r, 0.0), (0.0, r)]
        for wx, wy in want:
            assert any(math.hypot(gx - wx, gy - wy) < 1e-12 for gx, gy in got)

    @settings(max_examples=200)
    @given(rboxes())
    def test_roundtrip_identity(self, b):
        back = quad_to_rbox(rbox_to_quad(b))
        assert abs(back.cx - b.cx) < 1e-9
        assert abs(back.cy - b.cy) < 1e-9
        assert abs(back.w - b.w) < 1e-9
        assert abs(back.h - b.h) < 1e-9
        assert abs(back.theta - b.theta) < 1e-9

    def test_roundtrip_at_lower_angle_bound(self):
        rng = np.random.default_rng(3)
        sides = [(13.628252472628654, 17.625)] + [tuple(rng.uniform(0.5, 20.0, size=2)) for _ in range(200)]
        for w, h in sides:
            b = RotatedBox(0.0, 0.0, float(w), float(h), -QUARTER_PI)
            back = quad_to_rbox(rbox_to_quad(b))
            assert abs(back.theta + QUARTER_PI) < 1e-9
            assert abs(back.w - b.w) < 1e-9 and abs(back.h - b.h) < 1e-9

    @pytest.mark.parametrize(
        "b",
        [
            RotatedBox(1e6, 0, 1e-12, 1e-12, 0),  # corners round to the centre
            RotatedBox(71299.45, 32725.96, 8e-10, 2.7e-10, -0.7757),  # area lost to rounding
        ],
    )
    def test_tiny_box_far_out_is_degenerate_quad(self, b):
        with pytest.raises(DegenerateQuadError, match="quad has zero area"):
            rbox_to_quad(b)
        assert rbox_to_quad(RotatedBox(0, 0, b.w, b.h, b.theta)).area > 0


class TestRotatedIou:
    def test_identical_boxes(self):
        b = RotatedBox(3, 4, 5, 2, 0.3)
        assert rotated_iou(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap_squares(self):
        a = RotatedBox(0.5, 0.5, 1, 1, 0)
        b = RotatedBox(1.0, 0.5, 1, 1, 0)
        assert rotated_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_square_vs_diamond(self):
        a = RotatedBox(0, 0, 1, 1, 0)
        b = RotatedBox(0, 0, 1, 1, math.pi / 4)
        assert rotated_iou(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert rotated_iou(a, b) == pytest.approx(0.70711, abs=1e-5)

    def test_disjoint_and_touching(self):
        a = RotatedBox(0, 0, 1, 1, 0)
        assert rotated_iou(a, RotatedBox(5, 5, 1, 1, 0)) == 0.0
        # shared edge has measure zero
        assert rotated_iou(a, RotatedBox(1.0, 0.0, 1, 1, 0)) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(rboxes(), rboxes())
    def test_symmetry_exact(self, a, b):
        assert rotated_iou(a, b) == rotated_iou(b, a)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            base = rotated_iou(a, b)
            ang = rng.uniform(-math.pi, math.pi)
            tx, ty = rng.uniform(-20, 20, size=2)
            c, s = math.cos(ang), math.sin(ang)

            def moved(box):
                return RotatedBox(
                    c * box.cx - s * box.cy + tx,
                    s * box.cx + c * box.cy + ty,
                    box.w,
                    box.h,
                    box.theta + ang,
                )

            assert abs(rotated_iou(moved(a), moved(b)) - base) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(rboxes(max_center=10.0), rboxes(max_center=10.0), st.floats(-math.pi, math.pi))
    def test_rotation_about_origin_invariance(self, a, b, ang):
        c, s = math.cos(ang), math.sin(ang)

        def turned(box):
            x, y = box.cx, box.cy
            return RotatedBox(c * x - s * y, s * x + c * y, box.w, box.h, box.theta + ang)

        assert abs(rotated_iou(turned(a), turned(b)) - rotated_iou(a, b)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(dyadic_rboxes(), dyadic_rboxes(), st.integers(-300, 300))
    def test_power_of_two_scaling_exact(self, a, b, k):
        assert rotated_iou(scaled(a, 2.0**k), scaled(b, 2.0**k)) == rotated_iou(a, b)

    @settings(max_examples=300, deadline=None)
    @given(dyadic_rboxes(), dyadic_rboxes(), st.floats(-149.0, 148.0))
    def test_scaling_invariance_within_box_range(self, a, b, exponent):
        # sides lie in [0.5, 16], so 10^exponent keeps them in [MIN_SIDE, MAX_SIDE]
        f = 10.0**exponent
        assert abs(rotated_iou(scaled(a, f), scaled(b, f)) - rotated_iou(a, b)) <= 1e-12

    def test_boundary_value_is_exact(self):
        # all quantities dyadic: intersection 0.75, union 1.25, quotient 0.6
        v = rotated_iou(RotatedBox(0, 0, 1, 1, 0), RotatedBox(0.25, 0, 1, 1, 0))
        assert v == 0.6


def wide_range_pairs(n, seed, reach=(-4.0, 4.0)):
    """Boxes of sizes 1e-3..1e3 with any angle and centres up to 1e6; the
    second box is offset by `reach` times the first box's scale."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        cx, cy = rng.uniform(-1e6, 1e6, size=2)

        def box(x, y):
            w, h = scale * rng.uniform(0.1, 10.0, size=2)
            return RotatedBox(float(x), float(y), float(w), float(h), rng.uniform(-4.0, 4.0))

        a = box(cx, cy)
        dx, dy = scale * rng.uniform(*reach, size=2)
        pairs.append((a, box(cx + dx, cy + dy)))
    return pairs


def circumcircles_disjoint(a, b):
    reach = 0.5 * (math.hypot(a.w, a.h) + math.hypot(b.w, b.h))
    return math.hypot(b.cx - a.cx, b.cy - a.cy) > reach


@functools.cache
def exact_pairs():
    """Seeded (a, b) row pairs, each pair's exact IoU rounded to a float and
    its aspect: the larger long-to-short side ratio of its two boxes.

    400 iou_box_pairs (sides 1-8), 150 wide_range_pairs (sizes 1e-3..1e3,
    centres out to 1e6), and 150 each of plate pairs turned by up to 0.1
    with centres out to 1e6, thin pairs (aspect up to _BOUND_ASPECT) near
    parallel or turned by up to 0.7, and pairs nested at one angle or
    turned by up to 0.02: 1000 calls of exact_iou in all.
    """
    rng = np.random.default_rng(97)
    pairs = iou_box_pairs(400) + wide_range_pairs(150, seed=41)
    a, b = box_rows(p for p, _ in pairs), box_rows(q for _, q in pairs)
    n = 150
    plates_a, plates_b = plate_pairs(rng, n, 0.1)
    far = np.pad(rng.uniform(-1e6, 1e6, (n, 2)), ((0, 0), (0, 3)))  # the centres only
    plates_a, plates_b = plates_a + far, plates_b + far

    def moved(rows, along):
        """rows with each centre moved by `along` in its own box's axes"""
        c, s, (u, v) = np.cos(rows[:, 4]), np.sin(rows[:, 4]), along.T
        return np.column_stack([rows[:, 0] + u * c - v * s, rows[:, 1] + u * s + v * c, rows[:, 2:]])

    w, aspect = 10.0 ** rng.uniform(0.0, 2.0, n), 10.0 ** rng.uniform(0.0, 3.0, n)
    thin_a = np.column_stack([rng.uniform(-50, 50, (n, 2)), w, w / aspect, rng.uniform(-1, 1, n)])
    thin_b = moved(thin_a, rng.uniform(-0.3, 0.3, (n, 2)) * thin_a[:, 2:4])
    thin_b[:, 2:4] *= rng.uniform(0.5, 1.0, (n, 1))
    thin_b[:, 4] += np.where(rng.random(n) < 0.5, 1e-3, 0.7) * rng.uniform(-1, 1, n)
    w = rng.uniform(1.0, 100.0, n)
    nest_a = np.column_stack([rng.uniform(-1e3, 1e3, (n, 2)), w, w / rng.uniform(1, 5, n),
                              rng.uniform(-QUARTER_PI, QUARTER_PI, n)])
    shrink = rng.uniform(0.01, 1.0, (n, 2))
    nest_b = moved(nest_a, (1 - shrink) / 2 * nest_a[:, 2:4] * rng.uniform(-1, 1, (n, 2)))
    nest_b[:, 2:4] *= shrink
    nest_b[:, 4] += np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-0.02, 0.02, n))
    a = _checked_box_array(np.concatenate([a, plates_a, thin_a, nest_a]), "a")
    b = _checked_box_array(np.concatenate([b, plates_b, thin_b, nest_b]), "b")
    want = np.array([float(exact_iou(RotatedBox(*x), RotatedBox(*y)))
                     for x, y in zip(a.tolist(), b.tolist())])
    aspect = np.maximum(*(r[:, 2:4].max(1) / r[:, 2:4].min(1) for r in (a, b)))
    for shared in (a, b, want, aspect):  # every test gets these same arrays
        shared.flags.writeable = False
    return a, b, want, aspect


# every kernel stays within EXACT_C * aspect * 2^-52 of the exact IoU; the
# widest seen on exact_pairs is 0.91 of that unit
EXACT_C = 4.0


def assert_near_exact(got):
    _, _, want, aspect = exact_pairs()
    err = np.abs(np.asarray(got) - want) / (aspect * 2.0**-52)
    assert err.max() <= EXACT_C, (int(err.argmax()), err.max())


class TestAgainstExactIou:
    def test_rotated_iou(self):
        a, b, want, _ = exact_pairs()
        assert 800 < np.count_nonzero(want) < len(want)
        assert_near_exact([rotated_iou(RotatedBox(*x), RotatedBox(*y))
                           for x, y in zip(a.tolist(), b.tolist())])

    def test_iou_pairs_either_side_of_the_cut(self):
        a, b, _, _ = exact_pairs()
        assert_near_exact(_iou_pairs(a, b))  # the batched kernel
        assert_near_exact(_iou_pairs(b, a))
        k = _SCALAR_PAIRS - 1  # the scalar loop
        assert_near_exact(np.concatenate([_iou_pairs(a[i : i + k], b[i : i + k])
                                          for i in range(0, len(a), k)]))

    def test_matrix(self):
        a, b, _, _ = exact_pairs()
        blocks = [rotated_iou_matrix(a[i : i + 50], b[i : i + 50]) for i in range(0, len(a), 50)]
        assert_near_exact(np.concatenate([np.diag(m) for m in blocks]))

    def test_bounds_bracket_the_exact_iou_and_meet_at_equal_angles(self):
        # _iou_exceeds decides a pair from these bounds when they clear the
        # threshold by _BOUND_MARGIN, so they must hold that well
        a, b, want, _ = exact_pairs()
        lo, hi = _iou_bounds(a, b)
        guarded = ~np.isnan(lo)
        gap = np.maximum(lo - want, want - hi)[guarded]
        assert gap.max() < 1e-12  # within _BOUND_MARGIN, with a thousandfold headroom
        same = guarded & (a[:, 4] == b[:, 4])
        assert np.count_nonzero(same) > 50 and np.abs(hi - lo)[same].max() < 1e-12
        # and they decide most pairs without clipping
        assert np.count_nonzero((lo > 0.6 + _BOUND_MARGIN) | (hi <= 0.6 - _BOUND_MARGIN)) > 800


class TestRotatedIouFastPath:
    def test_circumcircle_rejects_are_exact_zero(self):
        pairs = iou_box_pairs(2000, seed=5) + wide_range_pairs(4000, seed=43, reach=(-12, 12))
        rejected = [(a, b) for a, b in pairs if circumcircles_disjoint(a, b)]
        assert len(rejected) > 500
        for a, b in rejected:
            assert rotated_iou(a, b) == 0.0
            assert rotated_iou(b, a) == 0.0

    @pytest.mark.parametrize("center", [1e6, 1e8])
    def test_tiny_box_far_from_origin(self, center):
        b = RotatedBox(center, center, 1e-2, 5e-3, 0.3)
        assert rotated_iou(b, b) == pytest.approx(1.0, abs=1e-12)
        half = RotatedBox(center + 5e-3, center, 1e-2, 5e-3, 0.0)
        base = RotatedBox(center, center, 1e-2, 5e-3, 0.0)
        assert rotated_iou(base, half) == pytest.approx(1.0 / 3.0, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        rboxes(min_side=0.5),
        rboxes(min_side=0.5),
        st.floats(-1e7, 1e7, allow_nan=False),
        st.floats(-1e7, 1e7, allow_nan=False),
    )
    def test_symmetric_bounded_translation_invariant(self, a, b, tx, ty):
        v = rotated_iou(a, b)
        assert v == rotated_iou(b, a)
        assert 0.0 <= v <= 1.0

        def moved(r):
            return RotatedBox(r.cx + tx, r.cy + ty, r.w, r.h, r.theta)

        # moving to 1e7 rounds each centre by up to 1e-9
        assert abs(rotated_iou(moved(a), moved(b)) - v) < 1e-6


def box_rows(boxes):
    return np.array([[b.cx, b.cy, b.w, b.h, b.theta] for b in boxes], dtype=float).reshape(-1, 5)


def assert_matrix_is_scalar(rows_a, rows_b):
    """Every entry of rotated_iou_matrix equals rotated_iou of the rows' boxes."""
    got = rotated_iou_matrix(rows_a, rows_b)
    assert got.shape == (len(rows_a), len(rows_b)) and got.dtype == np.float64
    boxes_b = [RotatedBox(*r) for r in rows_b.tolist()]
    for i, ra in enumerate(rows_a.tolist()):
        a = RotatedBox(*ra)
        for j, b in enumerate(boxes_b):
            assert got[i, j] == rotated_iou(a, b), (ra, rows_b[j])  # bits, not approx
    return got


def raw_rows(max_center=60.0):
    """Box rows with any angle, so some need RotatedBox's folding."""
    finite = dict(allow_nan=False, allow_infinity=False)
    row = st.tuples(
        st.floats(-max_center, max_center, **finite),
        st.floats(-max_center, max_center, **finite),
        st.floats(0.5, 40.0, **finite),
        st.floats(0.5, 40.0, **finite),
        st.floats(-4.0, 4.0, **finite),
    )
    return st.lists(row, max_size=8).map(lambda r: np.array(r, dtype=float).reshape(-1, 5))


class TestRotatedIouMatrix:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(rboxes(), max_size=8), st.lists(rboxes(), max_size=8))
    def test_equals_scalar_on_drawn_boxes(self, a, b):
        assert_matrix_is_scalar(box_rows(a), box_rows(b))

    @settings(max_examples=200, deadline=None)
    @given(raw_rows(), raw_rows())
    def test_equals_scalar_on_unfolded_rows(self, a, b):
        assert_matrix_is_scalar(a, b)

    def test_equals_scalar_with_any_angle(self):
        # seeded rows with theta over [-pi, pi], the fold's edges included,
        # close enough that most pairs clip
        rng = np.random.default_rng(29)
        rows = np.column_stack(
            [
                rng.uniform(-4.0, 4.0, 160),
                rng.uniform(-4.0, 4.0, 160),
                rng.uniform(1.0, 8.0, 160),
                rng.uniform(1.0, 8.0, 160),
                rng.uniform(-math.pi, math.pi, 160),
            ]
        )
        edges = [-math.pi, -3 * QUARTER_PI, -2 * QUARTER_PI, -QUARTER_PI, 0.0]
        edges += [QUARTER_PI, 2 * QUARTER_PI, 3 * QUARTER_PI, math.pi]
        rows[: len(edges), 4] = edges
        before = rows.copy()
        got = assert_matrix_is_scalar(rows[:80], rows[80:])
        assert np.count_nonzero(got) > 2000
        np.testing.assert_array_equal(rows, before)  # folded in a copy

    def test_checked_rows_are_the_boxes_fields(self):
        rng = np.random.default_rng(31)
        rows = np.column_stack([rng.uniform(1.0, 8.0, (500, 4)), rng.uniform(-4.0, 4.0, 500)])
        got = _checked_box_array(rows, "rows").tolist()
        want = [[b.cx, b.cy, b.w, b.h, b.theta] for b in map(RotatedBox, *rows.T.tolist())]
        assert got == want

    def test_equals_scalar_on_wide_range_pairs(self):
        pairs = wide_range_pairs(2000, seed=41) + wide_range_pairs(4000, seed=43, reach=(-12, 12))
        nonzero = 0
        for k in range(0, len(pairs), 40):  # 40x40 blocks: the pairs and every cross pair
            block = pairs[k : k + 40]
            rows_a, rows_b = box_rows(a for a, _ in block), box_rows(b for _, b in block)
            got = assert_matrix_is_scalar(rows_a, rows_b)
            nonzero += int(np.count_nonzero(got))
        assert nonzero > 1000

    def test_grid_against_plates(self):
        rng = np.random.default_rng(17)
        ys, xs = np.meshgrid(np.arange(24) * 8.0 + 4.0, np.arange(24) * 8.0 + 4.0, indexing="ij")
        grid = np.zeros((576, 5))
        grid[:, 0], grid[:, 1], grid[:, 2], grid[:, 3] = xs.ravel(), ys.ravel(), 48.0, 16.0
        plates = box_rows(random_box(rng, span=90.0) for _ in range(12)) + [96.0, 96.0, 0, 0, 0]
        plates[:, 2:4] *= 6.0
        got = assert_matrix_is_scalar(grid, plates)
        assert 0 < np.count_nonzero(got) < got.size

    def test_empty_and_disjoint(self):
        one = np.array([[0.0, 0.0, 2.0, 1.0, 0.2]])
        assert rotated_iou_matrix(np.zeros((0, 5)), one).shape == (0, 1)
        assert rotated_iou_matrix(one, np.zeros((0, 5))).shape == (1, 0)
        far = np.array([[1e308, -1e308, 2.0, 1.0, 0.0], [-1e308, 1e308, 2.0, 1.0, 0.0]])
        np.testing.assert_array_equal(rotated_iou_matrix(far, far), np.eye(2))

    @pytest.mark.parametrize("empty", [[], (), np.zeros(0), np.zeros((0, 5), dtype=np.int32)])
    def test_empty_input_reads_as_no_rows(self, empty):
        one = np.array([[0.0, 0.0, 2.0, 1.0, 0.2]])
        for got, shape in (
            (rotated_iou_matrix(empty, one), (0, 1)),
            (rotated_iou_matrix(one, empty), (1, 0)),
            (rotated_iou_matrix(empty, empty), (0, 0)),
        ):
            assert got.shape == shape and got.dtype == np.float64

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((2, 4)),
            np.zeros(5),
            [["0", "0", "1", "1", "0"]],
            [[0.0, 0.0, 1.0, 1.0, math.inf]],
            [[math.nan, 0.0, 1.0, 1.0, 0.0]],
            [[0.0, 0.0, -1.0, 1.0, 0.0]],
            [[0.0, 0.0, 1.0, 1e200, 0.0]],
            [[]],
        ],
    )
    def test_rejects_bad_rows(self, bad):
        good = np.array([[0.0, 0.0, 1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            rotated_iou_matrix(bad, good)
        with pytest.raises(ValueError):
            rotated_iou_matrix(good, bad)


def assert_pairs_are_scalar(a, b):
    """_iou_pairs has, bit for bit, the _iou of every row pair, either way round."""
    for x, y in ((a, b), (b, a)):
        got = _iou_pairs(x, y)
        assert got.shape == (len(x),) and got.dtype == np.float64
        want = np.array(list(map(_iou, *x.T.tolist(), *y.T.tolist())), dtype=np.float64)
        np.testing.assert_array_equal(got.view(np.int64), want.reshape(-1).view(np.int64))
    return got


def seeded_rows(rng, n, span, side=(1.0, 8.0)):
    """n canonical rows with centres in [-span, span]^2 and any angle."""
    rows = np.column_stack(
        [
            rng.uniform(-span, span, (n, 2)),
            rng.uniform(*side, (n, 2)),
            rng.uniform(-math.pi, math.pi, n),
        ]
    )
    return _checked_box_array(rows, "rows")


def edge_case_pairs():
    """Row pairs at the kernel's edges: identical rows, rows equal in a prefix
    of their fields (the canonical swap's ties), theta = -pi/4, far centres,
    extreme sides, nested, touching and disjoint boxes."""
    q = -QUARTER_PI
    base = [3.0, -2.0, 4.0, 1.5, 0.3]
    pairs = [(base, base)]
    for shared in range(5):  # b equals a in its first `shared` fields
        other = [5.0, 1.0, 2.5, 3.5, -0.6]
        pairs.append((base, base[:shared] + other[shared:]))
        pairs.append((base, base[:shared] + [v + 1e-9 for v in base[shared:]]))
    pairs += [
        ([0.0, 0.0, 4.0, 2.0, q], [0.5, 0.3, 3.0, 2.0, q]),
        ([0.0, 0.0, 4.0, 2.0, q], [0.5, 0.3, 3.0, 2.0, 0.0]),
        ([0.0, 0.0, 2.0, 2.0, q], [0.0, 0.0, 2.0, 2.0, 0.0]),
    ]
    for c in (1e7, 1e12):
        pairs += [
            ([c, -c, 3.0, 1.0, 0.2], [c + 0.5, -c, 3.0, 1.2, -0.1]),
            ([c, c, 3.0, 1.0, 0.2], [c, c, 3.0, 1.0, 0.2]),
            ([c, c, 1e-3, 5e-4, q], [c + 1e-4, c, 1e-3, 5e-4, 0.1]),
        ]
    for side in (MIN_SIDE, MAX_SIDE):
        pairs += [
            ([0.0, 0.0, side, side, 0.1], [0.0, 0.0, side, side, 0.1]),
            ([0.0, 0.0, side, side, 0.1], [side / 4, 0.0, side, side, -0.2]),
            ([0.0, 0.0, side, 1.0, 0.0], [0.0, 0.0, side, 1.0, q]),
            ([0.0, 0.0, 1.0, side, 0.0], [0.25, 0.0, 1.0, side, 0.0]),
        ]
    pairs += [
        ([0.0, 0.0, MAX_SIDE, MAX_SIDE, 0.0], [1.0, 1.0, MIN_SIDE, MIN_SIDE, 0.3]),
        ([0.0, 0.0, MAX_SIDE, MIN_SIDE, 0.0], [0.0, 0.0, MIN_SIDE, MAX_SIDE, 0.0]),
        ([0.0, 0.0, 10.0, 6.0, 0.2], [0.5, -0.5, 2.0, 1.0, -0.7]),  # nested
        ([0.0, 0.0, 10.0, 6.0, 0.0], [0.0, 0.0, 10.0, 6.0 - 1e-12, 0.0]),  # nested, near equal
        ([0.0, 0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1.0, 0.0]),  # shared edge
        ([0.0, 0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0, 0.0]),  # shared corner
        ([0.0, 0.0, 1.0, 1.0, 0.0], [0.5 + 0.5 * math.sqrt(2.0), 0.0, 1.0, 1.0, q]),  # vertex on edge
        ([0.0, 0.0, 1.0, 1.0, 0.0], [1.2, 0.0, 1.0, 1.0, 0.0]),  # circumcircles meet, boxes do not
        ([0.0, 0.0, 4.0, 0.5, 0.6], [0.0, 2.0, 4.0, 0.5, 0.6]),  # parallel strips apart
        ([0.0, 0.0, 1.0, 1.0, 0.0], [1e3, 0.0, 1.0, 1.0, 0.0]),  # far apart
        ([-1e308, 0.0, 1.0, 1.0, 0.0], [1e308, 0.0, 1.0, 1.0, 0.0]),  # distance overflows
    ]
    a, b = (_checked_box_array(np.array(side, dtype=float), "rows") for side in zip(*pairs))
    return a, b


def pair_rows(max_center=50.0):
    """(a, b) row arrays of equal length; some b rows copy a prefix of a's
    fields, so the canonical swap meets ties."""

    def build(draw_pairs):
        a, b = [], []
        for ra, rb, shared in draw_pairs:
            ra = [ra.cx, ra.cy, ra.w, ra.h, ra.theta]
            rb = [rb.cx, rb.cy, rb.w, rb.h, rb.theta]
            a.append(ra)
            b.append(ra[:shared] + rb[shared:])
        return (np.array(rows, dtype=float).reshape(-1, 5) for rows in (a, b))

    box = rboxes(max_center=max_center, min_side=0.5, max_side=20.0)
    return st.lists(st.tuples(box, box, st.integers(0, 5)), max_size=40).map(build)


class TestIouPairs:
    def test_equals_scalar_on_seeded_pairs(self):
        # 100k pairs: near pairs of similar boxes, then boxes of any scale
        # from 1e-3 to 1e3 with centres up to 1e6 and offsets up to 4 sizes
        rng = np.random.default_rng(53)
        a = seeded_rows(rng, 60_000, 4.0)
        b = seeded_rows(rng, 60_000, 4.0)
        scale = 10.0 ** rng.uniform(-2.0, 2.0, (40_000, 1))
        far_a = seeded_rows(rng, 40_000, 1.0, side=(0.1, 10.0))
        far_b = seeded_rows(rng, 40_000, 4.0, side=(0.1, 10.0))
        far_a[:, :4] *= scale
        far_b[:, :4] *= scale
        far_a[:, :2] += rng.uniform(-1e6, 1e6, (40_000, 2))
        far_b[:, :2] += far_a[:, :2]
        a, b = np.concatenate([a, far_a]), np.concatenate([b, far_b])
        got = assert_pairs_are_scalar(a, b)
        assert 50_000 < np.count_nonzero(got) < 90_000

    def test_equals_scalar_on_wide_scale_pairs(self):
        # sides across [MIN_SIDE, MAX_SIDE]; every 8th pair is a duplicate
        pairs = wide_scale_pairs(10_000, seed=61)
        got = assert_pairs_are_scalar(*(box_rows(p[k] for p in pairs) for k in (0, 1)))
        assert 2_000 < np.count_nonzero(got) < 9_000  # both the clip and the early-out
        assert got[::8].min() > 1.0 - 1e-13

    def test_equals_scalar_on_edge_cases(self):
        a, b = edge_case_pairs()
        got = assert_pairs_are_scalar(a, b)
        assert got[0] == 1.0 and np.count_nonzero(got == 0.0) >= 6

    @settings(max_examples=300, deadline=None)
    @given(pair_rows())
    def test_equals_scalar_on_drawn_pairs(self, rows):
        assert_pairs_are_scalar(*rows)

    @settings(max_examples=100, deadline=None)
    @given(
        pair_rows(max_center=4.0),
        st.sampled_from([1e7, 1e12]),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_equals_scalar_far_from_origin(self, rows, center, sign):
        a, b = rows
        a[:, :2] += center * sign
        b[:, :2] += center * sign
        assert_pairs_are_scalar(a, b)

    @pytest.mark.parametrize("k", [0, 1, _PAIR_CHUNK - 1, _PAIR_CHUNK, _PAIR_CHUNK + 1])
    def test_chunk_boundaries(self, k):
        # every pair overlaps, so all k of them are clipped
        rng = np.random.default_rng(k)
        a = seeded_rows(rng, k, 1.0, side=(4.0, 8.0))
        b = seeded_rows(rng, k, 1.0, side=(4.0, 8.0))
        got = assert_pairs_are_scalar(a, b)
        assert np.count_nonzero(got) == k

    def test_disjoint_rows_between_clipped_chunks(self):
        # clipped pairs and early-out pairs interleaved across two chunks
        rng = np.random.default_rng(59)
        a = seeded_rows(rng, 2 * _PAIR_CHUNK + 7, 1.0, side=(4.0, 8.0))
        b = seeded_rows(rng, 2 * _PAIR_CHUNK + 7, 1.0, side=(4.0, 8.0))
        b[::3, 0] += 100.0
        got = assert_pairs_are_scalar(a, b)
        assert np.count_nonzero(got) == len(a) - len(a[::3])


class TestIouPairsDispatch:
    @pytest.mark.parametrize("k", [_SCALAR_PAIRS - 1, _SCALAR_PAIRS, _SCALAR_PAIRS + 1])
    def test_either_side_of_the_cut_is_rotated_iou(self, monkeypatch, k):
        rng = np.random.default_rng(83 + k)
        a = seeded_rows(rng, k, 2.0)
        b = seeded_rows(rng, k, 2.0)
        b[::4, 0] += 50.0  # early-out pairs among the clipped ones
        batched = []
        clip_iou = geometry._clip_iou

        def spy(x, y):
            batched.append(len(x))
            return clip_iou(x, y)

        monkeypatch.setattr(geometry, "_clip_iou", spy)
        got = _iou_pairs(a, b)
        rows = zip(a.tolist(), b.tolist())
        want = [rotated_iou(RotatedBox(*x), RotatedBox(*y)) for x, y in rows]
        assert got.shape == (k,) and got.dtype == np.float64
        np.testing.assert_array_equal(bits(got), bits(want))
        assert 0 < np.count_nonzero(got) < k
        assert bool(batched) == (k >= _SCALAR_PAIRS)

    def test_batched_kernel_on_edge_cases_below_the_cut(self, monkeypatch):
        monkeypatch.setattr(geometry, "_SCALAR_PAIRS", 0)
        a, b = edge_case_pairs()
        assert len(a) < _SCALAR_PAIRS
        for k in (0, 1, 2, len(a)):
            assert_pairs_are_scalar(a[:k], b[:k])

    @settings(max_examples=100, deadline=None)
    @given(pair_rows())
    def test_batched_kernel_on_drawn_pairs_below_the_cut(self, rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_SCALAR_PAIRS", 0)
            assert_pairs_are_scalar(*rows)


def decision_pairs():
    """(a, b) canonical rows over the accepted side range with centres out to
    1e6: b is a's box turned by 0, a tiny angle, an angle near +-pi/4 or
    +-pi/2 or any angle, resized by up to 10x a side and moved by up to a's
    sides; aspect ratios reach 1e15, far past the bounds' guard."""
    finite = dict(allow_nan=False, allow_infinity=False)
    near = [st.floats(t - 1e-3, t + 1e-3, **finite) for t in (-2, -1, 1, 2)]
    turn = st.one_of(
        st.sampled_from([0.0, 1e-15, -1e-9]),
        *(x.map(lambda k: k * QUARTER_PI) for x in near),
        st.floats(-2 * QUARTER_PI, 2 * QUARTER_PI, **finite),
    )
    unit = st.floats(-1.0, 1.0, **finite)
    pair = st.tuples(
        st.floats(-1e6, 1e6, **finite),  # a's centre
        st.floats(-1e6, 1e6, **finite),
        st.floats(-130.0, 130.0, **finite),  # log10 of a's width
        st.floats(-15.0, 15.0, **finite),  # log10 of a's h / w
        st.floats(-QUARTER_PI, QUARTER_PI, **finite),
        turn,
        unit, unit,  # log10 of b's side factors
        unit, unit,  # b's offset in a's sides
    )

    def build(pairs):
        rows_a, rows_b = [], []
        for cx, cy, log_w, log_aspect, theta, turn, fw, fh, ox, oy in pairs:
            w = 10.0**log_w
            h = w * 10.0**log_aspect
            rows_a.append([cx, cy, w, h, theta])
            rows_b.append([cx + ox * w, cy + oy * h, w * 10.0**fw, h * 10.0**fh, theta + turn])
        return (_checked_box_array(np.array(rows), "rows") for rows in (rows_a, rows_b))

    return st.lists(pair, min_size=1, max_size=4).map(build)


def assert_exceeds_is_clipping(a, b, thresholds=()):
    """_iou_exceeds(a, b, t) == (_iou_pairs(a, b) > t), either way round, at
    0, 1, the given thresholds, and each pair's clipped IoU moved by 0, one
    ulp and half, one and two margins either way."""
    clip = _iou_pairs(a, b)
    ts = {0.0, 1.0, *thresholds}
    for v in clip.tolist():
        ts |= {math.nextafter(v, -math.inf), math.nextafter(v, math.inf)}
        for d in (0.0, _BOUND_MARGIN / 2, _BOUND_MARGIN, 2 * _BOUND_MARGIN):
            ts |= {v - d, v + d}
    for t in ts:
        for x, y in ((a, b), (b, a)):
            got = _iou_exceeds(x, y, t)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, clip > t)


def plate_pairs(rng, n, jitter):
    """n plates and shifted, resized copies of them turned by up to jitter."""
    w = rng.uniform(80.0, 160.0, n)
    a = np.column_stack(
        [rng.uniform(0, 600, (n, 2)), w, w / rng.uniform(2.5, 3.5, n), rng.uniform(-0.3, 0.3, n)]
    )
    b = a.copy()
    b[:, :2] += rng.normal(0.0, 0.15, (n, 2)) * a[:, 2:4]
    b[:, 2:4] *= rng.uniform(0.85, 1.15, (n, 2))
    b[:, 4] += rng.uniform(-jitter, jitter, n)
    return a, _checked_box_array(b, "b")


class TestIouExceeds:
    @settings(max_examples=40, deadline=None)
    @given(decision_pairs())
    def test_equals_clipping_on_drawn_pairs(self, rows):
        assert_exceeds_is_clipping(*rows)

    def test_equals_clipping_on_edge_cases(self):
        assert_exceeds_is_clipping(*edge_case_pairs(), thresholds=(-1e-300, -1.0, 2.0))

    def test_equals_clipping_on_plate_pairs(self):
        rng = np.random.default_rng(61)
        for jitter in (0.0, 0.03, 1.0):
            assert_exceeds_is_clipping(*plate_pairs(rng, 15, jitter))

    @pytest.mark.parametrize("k", [_PAIR_CHUNK - 1, _PAIR_CHUNK, 2 * _PAIR_CHUNK + 1])
    def test_chunk_boundaries(self, k):
        # decided, clipped and far pairs interleaved across the chunks
        a, b = plate_pairs(np.random.default_rng(k), k, 0.8)
        b[::5, 0] += 1e4
        clip = _iou_pairs(a, b)
        for t in (0.0, 0.3, 0.6):
            np.testing.assert_array_equal(_iou_exceeds(a, b, t), clip > t)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(MIN_SIDE, MAX_SIDE),
        st.floats(MIN_SIDE, MAX_SIDE),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(0.0, allow_infinity=False),
        st.floats(0.0, allow_infinity=False),
    )
    def test_upper_bound_overlap_never_exceeds_the_first_box_area(self, w, h, u, v, x, y):
        # _iou_bounds caps its upper bound by b's area only: a's overlap with
        # any rectangle, placed and sized anywhere, is at most a's area
        with np.errstate(over="ignore"):
            got = _frame_overlap(*(np.array([t]) for t in (w / 2.0, h / 2.0, u, v, x, y)))
        assert 0.0 <= got[0] <= w * h

    def test_clipping_decides_past_the_aspect_guard(self):
        # nested boxes of exact IoU 0.5 at an aspect ratio past the guard:
        # the answer is the clip's, which keeps the short side in a's frame
        # (enough rows that _iou_exceeds takes its bounds)
        a = np.array([[0.0, 0.0, 1.0, 1e14, 0.3]] * _SCALAR_PAIRS)
        b = np.array([[0.0, 0.0, 0.5, 1e14, 0.3]] * _SCALAR_PAIRS)
        got = _iou_pairs(a, b)
        assert np.all(np.abs(got - 0.5) <= 4 * math.ulp(0.5))
        for t in (0.5 - 1e-12, 0.5 + 1e-12):
            np.testing.assert_array_equal(_iou_exceeds(a, b, t), got > t)

    def test_guards_leave_pairs_undecided(self):
        a = np.array([[0.0, 0.0, 4.0, 2.0, 0.0]] * 3)
        b = a.copy()
        b[0, 4] = 0.76  # cos 2δ below the guard
        b[1, 2] = 4e4  # aspect past the guard
        b[2, 4] = 0.3
        lo, hi = _iou_bounds(a, b)
        assert np.isnan(lo[:2]).all() and np.isnan(hi[:2]).all()
        assert 0.0 <= lo[2] <= hi[2] <= 1.0


class TestIouExceedsDispatch:
    @pytest.mark.parametrize("k", [_SCALAR_PAIRS - 1, _SCALAR_PAIRS, _SCALAR_PAIRS + 1])
    def test_either_side_of_the_cut_is_clipping(self, monkeypatch, k):
        a, b = plate_pairs(np.random.default_rng(89 + k), k, 0.3)
        b[::4, 0] += 1e4  # early-out pairs among the close ones
        calls = []
        iou_bounds = geometry._iou_bounds

        def spy(x, y):
            calls.append(len(x))
            return iou_bounds(x, y)

        monkeypatch.setattr(geometry, "_iou_bounds", spy)
        clip = _iou_pairs(a, b)
        assert 0 < np.count_nonzero(clip) < k
        for t in (0.0, 0.3, 0.6):
            got = _iou_exceeds(a, b, t)
            assert got.shape == (k,) and got.dtype == bool
            np.testing.assert_array_equal(got, clip > t)
        assert bool(calls) == (k >= _SCALAR_PAIRS)

    def test_bounds_on_edge_cases_below_the_cut(self, monkeypatch):
        monkeypatch.setattr(geometry, "_SCALAR_PAIRS", 0)
        assert_exceeds_is_clipping(*edge_case_pairs(), thresholds=(-1e-300, -1.0, 2.0))

    def test_bounds_on_plate_pairs_below_the_cut(self, monkeypatch):
        monkeypatch.setattr(geometry, "_SCALAR_PAIRS", 0)
        rng = np.random.default_rng(61)
        for jitter in (0.0, 0.03, 1.0):
            assert_exceeds_is_clipping(*plate_pairs(rng, 15, jitter))

    @settings(max_examples=40, deadline=None)
    @given(decision_pairs())
    def test_bounds_on_drawn_pairs_below_the_cut(self, rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_SCALAR_PAIRS", 0)
            assert_exceeds_is_clipping(*rows)


def tangent_pairs(seed, n):
    """n pairs of canonical rows, sides 1e-3..1e3, each pair's centre distance
    its summed circumradii times (1 + k 2^-52) for k in -3..3: circumcircles
    that touch, where rounding decides the test. The first centres lie in
    [-1, 1]^2, so the second centres keep that distance to a few ulps."""
    rng = np.random.default_rng(seed)
    sides = 10.0 ** rng.uniform(-3.0, 3.0, (2, n, 2))
    reach = 0.5 * (np.hypot(*sides[0].T) + np.hypot(*sides[1].T))
    dist = reach * (1.0 + rng.integers(-3, 4, n) * 2.0**-52)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    a = np.column_stack([rng.uniform(-1.0, 1.0, (n, 2)), sides[0], rng.uniform(-4.0, 4.0, n)])
    b = np.column_stack(
        [a[:, 0] + dist * np.cos(phi), a[:, 1] + dist * np.sin(phi), sides[1], -a[:, 4]]
    )
    return _checked_box_array(a, "a"), _checked_box_array(b, "b")


class TestTangentPairs:
    def test_near_is_the_scalar_test_bit_for_bit(self, monkeypatch):
        a, b = tangent_pairs(0, 20_000)
        # a pair that passes _iou's circumcircle test reaches _overlap
        monkeypatch.setattr(geometry, "_overlap", lambda p, q: 2.0)
        rows_a, rows_b = a.tolist(), b.tolist()
        scalar = np.array([_iou(*x, *y) == 2.0 for x, y in zip(rows_a, rows_b)])
        monkeypatch.undo()
        np.testing.assert_array_equal(_near(a, b), scalar)
        np.testing.assert_array_equal(_near(b, a), scalar)
        assert 0 < scalar.sum() < len(scalar)
        # the same test with math.hypot diagonals decides some of these pairs
        # the other way; each of them clips to exactly 0.0, what it returns
        def hypot_near(ax, ay, aw, ah, _, bx, by, bw, bh, __):
            reach = 0.5 * (math.hypot(aw, ah) + math.hypot(bw, bh))
            return (bx - ax) * (bx - ax) + (by - ay) * (by - ay) <= reach * reach

        by_hypot = np.array([hypot_near(*x, *y) for x, y in zip(rows_a, rows_b)])
        flipped = np.flatnonzero(by_hypot != scalar).tolist()
        assert len(flipped) > 50, len(flipped)
        assert all(_overlap(_prepare(*rows_a[k]), _prepare(*rows_b[k])) == 0.0 for k in flipped)

    def test_batched_kernels_are_scalar_rotated_iou(self):
        a, b = tangent_pairs(1, 3000)
        # overlapping plates too, so some entries are not zero
        pa, pb = plate_pairs(np.random.default_rng(2), 200, 0.3)
        a, b = np.concatenate([a, pa]), np.concatenate([b, pb])
        boxes_a = [RotatedBox(*r) for r in a.tolist()]
        boxes_b = [RotatedBox(*r) for r in b.tolist()]
        want = np.array([rotated_iou(x, y) for x, y in zip(boxes_a, boxes_b)])
        assert (want > 0.0).sum() >= 150
        np.testing.assert_array_equal(bits(_iou_pairs(a, b)), bits(want))
        for t in (0.0, 0.3, 0.6, 1.0):
            np.testing.assert_array_equal(_iou_exceeds(a, b, t), want > t)
        m = slice(0, 3200, 20)
        got = rotated_iou_matrix(a[m], b[m])
        want = [[rotated_iou(x, y) for y in boxes_b[m]] for x in boxes_a[m]]
        np.testing.assert_array_equal(bits(got), bits(want))


class TestClipInTheFirstBoxFrame:
    def test_a_box_whose_corners_round_together_clips_to_no_area(self, monkeypatch):
        # the tiny box lies 1e74 from the huge one's centre, so in the huge
        # box's frame its corners round to one point, which clips to no area
        a = RotatedBox(696464.131275903, -609014.0993810801, 2.4704775675192316e-97,
                       1.2847527169778793e-96, -0.042612696493636526)
        b = RotatedBox(-1.1639455504903184e+74, -9.209671537132648e+72, 2.11985965341477e+74,
                       9.79387179708719e+73, -0.731862598688852)
        assert rotated_iou(a, b) == rotated_iou(b, a) == 0.0
        rows_a, rows_b = box_rows([a, b]), box_rows([b, a])
        for cut in (_SCALAR_PAIRS, 0):  # the scalar loop, then the batched kernel
            monkeypatch.setattr(geometry, "_SCALAR_PAIRS", cut)
            np.testing.assert_array_equal(_iou_pairs(rows_a, rows_b), [0.0, 0.0])
            got = rotated_iou_matrix(rows_a, rows_b)
            np.testing.assert_array_equal(got, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("r", [1e3, 1e6, 1e9, 1e12, 1e14])
    def test_nested_boxes_at_one_angle_give_their_area_ratio(self, r):
        # (cx, cy, 1, r, theta) holds (cx, cy, f, r, theta): the IoU is f
        thetas = np.linspace(-QUARTER_PI, QUARTER_PI, 9, endpoint=False).tolist() + [0.3]
        rows_a, rows_b, want = [], [], []
        for cx, cy in ((0.0, 0.0), (37.5, -1200.25)):
            for theta in thetas:
                for f in (0.25, 0.5, 0.8):
                    rows_a.append((cx, cy, 1.0, r, theta))
                    rows_b.append((cx, cy, f, r, theta))
                    want.append(f)
        a, b, want = np.array(rows_a), np.array(rows_b), np.array(want)
        assert len(a) >= _SCALAR_PAIRS  # the batched kernel
        tol = 4 * np.spacing(want)
        scalar = [rotated_iou(RotatedBox(*x), RotatedBox(*y)) for x, y in zip(rows_a, rows_b)]
        assert np.all(np.abs(np.array(scalar) - want) <= tol)
        assert np.all(np.abs(_iou_pairs(a, b) - want) <= tol)
        assert np.all(np.abs(_iou_pairs(b, a) - want) <= tol)
        assert np.all(np.abs(np.diag(rotated_iou_matrix(a, b)) - want) <= tol)


# two needles at one centre whose crossings, at their aspect ratio of 3e101,
# round by far more than the first one's half height
NEEDLES = (
    RotatedBox(-268309.93465468683, 656309.667997923, 1.82846502629851e-33,
               2.3546411067516774e-64, -0.5993990517685157),
    RotatedBox(-268309.93465468683, 656309.667997923, 9.152521977662663e-31,
               2.7534581508700403e-132, 0.08177931754450363),
)


def assert_clips_within_area_ratio(a, b):
    """Every pair of (K, 5) rows clips, either way round and in the scalar
    and the batched kernel, to at most (min(A, B) / max(A, B))(1 + 8 * 2^-53)."""
    area_a, area_b = a[:, 2] * a[:, 3], b[:, 2] * b[:, 3]
    cap = np.minimum(area_a, area_b) / np.maximum(area_a, area_b) * (1.0 + 8 * 2.0**-53)
    for x, y in ((a, b), (b, a)):
        scalar = np.array([_iou(*p, *q) for p, q in zip(x.tolist(), y.tolist())])
        with np.errstate(all="ignore"):
            batched = geometry._clip_iou(x, y)
        assert np.all(scalar <= cap) and np.all(batched <= cap)


def scattered_pairs(seed, n):
    """n pairs of canonical rows with sides 1e-140..1e140 drawn apart, first
    centres within 1e6 and second centres a uniform fraction of the summed
    circumradii away: mostly near and wildly unlike pairs."""
    rng = np.random.default_rng(seed)
    sides = 10.0 ** rng.uniform(-140.0, 140.0, (2, n, 2))
    reach = 0.5 * (np.hypot(*sides[0].T) + np.hypot(*sides[1].T))
    dist = reach * rng.uniform(0.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    a = np.column_stack([rng.uniform(-1e6, 1e6, (n, 2)), sides[0], rng.uniform(-4.0, 4.0, n)])
    b = np.column_stack(
        [a[:, 0] + dist * np.cos(phi), a[:, 1] + dist * np.sin(phi), sides[1],
         rng.uniform(-4.0, 4.0, n)]
    )
    return _checked_box_array(a, "a"), _checked_box_array(b, "b")


def needle_pairs(seed, n):
    """n pairs of canonical rows at one centre within 1e6 and any angles: a
    box of long side L (1e-140..1e140) and aspect up to 1e40, and one of long
    side 0.1-1e4 L and aspect up to 1e120, as NEEDLES is."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-1e6, 1e6, (n, 2))
    long_a = 10.0 ** rng.uniform(-140.0, 140.0, n)
    long_b = long_a * 10.0 ** rng.uniform(-1.0, 4.0, n)
    sides_a = np.column_stack([long_a, long_a * 10.0 ** rng.uniform(-40.0, 0.0, n)])
    sides_b = np.column_stack([long_b, long_b * 10.0 ** rng.uniform(-120.0, 0.0, n)])
    a, b = (
        np.column_stack([centre, np.clip(sides, MIN_SIDE, MAX_SIDE), rng.uniform(-4.0, 4.0, n)])
        for sides in (sides_a, sides_b)
    )
    return _checked_box_array(a, "a"), _checked_box_array(b, "b")


def whole_range_pairs():
    """(a, b) row arrays of up to 8 pairs with sides across [MIN_SIDE, MAX_SIDE],
    first centres within 1e6 and second centres a drawn fraction of the summed
    circumradii away, at a drawn angle."""
    finite = dict(allow_nan=False, allow_infinity=False)
    side = st.floats(-150.0, 150.0).map(lambda e: min(max(10.0**e, MIN_SIDE), MAX_SIDE))
    centre, angle = st.floats(-1e6, 1e6, **finite), st.floats(-4.0, 4.0)
    fraction = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    pair = st.tuples(centre, centre, side, side, angle, side, side, angle, fraction,
                     st.floats(0.0, 2.0 * math.pi))

    def build(pairs):
        a, b = [], []
        for ax, ay, aw, ah, at, bw, bh, bt, f, phi in pairs:
            dist = f * 0.5 * (math.hypot(aw, ah) + math.hypot(bw, bh))
            a.append((ax, ay, aw, ah, at))
            b.append((ax + dist * math.cos(phi), ay + dist * math.sin(phi), bw, bh, bt))
        return tuple(_checked_box_array(np.array(r).reshape(-1, 5), "rows") for r in (a, b))

    return st.lists(pair, min_size=1, max_size=8).map(build)


class TestClipAreaCap:
    def test_needles_read_at_most_their_area_ratio(self, monkeypatch):
        a, b = NEEDLES
        ratio = min(a.area, b.area) / max(a.area, b.area)
        assert rotated_iou(a, b) <= ratio and rotated_iou(b, a) <= ratio
        rows_a, rows_b = box_rows([a, b]), box_rows([b, a])
        for cut in (_SCALAR_PAIRS, 0):  # the scalar loop, then the batched kernel
            monkeypatch.setattr(geometry, "_SCALAR_PAIRS", cut)
            assert np.all(_iou_pairs(rows_a, rows_b) <= ratio)
            assert np.all(np.diag(rotated_iou_matrix(rows_a, rows_b)) <= ratio)

    @pytest.mark.parametrize("pairs", [scattered_pairs, needle_pairs])
    def test_seeded_wide_scale_clips_within_their_area_ratio(self, pairs):
        a, b = pairs(45, 20_000)
        assert_clips_within_area_ratio(a, b)
        # the two kernels stay one kernel here as well
        np.testing.assert_array_equal(
            bits(_iou_pairs(a, b)), bits([_iou(*p, *q) for p, q in zip(a.tolist(), b.tolist())])
        )

    @settings(max_examples=300, deadline=None)
    @given(whole_range_pairs())
    @example(tuple(box_rows([box]) for box in NEEDLES))
    def test_clips_within_their_area_ratio_over_the_whole_range(self, rows):
        assert_clips_within_area_ratio(*rows)

    @pytest.mark.parametrize("thresh", [0.1, 0.5])
    def test_wide_scale_nms_keeps_the_naive_loops_objects(self, thresh):
        a, b = needle_pairs(44, 8_000)
        scores = np.random.default_rng(44).uniform(0.0, 1.0, (len(a), 2)).tolist()
        boxes = []
        for ra, rb, (sa, sb) in zip(a.tolist(), b.tolist(), scores):
            boxes += [ScoredBox(RotatedBox(*ra), sa), ScoredBox(RotatedBox(*rb), sb)]
        for start in range(0, len(boxes), 4):  # two needle pairs per set
            assert_same_kept(boxes[start : start + 4], thresh)
        assert_same_kept([ScoredBox(NEEDLES[0], 0.9), ScoredBox(NEEDLES[1], 0.8)], thresh)


def naive_nms(boxes, thresh):
    """Greedy NMS as a plain loop: by descending score, ties in input order,
    a box is kept unless its rotated_iou with a kept box, tried in kept
    order, exceeds thresh; the first such box decides."""
    kept = []
    for cand in sorted(boxes, key=lambda c: -c.score):
        if not any(rotated_iou(cand.box, k.box) > thresh for k in kept):
            kept.append(cand)
    return kept


def bits(values):
    return np.array(values, dtype=np.float64).view(np.int64)


def wide_scale_pairs(n, seed):
    """Box pairs with sides across [MIN_SIDE, MAX_SIDE], centres out to 1e7,
    any angle and offsets up to 3 sizes; every 8th pair is an exact duplicate."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(n):
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        centre = np.sign(rng.uniform(-1, 1, 2)) * 10.0 ** rng.uniform(-3.0, 7.0, 2)

        def box(cx, cy):
            w, h = np.clip(scale * 10.0 ** rng.uniform(-1.0, 1.0, 2), MIN_SIDE, MAX_SIDE)
            return RotatedBox(float(cx), float(cy), float(w), float(h), rng.uniform(-4.0, 4.0))

        a = box(*centre)
        if k % 8 == 0:
            pairs.append((a, RotatedBox(a.cx, a.cy, a.w, a.h, a.theta)))
        else:
            pairs.append((a, box(*(centre + scale * rng.uniform(-3.0, 3.0, 2)))))
    return pairs


def plate_like_candidates(rng, m, plates):
    """m scored boxes shaped like a detector's: 80% jittered around 1-3
    plates, the rest scattered over a 512-pixel image with lower scores."""
    gts = []
    for w in rng.uniform(40.0, 120.0, plates):
        cx, cy = rng.uniform(70.0, 442.0, 2)
        gts.append(RotatedBox(cx, cy, w, w / rng.uniform(2.5, 4.0), rng.uniform(-0.35, 0.35)))
    boxes = []
    for _ in range(round(0.8 * m)):
        g = gts[rng.integers(plates)]
        j = rng.normal(size=5)
        box = RotatedBox(
            g.cx + 0.15 * g.w * j[0],
            g.cy + 0.15 * g.h * j[1],
            g.w * math.exp(0.1 * j[2]),
            g.h * math.exp(0.1 * j[3]),
            g.theta + 0.05 * j[4],
        )
        boxes.append(ScoredBox(box, float(rng.uniform(0.3, 1.0))))
    while len(boxes) < m:
        w = rng.uniform(20.0, 100.0)
        x, y = rng.uniform(0.0, 512.0, 2)
        box = RotatedBox(x, y, w, w / rng.uniform(2.0, 5.0), rng.uniform(-0.7, 0.7))
        boxes.append(ScoredBox(box, float(rng.uniform(0.0, 0.6))))
    return [boxes[i] for i in rng.permutation(m)]


def assert_same_kept(boxes, thresh):
    """rotated_nms keeps the very objects naive_nms keeps, in its order."""
    got, want = rotated_nms(boxes, thresh), naive_nms(boxes, thresh)
    assert [id(k) for k in got] == [id(k) for k in want]
    return got


def count_clips(monkeypatch):
    """Make geometry._overlap count its calls into the returned one-item list."""
    clips = [0]
    overlap = geometry._overlap

    def counting(a, b):
        clips[0] += 1
        return overlap(a, b)

    monkeypatch.setattr(geometry, "_overlap", counting)
    return clips


class TestNmsNearestFirstAndAreaCap:
    def test_clips_at_most_065_of_the_naive_loop_on_plate_sets(self, monkeypatch):
        rng = np.random.default_rng(71)
        sets = [
            plate_like_candidates(rng, int(rng.integers(200, 401)), 1 + k % 3) for k in range(40)
        ]
        clips = count_clips(monkeypatch)
        got = [[id(k) for k in rotated_nms(boxes, 0.5)] for boxes in sets]
        nearest_first, clips[0] = clips[0], 0
        want = [[id(k) for k in naive_nms(boxes, 0.5)] for boxes in sets]
        assert got == want
        assert nearest_first <= 0.65 * clips[0], (nearest_first, clips[0])

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    @pytest.mark.parametrize("big_first", [True, False])
    @pytest.mark.parametrize("thresh", [0.25, 0.5])
    def test_nested_pairs_at_the_area_ratio_cap(self, monkeypatch, thresh, big_first, theta):
        # a box nested in an 8 x 4 one at the same angle has IoU = area ratio
        big = RotatedBox(3.0, -1.0, 8.0, 4.0, theta)
        scores = (0.9, 0.8) if big_first else (0.8, 0.9)
        clips = count_clips(monkeypatch)
        for ratio, want_clips in (
            (thresh - 2 * _BOUND_MARGIN, 0),  # the cap skips it: IoU below thresh
            (thresh, 1),  # exactly thresh: clipped, and not above thresh
            (thresh * (1.0 + 1e-12), 1),  # just above: clipped, and suppressed
        ):
            small = RotatedBox(3.0, -1.0, 8.0 * ratio, 4.0, theta)
            boxes = [ScoredBox(big, scores[0]), ScoredBox(small, scores[1])]
            by_score = sorted(boxes, key=lambda c: -c.score)
            clips[0] = 0
            rotated_nms(boxes, thresh)
            assert clips[0] == want_clips
            kept = assert_same_kept(boxes, thresh)
            if ratio > thresh:
                assert kept == by_score[:1]
            elif ratio < thresh or theta == 0.0:  # at 0 the clip reads thresh exactly
                assert kept == by_score

    @pytest.mark.parametrize("dtype", [float, np.float64, np.float32, np.float16])
    def test_numpy_float_thresholds(self, dtype):
        # the cap is worked out in float64: in float16, 0.5 times an area
        # past 65504 overflows to inf, which would skip every pair
        a = ScoredBox(RotatedBox(0.0, 0.0, 400.0, 300.0, 0.1), 0.9)
        b = ScoredBox(RotatedBox(5.0, 0.0, 400.0, 300.0, 0.1), 0.8)
        assert assert_same_kept([a, b], dtype(0.5)) == [a]
        # a nested pair of area ratio 0.5 that clips to one ulp above 0.5,
        # which a float32 or float16 threshold of 0.5 does not exceed
        small = ScoredBox(RotatedBox(-6.49, 7.26, 4.79, 3.1, -0.121), 0.8)
        big = ScoredBox(RotatedBox(-6.49, 7.26, 9.58, 3.1, -0.121), 0.9)
        iou = rotated_iou(small.box, big.box)
        assert iou > 0.5 and np.float32(iou) == 0.5
        kept = assert_same_kept([big, small], dtype(0.5))
        assert kept == ([big] if dtype in (float, np.float64) else [big, small])

    @pytest.mark.parametrize("thresh", [0.1, 0.5])
    def test_wide_scale_sets_with_the_cap_on_for_every_set(self, monkeypatch, thresh):
        pairs = wide_scale_pairs(12_000, seed=79)
        scores = np.random.default_rng(79).uniform(0.0, 1.0, (len(pairs), 2)).tolist()

        def scored(chosen):
            return [ScoredBox(b, s) for k in chosen for b, s in zip(pairs[k], scores[k])]

        def span(boxes):
            sides = [s for c in boxes for s in (c.box.w, c.box.h)]
            return max(sides) / min(sides)

        def inside(pair):
            return all(1.0 <= s < 1e3 for b in pair for s in (b.w, b.h))

        tame = scored([k for k, p in enumerate(pairs) if inside(p)])
        wide = scored(range(200))
        assert 80 < len(tame) and span(tame) <= _BOUND_ASPECT < 1e100 < span(wide)
        # the cap rules out some of the tame set's pairs that clipping would try
        cap = thresh - _BOUND_MARGIN
        assert any(
            rotated_iou(a, b) > 0.0 and min(a.area, b.area) <= cap * max(a.area, b.area)
            for a, b in (pair for pair in pairs if inside(pair))
        )
        for boxes in (tame, wide):
            kept = assert_same_kept(boxes, thresh)
            assert len(kept) < len(boxes)
        # and some of the wide set's: a margin of 1 turns the cap off
        clips = count_clips(monkeypatch)
        rotated_nms(wide, thresh)
        capped, clips[0] = clips[0], 0
        monkeypatch.setattr(geometry, "_BOUND_MARGIN", 1.0)
        rotated_nms(wide, thresh)
        assert capped < clips[0], (capped, clips[0])


nms_scores = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


class TestRotatedNms:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.builds(ScoredBox, rboxes(max_center=6.0), nms_scores), max_size=14),
        st.lists(st.integers(0, 13), max_size=6),
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_keeps_the_naive_loops_objects(self, boxes, repeats, thresh):
        # repeats add equal boxes as new objects, at the same or a tied score
        if boxes:
            boxes = boxes + [ScoredBox(boxes[i % len(boxes)].box, boxes[i % len(boxes)].score)
                             for i in repeats]
        assert_same_kept(boxes, thresh)

    def test_keeps_the_naive_loops_objects_on_plate_sets(self):
        rng = np.random.default_rng(71)
        kept = total = 0
        for k in range(40):
            boxes = plate_like_candidates(rng, int(rng.integers(200, 401)), 1 + k % 3)
            kept += len(assert_same_kept(boxes, 0.5))
            total += len(boxes)
        assert 0.1 < kept / total < 0.5

    def test_high_overlap_keeps_best(self):
        a = ScoredBox(RotatedBox(0, 0, 2, 2, 0), 0.9)
        b = ScoredBox(RotatedBox(0.05, 0, 2, 2, 0), 0.8)
        assert rotated_iou(a.box, b.box) > 0.9
        kept = rotated_nms([a, b], 0.5)
        assert kept == [a]

    def test_disjoint_kept(self):
        a = ScoredBox(RotatedBox(0, 0, 1, 1, 0), 0.9)
        b = ScoredBox(RotatedBox(10, 0, 1, 1, 0), 0.8)
        assert rotated_nms([a, b], 0.5) == [a, b]

    def test_suppression_chain(self):
        # B overlaps both neighbours at IoU 0.6; A-C overlap (1/3) stays
        # under the threshold, so removing B rescues C.
        a = ScoredBox(RotatedBox(0.0, 0, 1, 1, 0), 0.9)
        b = ScoredBox(RotatedBox(0.25, 0, 1, 1, 0), 0.8)
        c = ScoredBox(RotatedBox(0.5, 0, 1, 1, 0), 0.7)
        assert rotated_iou(a.box, b.box) == pytest.approx(0.6)
        assert rotated_iou(b.box, c.box) == pytest.approx(0.6)
        assert rotated_iou(a.box, c.box) == pytest.approx(1.0 / 3.0)
        assert rotated_nms([a, b, c], 0.5) == [a, c]

    def test_ties_broken_by_input_order(self):
        a = ScoredBox(RotatedBox(0, 0, 2, 2, 0), 0.8)
        b = ScoredBox(RotatedBox(0.05, 0, 2, 2, 0), 0.8)
        assert rotated_nms([a, b], 0.5) == [a]
        assert rotated_nms([b, a], 0.5) == [b]

    def test_kept_set_properties(self):
        rng = np.random.default_rng(5)
        boxes = [ScoredBox(random_box(rng), float(rng.uniform(0, 1))) for _ in range(40)]
        kept = rotated_nms(boxes, 0.3)
        assert all(k in boxes for k in kept)
        scores = [k.score for k in kept]
        assert scores == sorted(scores, reverse=True)
        for i, k1 in enumerate(kept):
            for k2 in kept[i + 1 :]:
                assert rotated_iou(k1.box, k2.box) <= 0.3

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.builds(ScoredBox, rboxes(max_center=10.0), st.floats(0.0, 1.0)), max_size=12),
        st.floats(0.0, 1.0),
    )
    def test_idempotent_score_ordered_subset(self, boxes, thresh):
        kept = rotated_nms(boxes, thresh)
        assert rotated_nms(kept, thresh) == kept
        scores = [k.score for k in kept]
        assert scores == sorted(scores, reverse=True)
        # each kept box is a distinct input object
        assert len({id(k) for k in kept}) == len(kept)
        assert all(any(k is b for b in boxes) for k in kept)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            rotated_nms([], 1.5)

    @pytest.mark.parametrize("thresh", [True, False, np.True_, "0.6", None, math.nan])
    def test_non_real_threshold_rejected(self, thresh):
        # True is not read as 1.0, and a string or None is no TypeError
        boxes = [
            ScoredBox(RotatedBox(0, 0, 2, 2, 0), 0.9),
            ScoredBox(RotatedBox(0.05, 0, 2, 2, 0), 0.8),
        ]
        with pytest.raises(ValueError, match=r"iou_threshold must be in \[0, 1\]"):
            rotated_nms(boxes, thresh)

    def test_score_validation(self):
        with pytest.raises(ValueError):
            ScoredBox(RotatedBox(0, 0, 1, 1, 0), 1.2)
