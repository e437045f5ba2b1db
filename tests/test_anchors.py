import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcore.anchors import (
    IGNORE,
    NEGATIVE,
    AnchorGrid,
    BoxDelta,
    ShapeDelta,
    assign_targets,
    decode_delta,
    encode_delta,
    generate_anchors,
    refine_anchor,
)
from lpcore.geometry import RotatedBox, rotated_iou

QUARTER_PI = math.pi / 4

# A 48x16 plate exactly on a 1x1 grid's anchor and a 2x2 plate at the same centre.
ORPHAN_CASE = [RotatedBox(4.0, 4.0, 48.0, 16.0, 0.0), RotatedBox(4.0, 4.0, 2.0, 2.0, 0.0)]


def random_pair(rng):
    b = RotatedBox(
        rng.uniform(-100, 100),
        rng.uniform(-100, 100),
        rng.uniform(0.5, 50),
        rng.uniform(0.5, 50),
        rng.uniform(-QUARTER_PI, QUARTER_PI),
    )
    g = RotatedBox(
        b.cx + rng.uniform(-20, 20),
        b.cy + rng.uniform(-20, 20),
        rng.uniform(0.5, 50),
        rng.uniform(0.5, 50),
        rng.uniform(-QUARTER_PI, QUARTER_PI),
    )
    return b, g


def _anchor_boxes(grid):
    """The grid's anchors built here, one RotatedBox per cell in row-major order."""
    s = grid.stride
    return [
        RotatedBox((j + 0.5) * s, (i + 0.5) * s, grid.base_w, grid.base_h, 0.0)
        for i in range(grid.grid_h)
        for j in range(grid.grid_w)
    ]


def _assign_reference(grid, gts, paths, keep_others=True, pos_iou=0.5, neg_iou=0.4):
    """(gt_index, max_iou) of assign_targets from a dense scalar IoU loop, with
    the force-match as a walk down the sorted anchors. ``keep_others=False``
    walks the earlier rule, which stole the best held anchor even from a plate
    it left with none. ``paths`` counts each force-match's branch: "free",
    "steal", or "orphan" for a steal that left its plate with no positive."""
    anchors = _anchor_boxes(grid)
    iou = np.array([[rotated_iou(a, g) for g in gts] for a in anchors])
    max_iou = iou.max(axis=1)
    gt_index = np.full(len(anchors), NEGATIVE, dtype=np.int64)
    gt_index[max_iou >= neg_iou] = IGNORE
    positive = max_iou >= pos_iou
    gt_index[positive] = iou.argmax(axis=1)[positive]
    for k in range(len(gts)):
        if np.any(gt_index == k):
            continue
        col = iou[:, k]
        chosen, branch = -1, None
        for a in np.argsort(-col, kind="stable"):
            if col[a] <= 0.0:
                break
            if gt_index[a] < 0:
                chosen, branch = int(a), "free"
                break
            if chosen == -1:
                spare = np.count_nonzero(gt_index == gt_index[a]) > 1
                if spare or not keep_others:  # fallback: the best held anchor allowed
                    chosen, branch = int(a), "steal" if spare else "orphan"
        if chosen >= 0:
            paths[branch] += 1
            gt_index[chosen] = k
    return gt_index, max_iou


class TestGenerateAnchors:
    def test_two_by_two_centers(self):
        grid = generate_anchors(2, 2, 8, 16.0, 8.0)
        assert [(a.cx, a.cy) for a in grid.anchors] == [
            (4.0, 4.0),
            (12.0, 4.0),
            (4.0, 12.0),
            (12.0, 12.0),
        ]
        assert all(a.theta == 0.0 and (a.w, a.h) == (16.0, 8.0) for a in grid.anchors)

    def test_single_cell(self):
        grid = generate_anchors(1, 1, 6, 3.0, 2.0)
        assert grid.anchors == (RotatedBox(3.0, 3.0, 3.0, 2.0, 0.0),)

    def test_row_major_order(self):
        grid = generate_anchors(3, 5, 8, 16.0, 8.0)
        assert len(grid.anchors) == 15
        for i in range(3):
            for j in range(5):
                a = grid.anchors[i * 5 + j]
                assert (a.cx, a.cy) == ((j + 0.5) * 8, (i + 0.5) * 8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            generate_anchors(0, 2, 8, 16.0, 8.0)
        with pytest.raises(ValueError):
            generate_anchors(2, 2, 8, -1.0, 8.0)

    @pytest.mark.parametrize(
        "sizes", [(2.5, 2), (2, 1.5), (2.0, 2), (np.float64(2.0), 2), (True, 2), (2, np.True_)]
    )
    def test_rejects_non_int_or_bool_grid_sizes(self, sizes):
        with pytest.raises(ValueError, match="grid sizes must be positive ints"):
            generate_anchors(*sizes)

    def test_numpy_int_grid_sizes_accepted(self):
        grid = generate_anchors(np.int64(3), np.int32(2), 8, 16.0, 8.0)
        assert np.array_equal(grid.boxes, generate_anchors(3, 2, 8, 16.0, 8.0).boxes)

    @pytest.mark.parametrize(
        "params",
        [
            (True, 16.0, 8.0),
            (np.True_, 16.0, 8.0),
            ("8", 16.0, 8.0),
            (None, 16.0, 8.0),
            (8, True, 8.0),
            (8, None, 8.0),
            (8, "16", 8.0),
            (8, 16.0, np.False_),
            (8, 16.0, None),
            (10**400, 16.0, 8.0),
            (8, 10**400, 8.0),
        ],
    )
    def test_rejects_bool_non_real_or_huge_int_stride_and_base_sides(self, params):
        with pytest.raises(ValueError, match="stride, base_w and base_h must be positive"):
            generate_anchors(2, 2, *params)

    def test_real_stride_and_base_sides_accepted(self):
        grid = generate_anchors(1, 2, np.float32(8.5), np.int64(16), 7.5)
        assert grid.boxes.tolist() == [[4.25, 4.25, 16.0, 7.5, 0.0], [12.75, 4.25, 16.0, 7.5, 0.0]]

    def test_grid_count_invariant(self):
        for shape in ((1, 1), (3, 5), (7, 2)):
            assert generate_anchors(*shape).boxes.shape == (shape[0] * shape[1], 5)

    @pytest.mark.parametrize(
        "bad",
        [
            (2, 2, 8, math.nan, 8.0),
            (2, 2, 8, math.inf, 8.0),
            (2, 2, math.nan, 16.0, 8.0),
            (2, 2, 8, 16.0, 1e200),
            (2, 2, 8, 16.0, 1e-200),
            (2, 2, 1.5e308, 16.0, 8.0),  # the second centre, 2.25e308, overflows
        ],
    )
    def test_grid_rejects_bad_arrays(self, bad):
        """Parameters that would build a non-finite or out-of-range anchor row.

        Warnings are errors, so an overflowing centre must not warn first.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                generate_anchors(*bad)

    def test_array_is_read_only(self):
        grid = generate_anchors(1, 1, 8, 16.0, 8.0)
        assert grid.boxes.tolist() == [[4.0, 4.0, 16.0, 8.0, 0.0]]
        with pytest.raises(ValueError):
            grid.boxes[0, 0] = 1.0

    @pytest.mark.parametrize(
        "shape", [(1, 1, 6, 3.0, 2.0), (5, 7, 8, 48.0, 16.0), (64, 64, 8, 48, 16)]
    )
    def test_anchors_equal_per_cell_boxes(self, shape):
        grid = generate_anchors(*shape)
        want = _anchor_boxes(grid)
        assert grid.anchors == tuple(want)
        assert grid.anchors is grid.anchors  # built once
        for a, b in zip(grid.anchors, want):
            assert all(type(getattr(a, f)) is float for f in ("cx", "cy", "w", "h", "theta"))
            assert (a.cx, a.cy, a.w, a.h, a.theta) == (b.cx, b.cy, b.w, b.h, b.theta)
        np.testing.assert_array_equal(grid.boxes, [[b.cx, b.cy, b.w, b.h, b.theta] for b in want])

    def test_equality_and_hash(self):
        a = generate_anchors(3, 4, 8, 16.0, 8.0)
        b = generate_anchors(3, 4, 8, 16.0, 8.0)
        assert a == b and hash(a) == hash(b)
        assert a != generate_anchors(3, 4, 8, 16.0, 9.0)
        assert a == AnchorGrid(8, 16.0, 8.0, 3, 4) and hash(a) == hash(AnchorGrid(8, 16, 8, 3, 4))
        assert a != generate_anchors(3, 4, 4, 16.0, 8.0)


class TestAssignTargets:
    def test_exact_match_positive(self):
        grid = generate_anchors(1, 1, 8, 16.0, 8.0)
        gt = grid.anchors[0]
        out = assign_targets(grid, [gt])
        assert out.gt_index[0] == 0
        assert out.max_iou[0] == pytest.approx(1.0)

    def test_empty_gts_all_negative(self):
        grid = generate_anchors(2, 3, 8, 16.0, 8.0)
        out = assign_targets(grid, [])
        assert np.all(out.gt_index == NEGATIVE)
        assert np.all(out.max_iou == 0.0)

    def test_band_iou_is_ignored(self):
        # two anchors, one gt placed so anchor 0 hits IoU 0.45 exactly
        # (offset 44/29 between 4x4 squares) while anchor 1 is above 0.5
        grid = generate_anchors(1, 2, 1, 4.0, 4.0)
        gt = RotatedBox(0.5 + 44.0 / 29.0, 0.5, 4.0, 4.0, 0.0)
        assert rotated_iou(grid.anchors[0], gt) == pytest.approx(0.45, abs=1e-12)
        assert rotated_iou(grid.anchors[1], gt) > 0.5
        out = assign_targets(grid, [gt], pos_iou=0.5, neg_iou=0.4)
        assert out.gt_index[0] == IGNORE
        assert out.gt_index[1] == 0

    def test_force_match_low_iou_gt(self):
        # gt much smaller than any anchor: best IoU far below neg_iou
        grid = generate_anchors(2, 2, 8, 16.0, 8.0)
        gt = RotatedBox(4.0, 4.0, 2.0, 2.0, 0.0)
        best = max(rotated_iou(a, gt) for a in grid.anchors)
        assert 0.0 < best < 0.4
        out = assign_targets(grid, [gt])
        assert out.gt_index[0] == 0
        assert np.count_nonzero(out.positive_mask) == 1

    def test_zero_iou_gt_stays_unmatched(self):
        grid = generate_anchors(1, 1, 8, 16.0, 8.0)
        gt = RotatedBox(1000.0, 1000.0, 16.0, 8.0, 0.0)
        out = assign_targets(grid, [gt])
        assert np.all(out.gt_index == NEGATIVE)

    def test_every_overlapped_gt_gets_a_positive(self):
        rng = np.random.default_rng(2)
        grid = generate_anchors(6, 6, 8, 20.0, 10.0)
        for _ in range(20):
            gts = [
                RotatedBox(
                    rng.uniform(0, 48),
                    rng.uniform(0, 48),
                    rng.uniform(4, 30),
                    rng.uniform(4, 15),
                    rng.uniform(-0.3, 0.3),
                )
                for _ in range(3)
            ]
            out = assign_targets(grid, gts)
            matched = set(int(k) for k in out.gt_index[out.positive_mask])
            for k, gt in enumerate(gts):
                if max(rotated_iou(a, gt) for a in grid.anchors) > 0.0:
                    assert k in matched

    def test_force_match_equals_per_anchor_walk(self):
        rng = np.random.default_rng(13)
        held = [
            RotatedBox(8.0, 4.0, 48.0, 16.0, 0.0),  # positive on both anchors
            RotatedBox(8.0, 4.0, 2.0, 2.0, 0.0),  # overlaps only those two
        ]
        cases = [(generate_anchors(1, 2, 8, 48.0, 16.0), held)]
        for _ in range(40):
            side = int(rng.integers(3, 9))
            base_w, base_h = float(rng.uniform(8, 40)), float(rng.uniform(4, 16))
            grid = generate_anchors(side, side, 8, base_w, base_h)
            gts = [
                RotatedBox(
                    rng.uniform(0, 8 * side),
                    rng.uniform(0, 8 * side),
                    rng.uniform(1, 40),
                    rng.uniform(1, 16),
                    rng.uniform(-0.5, 0.5),
                )
                for _ in range(int(rng.integers(1, 7)))
            ]
            cases.append((grid, gts))
        orphaning = (generate_anchors(1, 1, 8, 48.0, 16.0), ORPHAN_CASE)
        cases.append(orphaning)
        paths = Counter()
        changed = []
        for grid, gts in cases:
            want_index, want_iou = _assign_reference(grid, gts, paths)
            got = assign_targets(grid, gts)
            np.testing.assert_array_equal(got.gt_index, want_index)
            assert got.max_iou.tolist() == want_iou.tolist()  # bit-exact, not approx
            # the earlier rule gives the same labels wherever it orphaned no plate
            earlier = Counter()
            earlier_index, _ = _assign_reference(grid, gts, earlier, keep_others=False)
            if earlier["orphan"]:
                changed.append((earlier_index.tolist(), want_index.tolist()))
            else:
                np.testing.assert_array_equal(earlier_index, want_index)
        assert paths["free"] > 0 and paths["steal"] > 0 and paths["orphan"] == 0
        np.testing.assert_array_equal(_assign_reference(*cases[0], paths)[0], [1, 0])
        assert changed == [([1], [0])]

    def test_force_match_never_orphans_a_plate(self):
        # the large plate holds the only anchor at IoU 1.0; the small one
        # overlaps it too but may not take it, and stays unmatched
        grid = generate_anchors(1, 1, 8, 48.0, 16.0)
        out = assign_targets(grid, ORPHAN_CASE)
        np.testing.assert_array_equal(out.gt_index, [0])
        assert out.max_iou[0] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(
            st.builds(
                RotatedBox,
                cx=st.floats(0.0, 32.0),
                cy=st.floats(0.0, 32.0),
                w=st.floats(1.0, 60.0),
                h=st.floats(1.0, 24.0),
                theta=st.floats(-0.7, 0.7),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_no_force_match_leaves_a_plate_without_positives(self, grid_h, grid_w, gts):
        grid = generate_anchors(grid_h, grid_w, 8, 48.0, 16.0)
        out = assign_targets(grid, gts)
        iou = np.array([[rotated_iou(a, g) for g in gts] for a in _anchor_boxes(grid)])
        thresholded = np.where(iou.max(axis=1) >= 0.5, iou.argmax(axis=1), -1)
        counts = np.bincount(out.gt_index[out.positive_mask], minlength=len(gts))
        # every plate positive after thresholding stays positive
        assert all(counts[k] >= 1 for k in set(thresholded[thresholded >= 0].tolist()))
        # each force-match moves one anchor to a plate that had none and now
        # has exactly that one; none of them took a plate's last positive
        moved = np.flatnonzero((out.gt_index >= 0) & (out.gt_index != thresholded))
        takers = out.gt_index[moved]
        assert len(set(takers.tolist())) == len(takers) and np.all(counts[takers] == 1)
        assert not np.isin(takers, thresholded).any()
        assert np.count_nonzero(counts) == len(set(thresholded.tolist()) - {-1}) + len(takers)
        # a plate left without a positive found every overlapping anchor held
        for k in np.flatnonzero(counts == 0):
            assert np.all(out.gt_index[iou[:, k] > 0.0] >= 0)

    def test_label_partition(self):
        grid = generate_anchors(4, 4, 8, 20.0, 10.0)
        out = assign_targets(grid, [RotatedBox(16, 16, 20, 10, 0.1)])
        n = len(grid.anchors)
        assert (
            np.count_nonzero(out.positive_mask)
            + np.count_nonzero(out.negative_mask)
            + np.count_nonzero(out.ignore_mask)
            == n
        )

    def test_threshold_validation(self):
        grid = generate_anchors(1, 1, 8, 16.0, 8.0)
        with pytest.raises(ValueError):
            assign_targets(grid, [], pos_iou=0.4, neg_iou=0.5)

    @pytest.mark.parametrize("name", ["pos_iou", "neg_iou"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None, math.nan, 1.5, -0.1])
    def test_rejects_a_threshold_that_is_not_a_unit_real(self, name, value):
        grid = generate_anchors(2, 2, 8, 16.0, 8.0)
        with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\]"):
            assign_targets(grid, [RotatedBox(8, 8, 16, 8, 0.1)], **{name: value})


class TestDeltaCoding:
    def test_identical_boxes_zero_delta(self):
        b = RotatedBox(3, 4, 5, 2, 0.2)
        d = encode_delta(b, b)
        assert (d.dx, d.dy, d.dw, d.dh, d.dtheta) == (0, 0, 0, 0, 0)

    def test_unit_shift(self):
        d = encode_delta(RotatedBox(0, 0, 2, 2, 0), RotatedBox(1, 1, 2, 2, 0))
        assert (d.dx, d.dy, d.dw, d.dh, d.dtheta) == pytest.approx((0.5, 0.5, 0, 0, 0))

    def test_angle_tangent(self):
        d = encode_delta(RotatedBox(0, 0, 2, 2, 0), RotatedBox(0, 0, 2, 2, math.pi / 6))
        assert d.dtheta == pytest.approx(math.tan(math.pi / 6), abs=1e-12)
        assert d.dtheta == pytest.approx(0.57735, abs=1e-5)

    def test_decode_zero_is_identity(self):
        b = RotatedBox(3, 4, 5, 2, 0.2)
        assert decode_delta(b, BoxDelta(0, 0, 0, 0, 0)) == b

    def test_decode_inverts_example(self):
        got = decode_delta(RotatedBox(0, 0, 2, 2, 0), BoxDelta(0.5, 0.5, 0, 0, 0))
        assert (got.cx, got.cy, got.w, got.h, got.theta) == pytest.approx((1, 1, 2, 2, 0))

    def test_roundtrip_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            b, g = random_pair(rng)
            back = decode_delta(b, encode_delta(b, g))
            for name in ("cx", "cy", "w", "h", "theta"):
                assert abs(getattr(back, name) - getattr(g, name)) < 1e-9

    @settings(max_examples=200)
    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1.5, 1.5, allow_nan=False),
    )
    def test_decode_always_canonical(self, dx, dy, dw, dh, dtheta):
        b = RotatedBox(10, -3, 6, 2, 0.1)
        out = decode_delta(b, BoxDelta(dx, dy, dw, dh, dtheta))
        assert -QUARTER_PI <= out.theta < QUARTER_PI
        assert out.w > 0 and out.h > 0


class TestRefineAnchor:
    def test_zero_delta_identity(self):
        b = RotatedBox(4, 4, 16, 8, 0.0)
        assert refine_anchor(b, ShapeDelta(0, 0, 0)) == b

    def test_width_doubling(self):
        got = refine_anchor(RotatedBox(4, 4, 16, 8, 0), ShapeDelta(math.log(2.0), 0, 0))
        assert (got.cx, got.cy) == (4.0, 4.0)
        assert got.w == pytest.approx(32.0, abs=1e-12)
        assert (got.h, got.theta) == (8.0, 0.0)

    def test_center_never_moves(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            b, _ = random_pair(rng)
            d = ShapeDelta(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1.5, 1.5))
            out = refine_anchor(b, d)
            assert out.cx == b.cx  # bit-exact, not approx
            assert out.cy == b.cy

    def test_shape_matches_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            b, _ = random_pair(rng)
            d = ShapeDelta(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1.5, 1.5))
            want = RotatedBox(
                b.cx,
                b.cy,
                b.w * math.exp(d.dw),
                b.h * math.exp(d.dh),
                math.atan(math.tan(b.theta) + d.dtheta),
            )
            assert refine_anchor(b, d) == want  # bit-exact


class TestDeltaValidation:
    @pytest.mark.parametrize("dw, dh", [(1000.0, 0.0), (-1000.0, 0.0), (0.0, 710.0), (0.0, -710.0)])
    def test_out_of_range_side_rejected_for_both_signs(self, dw, dh):
        b = RotatedBox(0, 0, 2, 1, 0)
        with pytest.raises(ValueError, match=r"sides must be in \[1e-150, 1e\+150\]"):
            decode_delta(b, BoxDelta(0, 0, dw, dh, 0))
        with pytest.raises(ValueError, match=r"sides must be in \[1e-150, 1e\+150\]"):
            refine_anchor(b, ShapeDelta(dw, dh, 0))

    @pytest.mark.parametrize("dw", [709.0, 710.0])
    def test_side_overflow_rejected_as_out_of_range(self, dw):
        # exp(709) is finite, but its product with a 1e150 side is not; exp(710)
        # overflows itself. Both are the side-range error, for either side.
        wide, tall = RotatedBox(0, 0, 1e150, 1, 0), RotatedBox(0, 0, 1, 1e150, 0)
        side_range = r"sides must be in \[1e-150, 1e\+150\]"
        with pytest.raises(ValueError, match=side_range):
            decode_delta(wide, BoxDelta(0, 0, dw, 0, 0))
        with pytest.raises(ValueError, match=side_range):
            decode_delta(tall, BoxDelta(0, 0, 0, dw, 0))
        with pytest.raises(ValueError, match=side_range):
            refine_anchor(wide, ShapeDelta(dw, 0, 0))
        with pytest.raises(ValueError, match=side_range):
            refine_anchor(tall, ShapeDelta(0, dw, 0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BoxDelta(math.nan, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            ShapeDelta(0, math.inf, 0)
