import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lpcore import oracles
from lpcore.cli import iou_box_pairs
from lpcore.ctc import ctc_loss
from lpcore.errors import ShapeMismatchError
from lpcore.feature_ops import CropSpec, FeatureMap, conv2d_forward
from lpcore.geometry import RotatedBox, rotated_iou
from lpcore.oracles import (
    _MC_CHUNK,
    central_difference,
    conv2d_naive,
    ctc_loss_brute_force,
    dense_rroi_align,
    exact_iou,
    monte_carlo_iou,
    relative_error,
)


def whole_array_monte_carlo_iou(a, b, samples, rng):
    """The oracle without chunking: every step over whole draws, with the
    window found in a's frame and samples placed relative to its low corner."""
    ax0, ay0, ax1, ay1 = oracles._corner_bounds(a, a.cx, a.cy)
    bx0, by0, bx1, by1 = oracles._corner_bounds(b, a.cx, a.cy)
    lo_x, lo_y = max(ax0, bx0), max(ay0, by0)
    span_x, span_y = min(ax1, bx1) - lo_x, min(ay1, by1) - lo_y
    if span_x <= 0.0 or span_y <= 0.0:
        return 0.0
    xs = rng.random(samples, dtype=np.float32) * np.float32(span_x)
    ys = rng.random(samples, dtype=np.float32) * np.float32(span_y)

    def inside(box):
        c, s = math.cos(box.theta), math.sin(box.theta)
        dx = xs - np.float32((box.cx - a.cx) - lo_x)
        dy = ys - np.float32((box.cy - a.cy) - lo_y)
        u = dx * np.float32(c) + dy * np.float32(s)
        v = dy * np.float32(c) - dx * np.float32(s)
        return (np.abs(u) <= np.float32(box.w / 2)) & (np.abs(v) <= np.float32(box.h / 2))

    hits = int(np.count_nonzero(inside(a) & inside(b)))
    inter = hits / samples * span_x * span_y
    return inter / (a.area + b.area - inter)


def per_corner_dense_rroi_align(fm, box, spec, oversample):
    """The dense oracle as it was before the corner table: a meshgrid and
    four clipped, in-bounds-masked gathers per cell."""
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
    return out


def golden_crop_boxes(map_h, map_w, seed):
    """Seeded boxes inside a map_h x map_w map, straddling each of its edges,
    wholly off it and centred far out (up to 1e6), plus two unrotated boxes
    whose samples land exactly on pixels and on the last row and column."""
    rng = np.random.default_rng(seed)

    def box(cx, cy):
        return RotatedBox(cx, cy, *rng.uniform(0.5, 14.0, size=2),
                          rng.uniform(-math.pi / 4, math.pi / 4))

    boxes = [box(rng.uniform(0.3, 0.7) * map_w, rng.uniform(0.3, 0.7) * map_h)]
    boxes += [box(edge_x, rng.uniform(0, map_h)) for edge_x in (0.0, map_w - 1.0)]
    boxes += [box(rng.uniform(0, map_w), edge_y) for edge_y in (0.0, map_h - 1.0)]
    boxes += [box(-20.0, -15.0), box(map_w + 20.0, rng.uniform(0, map_h))]
    boxes += [box(*rng.uniform(-1e6, 1e6, size=2)), box(1e6, -1e6)]
    boxes += [RotatedBox(map_w - 1.0, map_h - 1.0, 4.0, 2.0, 0.0),
              RotatedBox(0.0, 0.0, 3.0, 3.0, 0.0)]
    return boxes


SAMPLE_COUNTS = [
    1,
    _MC_CHUNK - 1,
    _MC_CHUNK,
    _MC_CHUNK + 1,
    3 * _MC_CHUNK + 7,
    200_000,
    1_000_000,
]
DISJOINT = (RotatedBox(0.0, 0.0, 2.0, 1.0, 0.3), RotatedBox(10.0, 0.0, 2.0, 1.0, -0.3))


class TestMonteCarloIou:
    def test_bit_identical_to_whole_array_oracle(self):
        # one generator per side, shared by every call, so each call also
        # starts from the state the previous call left behind
        got_rng, want_rng = np.random.default_rng(31), np.random.default_rng(31)
        pairs = iter(iou_box_pairs(6 * len(SAMPLE_COUNTS), seed=41))
        drawn = 0
        for samples in SAMPLE_COUNTS:
            for _ in range(6):
                a, b = next(pairs)
                got = monte_carlo_iou(a, b, samples, got_rng)
                want = whole_array_monte_carlo_iou(a, b, samples, want_rng)
                assert got == want, (samples, a, b)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                drawn += 0.0 < want < 1.0
        assert drawn >= 30  # most pairs overlap, so the comparison is not all zeros

    def test_disjoint_hulls_return_zero_and_draw_nothing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        for samples in SAMPLE_COUNTS:
            assert monte_carlo_iou(*DISJOINT, samples, rng) == 0.0
        assert rng.bit_generator.state == before

    def test_numpy_integer_samples_accepted(self):
        a, b = iou_box_pairs(1, seed=41)[0]
        want = monte_carlo_iou(a, b, 5000, np.random.default_rng(3))
        assert monte_carlo_iou(a, b, np.int64(5000), np.random.default_rng(3)) == want

    @pytest.mark.parametrize("samples", [0, -1, -1_000_000, 2.5, 1.0, True, False, "100", None])
    def test_rejects_non_positive_int_samples(self, samples):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        a, b = iou_box_pairs(1, seed=41)[0]
        with pytest.raises(ValueError, match=f"samples must be a positive int, got {samples!r}"):
            monte_carlo_iou(a, b, samples, rng)
        with pytest.raises(ValueError, match="samples must be a positive int"):
            monte_carlo_iou(*DISJOINT, samples, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "centre", [(1e6, -1e6), (-1e7, 3e7), (1e8, 1e8), (-1e9, 2e9), (1e30, -1e30)]
    )
    def test_far_from_origin_agrees_with_rotated_iou(self, centre):
        # float32 world coordinates put these pairs off by up to 0.27; at 1e30
        # the centres round together, and the corner hulls of absolute
        # coordinates collapse to a point
        rng = np.random.default_rng(29)
        for a, b in iou_box_pairs(3, seed=43):
            a, b = (RotatedBox(box.cx + centre[0], box.cy + centre[1], box.w, box.h, box.theta)
                    for box in (a, b))
            assert abs(monte_carlo_iou(a, b, rng=rng) - rotated_iou(a, b)) < 5e-3, (a, b)

    def test_same_estimate_wherever_the_offset_is_exact(self):
        # c + 0.5 is exact for every c here, so the pair in a's frame is the
        # same floats and the estimate the same bits; sampled in float32
        # world coordinates it read 0.5832 at 0, 0.4617 at 1e7, 0.7294 at 1e8
        want = None
        for c in (0.0, 1e7, 1e8, 1e9, 1e12, 1e15):
            a, b = RotatedBox(c, 0.0, 4.0, 2.0, 0.3), RotatedBox(c + 0.5, 0.2, 3.0, 2.0, -0.1)
            got = monte_carlo_iou(a, b, 200_000, np.random.default_rng(0))
            want = got if want is None else want
            assert got == want, c
        assert abs(want - rotated_iou(a, b)) < 5e-3

    @pytest.mark.parametrize(
        "a, b",
        [
            # a side past half the float32 maximum
            (RotatedBox(0.0, 0.0, 2e38, 1.0, 0.0), RotatedBox(0.0, 0.0, 1.0, 1.0, 0.1)),
            # sides below the smallest normal float32
            (RotatedBox(0.0, 0.0, 1e-39, 1e-39, 0.0), RotatedBox(0.0, 0.0, 1e-39, 1e-39, 0.2)),
            # normal sides, but the hulls overlap by a subnormal sliver
            (RotatedBox(0.0, 0.0, 2e-30, 2e-30, 0.0),
             RotatedBox(2e-30 - 1e-39, 0.0, 2e-30, 2e-30, 0.0)),
        ],
    )
    def test_rejects_sides_it_cannot_sample_in_float32(self, a, b):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        low, high = oracles.MC_SIDE_RANGE
        limit = re.escape(f"sides must be in [{low:.9g}, {high:.9g}]")
        with pytest.raises(ValueError, match=limit):
            monte_carlo_iou(a, b, 1000, rng)
        assert rng.bit_generator.state == before

    def test_side_range_ends_are_sampled(self):
        low, high = oracles.MC_SIDE_RANGE
        assert low == np.finfo(np.float32).smallest_normal
        assert high == float(np.finfo(np.float32).max) / 2
        big = RotatedBox(0.0, 0.0, high, high / 2, 0.0)
        assert abs(monte_carlo_iou(big, big, 10_000) - 1.0) < 1e-9
        # hulls apart: IoU 0 needs no samples, whatever the sides
        far = RotatedBox(1e120, 0.0, 1e100, 1e-100, 0.0)
        assert monte_carlo_iou(big, far, 10_000) == 0.0

    def test_million_sample_call_peaks_below_12_mb(self):
        # the two float32 draws alone hold 8 MB; whole-array temporaries
        # pushed the peak past 30 MB
        a = RotatedBox(0.0, 0.0, 5.0, 3.0, 0.3)
        b = RotatedBox(0.3, 0.2, 4.0, 4.0, -0.2)
        rng = np.random.default_rng(9)
        tracemalloc.start()
        try:
            monte_carlo_iou(a, b, 1_000_000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000, f"peak {peak / 1e6:.1f} MB"


class TestExactIou:
    def test_exact_values(self):
        unit = RotatedBox(0.5, 0.5, 1.0, 1.0, 0.0)
        cases = [
            (unit, unit, 1),
            (unit, RotatedBox(1.0, 0.5, 1.0, 1.0, 0.0), Fraction(1, 3)),
            (unit, RotatedBox(1.5, 0.5, 1.0, 1.0, 0.0), 0),  # a shared edge
            (unit, RotatedBox(5.0, 5.0, 1.0, 1.0, 0.0), 0),
            # nested at one angle: both boxes share its cos and sin, so the
            # IoU is the ratio of w * h whatever their rounding
            (RotatedBox(7.0, -3.0, 4.0, 2.0, 0.3), RotatedBox(7.0, -3.0, 3.0, 0.5, 0.3),
             Fraction(3, 16)),
        ]
        for a, b, want in cases:
            got = exact_iou(a, b)
            assert type(got) is Fraction and got == want, (a, b)

    def test_symmetric_and_translation_invariant_exactly(self):
        # dyadic centres moved by 2^20: every coordinate stays exact
        a, b = RotatedBox(0.5, 0.25, 3.0, 1.0, 0.3), RotatedBox(1.0, -0.5, 2.0, 2.0, -0.6)
        want = exact_iou(a, b)
        assert 0 < want < 1 and exact_iou(b, a) == want
        a, b = (RotatedBox(r.cx + 2.0**20, r.cy - 2.0**20, r.w, r.h, r.theta) for r in (a, b))
        assert exact_iou(a, b) == want

    def test_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(5)
        for a, b in iou_box_pairs(20, seed=3):
            want = float(exact_iou(a, b))
            assert abs(monte_carlo_iou(a, b, samples=200_000, rng=rng) - want) < 1e-2, (a, b)


class TestDenseRroiAlign:
    FM = FeatureMap(np.stack([np.arange(1200.0).reshape(30, 40)] * 2))
    BOX = RotatedBox(20.0, 15.0, 12.0, 5.0, 0.2)

    @pytest.mark.parametrize("oversample", [0, -1, 2.5, True])
    def test_rejects_non_positive_int_oversample(self, oversample):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing may be sampled first
            with pytest.raises(
                ValueError, match=f"oversample must be a positive int, got {oversample!r}"
            ):
                dense_rroi_align(self.FM, self.BOX, CropSpec(), oversample)

    # (oversample, specs): each spec crops every golden box once per
    # channel count; the default 8x25 spec at 64 points per side, the
    # selfcheck's crop, is the slowest and has a test of its own below
    GOLDEN = [
        (1, [CropSpec(out_h=3, out_w=5, sampling_ratio=1)]),
        (3, [CropSpec(out_h=1, out_w=7, sampling_ratio=3), CropSpec(out_h=4, out_w=2)]),
        (64, [CropSpec(out_h=2, out_w=4)]),
    ]

    @pytest.mark.parametrize("oversample, specs", GOLDEN)
    def test_bit_identical_to_per_corner_loop(self, oversample, specs):
        rng = np.random.default_rng(oversample)
        for channels in (1, 2, 3):
            fm = FeatureMap(rng.normal(size=(channels, 17, 23)))
            for spec in specs:
                for box in golden_crop_boxes(17, 23, seed=channels * oversample):
                    want = per_corner_dense_rroi_align(fm, box, spec, oversample)
                    got = dense_rroi_align(fm, box, spec, oversample).data
                    assert np.array_equal(got, want), (channels, spec, box)

    def test_bit_identical_to_per_corner_loop_on_selfcheck_crops(self):
        ys, xs = np.mgrid[0:40, 0:50]
        ramp = FeatureMap(np.stack([xs + 2.0 * ys, 3.0 * xs - ys]).astype(float))
        for box in (RotatedBox(24.0, 19.0, 14.0, 6.0, 0.4), RotatedBox(48.5, 1.0, 9.0, 5.0, -0.7)):
            want = per_corner_dense_rroi_align(ramp, box, CropSpec(), 64)
            assert np.array_equal(dense_rroi_align(ramp, box).data, want), box

    def test_oversample_one_samples_cell_centres(self):
        spec = CropSpec(out_h=2, out_w=3)
        out = dense_rroi_align(self.FM, RotatedBox(20.0, 15.0, 6.0, 4.0, 0.0), spec, 1)
        # centres at x = 18, 20, 22 and y = 14, 16 on the map value 40y + x
        want = 40.0 * np.array([[14.0], [16.0]]) + np.array([[18.0, 20.0, 22.0]])
        assert np.array_equal(out.data, np.stack([want, want]))


class TestOracleArguments:
    FM = FeatureMap(np.arange(2 * 5 * 6, dtype=float).reshape(2, 5, 6))

    @pytest.mark.parametrize(
        "weights, bias, stride, padding, error, message",
        [
            (np.ones((1, 2, 3, 3)), None, 0, 0, ValueError, "stride must be >= 1 and padding >= 0"),
            (np.ones((1, 2, 3, 3)), None, 1, -1, ValueError, "stride must be >= 1 and padding >= 0"),
            (np.ones((1, 3, 3, 3)), None, 1, 0, ShapeMismatchError, "expect 3 input channels"),
            (np.ones((1, 2, 6, 6)), None, 1, 0, ShapeMismatchError, "kernel 6 with stride 1"),
            (np.ones((1, 2, 3)), None, 1, 0, ShapeMismatchError, "weights must be (out_c, in_c"),
            (np.ones((1, 2, 3, 3)), np.ones(2), 1, 0, ShapeMismatchError, "bias must have shape"),
        ],
    )
    def test_conv2d_naive_rejects_as_conv2d_forward(
        self, weights, bias, stride, padding, error, message
    ):
        for conv in (conv2d_naive, conv2d_forward):
            with pytest.raises(error, match=re.escape(message)):
                conv(self.FM, weights, bias, stride, padding)

    UNIFORM = np.log(np.full((3, 3), 1 / 3))

    @pytest.mark.parametrize(
        "logp, target, error, message",
        [
            (UNIFORM, [3], ValueError, "target classes must be in [1, 3)"),
            (UNIFORM, [1, 0], ValueError, "target classes must be in [1, 3)"),
            (UNIFORM, [1.0], ValueError, "target entries must be int"),
            (UNIFORM[0], [1], ShapeMismatchError, "log-probs must be (T, K)"),
            (np.zeros((0, 3)), [], ShapeMismatchError, "log-probs must be (T, K)"),
            (np.full((2, 3), np.nan), [1], ValueError, "must not be NaN or +inf"),
        ],
    )
    def test_ctc_brute_force_rejects_as_ctc_loss(self, logp, target, error, message):
        for loss in (ctc_loss_brute_force, ctc_loss):
            with pytest.raises(error, match=re.escape(message)):
                loss(logp, target)

    def test_ctc_brute_force_keeps_infeasible_as_inf_and_unnormalized_rows(self):
        logp = np.log(np.full((2, 2), 0.5))
        assert ctc_loss_brute_force(logp, [1, 1]) == math.inf
        # all four 2-frame paths weigh e^0; three of them collapse to [1]
        assert ctc_loss_brute_force(np.zeros((2, 2)), [np.int64(1)]) == -math.log(3.0)

    @pytest.mark.parametrize("bad", [0, 0.0, -1e-5, math.nan, math.inf, True, "1e-5", None])
    def test_step_and_floor_must_be_positive_finite(self, bad):
        calls = []
        got = re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"step must be a positive finite number, got {got}"):
            central_difference(lambda x: calls.append(x) or x, 1.0, step=bad)
        assert calls == []
        with pytest.raises(ValueError, match=f"floor must be a positive finite number, got {got}"):
            relative_error(1.0, 0.0, floor=bad)

    def test_positive_step_and_floor_accepted(self):
        assert central_difference(lambda x: x * x, 3.0, step=np.float32(0.5)) == 6.0
        assert relative_error(1.0, 0.0, floor=2) == 0.5
