import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lpcore import oracles
from lpcore.cli import iou_box_pairs
from lpcore.feature_ops import CropSpec, FeatureMap
from lpcore.geometry import RotatedBox
from lpcore.oracles import _MC_CHUNK, dense_rroi_align, monte_carlo_iou


def whole_array_monte_carlo_iou(a, b, samples, rng):
    """The oracle as it was before chunking: every step over whole draws."""
    ax0, ay0, ax1, ay1 = oracles._corner_bounds(a)
    bx0, by0, bx1, by1 = oracles._corner_bounds(b)
    lo_x, lo_y = max(ax0, bx0), max(ay0, by0)
    hi_x, hi_y = min(ax1, bx1), min(ay1, by1)
    if hi_x <= lo_x or hi_y <= lo_y:
        return 0.0
    xs = rng.random(samples, dtype=np.float32) * np.float32(hi_x - lo_x) + np.float32(lo_x)
    ys = rng.random(samples, dtype=np.float32) * np.float32(hi_y - lo_y) + np.float32(lo_y)

    def inside(box):
        c, s = math.cos(box.theta), math.sin(box.theta)
        dx = xs - np.float32(box.cx)
        dy = ys - np.float32(box.cy)
        u = dx * np.float32(c) + dy * np.float32(s)
        v = dy * np.float32(c) - dx * np.float32(s)
        return (np.abs(u) <= np.float32(box.w / 2)) & (np.abs(v) <= np.float32(box.h / 2))

    hits = int(np.count_nonzero(inside(a) & inside(b)))
    inter = hits / samples * (hi_x - lo_x) * (hi_y - lo_y)
    return inter / (a.area + b.area - inter)


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

    def test_oversample_one_samples_cell_centres(self):
        spec = CropSpec(out_h=2, out_w=3)
        out = dense_rroi_align(self.FM, RotatedBox(20.0, 15.0, 6.0, 4.0, 0.0), spec, 1)
        # centres at x = 18, 20, 22 and y = 14, 16 on the map value 40y + x
        want = 40.0 * np.array([[14.0], [16.0]]) + np.array([[18.0, 20.0, 22.0]])
        assert np.array_equal(out.data, np.stack([want, want]))
