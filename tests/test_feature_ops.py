import math

import numpy as np
import pytest

from lpcore.errors import ShapeMismatchError
from lpcore.feature_ops import (
    BiLstmParams,
    _bilinear_gather,
    CropSpec,
    FeatureMap,
    LstmParams,
    bilstm_forward,
    conv2d_forward,
    deformable_conv2d_forward,
    roi_align,
    rroi_align,
    training_crop_boxes,
)
from lpcore.geometry import RotatedBox, ScoredBox
from lpcore.oracles import conv2d_naive, dense_rroi_align


def scalar_bilinear(plane, x, y):
    """Reference bilinear read of one (H, W) plane, one corner at a time."""
    h, w = plane.shape
    x0, y0 = math.floor(x), math.floor(y)
    fx, fy = x - x0, y - y0
    total = 0.0
    for dy, dx, wgt in (
        (0, 0, (1 - fx) * (1 - fy)),
        (0, 1, fx * (1 - fy)),
        (1, 0, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        if 0 <= y0 + dy < h and 0 <= x0 + dx < w:
            total += wgt * plane[y0 + dy, x0 + dx]
    return total


def deformable_reference(fm, weights, bias, offsets, stride, padding):
    """Per output pixel and tap loop over scalar_bilinear."""
    out_c, in_c, k, _ = weights.shape
    out = np.zeros((out_c, offsets.height, offsets.width))
    for oy in range(offsets.height):
        for ox in range(offsets.width):
            for ki in range(k):
                for kj in range(k):
                    t = ki * k + kj
                    y = oy * stride - padding + ki + offsets.data[2 * t, oy, ox]
                    x = ox * stride - padding + kj + offsets.data[2 * t + 1, oy, ox]
                    col = np.array([scalar_bilinear(fm.data[c], x, y) for c in range(in_c)])
                    out[:, oy, ox] += weights[:, :, ki, kj] @ col
    return out + bias[:, None, None]


def lstm_reference(seq, p):
    """One direction, one frame, one hidden unit and one gate at a time."""
    hidden = p.hidden_size

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * hidden
    c = [0.0] * hidden
    outs = []
    for x in seq:
        def pre(gate, j):
            row = gate * hidden + j
            return (
                sum(p.w_input[row, d] * x[d] for d in range(len(x)))
                + sum(p.w_hidden[row, m] * h[m] for m in range(hidden))
                + p.bias[row]
            )

        new_h, new_c = [], []
        for j in range(hidden):
            i, f, g, o = sig(pre(0, j)), sig(pre(1, j)), math.tanh(pre(2, j)), sig(pre(3, j))
            new_c.append(f * c[j] + i * g)
            new_h.append(o * math.tanh(new_c[j]))
        h, c = new_h, new_c
        outs.append(h)
    return np.array(outs)


def ramp_map(height=30, width=40, channels=2):
    ys, xs = np.mgrid[0:height, 0:width]
    planes = [xs + 2.0 * ys + c for c in range(channels)]
    return FeatureMap(np.stack(planes).astype(float))


def interior_box(rng, fm, max_w=14.0, max_h=8.0):
    return RotatedBox(
        rng.uniform(12.0, fm.width - 12.0),
        rng.uniform(10.0, fm.height - 10.0),
        rng.uniform(6.0, max_w),
        rng.uniform(3.0, max_h),
        rng.uniform(-math.pi / 4, math.pi / 4),
    )


class TestFeatureMap:
    def test_shape_properties(self):
        fm = FeatureMap(np.zeros((3, 4, 5)))
        assert (fm.channels, fm.height, fm.width) == (3, 4, 5)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ShapeMismatchError):
            FeatureMap(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            FeatureMap(np.array([[[np.nan]]]))


class TestBilinearSample:
    def test_constant_map(self):
        data = np.full((1, 4, 4), 7.5)
        got = _bilinear_gather(data, np.array([0.2, 3.0, 2.5]), np.array([1.7, 0.4, 2.5]))
        assert np.allclose(got, 7.5, rtol=0, atol=1e-12)

    def test_center_of_two_by_two(self):
        data = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        assert _bilinear_gather(data, np.array([0.5]), np.array([0.5]))[0, 0] == 1.5

    def test_integer_coordinates_exact(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(2, 5, 6))
        grid_y, grid_x = np.mgrid[0:5, 0:6]
        got = _bilinear_gather(data, grid_x.ravel().astype(float), grid_y.ravel().astype(float))
        assert np.array_equal(got, data.reshape(2, -1))

    def test_out_of_bounds_reads_zero(self):
        data = np.full((1, 3, 3), 4.0)
        got = _bilinear_gather(data, np.array([-1.5, 1.0, 3.25]), np.array([1.0, 7.0, 2.0]))
        assert np.all(got == 0.0)
        # half-in: only the in-range neighbour contributes
        half = _bilinear_gather(data, np.array([-0.5, 2.0, 2.5]), np.array([1.0, -0.5, 1.0]))
        assert np.allclose(half, 2.0, rtol=0, atol=1e-15)

    def test_edge_band_matches_scalar_formula(self):
        # x in (-1, 0) or (W-1, W), and likewise y: one corner column (row)
        # lies inside the map and the other outside
        rng = np.random.default_rng(12)
        data = rng.normal(size=(3, 5, 7))
        _, h, w = data.shape
        bands_x = [(-1.0, 0.0), (0.0, w - 1.0), (w - 1.0, float(w))]
        bands_y = [(-1.0, 0.0), (0.0, h - 1.0), (h - 1.0, float(h))]
        xs, ys = [], []
        for bx in bands_x:
            for by in bands_y:
                xs.extend(rng.uniform(*bx, size=20))
                ys.extend(rng.uniform(*by, size=20))
        xs, ys = np.array(xs), np.array(ys)
        got = _bilinear_gather(data, xs, ys)
        assert got.shape == (3, xs.size)
        for c in range(3):
            want = [scalar_bilinear(data[c], x, y) for x, y in zip(xs, ys)]
            assert np.abs(got[c] - want).max() < 1e-12


class TestRroiAlign:
    def test_constant_map_any_box(self):
        fm = FeatureMap(np.full((2, 20, 20), 3.25))
        box = RotatedBox(10, 10, 8, 4, 0.5)
        out = rroi_align(fm, box, CropSpec(4, 10, 2))
        assert np.allclose(out.data, 3.25, atol=1e-12)

    def test_identity_crop(self):
        data = np.arange(20.0).reshape(1, 4, 5)
        fm = FeatureMap(data)
        # covers pixel columns 1..3 and rows 0..1 exactly
        box = RotatedBox(2.0, 0.5, 3.0, 2.0, 0.0)
        out = rroi_align(fm, box, CropSpec(out_h=2, out_w=3, sampling_ratio=1))
        assert np.array_equal(out.data, data[:, 0:2, 1:4])

    def test_default_output_shape(self):
        spec = CropSpec()
        assert (spec.out_h, spec.out_w, spec.sampling_ratio) == (8, 25, 2)
        fm = ramp_map()
        out = rroi_align(fm, RotatedBox(20, 15, 12, 5, 0.2))
        assert out.data.shape == (2, 8, 25)

    @pytest.mark.parametrize("field", ["out_h", "out_w", "sampling_ratio"])
    @pytest.mark.parametrize(
        "value", [2.5, 1.5, 2.0, np.float64(2.0), True, np.True_, "2", None, 0]
    )
    def test_spec_rejects_non_int_or_bool_fields(self, field, value):
        with pytest.raises(ValueError, match=r"CropSpec fields must be positive ints"):
            CropSpec(**{field: value})

    def test_spec_accepts_numpy_ints(self):
        fm, box = ramp_map(), RotatedBox(20, 15, 12, 5, 0.2)
        got = rroi_align(fm, box, CropSpec(np.int64(3), np.int32(4), np.int64(2)))
        assert np.array_equal(got.data, rroi_align(fm, box, CropSpec(3, 4, 2)).data)

    def test_rotated_matches_dense_oracle(self):
        fm = ramp_map()
        rng = np.random.default_rng(3)
        for _ in range(5):
            box = interior_box(rng, fm)
            got = rroi_align(fm, box)
            want = dense_rroi_align(fm, box)
            assert np.abs(got.data - want.data).max() < 1e-3

    def test_theta_zero_matches_roi_align(self):
        fm = ramp_map()
        rng = np.random.default_rng(4)
        for _ in range(5):
            b = interior_box(rng, fm)
            box = RotatedBox(b.cx, b.cy, b.w, b.h, 0.0)
            d = np.abs(rroi_align(fm, box).data - roi_align(fm, box).data).max()
            assert d < 1e-9
        with pytest.raises(ValueError, match="roi_align requires theta == 0"):
            roi_align(fm, RotatedBox(20.0, 15.0, 8.0, 4.0, 0.1))

    def test_linearity_in_feature_map(self):
        rng = np.random.default_rng(5)
        x = FeatureMap(rng.normal(size=(2, 16, 16)))
        y = FeatureMap(rng.normal(size=(2, 16, 16)))
        box = RotatedBox(8, 8, 7, 4, -0.4)
        mixed = FeatureMap(2.0 * x.data - 3.0 * y.data)
        got = rroi_align(mixed, box).data
        want = 2.0 * rroi_align(x, box).data - 3.0 * rroi_align(y, box).data
        assert np.abs(got - want).max() < 1e-9

    def test_out_of_bounds_samples_zero(self):
        fm = FeatureMap(np.full((1, 6, 6), 2.0))
        # box fully outside the map
        out = rroi_align(fm, RotatedBox(100, 100, 4, 4, 0.3), CropSpec(2, 2, 2))
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("shape", [(2, 0, 5), (2, 4, 0), (3, 0, 0)])
    def test_map_without_pixels_crops_as_the_dense_oracle(self, shape):
        fm = FeatureMap(np.zeros(shape))
        spec = CropSpec(3, 4, 2)
        for box in (RotatedBox(1.0, 0.5, 3.0, 2.0, 0.3), RotatedBox(0.0, 0.0, 2.0, 1.0, 0.0)):
            want = dense_rroi_align(fm, box, spec, 4).data
            assert want.shape == (shape[0], 3, 4)
            assert np.array_equal(rroi_align(fm, box, spec).data, want)
        assert np.array_equal(roi_align(fm, box, spec).data, want)


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(7)
        fm = FeatureMap(rng.normal(size=(3, 5, 5)))
        w = np.eye(3).reshape(3, 3, 1, 1)
        out = conv2d_forward(fm, w)
        assert np.allclose(out.data, fm.data, atol=1e-15)

    def test_all_ones_kernel_counts_window(self):
        fm = FeatureMap(np.ones((1, 5, 5)))
        w = np.ones((1, 1, 3, 3))
        out = conv2d_forward(fm, w)
        assert out.data.shape == (1, 3, 3)
        assert np.all(out.data == 9.0)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(8)
        fm = FeatureMap(rng.normal(size=(3, 5, 5)))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        for stride, padding in ((1, 0), (1, 1), (2, 1), (2, 2)):
            got = conv2d_forward(fm, w, b, stride, padding)
            want = conv2d_naive(fm, w, b, stride, padding)
            assert got.data.shape == want.data.shape
            assert np.abs(got.data - want.data).max() < 1e-12

    def test_output_dims_formula(self):
        fm = FeatureMap(np.zeros((1, 11, 7)))
        out = conv2d_forward(fm, np.zeros((2, 1, 3, 3)), stride=2, padding=1)
        assert out.data.shape == (2, (11 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_shape_errors(self):
        fm = FeatureMap(np.zeros((2, 5, 5)))
        with pytest.raises(ShapeMismatchError):
            conv2d_forward(fm, np.zeros((1, 3, 3, 3)))  # wrong in_c
        with pytest.raises(ShapeMismatchError):
            conv2d_forward(fm, np.zeros((1, 2, 3, 2)))  # non-square
        with pytest.raises(ShapeMismatchError):
            conv2d_forward(fm, np.zeros((1, 2, 7, 7)))  # kernel larger than map
        with pytest.raises(ShapeMismatchError):
            conv2d_forward(fm, np.zeros((1, 2, 3, 3)), bias=np.zeros(2))


class TestStrideAndPadding:
    FM = FeatureMap(np.arange(2 * 6 * 7, dtype=float).reshape(2, 6, 7))
    W = np.ones((1, 2, 3, 3))

    def convolutions(self, stride, padding, out_hw=(4, 5)):
        """conv2d_forward, deformable_conv2d_forward (zero offsets over an
        out_hw grid) and conv2d_naive on FM and W, as calls to make."""
        offsets = FeatureMap(np.zeros((18, *out_hw)))
        return [
            lambda: conv2d_forward(self.FM, self.W, None, stride, padding),
            lambda: deformable_conv2d_forward(self.FM, self.W, None, offsets, stride, padding),
            lambda: conv2d_naive(self.FM, self.W, None, stride, padding),
        ]

    @pytest.mark.parametrize(
        "stride, padding",
        [(1.5, 0), (1, 0.5), (2.0, 1), (1, 1.0), (True, 0), (1, False), (np.True_, 0),
         (np.float64(2.0), 0), ("2", 0), (None, 0)],
    )
    def test_non_int_or_bool_rejected(self, stride, padding):
        for call in self.convolutions(stride, padding):
            with pytest.raises(ValueError, match=r"each an int \(not a bool\)"):
                call()

    @pytest.mark.parametrize("stride, padding, out_hw", [(1, 0, (4, 5)), (2, 1, (3, 4))])
    def test_numpy_ints_accepted(self, stride, padding, out_hw):
        want = self.convolutions(stride, padding, out_hw)
        got = self.convolutions(np.int64(stride), np.int32(padding), out_hw)
        for g, w in zip(got, want):
            assert np.array_equal(g().data, w().data)


class TestDeformableConv2d:
    def test_zero_offsets_equal_standard(self):
        rng = np.random.default_rng(9)
        fm = FeatureMap(rng.normal(size=(3, 7, 7)))
        w = rng.normal(size=(2, 3, 3, 3))
        b = rng.normal(size=2)
        std = conv2d_forward(fm, w, b, 1, 1)
        off = FeatureMap(np.zeros((18, std.height, std.width)))
        got = deformable_conv2d_forward(fm, w, b, off, 1, 1)
        assert np.abs(got.data - std.data).max() < 1e-12

    def test_constant_input_ignores_offsets(self):
        rng = np.random.default_rng(10)
        fm = FeatureMap(np.full((2, 9, 9), 1.75))
        w = rng.normal(size=(3, 2, 3, 3))
        std = conv2d_forward(fm, w, None, 1, 0)
        off = FeatureMap(rng.uniform(-0.45, 0.45, size=(18, std.height, std.width)))
        got = deformable_conv2d_forward(fm, w, None, off, 1, 0)
        # compare where every displaced tap stays inside the map
        sl = (slice(None), slice(1, -1), slice(1, -1))
        assert np.abs(got.data[sl] - std.data[sl]).max() < 1e-12

    def test_column_shift_on_ramp(self):
        xs = np.tile(np.arange(8.0), (6, 1))
        fm = FeatureMap(xs[None])
        w = np.ones((1, 1, 3, 3))
        std = conv2d_forward(fm, w)  # (1, 4, 6)
        off = np.zeros((18, 4, 6))
        off[1::2] = 1.0  # dx = +1 for every tap
        got = deformable_conv2d_forward(fm, w, None, FeatureMap(off))
        assert np.abs(got.data[:, :, :5] - std.data[:, :, 1:6]).max() < 1e-12

    def test_random_offsets_match_per_tap_loop(self):
        rng = np.random.default_rng(13)
        fm = FeatureMap(rng.normal(size=(2, 6, 7)))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        for stride in (1, 2):
            for padding in (0, 1):
                oh = (6 + 2 * padding - 3) // stride + 1
                ow = (7 + 2 * padding - 3) // stride + 1
                off = FeatureMap(rng.uniform(-2.5, 2.5, size=(18, oh, ow)))
                ki, kj = np.divmod(np.arange(9)[:, None, None], 3)
                ys = np.arange(oh)[:, None] * stride - padding + ki + off.data[0::2]
                xs = np.arange(ow) * stride - padding + kj + off.data[1::2]
                outside = (ys < 0) | (ys > fm.height - 1) | (xs < 0) | (xs > fm.width - 1)
                assert np.all(off.data != 0.0) and 0 < outside.mean() < 1
                got = deformable_conv2d_forward(fm, w, b, off, stride, padding)
                want = deformable_reference(fm, w, b, off, stride, padding)
                assert np.abs(got.data - want).max() < 1e-12

    def test_offset_shape_errors(self):
        fm = FeatureMap(np.zeros((1, 7, 7)))
        w = np.zeros((1, 1, 3, 3))
        with pytest.raises(ShapeMismatchError):
            deformable_conv2d_forward(fm, w, None, FeatureMap(np.zeros((4, 5, 5))))
        with pytest.raises(ShapeMismatchError):
            deformable_conv2d_forward(fm, w, None, FeatureMap(np.zeros((18, 4, 4))))

    def test_linearity_in_feature_map(self):
        rng = np.random.default_rng(11)
        x = FeatureMap(rng.normal(size=(2, 6, 6)))
        y = FeatureMap(rng.normal(size=(2, 6, 6)))
        w = rng.normal(size=(2, 2, 3, 3))
        off = FeatureMap(rng.uniform(-1, 1, size=(18, 4, 4)))
        mixed = FeatureMap(0.5 * x.data + 4.0 * y.data)
        got = deformable_conv2d_forward(mixed, w, None, off).data
        want = (
            0.5 * deformable_conv2d_forward(x, w, None, off).data
            + 4.0 * deformable_conv2d_forward(y, w, None, off).data
        )
        assert np.abs(got - want).max() < 1e-9


class TestTrainingCropBoxes:
    def test_gts_always_kept_and_threshold_strict(self):
        gts = [RotatedBox(5, 5, 4, 2, 0.0), RotatedBox(9, 9, 4, 2, 0.1)]
        preds = [
            ScoredBox(RotatedBox(1, 1, 4, 2, 0), 0.95),
            ScoredBox(RotatedBox(2, 2, 4, 2, 0), 0.9),  # exactly at threshold: out
            ScoredBox(RotatedBox(3, 3, 4, 2, 0), 0.4),
        ]
        out = training_crop_boxes(gts, preds)
        assert out == gts + [preds[0].box]

    def test_no_predictions(self):
        gts = [RotatedBox(5, 5, 4, 2, 0.0)]
        assert training_crop_boxes(gts, []) == gts

    @pytest.mark.parametrize("thresh", [math.nan, "0.5", True, None, 1.5, -0.1])
    def test_rejects_a_threshold_that_is_not_a_unit_real(self, thresh):
        preds = [ScoredBox(RotatedBox(1, 1, 4, 2, 0), 0.95)]
        with pytest.raises(ValueError, match="score_thresh must be in"):
            training_crop_boxes([], preds, thresh)


class TestBiLstm:
    @staticmethod
    def params(input_size, hidden, fill=0.0, rng=None):
        if rng is None:
            w_in = np.full((4 * hidden, input_size), fill)
            w_hid = np.full((4 * hidden, hidden), fill)
            bias = np.full(4 * hidden, fill)
        else:
            w_in = rng.normal(size=(4 * hidden, input_size))
            w_hid = rng.normal(size=(4 * hidden, hidden))
            bias = rng.normal(size=4 * hidden)
        return LstmParams(w_in, w_hid, bias)

    def test_zero_weights_zero_output(self):
        p = self.params(3, 2)
        out = bilstm_forward(np.random.default_rng(0).normal(size=(5, 3)), BiLstmParams(p, p))
        assert np.all(out == 0.0)

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        p = self.params(4, 3, rng=rng)
        out = bilstm_forward(rng.normal(size=(7, 4)), BiLstmParams(p, p))
        assert out.shape == (7, 6)

    def test_single_step_gate_equations(self):
        # one timestep, scalar gates: h = sigm(x) * tanh(sigm(x) * tanh(x))
        p = LstmParams(np.ones((4, 1)), np.zeros((4, 1)), np.zeros(4))
        x = 2.0
        out = bilstm_forward(np.array([[x]]), BiLstmParams(p, p))
        sig = 1.0 / (1.0 + math.exp(-x))
        want = sig * math.tanh(sig * math.tanh(x))
        assert out[0, 0] == pytest.approx(want, abs=1e-12)
        assert out[0, 1] == pytest.approx(want, abs=1e-12)

    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(2)
        p = self.params(3, 4, rng=rng)
        params = BiLstmParams(p, p)
        half = rng.normal(size=(4, 3))
        seq = np.concatenate([half, half[::-1]])
        out = bilstm_forward(seq, params)
        hidden = 4
        swapped = np.concatenate([out[::-1, hidden:], out[::-1, :hidden]], axis=1)
        assert np.allclose(out, swapped, atol=1e-12)

    def test_multi_step_matches_per_gate_loop(self):
        rng = np.random.default_rng(14)
        fwd = self.params(5, 4, rng=rng)
        bwd = self.params(5, 4, rng=rng)
        seq = rng.normal(size=(9, 5))
        out = bilstm_forward(seq, BiLstmParams(fwd, bwd))
        want = np.concatenate(
            [lstm_reference(seq, fwd), lstm_reference(seq[::-1], bwd)[::-1]], axis=1
        )
        assert np.abs(out - want).max() < 1e-12

    def test_shape_errors(self):
        p = self.params(3, 2)
        with pytest.raises(ShapeMismatchError):
            bilstm_forward(np.zeros((4, 5)), BiLstmParams(p, p))
        with pytest.raises(ShapeMismatchError):
            LstmParams(np.zeros((7, 3)), np.zeros((7, 1)), np.zeros(7))
        with pytest.raises(ShapeMismatchError):
            BiLstmParams(p, self.params(4, 2))
