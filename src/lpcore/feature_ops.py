"""Dense feature-map operators: region cropping by bilinear sampling,
standard/deformable convolution, and a minimal bidirectional LSTM forward.

Feature maps are (channels, height, width) float64 arrays. Sampling uses
continuous coordinates with pixel centers at integers; reads outside
[0, W-1] x [0, H-1] contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .geometry import RotatedBox, ScoredBox, _check_unit_threshold, _is_int


@dataclass(frozen=True)
class FeatureMap:
    """Immutable-by-convention wrapper for a (C, H, W) float64 array."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeMismatchError(f"feature map must be 3-D (C,H,W), got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("feature map values must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class CropSpec:
    """Region-crop output geometry; defaults suit one-line plate text.

    A field that is not a positive int (a bool is not one) raises ValueError."""

    out_h: int = 8
    out_w: int = 25
    sampling_ratio: int = 2

    def __post_init__(self):
        if not all(_is_int(v) and v > 0 for v in (self.out_h, self.out_w, self.sampling_ratio)):
            raise ValueError(f"CropSpec fields must be positive ints (not bools), got {self!r}")


def training_crop_boxes(
    gts: list[RotatedBox],
    preds: list[ScoredBox],
    score_thresh: float = 0.9,
) -> list[RotatedBox]:
    """Regions to crop while training the recognizer.

    Ground-truth boxes are always cropped; predicted boxes join them only
    when their score is strictly above the threshold, so near-miss boxes
    that may cut characters off stay out. A threshold that is not a real
    number (a bool is not one) in [0, 1] raises ValueError.
    """
    _check_unit_threshold(score_thresh, "score_thresh")
    selected = list(gts)
    selected.extend(sb.box for sb in preds if sb.score > score_thresh)
    return selected


def _bilinear_gather(data: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample all channels at fractional (x, y) points; zero outside. (C, N).

    The four corners of every point are read at once from the flattened
    map; a corner outside the map reads a clipped index with weight zero.
    A map with no pixels reads zero everywhere.
    """
    c, h, w = data.shape
    if h * w == 0:
        return np.zeros((c, xs.size))
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    fx = xs - x0
    fy = ys - y0
    # corners in the order (y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1)
    xi = x0.astype(np.int64) + np.array([[0], [1], [0], [1]])
    yi = y0.astype(np.int64) + np.array([[0], [0], [1], [1]])
    wgt = np.stack(((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy))
    wgt *= (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
    flat = np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1)
    return np.einsum("ckn,kn->cn", data.reshape(c, h * w)[:, flat], wgt)


def _subsample_fractions(out_len: int, ratio: int) -> np.ndarray:
    """Sample positions along one box axis, as fractions of the box side."""
    return (np.arange(out_len * ratio) + 0.5) / ratio / out_len


def rroi_align(fm: FeatureMap, box: RotatedBox, spec: CropSpec = CropSpec()) -> FeatureMap:
    """Crop a rotated box to (C, out_h, out_w) by averaged bilinear samples.

    Box-local x spans the width w across out_w columns and local y spans h
    across out_h rows; each output cell averages sampling_ratio^2 samples
    on a regular interior sub-grid of its footprint.
    """
    r = spec.sampling_ratio
    fx = _subsample_fractions(spec.out_w, r)
    fy = _subsample_fractions(spec.out_h, r)
    u = fx * box.w - box.w / 2.0
    v = fy * box.h - box.h / 2.0
    uu, vv = np.meshgrid(u, v)
    c, s = np.cos(box.theta), np.sin(box.theta)
    xs = box.cx + uu * c - vv * s
    ys = box.cy + uu * s + vv * c
    samples = _bilinear_gather(fm.data, xs.ravel(), ys.ravel())
    samples = samples.reshape(fm.channels, spec.out_h, r, spec.out_w, r)
    return FeatureMap(samples.mean(axis=(2, 4)))


def roi_align(fm: FeatureMap, box: RotatedBox, spec: CropSpec = CropSpec()) -> FeatureMap:
    """Axis-aligned crop: rroi_align of a box with theta == 0."""
    if box.theta != 0.0:
        raise ValueError(f"roi_align requires theta == 0, got {box.theta}")
    return rroi_align(fm, box, spec)


def _conv_out_dims(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeMismatchError(
            f"kernel {k} with stride {stride}, padding {padding} exceeds input {h}x{w}"
        )
    return oh, ow


def _check_conv_args(
    fm: FeatureMap, weights: np.ndarray, bias: np.ndarray | None, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, int]:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
        raise ShapeMismatchError(f"weights must be (out_c, in_c, k, k), got {weights.shape}")
    if weights.shape[1] != fm.channels:
        raise ShapeMismatchError(
            f"weights expect {weights.shape[1]} input channels, map has {fm.channels}"
        )
    if not (_is_int(stride) and _is_int(padding) and stride >= 1 and padding >= 0):
        raise ValueError(
            f"stride must be >= 1 and padding >= 0, each an int (not a bool); "
            f"got stride={stride!r}, padding={padding!r}"
        )
    if bias is None:
        bias = np.zeros(weights.shape[0])
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (weights.shape[0],):
        raise ShapeMismatchError(f"bias must have shape ({weights.shape[0]},), got {bias.shape}")
    return weights, bias, weights.shape[2]


def conv2d_forward(
    fm: FeatureMap,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> FeatureMap:
    """Cross-correlation with square kernel, zero padding.

    Weights that are not (out_c, fm.channels, k, k), a bias that is not
    (out_c,), or a kernel that does not fit the padded map raise
    ShapeMismatchError; a stride or padding that is not an int (a bool
    included), a stride < 1 or a padding < 0 raises ValueError.
    """
    weights, bias, k = _check_conv_args(fm, weights, bias, stride, padding)
    oh, ow = _conv_out_dims(fm.height, fm.width, k, stride, padding)
    padded = np.pad(fm.data, ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    out = np.tensordot(weights, windows[:, ::stride, ::stride], axes=([1, 2, 3], [0, 3, 4]))
    return FeatureMap(out + bias[:, None, None])


def deformable_conv2d_forward(
    fm: FeatureMap,
    weights: np.ndarray,
    bias: np.ndarray | None,
    offsets: FeatureMap,
    stride: int = 1,
    padding: int = 0,
) -> FeatureMap:
    """Convolution whose taps sample at learned fractional displacements.

    offsets holds 2*k*k channels over the output grid: channel 2t is the
    vertical shift dy and 2t+1 the horizontal shift dx for tap t = ki*k+kj.
    Each tap reads the input bilinearly at (base position + shift).
    Arguments are checked as conv2d_forward checks them, and offsets that
    do not fit the kernel and output grid raise ShapeMismatchError.
    """
    weights, bias, k = _check_conv_args(fm, weights, bias, stride, padding)
    oh, ow = _conv_out_dims(fm.height, fm.width, k, stride, padding)
    if offsets.channels != 2 * k * k:
        raise ShapeMismatchError(
            f"offsets need {2 * k * k} channels for k={k}, got {offsets.channels}"
        )
    if (offsets.height, offsets.width) != (oh, ow):
        raise ShapeMismatchError(
            f"offsets spatial dims {offsets.height}x{offsets.width} != output {oh}x{ow}"
        )
    oys, oxs = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    ki, kj = np.divmod(np.arange(k * k)[:, None, None], k)
    ys = oys * stride - padding + ki + offsets.data[0::2]
    xs = oxs * stride - padding + kj + offsets.data[1::2]
    # (C, k*k, oh*ow) flattens channel-major, matching weights (O, C, k, k)
    samples = _bilinear_gather(fm.data, xs.ravel(), ys.ravel())
    out = weights.reshape(weights.shape[0], -1) @ samples.reshape(-1, oh * ow)
    return FeatureMap((out + bias[:, None]).reshape(weights.shape[0], oh, ow))


@dataclass(frozen=True)
class LstmParams:
    """Single-direction LSTM weights; gate rows ordered (i, f, g, o)."""

    w_input: np.ndarray
    w_hidden: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w_in = np.asarray(self.w_input, dtype=np.float64)
        w_hid = np.asarray(self.w_hidden, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w_in.ndim != 2 or w_hid.ndim != 2 or b.ndim != 1:
            raise ShapeMismatchError("LSTM weights must be 2-D matrices and a 1-D bias")
        if w_in.shape[0] % 4 != 0:
            raise ShapeMismatchError(f"gate dim {w_in.shape[0]} not divisible by 4")
        hidden = w_in.shape[0] // 4
        if w_hid.shape != (4 * hidden, hidden) or b.shape != (4 * hidden,):
            raise ShapeMismatchError(
                f"inconsistent LSTM shapes: {w_in.shape}, {w_hid.shape}, {b.shape}"
            )
        object.__setattr__(self, "w_input", w_in)
        object.__setattr__(self, "w_hidden", w_hid)
        object.__setattr__(self, "bias", b)

    @property
    def hidden_size(self) -> int:
        return self.w_input.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_input.shape[1]


@dataclass(frozen=True)
class BiLstmParams:
    forward: LstmParams
    backward: LstmParams

    def __post_init__(self):
        if (
            self.forward.input_size != self.backward.input_size
            or self.forward.hidden_size != self.backward.hidden_size
        ):
            raise ShapeMismatchError("forward/backward LSTM dimensions differ")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_direction(seq: np.ndarray, p: LstmParams) -> np.ndarray:
    hidden = p.hidden_size
    projected = seq @ p.w_input.T + p.bias  # input terms of every frame's gates
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    outs = np.zeros((seq.shape[0], hidden))
    for t in range(seq.shape[0]):
        gates = projected[t] + p.w_hidden @ h
        act = _sigmoid(gates)
        g = np.tanh(gates[2 * hidden : 3 * hidden])
        c = act[hidden : 2 * hidden] * c + act[:hidden] * g
        h = act[3 * hidden :] * np.tanh(c)
        outs[t] = h
    return outs


def bilstm_forward(seq, params: BiLstmParams) -> np.ndarray:
    """Concatenate forward and (re-reversed) backward hidden states.

    seq is (T, D); the result is (T, 2 * hidden).
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise ShapeMismatchError(f"sequence must be (T, D), got shape {seq.shape}")
    if seq.shape[1] != params.forward.input_size:
        raise ShapeMismatchError(
            f"sequence feature dim {seq.shape[1]} != LSTM input {params.forward.input_size}"
        )
    fwd = _lstm_direction(seq, params.forward)
    bwd = _lstm_direction(seq[::-1], params.backward)[::-1]
    return np.concatenate([fwd, bwd], axis=1)
