"""Classification and regression losses with analytic gradients.

Scalar kernels return (value, derivative) pairs so gradient checks can run
without autodiff. Composition helpers mirror the detector's weighted sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .anchors import BoxDelta, ShapeDelta
from .errors import DomainError
from .geometry import _real_as_float

# Probabilities are clamped away from {0, 1} before log().
PROB_EPS = 1e-7


@dataclass(frozen=True)
class FocalParams:
    """Focal loss balance/focusing parameters: alpha a real number in (0, 1),
    gamma in [0, inf); anything else, a bool, str or None included, raises
    ValueError."""

    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        alpha, gamma = (
            math.nan if isinstance(v, bool) else _real_as_float(v) for v in (self.alpha, self.gamma)
        )
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not 0.0 <= gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")


@dataclass(frozen=True)
class DetLossWeights:
    """Weights of the refinement / localization / classification terms."""

    lambda_ref: float = 0.5
    lambda_loc: float = 0.5
    lambda_cls: float = 1.0


@dataclass(frozen=True)
class EndToEndWeights:
    """Weights of the detection and recognition terms in the total loss."""

    lambda_det: float = 1.0
    lambda_rec: float = 0.1


def _focal(p: np.ndarray, y: np.ndarray, params: FocalParams) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise focal loss and d/dp for checked p in [0, 1] and y in {0, 1}."""
    pos = y == 1
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    pt = np.where(pos, p, 1.0 - p)
    at = np.where(pos, params.alpha, 1.0 - params.alpha)
    one_minus = 1.0 - pt
    log_pt = np.log(pt)
    gamma = params.gamma
    loss = -at * one_minus**gamma * log_pt
    if gamma == 0.0:
        dloss_dpt = -at / pt
    else:
        dloss_dpt = at * gamma * one_minus ** (gamma - 1.0) * log_pt - at * one_minus**gamma / pt
    return loss, np.where(pos, dloss_dpt, -dloss_dpt)


def focal_loss(p: float, y: int, params: FocalParams = FocalParams()) -> tuple[float, float]:
    """Focal loss -alpha_t (1 - p_t)^gamma log(p_t) and d/dp.

    p is the predicted foreground probability, y in {0, 1} the label;
    p_t = p for positives and 1 - p for negatives, with alpha_t = alpha
    for positives and 1 - alpha otherwise.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must be in [0, 1], got {p!r}")
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    loss, grad = _focal(np.float64(p), np.int64(y), params)
    return float(loss), float(grad)


def smooth_l1(x: float) -> tuple[float, float]:
    """Huber-style penalty: 0.5 x^2 inside |x| < 1, |x| - 0.5 outside."""
    if abs(x) < 1.0:
        return 0.5 * x * x, x
    return abs(x) - 0.5, math.copysign(1.0, x)


def _smooth_l1_sum(target, pred) -> float:
    """Smooth-L1 of target - pred summed over every field of the delta."""
    return sum(
        smooth_l1(getattr(target, f.name) - getattr(pred, f.name))[0] for f in fields(target)
    )


def regression_loss(target: BoxDelta, pred: BoxDelta) -> float:
    """Smooth-L1 summed over the five offset components."""
    return _smooth_l1_sum(target, pred)


def refinement_loss(target: ShapeDelta, pred: ShapeDelta) -> float:
    """Smooth-L1 summed over the three shape components."""
    return _smooth_l1_sum(target, pred)


def detection_loss(
    l_ref: float, l_loc: float, l_cls: float, w: DetLossWeights = DetLossWeights()
) -> float:
    return w.lambda_ref * l_ref + w.lambda_loc * l_loc + w.lambda_cls * l_cls


def end_to_end_loss(l_det: float, l_rec: float, w: EndToEndWeights = EndToEndWeights()) -> float:
    return w.lambda_det * l_det + w.lambda_rec * l_rec


def anchor_classification_loss(
    probs: Sequence[float], labels: Sequence[int], params: FocalParams = FocalParams()
) -> float:
    """Focal loss over anchors, divided by the positive count (never below 1).

    Labels are 1 / 0 / -1; anchors labelled -1 are ignored, whatever their
    probability. Any other anchor must have p in [0, 1] and a label in
    {0, 1}; the first one that does not raises the error focal_loss would.
    Probabilities must be real numbers: a string or None anywhere raises
    TypeError.
    """
    if len(probs) != len(labels):
        raise ValueError("probs and labels length mismatch")
    y = np.asarray(labels, dtype=np.float64)
    used = y != -1
    p = np.asarray(probs)
    if p.dtype.kind not in "biuf":
        raise TypeError(f"probabilities must be real numbers, got an array of {p.dtype}")
    p = p.astype(np.float64, copy=False)[used]
    y = y[used]
    bad = ~((p >= 0.0) & (p <= 1.0)) | ~((y == 0) | (y == 1))
    if bad.any():
        first = int(np.flatnonzero(used)[bad.argmax()])
        focal_loss(probs[first], labels[first], params)  # raises for that anchor
    loss, _ = _focal(p, y, params)
    return float(loss.sum()) / max(1, int(np.count_nonzero(y == 1)))


def anchor_localization_loss(targets: Iterable[BoxDelta], preds: Iterable[BoxDelta]) -> float:
    """Regression loss over matched (positive) anchor pairs, divided by the
    pair count (never below 1)."""
    targets = list(targets)
    preds = list(preds)
    if len(targets) != len(preds):
        raise ValueError("targets and preds length mismatch")
    return sum(regression_loss(t, p) for t, p in zip(targets, preds)) / max(1, len(targets))
