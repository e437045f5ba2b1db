"""Anchor grids, IoU-based target assignment, and box-offset coding.

One anchor per feature-map cell. Offsets follow the tangent
parameterization for angle: dtheta = tan(g.theta) - tan(b.theta), which is
safe because canonical boxes keep |theta| <= pi/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import MAX_SIDE, MIN_SIDE, RotatedBox, _box_array, _checked_box_array, _iou_matrix

# Conventional single-stage defaults; the P3 stride with a wide 3:1 base
# matches plate geometry. All are overridable call arguments.
DEFAULT_STRIDE = 8
DEFAULT_BASE_W = 48.0
DEFAULT_BASE_H = 16.0
DEFAULT_POS_IOU = 0.5
DEFAULT_NEG_IOU = 0.4

# Assignment.gt_index sentinels (non-negative values are ground-truth indices).
NEGATIVE = -1
IGNORE = -2


@dataclass(frozen=True)
class BoxDelta:
    """Full regression offset (dx, dy, dw, dh, dtheta)."""

    dx: float
    dy: float
    dw: float
    dh: float
    dtheta: float

    def __post_init__(self):
        for name in ("dx", "dy", "dw", "dh", "dtheta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"BoxDelta.{name} must be finite")


@dataclass(frozen=True)
class ShapeDelta:
    """Shape-only offset (dw, dh, dtheta); the center is never moved."""

    dw: float
    dh: float
    dtheta: float

    def __post_init__(self):
        for name in ("dw", "dh", "dtheta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ShapeDelta.{name} must be finite")


@dataclass(frozen=True)
class AnchorGrid:
    """One axis-aligned anchor of size (base_w, base_h) per grid cell.

    ``boxes`` is the read-only (grid_h * grid_w, 5) float64 array of anchor
    (cx, cy, w, h, theta) rows in row-major cell order, built from the five
    parameters: cell (i, j) gets an anchor at ((j+.5)s, (i+.5)s). ``anchors``
    is the same grid as RotatedBox objects, built on first use.
    """

    stride: int
    base_w: float
    base_h: float
    grid_h: int
    grid_w: int
    boxes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid_h, grid_w, stride = self.grid_h, self.grid_w, self.stride
        if grid_h <= 0 or grid_w <= 0 or stride <= 0 or self.base_w <= 0 or self.base_h <= 0:
            raise ValueError("all anchor-grid parameters must be positive")
        # the row check below rejects a centre that overflows to inf
        with np.errstate(over="ignore"):
            ys = (np.arange(grid_h) + 0.5) * stride
            xs = (np.arange(grid_w) + 0.5) * stride
        cy, cx = np.meshgrid(ys, xs, indexing="ij")
        boxes = np.zeros((grid_h * grid_w, 5))
        boxes[:, 0] = cx.ravel()
        boxes[:, 1] = cy.ravel()
        boxes[:, 2] = self.base_w
        boxes[:, 3] = self.base_h
        # a non-finite or out-of-range parameter shows as a bad row
        _checked_box_array(boxes, "AnchorGrid.boxes")
        boxes.flags.writeable = False
        object.__setattr__(self, "boxes", boxes)

    @cached_property
    def anchors(self) -> tuple[RotatedBox, ...]:
        return tuple(RotatedBox(*row) for row in self.boxes.tolist())


@dataclass(frozen=True)
class Assignment:
    """Per-anchor labels: gt_index >= 0 positive, NEGATIVE, or IGNORE."""

    gt_index: np.ndarray
    max_iou: np.ndarray
    pos_iou: float
    neg_iou: float

    @property
    def positive_mask(self) -> np.ndarray:
        return self.gt_index >= 0

    @property
    def negative_mask(self) -> np.ndarray:
        return self.gt_index == NEGATIVE

    @property
    def ignore_mask(self) -> np.ndarray:
        return self.gt_index == IGNORE


def generate_anchors(
    grid_h: int,
    grid_w: int,
    stride: int = DEFAULT_STRIDE,
    base_w: float = DEFAULT_BASE_W,
    base_h: float = DEFAULT_BASE_H,
) -> AnchorGrid:
    """The anchor grid of these parameters; see AnchorGrid."""
    return AnchorGrid(stride, base_w, base_h, grid_h, grid_w)


def assign_targets(
    grid: AnchorGrid,
    gts: list[RotatedBox],
    pos_iou: float = DEFAULT_POS_IOU,
    neg_iou: float = DEFAULT_NEG_IOU,
) -> Assignment:
    """Threshold assignment plus a best-anchor force-match per ground truth.

    Anchors at IoU >= pos_iou take their best ground truth; anchors below
    neg_iou are negative; the band between is ignored. Then, in index order,
    each ground truth left without a positive anchor is force-matched so
    small plates still train:

    - it takes its highest-IoU free (negative or ignored) anchor with IoU > 0;
    - failing that, it takes its highest-IoU anchor held by another ground
      truth that keeps at least one other positive anchor;
    - failing that, it stays unmatched.

    So a force-match never leaves a ground truth that had a positive anchor
    without one. Ties in IoU go to the lower anchor index.
    """
    if not 0.0 <= neg_iou < pos_iou <= 1.0:
        raise ValueError(f"need 0 <= neg_iou < pos_iou <= 1, got ({pos_iou}, {neg_iou})")
    n = len(grid.boxes)
    if not gts:
        return Assignment(
            np.full(n, NEGATIVE, dtype=np.int64), np.zeros(n), pos_iou, neg_iou
        )
    # the grid's array was checked at construction; gts' fields are canonical
    iou = _iou_matrix(grid.boxes, _box_array(gts))
    best_gt = iou.argmax(axis=1)
    max_iou = iou.max(axis=1)

    gt_index = np.full(n, NEGATIVE, dtype=np.int64)
    gt_index[max_iou >= neg_iou] = IGNORE
    positive = max_iou >= pos_iou
    gt_index[positive] = best_gt[positive]
    positives = np.bincount(best_gt[positive], minlength=len(gts))

    for k in range(len(gts)):
        if positives[k]:
            continue
        col = iou[:, k]
        order = np.argsort(-col, kind="stable")
        order = order[col[order] > 0.0]
        holder = gt_index[order]
        free = order[holder < 0]
        if free.size:
            a = free[0]
        else:  # every overlapping anchor is held: take one only from a spare
            spare = order[positives[holder] > 1]
            if not spare.size:
                continue
            a = spare[0]
            positives[gt_index[a]] -= 1
        gt_index[a] = k
        positives[k] += 1
    return Assignment(gt_index, max_iou, pos_iou, neg_iou)


def encode_delta(b: RotatedBox, g: RotatedBox) -> BoxDelta:
    """Offset from box b to ground truth g."""
    return BoxDelta(
        (g.cx - b.cx) / b.w,
        (g.cy - b.cy) / b.h,
        math.log(g.w / b.w),
        math.log(g.h / b.h),
        math.tan(g.theta) - math.tan(b.theta),
    )


def decode_delta(b: RotatedBox, d: BoxDelta) -> RotatedBox:
    """Algebraic inverse of encode_delta.

    A decoded side outside RotatedBox's range is a ValueError, also where
    exp(dw) or exp(dh) overflows.
    """
    try:
        w, h = b.w * math.exp(d.dw), b.h * math.exp(d.dh)
    except OverflowError:
        raise ValueError(
            f"RotatedBox sides must be in [{MIN_SIDE:g}, {MAX_SIDE:g}], "
            f"got w={b.w} * exp({d.dw}), h={b.h} * exp({d.dh})"
        ) from None
    return RotatedBox(
        b.cx + d.dx * b.w,
        b.cy + d.dy * b.h,
        w,
        h,
        math.atan(math.tan(b.theta) + d.dtheta),
    )


def refine_anchor(b: RotatedBox, d: ShapeDelta) -> RotatedBox:
    """Adjust only (w, h, theta); the center is carried over unchanged."""
    return decode_delta(b, BoxDelta(0.0, 0.0, d.dw, d.dh, d.dtheta))
