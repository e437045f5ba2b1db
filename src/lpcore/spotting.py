"""End-to-end spotting metric: joint box-IoU and transcript matching.

A prediction counts as a true positive only when its best available
ground-truth box overlaps by strictly more than the threshold AND the
transcripts match exactly. Totals then feed recall / precision / F-score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import exact_match
from .errors import ImageIdMismatchError
from .geometry import RotatedBox, _box_array, _check_unit_threshold, _iou_exceeds, _iou_pairs

DEFAULT_IOU_THRESH = 0.6
UNIDENTIFIABLE_CHAR = "*"


@dataclass(frozen=True)
class SpottingItem:
    """One plate: box, transcript, and (for predictions) a confidence."""

    box: RotatedBox
    transcript: str
    score: float | None = None


@dataclass(frozen=True)
class SpottingRecord:
    """All plates of one image, either ground truth or predictions."""

    image_id: str
    items: tuple[SpottingItem, ...] = ()

    def __post_init__(self):
        if not self.image_id:
            raise ValueError("image_id must be nonempty")
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class SpottingCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "SpottingCounts") -> "SpottingCounts":
        return SpottingCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def is_unidentifiable(transcript: str) -> bool:
    """Plate content carries the placeholder for unreadable characters."""
    return UNIDENTIFIABLE_CHAR in transcript


def match_image(
    gt: SpottingRecord,
    pred: SpottingRecord,
    iou_thresh: float = DEFAULT_IOU_THRESH,
    ignore_unidentifiable: bool = False,
) -> SpottingCounts:
    """Greedy one-to-one matching for a single image.

    Predictions are visited by descending score; each claims the unmatched
    ground truth with the highest IoU. The claim is a TP iff the IoU is
    strictly above iou_thresh and the transcripts match exactly; a claim
    that passes IoU but fails the text still consumes the ground truth.
    Ground truths with placeholder characters can never match by text;
    with ignore_unidentifiable they are dropped from FN, and predictions
    consumed by them are dropped from FP (do-not-care regions).
    """
    if gt.image_id != pred.image_id:
        raise ImageIdMismatchError(f"image ids differ: {gt.image_id!r} vs {pred.image_id!r}")
    images, *counts = _match_columns(
        _columns([gt]), _columns([pred]), iou_thresh, ignore_unidentifiable
    )
    return _count_pairs(images, *counts)[0][1] if images else SpottingCounts()


def _columns(records: list[SpottingRecord]):
    """Records as the columns dataio._read_records returns for a file."""
    items = [(r.image_id, item) for r in records for item in r.items]
    return (
        [image_id for image_id, _ in items],
        np.array([item.score or 0.0 for _, item in items], dtype=np.float64),
        [item.score is not None for _, item in items],
        _box_array([item.box for _, item in items]),
        [item.transcript for _, item in items],
    )


def _match_columns(
    gt, pred, iou_thresh: float, ignore_unidentifiable: bool
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """match_image on every image of two record columns, as count columns.

    ``gt`` and ``pred`` are columns as dataio._read_records returns them.
    Rows of one image id form one image, in row order; a missing score
    counts as 0. An image with rows on one side only is matched against
    an empty image. iou_thresh must be a real number in [0, 1], not a bool.
    Returns the sorted image ids and int arrays of their tp, fp and fn.
    """
    _check_unit_threshold(iou_thresh, "iou_thresh")
    gt_ids, _, _, gt_boxes, gt_texts = gt
    pred_ids, scores, _, pred_boxes, pred_texts = pred
    images = sorted(set(gt_ids).union(pred_ids))
    code = {image_id: k for k, image_id in enumerate(images)}
    g_img = np.fromiter(map(code.__getitem__, gt_ids), np.intp, len(gt_ids))
    p_img = np.fromiter(map(code.__getitem__, pred_ids), np.intp, len(pred_ids))
    g_count = np.bincount(g_img, minlength=len(images))
    p_count = np.bincount(p_img, minlength=len(images))
    # Predictions claim by image, then descending score, then row (lexsort
    # is stable). Each is paired with every ground-truth row of its image,
    # in row order, so the pairs reach the threshold kernel in claim order.
    order = np.lexsort((-scores, p_img))
    claim_img = p_img[order]
    reps = g_count[claim_img]
    pair_pred = np.repeat(order, reps)
    within = np.arange(len(pair_pred)) - np.repeat(np.cumsum(reps) - reps, reps)
    g_first = np.cumsum(g_count) - g_count
    pair_gt = np.argsort(g_img, kind="stable")[np.repeat(g_first[claim_img], reps) + within]
    # A prediction claims the first untaken ground truth of highest IoU, and
    # only if that IoU passes the threshold, so only such pairs can matter.
    hit = np.flatnonzero(_iou_exceeds(pred_boxes[pair_pred], gt_boxes[pair_gt], iou_thresh))
    hit_pred = pair_pred[hit]
    # Only a prediction with two or more hits needs their IoUs, to rank
    # them; a lone hit is claimed whatever its IoU, so 1.0 stands in.
    iou = np.ones(len(hit))
    ranked = np.flatnonzero(np.bincount(hit_pred, minlength=len(pred_ids))[hit_pred] > 1)
    iou[ranked] = _iou_pairs(pred_boxes[hit_pred[ranked]], gt_boxes[pair_gt[hit[ranked]]])
    # a prediction claims at its last candidate pair
    ends = np.append(hit_pred[1:] != hit_pred[:-1], True)
    tp_rows = []  # ground-truth rows claimed with the right text
    dont_care_rows = []  # placeholder plates claimed under ignore: not FP
    taken = set()
    best_j, best_iou = -1, 0.0
    for i, j, v, end in zip(
        hit_pred.tolist(), pair_gt[hit].tolist(), iou.tolist(), ends.tolist()
    ):
        if v > best_iou and j not in taken:
            best_j, best_iou = j, v
        if not end or best_j < 0:
            continue
        taken.add(best_j)
        g_text = gt_texts[best_j]
        if is_unidentifiable(g_text):
            if ignore_unidentifiable:
                dont_care_rows.append(best_j)
        elif exact_match(pred_texts[i], g_text):
            tp_rows.append(best_j)
        best_j, best_iou = -1, 0.0
    # every TP is an identifiable ground truth, and no other is matched
    scored = g_count
    if ignore_unidentifiable:
        placeholder = np.fromiter(map(is_unidentifiable, gt_texts), bool, len(gt_texts))
        scored = scored - np.bincount(g_img[placeholder], minlength=len(images))
    tp = np.bincount(g_img[tp_rows], minlength=len(images))
    dont_care = np.bincount(g_img[dont_care_rows], minlength=len(images))
    return images, tp, p_count - tp - dont_care, scored - tp


def _count_pairs(images, tp, fp, fn) -> list[tuple[str, SpottingCounts]]:
    """Count columns as (image_id, SpottingCounts) pairs of Python ints."""
    return [
        (image_id, SpottingCounts(*c))
        for image_id, c in zip(images, zip(tp.tolist(), fp.tolist(), fn.tolist()))
    ]


def aggregate(counts: list[SpottingCounts]) -> tuple[float, float, float]:
    """Dataset-level (recall, precision, fscore); 0 on empty denominators."""
    tp = sum(c.tp for c in counts)
    fp = sum(c.fp for c in counts)
    fn = sum(c.fn for c in counts)
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    fscore = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return recall, precision, fscore


def _by_image_id(records: list[SpottingRecord], side: str) -> dict[str, SpottingRecord]:
    by_id: dict[str, SpottingRecord] = {}
    for r in records:
        if r.image_id in by_id:
            raise ValueError(f"duplicate {side} image id {r.image_id!r}")
        by_id[r.image_id] = r
    return by_id


def match_records(
    gts: list[SpottingRecord],
    preds: list[SpottingRecord],
    iou_thresh: float = DEFAULT_IOU_THRESH,
    ignore_unidentifiable: bool = False,
) -> list[tuple[str, SpottingCounts]]:
    """Match whole datasets, pairing records by image id.

    Images present on only one side are scored against an empty record.
    An image id may appear at most once per side. The result is sorted by
    image id.
    """
    gt_by_id = _by_image_id(gts, "ground-truth")
    pred_by_id = _by_image_id(preds, "prediction")
    columns = _match_columns(_columns(gts), _columns(preds), iou_thresh, ignore_unidentifiable)
    counts = dict(_count_pairs(*columns))
    return [
        (image_id, counts.get(image_id) or SpottingCounts())
        for image_id in sorted(gt_by_id.keys() | pred_by_id.keys())
    ]
