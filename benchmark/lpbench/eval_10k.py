"""eval_10k: the user-facing `lpcore evaluate` on 10k synthetic images.

One step is one ``cli.cmd_evaluate`` call over the whole set, with the report
file written and the per-image table sent to a sink. Every image's tp, fp and
fn are known by construction:

* ground-truth plates of one image sit far apart, so a prediction can only
  overlap the plate it was made from;
* a prediction made from a plate is that plate shifted by a fraction f of its
  width along its own w-axis, which gives an exact IoU of (1 - f) / (1 + f):
  f <= 0.12 (IoU >= 0.78) for hits, f in [0.35, 0.55] (IoU <= 0.48) for
  misses, both well clear of the 0.6 threshold;
* distractors sit in a band no plate reaches (IoU 0).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lpcore import cli

from .plates import (
    PLATE_LEN,
    place_apart,
    plate_shape,
    plate_text,
    shift_along_width,
    shift_iou,
    step_rng,
    wrong_text,
)

N_IMAGES = 10_000
IOU_THRESH = 0.6  # the evaluate default
# What happens to each ground-truth plate: matched with the right text,
# matched with wrong text, overlapping too little, no prediction at all, or
# matched and then claimed again by a lower-scored duplicate.
CASES = ("hit", "wrong_text", "low_overlap", "missed", "duplicate")
CASE_P = (0.55, 0.10, 0.10, 0.10, 0.15)
DISTRACTOR_P = 0.3
HIT_SHIFT = (0.0, 0.12)
MISS_SHIFT = (0.35, 0.55)


@dataclass(frozen=True)
class Counts:
    tp: int
    fp: int
    fn: int


@dataclass
class Dataset:
    gt_path: Path
    pred_path: Path
    report_path: Path
    expected: dict[str, Counts]
    fscore: float
    properties: dict


class _Sink:
    """Write target that keeps nothing, standing in for a terminal."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _fscore(tp: int, fp: int, fn: int) -> float:
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    return 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0


def _line(image_id, score, cx, cy, w, h, theta, text) -> str:
    s = "" if score is None else f"{score:.6f}"
    return f"{image_id},{s},{cx:.6f},{cy:.6f},{w:.6f},{h:.6f},{theta:.6f},{text}\n"


def generate(seed: int, workdir: Path, n_images: int = N_IMAGES) -> Dataset:
    rng = step_rng(seed, 1)
    gt_lines: list[str] = []
    pred_lines: list[str] = []
    expected: dict[str, Counts] = {}
    cases: Counter = Counter()
    plates_hist: Counter = Counter()
    pairs = nonzero_pairs = preds_total = 0
    for i in range(n_images):
        image_id = f"img{i:05d}"
        n = int(rng.integers(1, 4))
        plates_hist[n] += 1
        shapes = [plate_shape(rng, 80.0, 160.0, 0.3) for _ in range(n)]
        # a plate's disc plus the farthest shift of any copy made from it
        radii = [0.5 * np.hypot(w, h) + MISS_SHIFT[1] * w for w, h, _ in shapes]
        centers = place_apart(rng, radii, 200.0, 1800.0)
        tp = fp = fn = 0
        preds = []  # (score, plate it overlaps or -1, claims that plate, record line)
        for k, ((w, h, theta), (cx, cy)) in enumerate(zip(shapes, centers)):
            text = plate_text(rng)
            gt_lines.append(_line(image_id, None, cx, cy, w, h, theta, text))
            case = CASES[int(rng.choice(len(CASES), p=CASE_P))]
            cases[case] += 1
            sign = 1.0 if rng.random() < 0.5 else -1.0
            copies = []  # (shift fraction, text, score)
            if case in ("hit", "duplicate"):
                copies.append((rng.uniform(*HIT_SHIFT), text, rng.uniform(0.8, 1.0)))
                tp += 1
                if case == "duplicate":
                    copies.append((rng.uniform(*HIT_SHIFT), text, rng.uniform(0.5, 0.79)))
                    fp += 1
            elif case == "wrong_text":
                bad = wrong_text(rng, text)
                copies.append((rng.uniform(*HIT_SHIFT), bad, rng.uniform(0.5, 1.0)))
                fp += 1
                fn += 1
            elif case == "low_overlap":
                copies.append((rng.uniform(*MISS_SHIFT), text, rng.uniform(0.5, 1.0)))
                fp += 1
                fn += 1
            else:
                fn += 1
            for f, ptext, score in copies:
                px, py = shift_along_width(cx, cy, w, theta, float(f), sign)
                line = _line(image_id, float(score), px, py, w, h, theta, ptext)
                preds.append((round(float(score), 6), k, shift_iou(float(f)) > IOU_THRESH, line))
        if rng.random() < DISTRACTOR_P:
            w, h, theta = plate_shape(rng, 80.0, 160.0, 0.3)
            x, y = rng.uniform(2400.0, 3600.0), rng.uniform(200.0, 1800.0)
            score = float(rng.uniform(0.5, 1.0))
            preds.append((round(score, 6), -1, False,
                          _line(image_id, score, x, y, w, h, theta, plate_text(rng))))
            cases["distractor"] += 1
            fp += 1
        # Replay the greedy claim order to count the IoU pairs matching
        # evaluates and how many of them overlap.
        taken = [False] * n
        for score, k, takes, _ in sorted(preds, key=lambda p: -p[0]):
            pairs += taken.count(False)
            if k >= 0 and not taken[k]:
                nonzero_pairs += 1
                taken[k] = takes
        order = rng.permutation(len(preds))
        pred_lines.extend(preds[j][3] for j in order)
        preds_total += len(preds)
        expected[image_id] = Counts(tp, fp, fn)

    workdir.mkdir(parents=True, exist_ok=True)
    gt_path, pred_path = workdir / "gt.txt", workdir / "pred.txt"
    gt_text, pred_text = "".join(gt_lines), "".join(pred_lines)
    gt_path.write_text(gt_text, encoding="utf-8")
    pred_path.write_text(pred_text, encoding="utf-8")
    totals = Counts(*(sum(getattr(c, f) for c in expected.values()) for f in ("tp", "fp", "fn")))
    plates = sum(k * v for k, v in plates_hist.items())
    properties = {
        "images": n_images,
        "plates_per_image": {str(k): plates_hist[k] / n_images for k in sorted(plates_hist)},
        "plates_mean": plates / n_images,
        "predictions_per_image": preds_total / n_images,
        "plate_case_share": {c: cases[c] / plates for c in CASES},
        "distractors_per_image": cases["distractor"] / n_images,
        "iou_pairs_per_image": pairs / n_images,
        "iou_pairs_overlapping_share": nonzero_pairs / pairs if pairs else 0.0,
        "iou_pairs_disjoint_share": 1.0 - nonzero_pairs / pairs if pairs else 0.0,
        "label_length": PLATE_LEN,
        "gt_bytes": len(gt_text.encode("utf-8")),
        "pred_bytes": len(pred_text.encode("utf-8")),
        "gt_lines": len(gt_lines),
        "pred_lines": len(pred_lines),
        "expected": {"tp": totals.tp, "fp": totals.fp, "fn": totals.fn},
    }
    return Dataset(
        gt_path,
        pred_path,
        workdir / "report.txt",
        expected,
        _fscore(totals.tp, totals.fp, totals.fn),
        properties,
    )


class Workload:
    name = "eval_10k"
    item = "images"
    e2e_names = {
        "items_per_s": "eval_images_per_s",
        "step_p50_ms": "eval_pass_p50_ms",
        "step_p90_ms": "eval_pass_p90_ms",
    }
    trace_steps = 1

    def __init__(self, seed: int, workdir: Path, n_images: int = N_IMAGES):
        self.data = generate(seed, workdir, n_images)
        p = self.data.properties
        self.file_sizes = {
            str(self.data.gt_path): (p["gt_lines"], p["gt_bytes"]),
            str(self.data.pred_path): (p["pred_lines"], p["pred_bytes"]),
        }

    def setup(self) -> None:
        return None  # evaluate keeps no objects between calls

    def step_input(self, index: int) -> Dataset:
        return self.data

    def run(self, objects: None, data: Dataset):
        return cli.cmd_evaluate(
            data.gt_path,
            data.pred_path,
            iou_thresh=IOU_THRESH,
            report_path=data.report_path,
            out=_Sink(),
        )

    def items(self, data: Dataset, report) -> int:
        return len(data.expected)

    def check(self, objects, data: Dataset, report, counters) -> tuple[int, int, list[str]]:
        """(images attempted, images failed, messages)."""
        problems: list[str] = []
        failed = 0
        seen = set()
        for image_id, got in report.per_image:
            seen.add(image_id)
            want = data.expected.get(image_id)
            if want is None or (got.tp, got.fp, got.fn) != (want.tp, want.fp, want.fn):
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{image_id}: got {got}, want {want}")
        missing = len(set(data.expected) - seen)
        failed += missing
        if missing:
            problems.append(f"{missing} images missing from the report")
        pass_ok = abs(report.fscore - data.fscore) <= 1e-12 and self._report_file_ok(data)
        if not pass_ok:
            problems.append(f"fscore {report.fscore!r} or report file disagrees with {data.fscore!r}")
            failed = len(data.expected)
        return len(data.expected), failed, problems

    def _report_file_ok(self, data: Dataset) -> bool:
        fields = {}
        for line in data.report_path.read_text(encoding="utf-8").splitlines():
            if line.startswith("["):
                break
            key, _, value = line.partition("=")
            fields[key] = value
        want = data.properties["expected"]
        return (
            fields.get("images") == str(len(data.expected))
            and all(fields.get(k) == str(want[k]) for k in ("tp", "fp", "fn"))
            and fields.get("fscore") == f"{data.fscore:.6f}"
        )

    def corrupt(self, data: Dataset) -> Dataset:
        first = min(data.expected)
        c = data.expected[first]
        expected = dict(data.expected)
        expected[first] = Counts(c.tp + 1, c.fp, c.fn)
        return replace(data, expected=expected)

    def properties(self) -> dict:
        return self.data.properties
