"""Command-line surface: evaluation, oracle self-checks, fixture synthesis,
and micro-benchmarks.

Exit codes: 0 success, 1 I/O failure, 2 malformed input or flag.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import anchors, ctc, dataio, losses, oracles
from .errors import ParseError
from .feature_ops import CropSpec, FeatureMap, rroi_align
from .geometry import RotatedBox, ScoredBox, rotated_iou, rotated_iou_matrix, rotated_nms
from .spotting import SpottingCounts, _match_columns, aggregate

REPORT_FORMAT = "lpcore-eval-report-v1"
_NOISE_RANGE = f"[{-dataio.SYNTH_NOISE_MAX:g}, {dataio.SYNTH_NOISE_MAX:g}]"


@dataclass(frozen=True)
class EvalReport:
    """Per-image counts, with their totals and the metrics of the totals."""

    per_image: tuple[tuple[str, SpottingCounts], ...]
    config: dict
    totals: SpottingCounts = field(init=False)
    recall: float = field(init=False)
    precision: float = field(init=False)
    fscore: float = field(init=False)

    def __post_init__(self):
        counts = [c for _, c in self.per_image]
        totals = SpottingCounts(
            sum(c.tp for c in counts), sum(c.fp for c in counts), sum(c.fn for c in counts)
        )
        object.__setattr__(self, "totals", totals)
        for name, value in zip(("recall", "precision", "fscore"), aggregate([totals])):
            object.__setattr__(self, name, value)


def _format_report(report: EvalReport, timestamp: bool) -> str:
    total = report.totals
    lines = [f"format={REPORT_FORMAT}"]
    if timestamp:
        lines.append(f"timestamp={datetime.now(timezone.utc).isoformat()}")
    for key, value in report.config.items():
        lines.append(f"{key}={value}")
    lines += [
        f"images={len(report.per_image)}",
        f"tp={total.tp}",
        f"fp={total.fp}",
        f"fn={total.fn}",
        f"recall={report.recall:.6f}",
        f"precision={report.precision:.6f}",
        f"fscore={report.fscore:.6f}",
        "[per_image]",
        "image_id,tp,fp,fn",
    ]
    for image_id, c in report.per_image:
        lines.append(f"{image_id},{c.tp},{c.fp},{c.fn}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(
    gt_path,
    pred_path,
    iou_thresh: float = 0.6,
    ignore_unidentifiable: bool = False,
    report_path=None,
    timestamp: bool = True,
    out=None,
) -> EvalReport:
    """Score predictions against ground truth; prints a per-image table."""
    out = out if out is not None else sys.stdout
    gts = dataio._read_records(gt_path, ground_truth=True)
    preds = dataio._read_records(pred_path, ground_truth=False)
    per_image = _match_columns(gts, preds, iou_thresh, ignore_unidentifiable)
    report = EvalReport(
        tuple(per_image),
        {
            "gt_path": str(gt_path),
            "pred_path": str(pred_path),
            "iou_thresh": f"{iou_thresh:.6f}",
            "ignore_unidentifiable": str(ignore_unidentifiable).lower(),
        },
    )
    width = max([len("image_id")] + [len(i) for i, _ in per_image])
    print(f"{'image_id':<{width}}  {'tp':>4} {'fp':>4} {'fn':>4}", file=out)
    for image_id, c in per_image:
        print(f"{image_id:<{width}}  {c.tp:>4} {c.fp:>4} {c.fn:>4}", file=out)
    total = report.totals
    print(f"{'TOTAL':<{width}}  {total.tp:>4} {total.fp:>4} {total.fn:>4}", file=out)
    print(
        f"recall={report.recall:.6f} precision={report.precision:.6f} "
        f"fscore={report.fscore:.6f}",
        file=out,
    )
    if report_path is not None:
        Path(report_path).write_text(_format_report(report, timestamp), encoding="utf-8")
    return report


def _random_box(rng: np.random.Generator, center_span: float = 5.0) -> RotatedBox:
    return RotatedBox(
        rng.uniform(-center_span, center_span),
        rng.uniform(-center_span, center_span),
        rng.uniform(1.0, 8.0),
        rng.uniform(1.0, 8.0),
        rng.uniform(-math.pi / 4, math.pi / 4),
    )


def iou_box_pairs(
    n: int, seed: int = 20240601, offset: float = 3.0
) -> list[tuple[RotatedBox, RotatedBox]]:
    """Seeded random pairs with offsets small enough to overlap often.

    b's centre is a's shifted by up to `offset` on each axis. Sides are at
    least 1, so at an offset of 0.5 or less b's centre lies in a's corner
    hull and the two hulls always meet.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        a = _random_box(rng)
        b = RotatedBox(
            a.cx + rng.uniform(-offset, offset),
            a.cy + rng.uniform(-offset, offset),
            rng.uniform(1.0, 8.0),
            rng.uniform(1.0, 8.0),
            rng.uniform(-math.pi / 4, math.pi / 4),
        )
        pairs.append((a, b))
    return pairs


def _suite_iou_monte_carlo() -> float:
    rng = np.random.default_rng(7)
    worst = 0.0
    for a, b in iou_box_pairs(1000):
        worst = max(worst, abs(rotated_iou(a, b) - oracles.monte_carlo_iou(a, b, rng=rng)))
    return worst


def _random_log_probs(rng: np.random.Generator, t_len: int, k: int) -> np.ndarray:
    raw = rng.normal(size=(t_len, k))
    return raw - np.logaddexp.reduce(raw, axis=1)[:, None]


def _suite_ctc_brute_force() -> float:
    rng = np.random.default_rng(11)
    worst = 0.0
    for t_len in range(1, 7):
        for k in range(2, 5):
            for l_len in range(0, 4):
                for _ in range(3):
                    target = list(rng.integers(1, k, size=l_len))
                    if ctc.min_frames_for(target) > t_len:
                        continue
                    logp = _random_log_probs(rng, t_len, k)
                    got, _ = ctc.ctc_loss(logp, target)
                    want = oracles.ctc_loss_brute_force(logp, target)
                    worst = max(worst, abs(got - want))
    return worst


def _suite_gradients() -> float:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(0, 2))
        params = losses.FocalParams(
            alpha=float(rng.uniform(0.1, 0.9)), gamma=float(rng.uniform(0.0, 4.0))
        )
        _, grad = losses.focal_loss(p, y, params)
        fd = oracles.central_difference(lambda q: losses.focal_loss(q, y, params)[0], p)
        worst = max(worst, oracles.relative_error(grad, fd, floor=1e-3))
    for _ in range(5):
        t_len, k = 5, 3
        target = list(rng.integers(1, k, size=2))
        if ctc.min_frames_for(target) > t_len:
            continue
        logp = _random_log_probs(rng, t_len, k)
        _, grad = ctc.ctc_loss(logp, target)
        for t in range(t_len):
            for cls in range(k):
                def perturbed(eps: float, t=t, cls=cls) -> float:
                    shifted = logp.copy()
                    shifted[t, cls] += eps
                    return ctc.ctc_loss(shifted, target, validate=False)[0]

                fd = oracles.central_difference(perturbed, 0.0)
                worst = max(worst, oracles.relative_error(grad[t, cls], fd, floor=1e-3))
    return worst


def _suite_rroi_dense() -> float:
    rng = np.random.default_rng(17)
    ys, xs = np.mgrid[0:40, 0:50]
    ramp = FeatureMap(np.stack([xs + 2.0 * ys, 3.0 * xs - ys]).astype(float))
    worst = 0.0
    for _ in range(8):
        box = RotatedBox(
            rng.uniform(18.0, 30.0),
            rng.uniform(14.0, 24.0),
            rng.uniform(8.0, 16.0),
            rng.uniform(4.0, 8.0),
            rng.uniform(-math.pi / 4, math.pi / 4),
        )
        got = rroi_align(ramp, box)
        want = oracles.dense_rroi_align(ramp, box)
        worst = max(worst, float(np.abs(got.data - want.data).max()))
    return worst


SELFCHECK_SUITES = (
    ("rotated_iou_monte_carlo", _suite_iou_monte_carlo, 5e-3),
    ("ctc_brute_force", _suite_ctc_brute_force, 1e-9),
    ("gradient_finite_difference", _suite_gradients, 1e-4),
    ("rroi_align_dense_oracle", _suite_rroi_dense, 1e-3),
)


def cmd_selfcheck(out=None) -> int:
    """Run every oracle suite; exit 0 only if all tolerances hold."""
    out = out if out is not None else sys.stdout
    failures = 0
    for name, runner, tol in SELFCHECK_SUITES:
        start = time.perf_counter()
        max_error = runner()
        elapsed = time.perf_counter() - start
        ok = max_error < tol
        failures += not ok
        print(
            f"suite={name} max_error={max_error:.3e} tol={tol:.0e} "
            f"time={elapsed:.1f}s status={'ok' if ok else 'FAIL'}",
            file=out,
        )
    print(f"selfcheck: {len(SELFCHECK_SUITES) - failures}/{len(SELFCHECK_SUITES)} suites ok", file=out)
    return 0 if failures == 0 else 1


def cmd_synth(seed: int, n: int, noise: float, out_dir) -> tuple[Path, Path]:
    """Write n synthetic images' ground truth and predictions to out_dir.

    A |noise| above dataio.SYNTH_NOISE_MAX is a ValueError, raised before
    anything is drawn or written.
    """
    dataio._check_synth_noise(noise)
    rng = np.random.default_rng(seed)
    gts = []
    preds = []
    for i in range(n):
        plates = int(rng.integers(1, 4))
        gt, pred = dataio.synth_fixture((seed + i) % 2**63, plates, noise)
        gts.append(gt)
        preds.append(pred)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gt_path = out_dir / "gt.txt"
    pred_path = out_dir / "pred.txt"
    dataio.write_predictions(gt_path, gts)
    dataio.write_predictions(pred_path, preds)
    return gt_path, pred_path


def _build_rotated_iou(size: int):
    return rotated_iou, iou_box_pairs(size, seed=3)


def _build_rotated_iou_matrix(size: int):
    """size IoU matrices of a 64x64 anchor grid (stride 8) against 3 plates."""
    grid = anchors.generate_anchors(64, 64, stride=8).boxes
    rng = np.random.default_rng(19)
    calls = []
    for _ in range(size):
        w = rng.uniform(40.0, 120.0, 3)
        plates = np.column_stack(
            [rng.uniform(64.0, 448.0, (3, 2)), w, w / rng.uniform(2.5, 3.5, 3),
             rng.uniform(-0.3, 0.3, 3)]
        )
        calls.append((grid, plates))
    return rotated_iou_matrix, calls


def _build_monte_carlo_iou(size: int):
    """size overlapping pairs, each through the oracle at its default samples."""
    pairs = iou_box_pairs(size, seed=21, offset=0.5)
    rng = np.random.default_rng(23)
    return oracles.monte_carlo_iou, [(a, b, oracles.DEFAULT_MC_SAMPLES, rng) for a, b in pairs]


def _build_rotated_nms(size: int):
    rng = np.random.default_rng(5)
    boxes = [
        ScoredBox(_random_box(rng, center_span=20.0), float(rng.uniform(0.0, 1.0)))
        for _ in range(size)
    ]
    return rotated_nms, [(boxes, 0.5)]


def _build_rroi_align(size: int):
    rng = np.random.default_rng(9)
    fm = FeatureMap(rng.normal(size=(32, 80, 80)))
    boxes = [
        RotatedBox(
            rng.uniform(20.0, 60.0),
            rng.uniform(20.0, 60.0),
            rng.uniform(10.0, 30.0),
            rng.uniform(5.0, 12.0),
            rng.uniform(-math.pi / 4, math.pi / 4),
        )
        for _ in range(size)
    ]
    spec = CropSpec()
    return rroi_align, [(fm, box, spec) for box in boxes]


def _build_ctc_loss(size: int):
    rng = np.random.default_rng(15)
    alphabet = ctc.default_alphabet()
    frames = [_random_log_probs(rng, 40, alphabet.num_classes) for _ in range(size)]
    targets = [list(rng.integers(1, alphabet.num_classes, size=7)) for _ in range(size)]
    return ctc.ctc_loss, [(logp, target, False) for logp, target in zip(frames, targets)]


# (name, build): build(size) draws the row's seeded inputs and returns the
# function to time and one positional-argument tuple per call. A builder
# looks the function up when it runs, so a patched function is the one timed.
BENCH_OPS = (
    ("rotated_iou", _build_rotated_iou),
    ("rotated_iou_matrix", _build_rotated_iou_matrix),
    ("rotated_nms", _build_rotated_nms),
    ("rroi_align", _build_rroi_align),
    ("ctc_loss", _build_ctc_loss),
    ("monte_carlo_iou", _build_monte_carlo_iou),
)


def cmd_bench(sizes: list[int] | None = None, out=None) -> list[tuple[str, int, float, float]]:
    """Time each core op over the given problem sizes; no assertions.

    A row's total is the wall time of all its calls, input drawing excluded.
    """
    out = out if out is not None else sys.stdout
    sizes = sizes or [10]
    rows = []
    print(f"{'op':<18} {'size':>7} {'total_s':>10} {'per_item_ms':>12}", file=out)
    for name, build in BENCH_OPS:
        for size in sizes:
            fn, calls = build(size)
            start = time.perf_counter()
            for args in calls:
                fn(*args)
            total = time.perf_counter() - start
            per_item = total / size * 1e3
            rows.append((name, size, total, per_item))
            print(f"{name:<18} {size:>7} {total:>10.4f} {per_item:>12.4f}", file=out)
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpcore",
        description="Rotated-box license plate spotting: evaluation and numerical self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="score predictions against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth record file")
    p_eval.add_argument("--pred", required=True, help="prediction record file")
    p_eval.add_argument("--iou", type=float, default=0.6, help="IoU threshold in [0, 1] (strict >)")
    p_eval.add_argument(
        "--ignore-unidentifiable",
        action="store_true",
        help="treat plates with '*' content as do-not-care regions",
    )
    p_eval.add_argument("--report", default=None, help="write machine-readable report here")
    p_eval.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp line from the report"
    )

    sub.add_parser("selfcheck", help="run all oracle suites")

    p_synth = sub.add_parser("synth", help="generate synthetic gt/pred fixture files")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--n", type=int, required=True, help="number of images")
    p_synth.add_argument("--noise", type=float, required=True, help=f"in {_NOISE_RANGE}")
    p_synth.add_argument("--out", required=True, help="output directory")

    p_bench = sub.add_parser("bench", help="micro-benchmarks of the core ops")
    p_bench.add_argument(
        "--size", type=int, action="append", default=None, help="problem size (positive)"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and not 0.0 <= args.iou <= 1.0:
        parser.error(f"argument --iou: must be in [0, 1], got {args.iou}")
    if args.command == "bench" and any(size <= 0 for size in args.size or ()):
        parser.error(f"argument --size: must be positive, got {min(args.size)}")
    if args.command == "synth" and not abs(args.noise) <= dataio.SYNTH_NOISE_MAX:
        parser.error(f"argument --noise: must be finite and in {_NOISE_RANGE}, got {args.noise}")
    if args.command == "synth" and min(args.seed, args.n) < 0:
        parser.error(f"arguments --seed and --n: must be non-negative, got {args.seed}, {args.n}")
    try:
        if args.command == "evaluate":
            cmd_evaluate(
                args.gt,
                args.pred,
                iou_thresh=args.iou,
                ignore_unidentifiable=args.ignore_unidentifiable,
                report_path=args.report,
                timestamp=not args.no_timestamp,
            )
            return 0
        if args.command == "selfcheck":
            return cmd_selfcheck()
        if args.command == "synth":
            gt_path, pred_path = cmd_synth(args.seed, args.n, args.noise, args.out)
            print(f"wrote {gt_path} and {pred_path}")
            return 0
        if args.command == "bench":
            cmd_bench(args.size)
            return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
