"""Acceptance suite: one test per release criterion, at the stated
tolerances. The conftest hook prints a PASS/FAIL line per criterion."""

import math
import subprocess
import sys
import time

import numpy as np

from lpcore.anchors import ShapeDelta, decode_delta, encode_delta, refine_anchor
from lpcore.ctc import ctc_loss, min_frames_for
from lpcore.dataio import synth_fixture, write_predictions
from lpcore.feature_ops import (
    CropSpec,
    FeatureMap,
    conv2d_forward,
    deformable_conv2d_forward,
    roi_align,
    rroi_align,
)
from lpcore.geometry import RotatedBox, rotated_iou
from lpcore.losses import FocalParams, detection_loss, end_to_end_loss, focal_loss
from lpcore.oracles import (
    central_difference,
    conv2d_naive,
    ctc_loss_brute_force,
    dense_rroi_align,
    monte_carlo_iou,
    relative_error,
)
from lpcore.spotting import SpottingCounts, SpottingItem, SpottingRecord, aggregate, match_image

QUARTER_PI = math.pi / 4


def seeded_box_pairs(n, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        a = RotatedBox(
            rng.uniform(-5, 5),
            rng.uniform(-5, 5),
            rng.uniform(1, 8),
            rng.uniform(1, 8),
            rng.uniform(-QUARTER_PI, QUARTER_PI),
        )
        b = RotatedBox(
            a.cx + rng.uniform(-3, 3),
            a.cy + rng.uniform(-3, 3),
            rng.uniform(1, 8),
            rng.uniform(1, 8),
            rng.uniform(-QUARTER_PI, QUARTER_PI),
        )
        pairs.append((a, b))
    return pairs


def normalized_logits(rng, t_len, k):
    raw = rng.normal(size=(t_len, k))
    return raw - np.logaddexp.reduce(raw, axis=1)[:, None]


def test_criterion_01_rotated_iou_vs_monte_carlo():
    """1,000 random pairs: |clipping - 1e6-sample MC| < 5e-3 in < 60 s."""
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    worst = 0.0
    for a, b in seeded_box_pairs(1000, seed=20240817):
        delta = abs(rotated_iou(a, b) - monte_carlo_iou(a, b, samples=1_000_000, rng=rng))
        worst = max(worst, delta)
    elapsed = time.perf_counter() - start
    assert worst < 5e-3, f"max |clip - mc| = {worst:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_delta_roundtrip_and_center_invariance():
    """10,000 pairs roundtrip < 1e-9 per field; refined centers bit-exact."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10_000):
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
        back = decode_delta(b, encode_delta(b, g))
        for name in ("cx", "cy", "w", "h", "theta"):
            worst = max(worst, abs(getattr(back, name) - getattr(g, name)))
        refined = refine_anchor(
            b, ShapeDelta(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1.5, 1.5))
        )
        assert refined.cx == b.cx and refined.cy == b.cy
    assert worst < 1e-9, f"max roundtrip error = {worst:.2e}"


def test_criterion_03_focal_loss():
    """Gradient vs central differences; gamma=0 reduction; point value."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(0, 2))
        params = FocalParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, 4.0)))
        _, grad = focal_loss(p, y, params)
        fd = central_difference(lambda q: focal_loss(q, y, params)[0], p, step=1e-5)
        worst = max(worst, relative_error(grad, fd, floor=1e-3))
    assert worst < 1e-4, f"max gradient error = {worst:.2e}"

    params = FocalParams(alpha=0.5, gamma=0.0)
    for p in np.linspace(0.02, 0.98, 33):
        for y in (0, 1):
            pt = p if y == 1 else 1.0 - p
            loss, _ = focal_loss(float(p), y, params)
            assert abs(loss - 0.5 * -math.log(pt)) < 1e-12

    loss, _ = focal_loss(0.5, 1, FocalParams(0.25, 2.0))
    assert abs(loss - 0.0433217) < 1e-6


def test_criterion_04_ctc_brute_force_and_gradient():
    """Exhaustive small-instance sweep vs path enumeration; FD gradients."""
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for t_len in range(1, 7):
        for k in (2, 3, 4):
            for l_len in range(0, 4):
                for _ in range(4):
                    target = list(rng.integers(1, k, size=l_len))
                    if min_frames_for(target) > t_len:
                        continue
                    logp = normalized_logits(rng, t_len, k)
                    got, _ = ctc_loss(logp, target)
                    want = ctc_loss_brute_force(logp, target)
                    worst = max(worst, abs(got - want))
                    checked += 1
    assert checked >= 200, f"only {checked} feasible instances"
    assert worst < 1e-9, f"max |forward - brute force| = {worst:.2e}"

    grad_worst = 0.0
    for _ in range(6):
        t_len, k = 5, 3
        target = [1, 2]
        logp = normalized_logits(rng, t_len, k)
        _, grad = ctc_loss(logp, target)
        for t in range(t_len):
            for cls in range(k):
                def shift(eps, t=t, cls=cls):
                    moved = logp.copy()
                    moved[t, cls] += eps
                    return ctc_loss(moved, target, validate=False)[0]

                fd = central_difference(shift, 0.0, step=1e-5)
                grad_worst = max(grad_worst, relative_error(float(grad[t, cls]), fd, floor=1e-3))
    assert grad_worst < 1e-4, f"max gradient error = {grad_worst:.2e}"


def test_criterion_05_rroi_align():
    """theta=0 equals RoIAlign; rotated matches dense oracle; 8x25 default."""
    ys, xs = np.mgrid[0:40, 0:50]
    ramp = FeatureMap(np.stack([xs + 2.0 * ys, 3.0 * xs - ys]).astype(float))
    rng = np.random.default_rng(31)

    aligned_worst = 0.0
    noise_map = FeatureMap(rng.normal(size=(3, 30, 30)))
    for _ in range(10):
        box = RotatedBox(
            rng.uniform(10, 20), rng.uniform(10, 20), rng.uniform(5, 12), rng.uniform(3, 8), 0.0
        )
        d = np.abs(rroi_align(noise_map, box).data - roi_align(noise_map, box).data).max()
        aligned_worst = max(aligned_worst, d)
    assert aligned_worst < 1e-9, f"theta=0 mismatch = {aligned_worst:.2e}"

    dense_worst = 0.0
    for _ in range(8):
        box = RotatedBox(
            rng.uniform(18, 30),
            rng.uniform(14, 24),
            rng.uniform(8, 16),
            rng.uniform(4, 8),
            rng.uniform(-QUARTER_PI, QUARTER_PI),
        )
        got = rroi_align(ramp, box)
        want = dense_rroi_align(ramp, box, oversample=64)
        dense_worst = max(dense_worst, float(np.abs(got.data - want.data).max()))
    assert dense_worst < 1e-3, f"dense-oracle mismatch = {dense_worst:.2e}"

    spec = CropSpec()
    assert (spec.out_h, spec.out_w) == (8, 25)
    out = rroi_align(ramp, RotatedBox(25, 20, 14, 6, 0.3))
    assert out.data.shape == (2, 8, 25)


def test_criterion_06_deformable_and_standard_conv():
    """Zero offsets reduce to standard conv; conv matches naive loops."""
    rng = np.random.default_rng(41)
    conv_worst = 0.0
    for _ in range(5):
        fm = FeatureMap(rng.normal(size=(3, 5, 5)))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        for stride, padding in ((1, 0), (1, 1), (2, 1)):
            got = conv2d_forward(fm, w, b, stride, padding)
            want = conv2d_naive(fm, w, b, stride, padding)
            conv_worst = max(conv_worst, float(np.abs(got.data - want.data).max()))
    assert conv_worst < 1e-12, f"conv vs naive = {conv_worst:.2e}"

    deform_worst = 0.0
    for _ in range(5):
        fm = FeatureMap(rng.normal(size=(3, 7, 7)))
        w = rng.normal(size=(2, 3, 3, 3))
        b = rng.normal(size=2)
        std = conv2d_forward(fm, w, b, 1, 1)
        zero_off = FeatureMap(np.zeros((18, std.height, std.width)))
        got = deformable_conv2d_forward(fm, w, b, zero_off, 1, 1)
        deform_worst = max(deform_worst, float(np.abs(got.data - std.data).max()))
    assert deform_worst < 1e-12, f"deformable zero-offset = {deform_worst:.2e}"


def test_criterion_07_spotting_metric():
    """Hand-fixture counts, strict boundary, perfect F=1.0, noise monotone."""
    gt = SpottingRecord("img", (SpottingItem(RotatedBox(0, 0, 1, 1, 0), "京A11111"),))
    boundary_pred = SpottingRecord(
        "img", (SpottingItem(RotatedBox(0.25, 0, 1, 1, 0), "京A11111", 0.9),)
    )
    assert rotated_iou(gt.items[0].box, boundary_pred.items[0].box) == 0.6
    assert match_image(gt, boundary_pred) == SpottingCounts(tp=0, fp=1, fn=1)

    gt2 = SpottingRecord(
        "img",
        (
            SpottingItem(RotatedBox(0, 0, 1, 1, 0), "京A11111"),
            SpottingItem(RotatedBox(10, 0, 1, 1, 0), "京B22222"),
        ),
    )
    pred2 = SpottingRecord(
        "img",
        (
            SpottingItem(RotatedBox(3.0 / 17.0, 0, 1, 1, 0), "京A11111", 0.9),
            SpottingItem(RotatedBox(10 + 1.0 / 3.0, 0, 1, 1, 0), "京B22222", 0.8),
        ),
    )
    counts = match_image(gt2, pred2)
    assert counts == SpottingCounts(tp=1, fp=1, fn=1)
    assert aggregate([counts]) == (0.5, 0.5, 0.5)

    wrong_text = SpottingRecord(
        "img", (SpottingItem(RotatedBox(0, 0, 1, 1, 0), "京A1111Z", 0.9),)
    )
    assert match_image(gt, wrong_text) == SpottingCounts(tp=0, fp=1, fn=1)

    fscores = []
    for noise in (0.0, 0.3, 3.0):
        per_image = [
            match_image(*synth_fixture(seed, 3, noise)) for seed in range(100, 110)
        ]
        fscores.append(aggregate(per_image)[2])
    assert fscores[0] == 1.0
    assert fscores[2] == 0.0
    assert fscores[0] >= fscores[1] >= fscores[2]


def test_criterion_08_loss_composition_defaults():
    """Weighted sums with the published default weights."""
    assert detection_loss(1.0, 1.0, 1.0) == 2.0
    assert end_to_end_loss(1.0, 10.0) == 2.0


def test_criterion_09_evaluate_determinism(tmp_path):
    """Byte-identical CLI output and report across four runs."""
    gt, pred = [], []
    for seed in range(50, 62):
        g, p = synth_fixture(seed, 2, 0.2)
        gt.append(g)
        pred.append(p)
    gt_path = tmp_path / "gt.txt"
    pred_path = tmp_path / "pred.txt"
    write_predictions(gt_path, gt)
    write_predictions(pred_path, pred)

    outputs = []
    for run in range(4):
        report_path = tmp_path / f"report_{run}.txt"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "lpcore",
                "evaluate",
                "--gt",
                str(gt_path),
                "--pred",
                str(pred_path),
                "--report",
                str(report_path),
                "--no-timestamp",
            ],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, report_path.read_bytes()))
    assert all(o == outputs[0] for o in outputs[1:])


def test_criterion_10_selfcheck_clean_and_fast():
    """`lpcore selfcheck` exits 0 well inside the five-minute budget."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lpcore", "selfcheck"],
        capture_output=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    text = proc.stdout.decode()
    assert proc.returncode == 0, text
    assert elapsed < 300.0, f"selfcheck took {elapsed:.0f}s"
    for name in ("rotated_iou_monte_carlo", "ctc_brute_force",
                 "gradient_finite_difference", "rroi_align_dense_oracle"):
        assert text.count(f"suite={name} ") == 1
