import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcore import cli, geometry, spotting
from lpcore.dataio import parse_predictions, write_predictions
from lpcore.errors import ImageIdMismatchError
from lpcore.geometry import RotatedBox, rotated_iou
from lpcore.spotting import (
    SpottingCounts,
    SpottingItem,
    SpottingRecord,
    aggregate,
    is_unidentifiable,
    match_image,
    match_records,
)


def square(cx, cy=0.0):
    return RotatedBox(cx, cy, 1.0, 1.0, 0.0)


def offset_for_iou(iou):
    """Center offset giving this IoU between unit squares on one axis."""
    return (1.0 - iou) / (1.0 + iou)


class TestMatchImage:
    def test_mixed_hits_and_misses(self):
        gt = SpottingRecord(
            "img",
            (
                SpottingItem(square(0.0), "京A11111"),
                SpottingItem(square(10.0), "京B22222"),
            ),
        )
        pred = SpottingRecord(
            "img",
            (
                SpottingItem(square(offset_for_iou(0.7)), "京A11111", 0.9),
                SpottingItem(square(10.0 + offset_for_iou(0.5)), "京B22222", 0.8),
            ),
        )
        assert rotated_iou(gt.items[1].box, pred.items[1].box) == pytest.approx(0.5)
        counts = match_image(gt, pred)
        assert counts == SpottingCounts(tp=1, fp=1, fn=1)

    def test_boundary_iou_is_not_a_match(self):
        gt = SpottingRecord("img", (SpottingItem(square(0.0), "京A11111"),))
        pred = SpottingRecord("img", (SpottingItem(square(0.25), "京A11111", 0.9),))
        assert rotated_iou(gt.items[0].box, pred.items[0].box) == 0.6
        assert match_image(gt, pred) == SpottingCounts(tp=0, fp=1, fn=1)
        # one step inside the boundary flips it
        assert match_image(gt, pred, iou_thresh=0.59) == SpottingCounts(tp=1, fp=0, fn=0)

    def test_wrong_text_consumes_gt(self):
        gt = SpottingRecord("img", (SpottingItem(square(0.0), "京A11111"),))
        pred = SpottingRecord(
            "img",
            (
                SpottingItem(square(0.0), "京A11112", 0.9),
                SpottingItem(square(0.05), "京A11111", 0.8),
            ),
        )
        # the high-score wrong-text claim burns the gt; the correct-text
        # prediction has nothing left to match
        assert match_image(gt, pred) == SpottingCounts(tp=0, fp=2, fn=1)

    def test_score_order_decides_claims(self):
        gt = SpottingRecord("img", (SpottingItem(square(0.0), "京A11111"),))
        low = SpottingItem(square(0.02), "京A11111", 0.3)
        high = SpottingItem(square(0.01), "京A11111", 0.9)
        counts = match_image(SpottingRecord("img", (gt.items[0],)), SpottingRecord("img", (low, high)))
        # high claims the gt (TP); low becomes FP
        assert counts == SpottingCounts(tp=1, fp=1, fn=0)

    def test_perfect_predictions(self):
        items = tuple(SpottingItem(square(5.0 * i), f"京A1234{i}") for i in range(4))
        preds = tuple(SpottingItem(it.box, it.transcript, 0.9) for it in items)
        counts = match_image(SpottingRecord("img", items), SpottingRecord("img", preds))
        assert counts == SpottingCounts(tp=4, fp=0, fn=0)
        assert aggregate([counts]) == (1.0, 1.0, 1.0)

    def test_image_id_mismatch(self):
        with pytest.raises(ImageIdMismatchError):
            match_image(SpottingRecord("a"), SpottingRecord("b"))

    def test_count_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n_gt = int(rng.integers(0, 5))
            n_pred = int(rng.integers(0, 5))
            gt = SpottingRecord(
                "img",
                tuple(
                    SpottingItem(square(rng.uniform(0, 6)), f"京A{i}0000") for i in range(n_gt)
                ),
            )
            pred = SpottingRecord(
                "img",
                tuple(
                    SpottingItem(
                        square(rng.uniform(0, 6)), f"京A{rng.integers(0, 5)}0000", float(rng.uniform(0, 1))
                    )
                    for _ in range(n_pred)
                ),
            )
            c = match_image(gt, pred)
            assert c.tp + c.fn == n_gt
            assert c.tp + c.fp == n_pred


class TestUnidentifiable:
    def test_flagging(self):
        assert is_unidentifiable("京A123**")
        assert not is_unidentifiable("京A12345")

    def test_placeholder_never_matches_by_text(self):
        gt = SpottingRecord("img", (SpottingItem(square(0.0), "京A123**"),))
        pred = SpottingRecord("img", (SpottingItem(square(0.0), "京A123**", 0.9),))
        assert match_image(gt, pred) == SpottingCounts(tp=0, fp=1, fn=1)

    def test_ignore_mode_drops_both_sides(self):
        gt = SpottingRecord("img", (SpottingItem(square(0.0), "京A123**"),))
        pred = SpottingRecord("img", (SpottingItem(square(0.0), "京A123**", 0.9),))
        counts = match_image(gt, pred, ignore_unidentifiable=True)
        assert counts == SpottingCounts(tp=0, fp=0, fn=0)

    def test_ignore_mode_unmatched_gt_not_fn(self):
        gt = SpottingRecord("img", (SpottingItem(square(0.0), "京A123**"),))
        pred = SpottingRecord("img")
        assert match_image(gt, pred, ignore_unidentifiable=True) == SpottingCounts(0, 0, 0)
        assert match_image(gt, pred) == SpottingCounts(0, 0, 1)


class TestAggregate:
    def test_balanced_halves(self):
        assert aggregate([SpottingCounts(1, 1, 1)]) == (0.5, 0.5, 0.5)

    def test_empty_gives_zeros(self):
        assert aggregate([SpottingCounts(0, 0, 0)]) == (0.0, 0.0, 0.0)
        assert aggregate([]) == (0.0, 0.0, 0.0)

    def test_formula_point(self):
        r, p, f = aggregate([SpottingCounts(3, 1, 2)])
        assert (r, p) == (0.6, 0.75)
        assert f == pytest.approx(2 * 0.45 / 1.35)
        assert f == pytest.approx(0.6667, abs=1e-4)

    def test_fscore_between_precision_and_recall(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            c = SpottingCounts(*(int(v) for v in rng.integers(0, 10, size=3)))
            r, p, f = aggregate([c])
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    def test_sums_across_images(self):
        parts = [SpottingCounts(1, 0, 0), SpottingCounts(2, 1, 1), SpottingCounts(0, 0, 1)]
        assert aggregate(parts) == aggregate([sum(parts, SpottingCounts())])


class TestMatchRecords:
    def build(self):
        gts, preds = [], []
        for i in range(6):
            items = tuple(SpottingItem(square(4.0 * j), f"京A{i}{j}000") for j in range(3))
            gts.append(SpottingRecord(f"img{i}", items))
            preds.append(
                SpottingRecord(
                    f"img{i}",
                    tuple(SpottingItem(it.box, it.transcript, 0.9) for it in items[: 2 + i % 2]),
                )
            )
        return gts, preds

    def test_missing_images_count_fully(self):
        gts, preds = self.build()
        results = dict(match_records(gts, preds[:-1]))
        assert results["img5"].fn == 3 and results["img5"].tp == 0
        extra = SpottingRecord("zz_only_pred", (SpottingItem(square(0.0), "京A00000", 0.5),))
        results = dict(match_records(gts, preds + [extra]))
        assert results["zz_only_pred"].fp == 1

    def test_sorted_by_image_id(self):
        gts, preds = self.build()
        ids = [i for i, _ in match_records(gts, preds)]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("thresh", [float("nan"), -3.0, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, thresh):
        gts, preds = self.build()
        with pytest.raises(ValueError):
            match_records(gts, preds, iou_thresh=thresh)

    @pytest.mark.parametrize("thresh", [5.0, -1.0, float("nan")])
    def test_match_image_rejects_threshold_as_match_records_does(self, thresh):
        gts, preds = self.build()
        with pytest.raises(ValueError) as want:
            match_records(gts, preds, iou_thresh=thresh)
        with pytest.raises(ValueError) as got:
            match_image(gts[0], preds[0], iou_thresh=thresh)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("iou_thresh must be in [0, 1]")

    @pytest.mark.parametrize("thresh", [True, False, np.True_, "0.6", None, 0.5j])
    def test_non_real_threshold_rejected(self, thresh):
        # a bool is not read as 0 or 1, and a string or None is no TypeError
        gts, preds = self.build()
        with pytest.raises(ValueError, match=r"iou_thresh must be in \[0, 1\]"):
            match_records(gts, preds, iou_thresh=thresh)
        with pytest.raises(ValueError, match=r"iou_thresh must be in \[0, 1\]"):
            match_image(gts[0], preds[0], iou_thresh=thresh)

    @pytest.mark.parametrize("thresh", [0, 1, np.int64(0), np.float32(0.5)])
    def test_real_threshold_of_any_type_accepted(self, thresh):
        gts, preds = self.build()
        assert match_records(gts, preds, iou_thresh=thresh) == match_records(
            gts, preds, iou_thresh=float(thresh)
        )

    def test_duplicate_image_ids_rejected(self):
        gts, preds = self.build()
        dup = SpottingRecord("img0", (SpottingItem(square(40.0), "京A99999"),))
        with pytest.raises(ValueError, match="'img0'"):
            match_records(gts + [dup], preds)
        with pytest.raises(ValueError, match="'img0'"):
            match_records(gts, preds + [dup])

    def test_order_of_input_records_irrelevant(self):
        gts, preds = self.build()
        a = match_records(gts, preds)
        b = match_records(list(reversed(gts)), list(reversed(preds)))
        assert a == b


class TestValidation:
    def test_record_requires_id(self):
        with pytest.raises(ValueError):
            SpottingRecord("")

    def test_counts_nonnegative(self):
        with pytest.raises(ValueError):
            SpottingCounts(-1, 0, 0)


def reference_match_image(gt, pred, iou_thresh=0.6, ignore_unidentifiable=False):
    """The per-image greedy loop the column matcher replaced, as an oracle."""
    order = sorted(range(len(pred.items)), key=lambda i: -(pred.items[i].score or 0.0))
    taken = [False] * len(gt.items)
    matched_tp = [False] * len(gt.items)
    tp = fp = 0
    for i in order:
        p = pred.items[i]
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gt.items):
            if taken[j]:
                continue
            v = rotated_iou(p.box, g.box)
            if v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0 and best_iou > iou_thresh:
            taken[best_j] = True
            g = gt.items[best_j]
            if is_unidentifiable(g.transcript):
                if not ignore_unidentifiable:
                    fp += 1
            elif p.transcript == g.transcript:
                matched_tp[best_j] = True
                tp += 1
            else:
                fp += 1
        else:
            fp += 1
    fn = sum(
        1
        for j, g in enumerate(gt.items)
        if not (ignore_unidentifiable and is_unidentifiable(g.transcript)) and not matched_tp[j]
    )
    return SpottingCounts(tp, fp, fn)


def random_images(rng, n_images):
    """Ground truth and predictions of crowded images: plates overlap one
    another, scores tie, some plates hold '*', and some images have records
    on one side only (or an empty record)."""
    texts = ["京A11111", "京A11112", "沪B*2345", "*"]
    gts, preds = [], []
    for k in range(n_images):
        image_id = f"img{int(rng.integers(10**6)):06d}_{k}"
        plates = [
            SpottingItem(
                RotatedBox(rng.uniform(0, 6), rng.uniform(0, 3), rng.uniform(2, 6),
                           rng.uniform(1, 3), rng.uniform(-3.2, 3.2)),
                texts[int(rng.integers(len(texts)))],
            )
            for _ in range(int(rng.integers(0, 5)))
        ]
        guesses = []
        for _ in range(int(rng.integers(0, 6))):
            if plates and rng.random() < 0.8:
                src = plates[int(rng.integers(len(plates)))]
                b = src.box
                if rng.random() < 0.15:  # IoU exactly 0.6: a quarter-width shift
                    box = RotatedBox(b.cx + 0.5, b.cy, 2.0, 1.0, 0.0)
                    b = RotatedBox(b.cx, b.cy, 2.0, 1.0, 0.0)
                    plates[plates.index(src)] = SpottingItem(b, src.transcript)
                else:
                    box = RotatedBox(b.cx + rng.normal(0, 0.4), b.cy + rng.normal(0, 0.4),
                                     b.w * rng.uniform(0.8, 1.2), b.h * rng.uniform(0.8, 1.2),
                                     b.theta + rng.normal(0, 0.1))
                text = src.transcript if rng.random() < 0.7 else texts[int(rng.integers(4))]
            else:
                box = RotatedBox(rng.uniform(0, 8), rng.uniform(0, 8), 3.0, 1.5, 0.0)
                text = texts[0]
            score = [0.5, 0.9, None, float(rng.uniform(0, 1))][int(rng.integers(4))]
            guesses.append(SpottingItem(box, text, score))
        side = rng.random()
        if side < 0.85 or not guesses:
            gts.append(SpottingRecord(image_id, tuple(plates)))
        if side > 0.15 or not plates:
            preds.append(SpottingRecord(image_id, tuple(guesses)))
    return gts, preds


def crowded_images(rng, n_images, jitter):
    """Images of 2-4 plates that are shifted copies of one plate, turned by
    up to jitter, and predictions near them: most predictions pass the
    threshold with two or more plates, so their IoUs must be ranked."""
    texts = ["京A11111", "京A11112", "沪B*2345"]
    gts, preds = [], []
    for k in range(n_images):
        w = rng.uniform(3.0, 6.0)
        h, theta = w / 3.0, rng.uniform(-0.6, 0.6)
        c, s = np.cos(theta), np.sin(theta)

        def box(f, t):
            return RotatedBox(f * w * c, f * w * s, w, h, theta + t)

        plates = [
            SpottingItem(box(rng.uniform(-0.15, 0.15), rng.uniform(-jitter, jitter)),
                         texts[int(rng.integers(3))])
            for _ in range(int(rng.integers(2, 5)))
        ]
        guesses = [
            SpottingItem(box(rng.uniform(-0.1, 0.1), rng.uniform(-jitter, jitter)),
                         texts[int(rng.integers(3))], [0.5, 0.9, None][int(rng.integers(3))])
            for _ in range(int(rng.integers(1, 5)))
        ]
        gts.append(SpottingRecord(f"img{k:04d}", tuple(plates)))
        preds.append(SpottingRecord(f"img{k:04d}", tuple(guesses)))
    return gts, preds


def clipped_rows(monkeypatch):
    """Row counts of every _iou_pairs call the matcher makes, as a list
    that fills while the patch is on."""
    rows = []
    real = geometry._iou_pairs

    def spy(a, b):
        rows.append(len(a))
        return real(a, b)

    monkeypatch.setattr(geometry, "_iou_pairs", spy)
    monkeypatch.setattr(spotting, "_iou_pairs", spy)
    return rows


class TestColumnMatcherEquivalence:
    @pytest.mark.parametrize("ignore", [False, True])
    @pytest.mark.parametrize("thresh", [0.0, 0.3, 0.6, 1.0])
    def test_equals_per_image_loop(self, thresh, ignore):
        rng = np.random.default_rng(int(thresh * 10) + 100 * ignore)
        gts, preds = random_images(rng, 400)
        gt_by_id = {r.image_id: r for r in gts}
        pred_by_id = {r.image_id: r for r in preds}
        got = match_records(gts, preds, thresh, ignore)
        want = []
        for image_id in sorted(gt_by_id.keys() | pred_by_id.keys()):
            g = gt_by_id.get(image_id, SpottingRecord(image_id))
            p = pred_by_id.get(image_id, SpottingRecord(image_id))
            want.append((image_id, reference_match_image(g, p, thresh, ignore)))
            assert match_image(g, p, thresh, ignore) == want[-1][1]
        assert got == want
        assert gt_by_id.keys() != pred_by_id.keys()
        if thresh < 1.0:
            assert sum(c.tp for _, c in want) > 20

    @pytest.mark.parametrize("jitter", [0.0, 0.03])
    @pytest.mark.parametrize("thresh", [0.3, 0.6])
    def test_equals_per_image_loop_when_hits_are_ranked(self, monkeypatch, thresh, jitter):
        gts, preds = crowded_images(np.random.default_rng(int(thresh * 10) + 7), 150, jitter)
        rows = clipped_rows(monkeypatch)
        got = match_records(gts, preds, thresh, False)
        want = [
            (g.image_id, reference_match_image(g, p, thresh, False)) for g, p in zip(gts, preds)
        ]
        assert got == want
        # the ranking call clips every hit of the predictions with two or more
        ranked = 0
        for g, p in zip(gts, preds):
            hits = [sum(rotated_iou(q.box, t.box) > thresh for t in g.items) for q in p.items]
            ranked += sum(n for n in hits if n > 1)
        assert ranked > 150 and rows[-1] == ranked

    def test_one_hit_per_prediction_at_equal_angles_clips_nothing(self, monkeypatch):
        # plates far apart; each prediction is its plate shifted along its
        # own width by a fraction f, for an exact IoU of (1 - f) / (1 + f)
        rng = np.random.default_rng(11)
        gts, preds = [], []
        for k in range(200):
            plates, guesses = [], []
            for j in range(int(rng.integers(1, 4))):
                w, theta = rng.uniform(80.0, 160.0), rng.uniform(-0.3, 0.3)
                cx, cy = 1000.0 * j, rng.uniform(0.0, 500.0)
                plates.append(SpottingItem(RotatedBox(cx, cy, w, w / 3.0, theta), "京A11111"))
                for f in rng.uniform(0.0, 0.5, int(rng.integers(0, 3))):
                    box = RotatedBox(cx + f * w * np.cos(theta), cy + f * w * np.sin(theta),
                                     w, w / 3.0, theta)
                    guesses.append(SpottingItem(box, "京A11111", float(rng.uniform(0, 1))))
            gts.append(SpottingRecord(f"img{k:03d}", tuple(plates)))
            preds.append(SpottingRecord(f"img{k:03d}", tuple(guesses)))
        rows = clipped_rows(monkeypatch)
        got = match_records(gts, preds)
        assert sum(rows) == 0
        want = [(g.image_id, reference_match_image(g, p)) for g, p in zip(gts, preds)]
        assert got == want
        assert 100 < sum(c.tp for _, c in got) < sum(len(p.items) for p in preds)

    def test_float32_threshold_acts_as_its_float64_value(self):
        # one plate and one prediction nested in it at its angle per image,
        # their area ratio within 40 ulp of the float32 threshold: the bounds
        # meet at the ratio, so pairs at the threshold must go to the clip,
        # which is compared with the threshold's value in float64
        thresh = np.float32(0.6)
        rng = np.random.default_rng(13)
        gts, preds = [], []
        for k in range(4096):
            ratio = float(thresh) + int(rng.integers(-40, 41)) * math.ulp(float(thresh))
            cx, cy = rng.uniform(0.0, 500.0, 2)
            w, h, theta = rng.uniform(20.0, 100.0), rng.uniform(8.0, 25.0), rng.uniform(-0.7, 0.7)
            plate = RotatedBox(cx, cy, w, h, theta)
            guess = RotatedBox(cx, cy, w * ratio, h, theta)
            gts.append(SpottingRecord(f"img{k:04d}", (SpottingItem(plate, "京A11111"),)))
            preds.append(SpottingRecord(f"img{k:04d}", (SpottingItem(guess, "京A11111", 0.9),)))
        got = match_records(gts, preds, thresh)
        assert got == match_records(gts, preds, float(thresh))
        want = [rotated_iou(g.items[0].box, p.items[0].box) > float(thresh) for g, p in zip(gts, preds)]
        assert [c.tp for _, c in got] == want and 1000 < sum(want) < 3000

    def test_evaluate_equals_per_image_loop(self, tmp_path):
        gts, preds = random_images(np.random.default_rng(5), 300)
        gts = [r for r in gts if r.items]  # a record file has no empty images
        preds = [r for r in preds if r.items]
        write_predictions(tmp_path / "gt.txt", gts)
        write_predictions(tmp_path / "pred.txt", preds)
        gts = {r.image_id: r for r in parse_predictions(tmp_path / "gt.txt", ground_truth=True)}
        preds = {r.image_id: r for r in parse_predictions(tmp_path / "pred.txt")}
        for ignore in (False, True):
            report = cli.cmd_evaluate(
                tmp_path / "gt.txt", tmp_path / "pred.txt", 0.5, ignore, out=io.StringIO()
            )
            want = tuple(
                (i, reference_match_image(gts.get(i, SpottingRecord(i)),
                                          preds.get(i, SpottingRecord(i)), 0.5, ignore))
                for i in sorted(gts.keys() | preds.keys())
            )
            assert report.per_image == want


class TestCountTypes:
    """Count columns must not leak numpy scalars into the public counts."""

    @staticmethod
    def assert_python_counts(pairs):
        for image_id, c in pairs:
            assert type(image_id) is str and type(c) is SpottingCounts
            assert [type(v) for v in (c.tp, c.fp, c.fn)] == [int, int, int]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_images=st.integers(0, 30), ignore=st.booleans())
    def test_per_image_python_ints_summing_to_totals(self, seed, n_images, ignore):
        gts, preds = random_images(np.random.default_rng(seed), n_images)
        self.assert_python_counts(match_records(gts, preds, 0.5, ignore))
        with tempfile.TemporaryDirectory() as tmp:
            gt_path, pred_path = Path(tmp, "gt.txt"), Path(tmp, "pred.txt")
            write_predictions(gt_path, [r for r in gts if r.items])
            write_predictions(pred_path, [r for r in preds if r.items])
            report = cli.cmd_evaluate(gt_path, pred_path, 0.5, ignore, out=io.StringIO())
        self.assert_python_counts(report.per_image)
        self.assert_python_counts([("totals", report.totals)])
        assert sum((c for _, c in report.per_image), SpottingCounts()) == report.totals
        assert [type(v) for v in (report.recall, report.precision, report.fscore)] == [float] * 3
