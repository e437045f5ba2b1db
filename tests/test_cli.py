import contextlib
import dataclasses
import inspect
import io
import itertools
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpcore.cli as cli
from lpcore import dataio, geometry, oracles, spotting
from lpcore.dataio import parse_predictions, write_predictions
from lpcore.feature_ops import CropSpec
from lpcore.geometry import RotatedBox
from lpcore.spotting import SpottingCounts, SpottingItem, SpottingRecord, aggregate


def hand_fixture(tmp_path):
    """One image, 2 GT / 2 preds: one clean TP, one IoU-0.5 miss."""
    gt = SpottingRecord(
        "img",
        (
            SpottingItem(RotatedBox(0.0, 0.0, 1, 1, 0), "京A11111"),
            SpottingItem(RotatedBox(10.0, 0.0, 1, 1, 0), "京B22222"),
        ),
    )
    pred = SpottingRecord(
        "img",
        (
            SpottingItem(RotatedBox(3.0 / 17.0, 0.0, 1, 1, 0), "京A11111", 0.9),
            SpottingItem(RotatedBox(10.0 + 1.0 / 3.0, 0.0, 1, 1, 0), "京B22222", 0.8),
        ),
    )
    gt_path = tmp_path / "gt.txt"
    pred_path = tmp_path / "pred.txt"
    write_predictions(gt_path, [gt])
    write_predictions(pred_path, [pred])
    return gt_path, pred_path


class TestEvaluate:
    def test_hand_fixture_halves(self, tmp_path):
        gt_path, pred_path = hand_fixture(tmp_path)
        buf = io.StringIO()
        report = cli.cmd_evaluate(gt_path, pred_path, out=buf)
        assert (report.recall, report.precision, report.fscore) == (0.5, 0.5, 0.5)
        assert report.totals == SpottingCounts(1, 1, 1)
        assert "recall=0.500000 precision=0.500000 fscore=0.500000" in buf.getvalue()

    def test_perfect_fixture(self, tmp_path):
        gt_path, pred_path = cli.cmd_synth(3, 4, 0.0, tmp_path / "fix")
        report = cli.cmd_evaluate(gt_path, pred_path, out=io.StringIO())
        assert (report.recall, report.precision, report.fscore) == (1.0, 1.0, 1.0)

    def test_stricter_threshold_never_helps(self, tmp_path):
        gt_path, pred_path = cli.cmd_synth(4, 12, 0.15, tmp_path / "fix")
        loose = cli.cmd_evaluate(gt_path, pred_path, iou_thresh=0.6, out=io.StringIO())
        tight = cli.cmd_evaluate(gt_path, pred_path, iou_thresh=0.99, out=io.StringIO())
        assert tight.fscore <= loose.fscore

    def test_report_file_contents(self, tmp_path):
        gt_path, pred_path = hand_fixture(tmp_path)
        report_path = tmp_path / "report.txt"
        cli.cmd_evaluate(
            gt_path, pred_path, report_path=report_path, timestamp=False, out=io.StringIO()
        )
        text = report_path.read_text(encoding="utf-8")
        assert text.startswith("format=lpcore-eval-report-v1\n")
        assert "timestamp=" not in text
        assert "tp=1\nfp=1\nfn=1\n" in text
        assert "img,1,1,1" in text

    def test_timestamp_line_present_by_default(self, tmp_path):
        gt_path, pred_path = hand_fixture(tmp_path)
        report_path = tmp_path / "report.txt"
        cli.cmd_evaluate(gt_path, pred_path, report_path=report_path, out=io.StringIO())
        assert "timestamp=" in report_path.read_text(encoding="utf-8")

    def test_reports_are_reproducible(self, tmp_path):
        gt_path, pred_path = cli.cmd_synth(5, 6, 0.2, tmp_path / "fix")
        paths = [tmp_path / "r1.txt", tmp_path / "r2.txt"]
        for p in paths:
            cli.cmd_evaluate(
                gt_path, pred_path, report_path=p, timestamp=False, out=io.StringIO()
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_ignore_unidentifiable_flag(self, tmp_path):
        gt = SpottingRecord(
            "img",
            (
                SpottingItem(RotatedBox(0.0, 0.0, 1, 1, 0), "京A11111"),
                SpottingItem(RotatedBox(10.0, 0.0, 1, 1, 0), "京B222**"),
            ),
        )
        pred = SpottingRecord(
            "img", (SpottingItem(RotatedBox(0.0, 0.0, 1, 1, 0), "京A11111", 0.9),)
        )
        gt_path = tmp_path / "gt.txt"
        pred_path = tmp_path / "pred.txt"
        write_predictions(gt_path, [gt])
        write_predictions(pred_path, [pred])
        strict = cli.cmd_evaluate(gt_path, pred_path, out=io.StringIO())
        assert strict.totals == SpottingCounts(1, 0, 1)
        lenient = cli.cmd_evaluate(
            gt_path, pred_path, ignore_unidentifiable=True, out=io.StringIO()
        )
        assert lenient.totals == SpottingCounts(1, 0, 0)
        rc = cli.main(
            [
                "evaluate",
                "--gt",
                str(gt_path),
                "--pred",
                str(pred_path),
                "--ignore-unidentifiable",
            ]
        )
        assert rc == 0


def parent_table(per_image, out):
    """The evaluate table as the per-line print loop used to write it."""
    total = sum((c for _, c in per_image), SpottingCounts())
    recall, precision, fscore = aggregate([total])
    width = max([len("image_id")] + [len(i) for i, _ in per_image])
    print(f"{'image_id':<{width}}  {'tp':>4} {'fp':>4} {'fn':>4}", file=out)
    for image_id, c in per_image:
        print(f"{image_id:<{width}}  {c.tp:>4} {c.fp:>4} {c.fn:>4}", file=out)
    print(f"{'TOTAL':<{width}}  {total.tp:>4} {total.fp:>4} {total.fn:>4}", file=out)
    print(f"recall={recall:.6f} precision={precision:.6f} fscore={fscore:.6f}", file=out)


def parent_report(per_image, config):
    """The timestamp-free report as the line-list formatter used to build it."""
    total = sum((c for _, c in per_image), SpottingCounts())
    recall, precision, fscore = aggregate([total])
    lines = ["format=lpcore-eval-report-v1"]
    for key, value in config.items():
        lines.append(f"{key}={value}")
    lines += [
        f"images={len(per_image)}",
        f"tp={total.tp}",
        f"fp={total.fp}",
        f"fn={total.fn}",
        f"recall={recall:.6f}",
        f"precision={precision:.6f}",
        f"fscore={fscore:.6f}",
        "[per_image]",
        "image_id,tp,fp,fn",
    ]
    for image_id, c in per_image:
        lines.append(f"{image_id},{c.tp},{c.fp},{c.fn}")
    return "\n".join(lines) + "\n"


LONG_ID = "a_long_image_id_that_sets_the_table_width"
GOLDEN_GT = f"""img_a,,0,0,4,2,0,京A11111
img_a,,10,0,4,2,0,沪B*2345
img_a,,20,0,4,2,0,*
img_b,,0,0,4,2,0,京A11112
{LONG_ID},,0,0,4,2,0,京A11111
{LONG_ID},,9,0,4,2,0,京A11113
"""
GOLDEN_PRED = f"""img_a,0.9,0,0,4,2,0,京A11111
img_a,0.8,10.1,0,4,2,0,沪B12345
img_a,,20.2,0,4,2,0,*
img_c,0.7,0,0,4,2,0,京A11111
{LONG_ID},0.5,0.2,0,4,2,0,京A11112
{LONG_ID},0.6,0.1,0,4,2,0,京A11111
{LONG_ID},0.4,30,0,4,2,0,京A11113
"""


class TestEvaluateGoldenOutput:
    """evaluate's stdout and report bytes against the parent's writers."""

    @pytest.mark.parametrize("ignore", [False, True])
    @pytest.mark.parametrize(
        "gt_text, pred_text",
        [(GOLDEN_GT, GOLDEN_PRED), (GOLDEN_GT, ""), ("", GOLDEN_PRED), ("", "")],
        ids=["both", "empty-pred", "empty-gt", "empty"],
    )
    def test_hand_files(self, tmp_path, gt_text, pred_text, ignore):
        gt_path, pred_path = tmp_path / "gt.txt", tmp_path / "pred.txt"
        gt_path.write_text(gt_text, encoding="utf-8")
        pred_path.write_text(pred_text, encoding="utf-8")
        per_image = self.check(gt_path, pred_path, 0.5, ignore, tmp_path / "report.txt")
        if gt_text and pred_text:
            ids = [image_id for image_id, _ in per_image]
            assert ids == sorted(["img_a", "img_b", "img_c", LONG_ID])
            assert len(LONG_ID) > 8 and sum(c.tp for _, c in per_image) == 2

    @pytest.mark.parametrize("ignore", [False, True])
    def test_synth_set(self, tmp_path, ignore):
        gt_path, pred_path = cli.cmd_synth(8, 300, 0.3, tmp_path / "fix")
        self.check(gt_path, pred_path, 0.6, ignore, tmp_path / "report.txt")

    @staticmethod
    def check(gt_path, pred_path, iou, ignore, report_path):
        out = io.StringIO()
        report = cli.cmd_evaluate(
            gt_path, pred_path, iou, ignore, report_path, timestamp=False, out=out
        )
        want = io.StringIO()
        parent_table(report.per_image, want)
        assert out.getvalue() == want.getvalue()
        config = {
            "gt_path": str(gt_path),
            "pred_path": str(pred_path),
            "iou_thresh": f"{iou:.6f}",
            "ignore_unidentifiable": str(ignore).lower(),
        }
        want_report = parent_report(report.per_image, config).encode("utf-8")
        assert report_path.read_bytes() == want_report
        return report.per_image


class TestMainExitCodes:
    def test_timings_line_goes_to_stderr_only(self, tmp_path, capsys):
        gt_path, pred_path = cli.cmd_synth(6, 50, 0.3, tmp_path / "fix")
        outputs, errs = [], []
        for flags in ([], ["--timings"]):
            report_path = tmp_path / f"report{len(flags)}.txt"
            argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path)]
            argv += ["--report", str(report_path), "--no-timestamp", *flags]
            assert cli.main(argv) == 0
            captured = capsys.readouterr()
            outputs.append((captured.out, report_path.read_bytes()))
            errs.append(captured.err)
        assert outputs[0] == outputs[1] and "fscore=" in outputs[0][0]
        assert errs[0] == ""
        match = re.fullmatch(r"parse_s=(\S+) match_s=(\S+) report_s=(\S+)\n", errs[1])
        assert match and all(0.0 <= float(v) < 60.0 for v in match.groups())

    def test_success(self, tmp_path, capsys):
        gt_path, pred_path = hand_fixture(tmp_path)
        rc = cli.main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path)])
        assert rc == 0
        assert "fscore=0.500000" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("img,0.9,nope\n", encoding="utf-8")
        gt_path, _ = hand_fixture(tmp_path)
        rc = cli.main(["evaluate", "--gt", str(gt_path), "--pred", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("iou", ["nan", "-3", "1.5", "abc"])
    def test_iou_outside_unit_interval_exits_2(self, tmp_path, capsys, iou):
        gt_path, pred_path = hand_fixture(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--iou", iou])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --iou:" in err and iou in err

    @pytest.mark.parametrize("score", ["nan", "7.5", "-0.1", "inf"])
    def test_score_outside_unit_interval_exits_2(self, tmp_path, capsys, score):
        gt_path, _ = hand_fixture(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text(f"img,0.9,0,0,1,1,0,京A11111\nimg,{score},10,0,1,1,0,京B22222\n", "utf-8")
        rc = cli.main(["evaluate", "--gt", str(gt_path), "--pred", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: score '{score}' not in [0, 1]" in err

    def test_ground_truth_score_exits_2(self, tmp_path, capsys):
        _, pred_path = hand_fixture(tmp_path)
        gt = tmp_path / "gt_scored.txt"
        gt.write_text("img,0.5,0,0,1,1,0,京A11111\n", "utf-8")
        rc = cli.main(["evaluate", "--gt", str(gt), "--pred", str(pred_path)])
        assert rc == 2
        assert f"{gt}:1: ground-truth score field must be empty" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        gt_path, pred_path = hand_fixture(tmp_path)
        pred_path.write_bytes(pred_path.read_text(encoding="utf-8").encode("gbk"))
        rc = cli.main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{pred_path}: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize("good_lines", [10, 1000])
    def test_non_utf8_byte_after_a_bad_line_exits_2(self, tmp_path, capsys, good_lines):
        gt_path, pred_path = hand_fixture(tmp_path)
        good = "img,0.900000,1,1,4,2,0,京A12345\n".encode()
        pred_path.write_bytes(b"img,0.9,1,1,4,2\n" + good * good_lines + b"img,0.9,1,1,4,2,0,\xff\n")
        rc = cli.main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{pred_path}: not UTF-8 text" in err and "Traceback" not in err

    def test_bom_prediction_file_scores_perfect(self, tmp_path, capsys):
        # the BOM once became part of "img1", which then scored all-FN and all-FP
        gt = "img1,,10,10,5,2,0,京A12345\nimg2,,30,30,5,2,0,沪B67890\n"
        (tmp_path / "gt.txt").write_text(gt, encoding="utf-8")
        (tmp_path / "pred.txt").write_text("\ufeff" + gt.replace(",,", ",0.9,"), "utf-8")
        rc = cli.main(
            ["evaluate", "--gt", str(tmp_path / "gt.txt"), "--pred", str(tmp_path / "pred.txt")]
        )
        assert rc == 0
        assert "fscore=1.000000" in capsys.readouterr().out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        gt_path, _ = hand_fixture(tmp_path)
        rc = cli.main(["evaluate", "--gt", str(gt_path), "--pred", str(tmp_path / "nope.txt")])
        assert rc == 1

    def test_synth_writes_files(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "--seed", "11", "--n", "3", "--noise", "0.5", "--out", str(tmp_path / "d")]
        )
        assert rc == 0
        assert (tmp_path / "d" / "gt.txt").exists()
        assert (tmp_path / "d" / "pred.txt").exists()


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        a = cli.cmd_synth(21, 5, 0.4, tmp_path / "a")
        b = cli.cmd_synth(21, 5, 0.4, tmp_path / "b")
        assert a[0].read_bytes() == b[0].read_bytes()
        assert a[1].read_bytes() == b[1].read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = cli.cmd_synth(21, 5, 0.4, tmp_path / "a")
        b = cli.cmd_synth(22, 5, 0.4, tmp_path / "b")
        assert a[0].read_bytes() != b[0].read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--noise", "nan"),
            ("--noise", "inf"),
            ("--noise", "-inf"),
            ("--noise", "1e4"),
            ("--noise", "-1e4"),
            ("--noise", "81"),
            ("--noise", "-81"),
            ("--noise", "100"),
            ("--seed", "-1"),
            ("--n", "-5"),
        ],
    )
    def test_bad_flag_exits_2(self, tmp_path, capsys, flag, value):
        flags = {"--seed": "11", "--n": "3", "--noise": "0.5", "--out": str(tmp_path / "d")}
        flags[flag] = value
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", *(f"{name}={v}" for name, v in flags.items())])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        message = "must be finite" if flag == "--noise" else "must be non-negative"
        assert flag in captured.err and message in captured.err
        assert "Traceback" not in captured.err and not (tmp_path / "d").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("noise", [81.0, -81.0, math.nan, 1e4])
    def test_cmd_synth_rejects_noise_before_drawing_or_writing(
        self, tmp_path, monkeypatch, noise, n
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a fixture")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=r"noise must be finite and in \[-80, 80\]"):
            cli.cmd_synth(1, n, noise, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("noise", ["80", "-80"])
    def test_noise_bound_writes_files(self, tmp_path, capsys, noise):
        out = tmp_path / "d"
        rc = cli.main(["synth", "--seed", "1", "--n", "20", f"--noise={noise}", "--out", str(out)])
        assert rc == 0
        assert len(parse_predictions(out / "gt.txt", ground_truth=True)) == 20
        gt_lines = (out / "gt.txt").read_text("utf-8").count("\n")
        assert (out / "pred.txt").read_text("utf-8").count("\n") == gt_lines
        # every side written must read back inside the box range
        rc = cli.main(["evaluate", "--gt", str(out / "gt.txt"), "--pred", str(out / "pred.txt")])
        assert rc == 0


class TestSelfcheck:
    @staticmethod
    def fast_suites():
        return tuple(
            (name, lambda tol=tol: tol / 100.0, tol) for name, _, tol in cli.SELFCHECK_SUITES
        )

    def test_clean_run_exit_zero(self, monkeypatch):
        monkeypatch.setattr(cli, "SELFCHECK_SUITES", self.fast_suites())
        buf = io.StringIO()
        assert cli.cmd_selfcheck(out=buf) == 0
        assert "4/4 suites ok" in buf.getvalue()

    def test_injected_fault_nonzero(self, monkeypatch):
        suites = list(self.fast_suites())
        name, _, tol = suites[0]
        suites[0] = (name, lambda: tol * 10.0, tol)
        monkeypatch.setattr(cli, "SELFCHECK_SUITES", tuple(suites))
        buf = io.StringIO()
        assert cli.cmd_selfcheck(out=buf) == 1
        assert "status=FAIL" in buf.getvalue()

    def test_no_hidden_fault_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selfcheck", "--inject-fault"])
        assert exc.value.code == 2

    def test_each_suite_listed_once(self, monkeypatch):
        monkeypatch.setattr(cli, "SELFCHECK_SUITES", self.fast_suites())
        buf = io.StringIO()
        cli.cmd_selfcheck(out=buf)
        text = buf.getvalue()
        for name, _, _ in cli.SELFCHECK_SUITES:
            assert text.count(f"suite={name} ") == 1


class TestBench:
    def test_one_row_per_op(self, capsys):
        rows = cli.cmd_bench([4], out=io.StringIO())
        names = [r[0] for r in rows]
        assert names == [n for n, _ in cli.BENCH_OPS]

    def test_timings_positive_finite(self):
        rows = cli.cmd_bench([4], out=io.StringIO())
        for _, size, total, per_item in rows:
            assert size == 4
            assert total > 0 and math.isfinite(total)
            assert per_item > 0 and math.isfinite(per_item)

    def test_multiple_sizes(self):
        rows = cli.cmd_bench([2, 4], out=io.StringIO())
        assert len(rows) == 2 * len(cli.BENCH_OPS)

    def test_monte_carlo_row_draws_every_sample_per_item(self, monkeypatch):
        calls = []
        real = oracles.monte_carlo_iou

        def spy(a, b, samples=oracles.DEFAULT_MC_SAMPLES, rng=None):
            before = rng.bit_generator.state
            value = real(a, b, samples, rng)
            calls.append((samples, rng.bit_generator.state != before, value))
            return value

        monkeypatch.setattr(oracles, "monte_carlo_iou", spy)
        rows = cli.cmd_bench([3], out=io.StringIO())
        assert [row[:2] for row in rows if row[0] == "monte_carlo_iou"] == [("monte_carlo_iou", 3)]
        assert len(calls) == 3
        for samples, drew, value in calls:
            assert samples == 1_000_000 and drew and 0.0 < value <= 1.0

    def test_dense_row_crops_the_selfcheck_ramp_at_64_per_side(self, monkeypatch):
        calls = []
        real = oracles.dense_rroi_align

        def spy(fm, box, spec=CropSpec(), oversample=64):
            calls.append((fm.data.shape, spec, oversample))
            return real(fm, box, spec, oversample)

        monkeypatch.setattr(oracles, "dense_rroi_align", spy)
        rows = cli.cmd_bench([3], out=io.StringIO())
        assert [row[:2] for row in rows if row[0] == "dense_rroi_align"] == [
            ("dense_rroi_align", 3)
        ]
        assert calls == [((2, 40, 50), CropSpec(), 64)] * 3

    # (calls, numbers, fsum of numbers) of each row's argument tuples at size 3,
    # as the per-row timing loops that cmd_bench's one loop replaced passed
    # them (defaults filled in); the Monte-Carlo generator is checked apart.
    # The dense_rroi_align row is the selfcheck's ramp with the first three
    # boxes its dense-oracle suite draws. The match_records row, which has no
    # parent loop, pins its synth_fixture records' numbers; transcripts, ids
    # and the missing ground-truth scores are not numbers and are skipped.
    # The rotated_nms_plates row, also new, pins its candidate sets' numbers.
    PARENT_INPUTS = {
        "rotated_iou": (3, 30, 39.49796766108733),
        "rotated_iou_matrix": (3, 61485, 7083701.659287163),
        "rotated_nms": (1, 19, 51.15036878977573),
        "rotated_nms_plates": (3, 4803, 533603.7967809882),
        "rroi_align": (3, 614424, 2331.0501985036244),
        "ctc_loss": (3, 8304, -38303.99413733548),
        "match_records": (1, 66, 9760.504469127744),
        "monte_carlo_iou": (3, 33, 3000059.372419377),
        "dense_rroi_align": (3, 12027, 705476.4965228833),
    }

    @staticmethod
    def numbers(x):
        if x is None or isinstance(x, (np.random.Generator, str)):
            return
        if dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                yield from TestBench.numbers(getattr(x, f.name))
        elif isinstance(x, np.ndarray):
            yield from x.ravel().tolist()
        elif isinstance(x, (list, tuple)):
            for v in x:
                yield from TestBench.numbers(v)
        else:
            yield x

    @pytest.mark.parametrize("name", list(PARENT_INPUTS))
    def test_builder_draws_the_timed_inputs(self, name):
        fn, calls = dict(cli.BENCH_OPS)[name](3)
        nums = [float(v) for args in calls for v in self.numbers(args)]
        assert (len(calls), len(nums), math.fsum(nums)) == self.PARENT_INPUTS[name]
        for args in calls:
            inspect.signature(fn).bind(*args)  # every tuple fits its function

    def test_match_records_row_is_one_call_over_synth_images(self):
        fn, calls = dict(cli.BENCH_OPS)["match_records"](3)
        assert fn is spotting.match_records and len(calls) == 1
        gts, preds = calls[0]
        for i, (gt, pred) in enumerate(zip(gts, preds)):
            assert 1 <= len(gt.items) <= 3
            assert (gt, pred) == dataio.synth_fixture(i, len(gt.items), 0.3)

    def test_rotated_nms_plates_row_is_one_call_per_plate_shaped_set(self):
        fn, calls = dict(cli.BENCH_OPS)["rotated_nms_plates"](6)
        assert fn is geometry.rotated_nms and len(calls) == 6
        for boxes, thresh in calls:
            assert 200 <= len(boxes) <= 400 and thresh == 0.5
            # the clustered 80% score at least 0.3, the scattered rest below 0.6
            assert sum(c.score >= 0.3 for c in boxes) >= round(0.8 * len(boxes))
            assert all(0.0 <= c.box.cx <= 512.0 and 0.0 <= c.box.cy <= 512.0 for c in boxes)

    def test_monte_carlo_builder_shares_one_fresh_generator(self):
        _, calls = dict(cli.BENCH_OPS)["monte_carlo_iou"](3)
        fresh = np.random.default_rng(23).bit_generator.state
        assert all(args[3] is calls[0][3] for args in calls)
        assert calls[0][3].bit_generator.state == fresh

    def test_default_size_is_10(self, monkeypatch):
        monkeypatch.setattr(cli, "BENCH_OPS", (("noop", lambda size: (abs, [(1,)] * size)),))
        rows = cli.cmd_bench(out=io.StringIO())
        assert [row[:2] for row in rows] == [("noop", 10)]

    @pytest.mark.parametrize("sizes", [["0"], ["-3"], ["4", "-1"]])
    def test_nonpositive_size_exits_2(self, capsys, sizes):
        argv = ["bench"]
        for size in sizes:
            argv += ["--size", size]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --size: must be positive" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


# Tokens at and past every documented limit, empty, dash and flag tokens,
# and paths, relative to the fixture directory, to a record file, a
# directory, a missing file and a plain file (hostile as --out). No
# integer token exceeds 3, which caps --n and --size.
HOSTILE_TOKENS = ["nan", "inf", "-inf", "-1", "0", "1", "3", "0.5", "1e400", "", "-", "--", "-h"]
PATH_TOKENS = ["gt.txt", "pred.txt", "subdir", "missing.txt", "blocker.txt", "new"]
# Each subcommand's flags (selfcheck left out) with values that run it.
PLAUSIBLE_FLAGS = {
    "evaluate": (
        ("--gt", "gt.txt"),
        ("--pred", "pred.txt"),
        ("--iou", "0.5"),
        ("--report", "report.txt"),
        ("--ignore-unidentifiable",),
        ("--no-timestamp",),
    ),
    "synth": (("--seed", "1"), ("--n", "3"), ("--noise", "0.5"), ("--out", "new")),
    "bench": (("--size", "3"),),
}


def fuzzed_argv():
    """A subcommand and its flags in any order, each kept, left out or
    given a hostile token (a switch's token is a stray argument)."""
    token = st.sampled_from(HOSTILE_TOKENS + PATH_TOKENS)

    def flag(plausible):
        hostile = token.map(lambda t: (plausible[0], t))
        return st.one_of(st.just(plausible), st.just(()), hostile)

    def argv_of(command):
        flags = st.tuples(*map(flag, PLAUSIBLE_FLAGS[command])).flatmap(st.permutations)
        return flags.map(lambda items: [command, *itertools.chain.from_iterable(items)])

    return st.sampled_from(sorted(PLAUSIBLE_FLAGS)).flatmap(argv_of)


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    hand_fixture(root)
    (root / "subdir").mkdir()
    (root / "blocker.txt").write_text("not a directory\n", encoding="utf-8")
    return root


class TestFuzzedArgv:
    @settings(max_examples=200, deadline=None)
    @given(argv=fuzzed_argv())
    def test_exits_0_1_or_2(self, argv_dir, argv):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(argv_dir)  # relative paths, and '' as a path, stay in the fixture
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
