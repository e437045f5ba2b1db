import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpcore.ctc import DEFAULT_SYMBOLS, Alphabet
from lpcore.dataio import (
    Annotation,
    _read_records,
    PlateType,
    load_alphabet,
    parse_annotation_file,
    parse_predictions,
    save_alphabet,
    synth_fixture,
    write_predictions,
)
from lpcore.errors import ParseError
from lpcore.geometry import Quad, RotatedBox, quad_to_rbox
from lpcore import cli, dataio, spotting
from lpcore.spotting import SpottingItem, SpottingRecord, aggregate, match_image


class TestAnnotations:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0,0,4,0,4,2,0,2,京A12345,blue\n", encoding="utf-8")
        (ann,) = parse_annotation_file(path)
        assert ann.content == "京A12345"
        assert ann.lp_type is PlateType.BLUE
        assert not ann.unidentifiable
        box = quad_to_rbox(ann.quad)
        assert (box.cx, box.cy, box.w, box.h) == pytest.approx((2, 1, 4, 2))
        assert box.theta == pytest.approx(0.0, abs=1e-12)

    def test_vertex_order_preserved(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("1,2,5,2,5,4,1,4,京A00001,white\n", encoding="utf-8")
        (ann,) = parse_annotation_file(path)
        assert ann.quad.vertices == ((1, 2), (5, 2), (5, 4), (1, 4))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0,0,4,0,4,2,0,京A12345,blue\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_annotation_file(path)
        assert err.value.line == 1

    def test_line_number_in_error(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text(
            "0,0,4,0,4,2,0,2,京A12345,blue\n"
            "0,0,4,0,4,2,0,2,京A12345,purple\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            parse_annotation_file(path)
        assert err.value.line == 2

    def test_unidentifiable_content(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0,0,4,0,4,2,0,2,京A123**,yellow_single\n", encoding="utf-8")
        (ann,) = parse_annotation_file(path)
        assert ann.unidentifiable

    def test_degenerate_quad_propagates(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0,0,1,0,0,0,1,0,京A12345,blue\n", encoding="utf-8")
        with pytest.raises(ParseError, match="degenerate quad: quad has zero area") as err:
            parse_annotation_file(path)
        assert (err.value.path, err.value.line) == (str(path), 1)

    @pytest.mark.parametrize(
        "coords, message",
        [("0,0,4,0,nan,2,0,2", "non-finite vertex"), ("0,0,4,2,4,0,0,3", "self-intersect")],
        ids=["nan_vertex", "self_intersecting"],
    )
    def test_degenerate_quad_is_parse_error_with_line(self, tmp_path, coords, message):
        path = tmp_path / "ann.txt"
        path.write_text(f"0,0,4,0,4,2,0,2,京A12345,blue\n{coords},京A12345,blue\n", "utf-8")
        with pytest.raises(ParseError, match=message) as err:
            parse_annotation_file(path)
        assert (err.value.path, err.value.line) == (str(path), 2)

    def test_non_numeric_coordinate(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0,0,x,0,4,2,0,2,京A12345,blue\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_annotation_file(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text(
            "\n0,0,4,0,4,2,0,2,京A12345,blue\n\n0,0,4,0,4,2,0,2,沪C98765,yellow_double\n",
            encoding="utf-8",
        )
        assert len(parse_annotation_file(path)) == 2

    def test_empty_content_rejected(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0,0,4,0,4,2,0,2,,blue\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_annotation_file(path)

    def test_annotation_type_requires_content(self):
        quad = Quad(((0, 0), (4, 0), (4, 2), (0, 2)))
        with pytest.raises(ValueError):
            Annotation(quad, "", PlateType.BLUE)

    def test_unidentifiable_uses_the_spotting_placeholder(self, monkeypatch):
        monkeypatch.setattr(spotting, "UNIDENTIFIABLE_CHAR", "#")
        quad = Quad(((0, 0), (4, 0), (4, 2), (0, 2)))
        assert Annotation(quad, "京A123#5", PlateType.BLUE).unidentifiable
        assert not Annotation(quad, "京A123*5", PlateType.BLUE).unidentifiable

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_bytes("0,0,4,0,4,2,0,2,京A12345,blue\n".encode("gbk"))
        with pytest.raises(ParseError, match="not UTF-8 text") as err:
            parse_annotation_file(path)
        assert err.value.path == str(path)


class TestPredictionFiles:
    def records(self):
        return [
            SpottingRecord(
                "img_a",
                (
                    SpottingItem(RotatedBox(100.5, 50.25, 64.125, 20.0, 0.123456), "京A12345", 0.987654),
                    SpottingItem(RotatedBox(300.0, 80.0, 90.0, 30.0, -0.2), "沪B67890", 0.5),
                ),
            ),
            SpottingRecord("img_b", (SpottingItem(RotatedBox(10, 20, 30, 10, 0.0), "粤C1111A"),)),
        ]

    def test_roundtrip_within_tolerance(self, tmp_path):
        path = tmp_path / "pred.txt"
        records = self.records()
        write_predictions(path, records)
        back = parse_predictions(path)
        assert [r.image_id for r in back] == ["img_a", "img_b"]
        for orig, parsed in zip(records, back):
            assert len(orig.items) == len(parsed.items)
            for a, b in zip(orig.items, parsed.items):
                assert a.transcript == b.transcript
                if a.score is None:
                    assert b.score is None
                else:
                    assert abs(a.score - b.score) < 1e-6
                for field in ("cx", "cy", "w", "h", "theta"):
                    assert abs(getattr(a.box, field) - getattr(b.box, field)) < 1e-6

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pred.txt"
        path.write_text("", encoding="utf-8")
        assert parse_predictions(path) == []

    @pytest.mark.parametrize("good_lines", [0, 2000])
    def test_non_utf8_file_is_parse_error(self, tmp_path, good_lines):
        # 2000 good lines put the bad byte past the first decoded chunk
        path = tmp_path / "pred.txt"
        good = "img,0.900000,1,1,4,2,0,京A12345\n".encode()
        path.write_bytes(good * good_lines + b"img,0.9,1,1,4,2,0,\xff\n")
        with pytest.raises(ParseError, match="not UTF-8 text") as err:
            parse_predictions(path)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("good_lines", [10, 1000])
    def test_non_utf8_byte_wins_over_an_earlier_bad_line(self, tmp_path, good_lines):
        # the file is decoded whole before any line is checked, so the error
        # does not depend on how far the bad byte sits from the bad line
        path = tmp_path / "pred.txt"
        good = "img,0.900000,1,1,4,2,0,京A12345\n".encode()
        path.write_bytes(b"img,0.9,1,1,4,2\n" + good * good_lines + b"img,0.9,1,1,4,2,0,\xff\n")
        with pytest.raises(ParseError, match="not UTF-8 text") as err:
            parse_predictions(path)
        assert (err.value.path, err.value.line) == (str(path), None)
        bad_line = "0,0,4,0,4,2,0,2,京A12345\n".encode()
        good = "0,0,4,0,4,2,0,2,京A12345,blue\n".encode()
        path.write_bytes(bad_line + good * good_lines + b"0,0,4,0,4,2,0,2,\xff,blue\n")
        with pytest.raises(ParseError, match="not UTF-8 text") as err:
            parse_annotation_file(path)
        assert (err.value.path, err.value.line) == (str(path), None)

    def test_negative_width_rejected(self, tmp_path):
        path = tmp_path / "pred.txt"
        path.write_text("img,0.9,10,10,-5,2,0,京A12345\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_predictions(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("w, h", [("1e200", "2"), ("1e154", "2"), ("5", "1e-200")])
    def test_side_outside_range_rejected(self, tmp_path, w, h):
        path = tmp_path / "pred.txt"
        path.write_text(f"img,0.5,1,1,2,1,0,A\nimg,0.9,10,10,{w},{h},0,京A12345\n", "utf-8")
        with pytest.raises(ParseError, match="sides must be in") as err:
            parse_predictions(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("score", ["nan", "7.5", "-0.1", "inf", "-inf"])
    def test_score_outside_unit_interval_rejected(self, tmp_path, score):
        path = tmp_path / "pred.txt"
        path.write_text(f"img,0.5,1,1,2,1,0,A\nimg,{score},10,10,5,2,0,京A12345\n", "utf-8")
        with pytest.raises(ParseError) as err:
            parse_predictions(path)
        assert err.value.line == 2

    def test_score_bounds_inclusive(self, tmp_path):
        path = tmp_path / "pred.txt"
        path.write_text("img,0,1,1,2,1,0,A\nimg,1.000000,10,10,5,2,0,B\n", "utf-8")
        assert [it.score for it in parse_predictions(path)[0].items] == [0.0, 1.0]

    def test_ground_truth_score_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("img,,1,1,2,1,0,A\nimg,0.5,10,10,5,2,0,B\n", "utf-8")
        assert len(parse_predictions(path)[0].items) == 2  # fine as predictions
        with pytest.raises(ParseError) as err:
            parse_predictions(path, ground_truth=True)
        assert (err.value.path, err.value.line) == (str(path), 2)
        path.write_text("img,,1,1,2,1,0,A\n", "utf-8")
        assert parse_predictions(path, ground_truth=True)[0].items[0].score is None

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "pred.txt"
        path.write_text("img,0.9,10,10,5,2,0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_predictions(path)

    def test_comma_in_transcript_rejected_on_write(self, tmp_path):
        rec = SpottingRecord("img", (SpottingItem(RotatedBox(1, 1, 2, 1, 0), "a,b", 0.5),))
        with pytest.raises(ValueError):
            write_predictions(tmp_path / "x.txt", [rec])


# small field vocabularies, so that many drawn lines are well formed and many
# of those hold a degenerate quad, a bad box or a misplaced BOM
_CHARS = st.characters(exclude_categories=("Cs",))
_NUMBERS = st.sampled_from(["0", "1", "2", "-1", "1e300", "nan", " 1 ", "1_0"])
_WORDS = st.sampled_from(["", "img", "京A12345", "*", "<b>", "\ufeff"])
_RECORD_LINES = st.tuples(
    _WORDS, st.sampled_from(["", "0.5", "2"]), st.lists(_NUMBERS, min_size=5, max_size=5), _WORDS
).map(lambda t: ",".join([t[0], t[1], *t[2], t[3]]))
_ANNOTATION_LINES = st.tuples(
    st.lists(_NUMBERS, min_size=8, max_size=8), _WORDS, st.sampled_from(["blue", "white", "x"])
).map(lambda t: ",".join([*t[0], t[1], t[2]]))
_PARSERS = {
    "predictions": (_RECORD_LINES, parse_predictions),
    "ground_truth": (_RECORD_LINES, lambda path: parse_predictions(path, ground_truth=True)),
    "annotations": (_ANNOTATION_LINES, parse_annotation_file),
    "alphabet": (st.one_of(st.just("<b>"), _CHARS), load_alphabet),
}


def text_files(line):
    """Raw bytes, or lines of one format with a BOM and newline style drawn too."""
    return st.one_of(
        st.binary(max_size=200),
        st.builds(
            lambda bom, lines, newline: (bom + newline.join(lines)).encode("utf-8"),
            st.sampled_from(["", "\ufeff"]),
            st.lists(st.one_of(line, st.text(_CHARS, max_size=12)), min_size=1, max_size=6),
            st.sampled_from(["\n", "\r\n", "\r"]),
        ),
    )


class TestTextFiles:
    RECORDS = "img1,0.9,10,10,5,2,0,京A12345\nimg2,0.8,30,30,5,2,0,沪B67890\n"
    ANNOTATIONS = "0,0,4,0,4,2,0,2,京A12345,blue\n1,2,5,2,5,4,1,4,沪B67890,white\n"

    def test_leading_bom_dropped(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(self.RECORDS, "utf-8")
        bom.write_text("\ufeff" + self.RECORDS, "utf-8")
        assert [r.image_id for r in parse_predictions(bom)] == ["img1", "img2"]
        assert parse_predictions(bom) == parse_predictions(plain)
        plain.write_text(self.ANNOTATIONS, "utf-8")
        bom.write_text("\ufeff" + self.ANNOTATIONS, "utf-8")
        assert parse_annotation_file(bom) == parse_annotation_file(plain)

    def test_later_bom_is_content(self, tmp_path):
        path = tmp_path / "pred.txt"
        path.write_text(self.RECORDS.replace("img2", "\ufeffimg2"), "utf-8")
        assert [r.image_id for r in parse_predictions(path)] == ["img1", "\ufeffimg2"]

    def test_crlf_parses_like_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        cases = ((self.RECORDS, parse_predictions), (self.ANNOTATIONS, parse_annotation_file))
        for text, parse in cases:
            lf.write_bytes(text.encode())
            crlf.write_bytes(text.replace("\n", "\r\n").encode())
            assert parse(crlf) == parse(lf)
        save_alphabet(lf, Alphabet(("a", "b")))
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_alphabet(crlf) == load_alphabet(lf)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    @example(["\x0c", "\x1c", "\x85", "\u2028"])
    def test_alphabet_roundtrip(self, tmp_path_factory, symbols):
        path = tmp_path_factory.getbasetemp() / "alphabet.txt"
        alphabet = Alphabet(tuple(symbols))
        save_alphabet(path, alphabet)
        assert load_alphabet(path) == alphabet

    @pytest.mark.parametrize("parser", sorted(_PARSERS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_bytes_parse_or_raise_parse_error(self, tmp_path_factory, parser, data):
        lines, parse = _PARSERS[parser]
        path = tmp_path_factory.getbasetemp() / f"fuzz_{parser}.txt"
        path.write_bytes(data.draw(text_files(lines)))
        try:
            parse(path)
        except ParseError:
            pass


class TestSynthFixture:
    def test_deterministic(self):
        assert synth_fixture(99, 4, 0.3) == synth_fixture(99, 4, 0.3)
        assert synth_fixture(99, 4, 0.3) != synth_fixture(100, 4, 0.3)

    def test_zero_noise_is_perfect(self):
        gt, pred = synth_fixture(5, 5, 0.0)
        assert gt.image_id == pred.image_id
        r, p, f = aggregate([match_image(gt, pred)])
        assert (r, p, f) == (1.0, 1.0, 1.0)

    def test_large_noise_destroys_overlap(self):
        # displacement of at least the box size guarantees IoU 0
        gt, pred = synth_fixture(5, 5, 3.0)
        counts = match_image(gt, pred)
        assert counts.tp == 0
        assert aggregate([counts])[2] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("noise", [81.0, -81.0, math.nan, 1e4])
    def test_noise_outside_bound_rejected_before_drawing(self, monkeypatch, noise):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a fixture")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=r"noise must be finite and in \[-80, 80\]"):
            synth_fixture(1, 3, noise)

    def test_plate_count_and_alphabet(self):
        gt, pred = synth_fixture(1, 7, 0.5)
        assert len(gt.items) == len(pred.items) == 7
        for item in gt.items:
            assert len(item.transcript) == 7
            assert all(ch in DEFAULT_SYMBOLS for ch in item.transcript)
        assert all(it.score is not None for it in pred.items)
        assert all(it.score is None for it in gt.items)


def _reference_text_lines(path):
    # the whole file is decoded before any line is read, so bytes that are
    # not UTF-8 win over an earlier malformed line
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", path=str(path)) from None
    for no, line in enumerate(lines, start=1):
        yield no, line.rstrip("\n")


def reference_parse_predictions(path, ground_truth=False):
    """The line-by-line record parser the column reader replaced, as an oracle."""
    grouped = {}
    for no, line in _reference_text_lines(path):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise ParseError(
                f"expected 8 comma-separated fields, got {len(fields)}", path=str(path), line=no
            )
        image_id = fields[0]
        if not image_id:
            raise ParseError("empty image_id", path=str(path), line=no)
        if ground_truth and fields[1]:
            raise ParseError(
                f"ground-truth score field must be empty, got {fields[1]!r}",
                path=str(path),
                line=no,
            )
        try:
            score = None if fields[1] == "" else float(fields[1])
            nums = [float(v) for v in fields[2:7]]
        except ValueError:
            raise ParseError("non-numeric box field", path=str(path), line=no)
        if score is not None and not 0.0 <= score <= 1.0:
            raise ParseError(f"score {fields[1]!r} not in [0, 1]", path=str(path), line=no)
        try:
            box = RotatedBox(nums[0], nums[1], nums[2], nums[3], nums[4])
        except ValueError as exc:
            raise ParseError(f"invalid box: {exc}", path=str(path), line=no)
        grouped.setdefault(image_id, []).append(SpottingItem(box, fields[7], score))
    return [SpottingRecord(image_id, tuple(items)) for image_id, items in grouped.items()]


def parse_outcome(parse, path, ground_truth):
    """Records and their repr (which tells -0.0 from 0.0), or the error's details."""
    try:
        records = parse(path, ground_truth=ground_truth)
    except ParseError as exc:
        return ("error", type(exc), str(exc), exc.path, exc.line)
    return ("records", records, repr(records))


# one malformed line of each kind; "gt_score" is malformed only as ground truth
_BAD_LINES = {
    "fields": ["img0,0.5,1,1,4,2,0", "img0,0.5,1,1,4,2,0,A,B", "img0"],
    "empty_id": [",0.5,1,1,4,2,0,A", ",,1,1,4,2,0,A"],
    "gt_score": ["img1,0.5,1,1,4,2,0,A", "img1,1,1,1,4,2,3.0,A"],
    "non_numeric": ["img0,x,1,1,4,2,0,A", "img0,0.5,1,1,four,2,0,A", "img0,,1,,4,2,0,A"],
    "bad_score": ["img0,nan,1,1,4,2,0,A", "img0,1.5,1,1,4,2,0,A", "img0,-0.25,1,1,4,2,0,A",
                  "img0,inf,1,1,4,2,0,A"],
    "non_finite_box": ["img0,0.5,inf,1,4,2,0,A", "img0,,1,nan,4,2,0,A", "img0,0.5,1,1,4,2,1e400,A",
                       "img0,,1,1,-inf,2,0,A"],
    "side": ["img0,0.5,1,1,0,2,0,A", "img0,,1,1,4,-3,0,A", "img0,0.5,1,1,1e-151,2,0,A",
             "img0,0.5,1,1,4,1e151,0,A"],
}


def _field(rng, value):
    return [f"{value:.6f}", repr(value), f" {value!r} ", f"{value:e}", f"{value:.2f}"][
        int(rng.integers(5))
    ]


def _good_line(rng, scored):
    image_id = ["img0", "img1", "img2", "京A", "*", "\ufeffimg0"][int(rng.integers(6))]
    score = ""
    if scored and rng.random() < 0.9:
        drawn = _field(rng, float(rng.uniform(0.0, 1.0)))
        score = ["0", "1", "1_0e-1", drawn][int(rng.integers(4))]
    box = [rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0), rng.uniform(1.0, 50.0),
           rng.uniform(1.0, 50.0), rng.uniform(-math.pi, math.pi)]
    text = ["京A12345", "", "*", "A B", "沪B6789*"][int(rng.integers(5))]
    return ",".join([image_id, score, *(_field(rng, float(v)) for v in box), text])


def _plain_score(line):
    """A _good_line with an empty or 1_0e-1 score, which np.loadtxt rejects, made plain."""
    fields = line.split(",")
    fields[1] = {"": "0.5", "1_0e-1": "1.0e-1"}.get(fields[1], fields[1])
    return ",".join(fields)


def _record_file(rng, n_bad):
    scored = rng.random() < 0.6
    lines = [_good_line(rng, scored) for _ in range(int(rng.integers(0, 25)))]
    for _ in range(int(rng.integers(0, 4))):
        lines.insert(int(rng.integers(len(lines) + 1)), ["", "  ", "\t"][int(rng.integers(3))])
    kinds = []
    for _ in range(n_bad):
        kind = sorted(_BAD_LINES)[int(rng.integers(len(_BAD_LINES)))]
        choices = _BAD_LINES[kind]
        lines.insert(int(rng.integers(len(lines) + 1)), choices[int(rng.integers(len(choices)))])
        kinds.append(kind)
    newline = ["\n", "\r\n", "\r"][int(rng.integers(3))]
    text = newline.join(lines) + (newline if rng.random() < 0.7 else "")
    return ("\ufeff" if rng.random() < 0.3 else "") + text, kinds


# record fields that np.loadtxt and the line reader read alike, and tokens to
# put in their place that np.loadtxt reads otherwise than float() and
# str.split: it strips \x1c-\x1f around a number (float() does not), rejects
# underscores, non-ASCII digits and empty numbers, and must keep NULs, long
# strings, quotes and comment marks whole
_PLAIN = {
    "id": ["img0", "img1", "京A"],
    "score": ["0.5", "1", "0", "0.000001"],
    "number": ["1", "2.5", "0.75", "4"],
    "text": ["京A12345", "", "B"],
}
_TWISTS = {
    "id": ["i\x00g", "\x00", "x" * 40, "京" * 33, '"img0"', "#"],
    "score": ["", "\x1c0.5", "0.5\x1f", "0.5\x00", "０.５", "1e-5_0", "-0.0"],
    "number": ["\x1c1", "1\x1d", "\x1e2.5", "2.5\x1f", "1\x00", "\x002", "１", "٣", "1e5_0", "",
               "-0.0"],
    "text": ["a\x00", "\x00", "y" * 40, "沪" * 33, "a\x1cb", '"B', "# B"],
    "blank": [" ", "\t", "\x0c", "\x1f", " \x00 "],
}


@st.composite
def divergent_files(draw):
    """Record files of plain lines, lines with one twisted field and blank lines."""
    scored = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["plain", "plain", *sorted(_TWISTS)]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(_TWISTS["blank"])))
            continue
        fields = [draw(st.sampled_from(_PLAIN["id"])),
                  draw(st.sampled_from(_PLAIN["score"])) if scored else "",
                  *(draw(st.sampled_from(_PLAIN["number"])) for _ in range(5)),
                  draw(st.sampled_from(_PLAIN["text"]))]
        if kind != "plain":
            k = {"id": 0, "score": 1, "text": 7}.get(kind) or draw(st.integers(2, 6))
            fields[k] = draw(st.sampled_from(_TWISTS[kind]))
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")


def record_columns(path, ground_truth):
    """_read_records' rows, stably regrouped by image id in first-seen order."""
    ids, scores, has_score, boxes, texts = _read_records(path, ground_truth)
    first = {}
    for image_id in ids:
        first.setdefault(image_id, len(first))
    order = sorted(range(len(ids)), key=lambda k: first[ids[k]])
    columns = (ids, scores.tolist(), has_score, boxes.tolist(), texts)
    return repr(tuple([column[k] for k in order] for column in columns))


def columns_of(records):
    """The grouped rows of these records, as record_columns gives them."""
    items = [(r.image_id, it) for r in records for it in r.items]
    return repr(
        (
            [i for i, _ in items],
            [0.0 if it.score is None else it.score for _, it in items],
            [it.score is not None for _, it in items],
            [[it.box.cx, it.box.cy, it.box.w, it.box.h, it.box.theta] for _, it in items],
            [it.transcript for _, it in items],
        )
    )


class TestColumnReaderEquivalence:
    def test_equals_line_parser_on_seeded_files(self, tmp_path):
        rng = np.random.default_rng(2024)
        path = tmp_path / "records.txt"
        messages = set()
        records = first_of_two = 0
        for case in range(1500):
            text, kinds = _record_file(rng, n_bad=case % 3)
            path.write_text(text, encoding="utf-8", newline="")
            for ground_truth in (False, True):
                want = parse_outcome(reference_parse_predictions, path, ground_truth)
                got = parse_outcome(parse_predictions, path, ground_truth)
                assert got == want, (text, ground_truth)
                if want[0] == "records":
                    records += bool(want[1])
                    assert record_columns(path, ground_truth) == columns_of(want[1])
                else:
                    messages.add(want[2].split(": ", 1)[1].split(" ")[0])
                    first_of_two += len(set(kinds) - {"gt_score"}) == 2
        assert records > 300
        assert first_of_two > 100  # files whose two bad lines differ in kind
        assert messages == {
            "expected", "empty", "ground-truth", "non-numeric", "score", "invalid"
        }, messages

    @pytest.mark.parametrize("loadtxt", [False, True])
    @pytest.mark.parametrize("bad", [None, "side", "fields"])
    def test_equals_line_parser_on_a_large_file(self, tmp_path, monkeypatch, bad, loadtxt):
        # about 400 kB. Its " " lines and its empty and 1_0e-1 scores send it
        # to the line reader; with the lines left out and the scores made
        # plain, np.loadtxt reads it unless a bad line is put in
        rng = np.random.default_rng(7)
        lines = [_good_line(rng, scored=True) for _ in range(5000)]
        if loadtxt:
            lines = [_plain_score(line) for line in lines]
        else:
            for k in range(0, 5000, 700):
                lines.insert(k, " ")
        if bad is not None:
            lines.insert(4321, _BAD_LINES[bad][0])
        path = tmp_path / "records.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line_reads = []
        read_lines = dataio._read_record_lines
        monkeypatch.setattr(
            dataio, "_read_record_lines", lambda *a: line_reads.append(a) or read_lines(*a)
        )
        want = parse_outcome(reference_parse_predictions, path, False)
        assert parse_outcome(parse_predictions, path, False) == want
        assert want[0] == ("records" if bad is None else "error")
        assert bool(line_reads) == (not loadtxt or bad is not None)
        if bad is None:
            assert record_columns(path, False) == columns_of(want[1])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_line_parser_on_fuzzed_files(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz_equivalence.txt"
        path.write_bytes(data.draw(text_files(_RECORD_LINES)))
        for ground_truth in (False, True):
            want = parse_outcome(reference_parse_predictions, path, ground_truth)
            assert parse_outcome(parse_predictions, path, ground_truth) == want

    def test_equals_line_parser_on_a_bad_line_before_a_cut_utf8_sequence(self, tmp_path):
        # a line of one field, then a lone UTF-8 lead byte at the end of the file
        path = tmp_path / "records.txt"
        path.write_bytes(b"\x00\r\x00\xc2")
        for ground_truth in (False, True):
            want = parse_outcome(reference_parse_predictions, path, ground_truth)
            assert parse_outcome(parse_predictions, path, ground_truth) == want
            assert want[2].endswith("not UTF-8 text: unexpected end of data")

    @settings(max_examples=300, deadline=None)
    @given(raw=divergent_files())
    @example(raw=b"im1,0.5,1.5\x1f,1,4,2,0,A\n")
    @example(raw=b"im1,\x1c0.5,1,1,4,2,0,A\nim1,0.5,1,1,4,2,0,B")
    @example(raw=b"im1,,1,1,4,2,0,A\r\nim1,0.5,1,1,4,2,0,B\r\n")
    def test_equals_line_parser_where_loadtxt_differs(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "divergence.txt"
        path.write_bytes(raw)
        for ground_truth in (False, True):
            want = parse_outcome(reference_parse_predictions, path, ground_truth)
            assert parse_outcome(parse_predictions, path, ground_truth) == want
            if want[0] == "records":
                assert record_columns(path, ground_truth) == columns_of(want[1])
            else:
                with pytest.raises(ParseError) as err:
                    _read_records(path, ground_truth)
                got = (type(err.value), str(err.value), err.value.path, err.value.line)
                assert ("error", *got) == want


class TestColumnReaderFastPath:
    """Well-formed files are read by np.loadtxt alone, never by the line reader."""

    @pytest.fixture(autouse=True)
    def no_line_reader(self, monkeypatch):
        def refuse(path, ground_truth):
            raise AssertionError(f"{path} went to the line reader")

        monkeypatch.setattr(dataio, "_read_record_lines", refuse)

    @pytest.mark.parametrize("noise", [0.3, 80.0])
    def test_synth_output(self, tmp_path, noise):
        gt_path, pred_path = cli.cmd_synth(11, 200, noise, tmp_path)
        for path, ground_truth in ((gt_path, True), (pred_path, False)):
            ids, scores, has_score, boxes, texts = _read_records(path, ground_truth)
            assert len(ids) == len(scores) == len(has_score) == len(boxes) == len(texts) > 200
            assert has_score == [not ground_truth] * len(ids)

    def test_eval_10k_shaped_files(self, tmp_path):
        # the benchmark's layout: img%05d ids, six decimals, 1-3 plates an image
        gts, preds = [], []
        for i in range(2000):
            gt, pred = synth_fixture(i, 1 + i % 3, 0.1)
            gts.append(SpottingRecord(f"img{i:05d}", gt.items))
            preds.append(SpottingRecord(f"img{i:05d}", pred.items))
        for records, ground_truth in ((gts, True), (preds, False)):
            path = tmp_path / f"records_{ground_truth}.txt"
            write_predictions(path, records)
            rows = sum(len(record.items) for record in records)
            assert len(_read_records(path, ground_truth)[0]) == rows

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\ufeff", "\n\n", "\r\n\r\n", "\r"])
    def test_empty_and_blank_files(self, tmp_path, text):
        path = tmp_path / "records.txt"
        path.write_bytes(text.encode())
        for ground_truth in (False, True):
            ids, scores, has_score, boxes, texts = _read_records(path, ground_truth)
            assert (ids, has_score, texts) == ([], [], [])
            assert scores.shape == (0,) and boxes.shape == (0, 5)


@pytest.mark.parametrize("name", ["records.gz", "records.txt.xz", "http://localhost/records.txt"])
def test_paths_numpy_would_open_otherwise_take_the_line_reader(tmp_path, monkeypatch, name):
    # np.loadtxt would decompress these suffixes and fetch the URL
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(np, "loadtxt", refuse)
    path = Path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(TestTextFiles.RECORDS, encoding="utf-8")
    want = parse_outcome(reference_parse_predictions, name, False)
    assert want[0] == "records"
    assert parse_outcome(parse_predictions, name, False) == want
