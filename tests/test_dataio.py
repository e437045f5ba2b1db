import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpcore.ctc import DEFAULT_SYMBOLS, Alphabet
from lpcore.dataio import (
    Annotation,
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
from lpcore import spotting
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

    def test_plate_count_and_alphabet(self):
        gt, pred = synth_fixture(1, 7, 0.5)
        assert len(gt.items) == len(pred.items) == 7
        for item in gt.items:
            assert len(item.transcript) == 7
            assert all(ch in DEFAULT_SYMBOLS for ch in item.transcript)
        assert all(it.score is not None for it in pred.items)
        assert all(it.score is None for it in gt.items)
