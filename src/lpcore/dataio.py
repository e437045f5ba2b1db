"""File formats: annotations, prediction/ground-truth records, alphabets,
and deterministic synthetic fixtures.

Every text file is UTF-8, a leading BOM is dropped, and lines may end in
``\n``, ``\r\n`` or ``\r``. Annotation lines:
``x1,y1,x2,y2,x3,y3,x4,y4,content,type`` (the content may hold any
non-comma characters). Record lines:
``image_id,score,cx,cy,w,h,theta,transcript`` with an empty score field
for ground truths. Numeric fields are read with ``float()`` and written
with six decimals, so a write/parse roundtrip is lossless to 1e-6.
Alphabet files hold the blank marker, then one symbol per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ctc import DEFAULT_SYMBOLS, PROVINCES, Alphabet
from .errors import DegenerateQuadError, ParseError
from .geometry import Quad, RotatedBox, _checked_box_array
from .spotting import SpottingItem, SpottingRecord, is_unidentifiable


class PlateType(Enum):
    BLUE = "blue"
    YELLOW_SINGLE = "yellow_single"
    YELLOW_DOUBLE = "yellow_double"
    WHITE = "white"


@dataclass(frozen=True)
class Annotation:
    """One annotated plate: vertex quad, content string, plate type."""

    quad: Quad
    content: str
    lp_type: PlateType

    def __post_init__(self):
        if not self.content:
            raise ValueError("annotation content must be nonempty")

    @property
    def unidentifiable(self) -> bool:
        return is_unidentifiable(self.content)


def _text_lines(path):
    """(line number, line without its newline) pairs of a UTF-8 text file.

    A leading BOM is dropped. The whole file is decoded first, so a file
    with bytes that are not UTF-8 always raises the same line-less
    ParseError, wherever the bytes and any malformed line sit.
    """
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", path=str(path)) from None
    if lines[-1] == "":  # the text ends in a newline, or the file is empty
        lines.pop()
    return enumerate(lines, start=1)


def parse_annotation_file(path) -> list[Annotation]:
    """Parse one plate per line; raises ParseError with the line number.

    A degenerate vertex set (zero area, self-intersecting or non-finite)
    is a ParseError too.
    """
    out: list[Annotation] = []
    for no, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 10:
            raise ParseError(
                f"expected 10 comma-separated fields, got {len(fields)}",
                path=str(path),
                line=no,
            )
        try:
            coords = [float(v) for v in fields[:8]]
        except ValueError:
            raise ParseError("non-numeric vertex coordinate", path=str(path), line=no)
        content = fields[8]
        if not content:
            raise ParseError("empty content field", path=str(path), line=no)
        try:
            lp_type = PlateType(fields[9])
        except ValueError:
            raise ParseError(f"unknown plate type {fields[9]!r}", path=str(path), line=no)
        try:
            quad = Quad(
                ((coords[0], coords[1]), (coords[2], coords[3]),
                 (coords[4], coords[5]), (coords[6], coords[7]))
            )
        except DegenerateQuadError as exc:
            raise ParseError(f"degenerate quad: {exc}", path=str(path), line=no)
        out.append(Annotation(quad, content, lp_type))
    return out


def _check_text_field(value: str, what: str) -> str:
    if "," in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} may not contain commas or newlines: {value!r}")
    return value


def write_predictions(path, records: list[SpottingRecord]) -> None:
    """Write spotting records, one plate per line; empty score for GTs."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            _check_text_field(rec.image_id, "image_id")
            for item in rec.items:
                _check_text_field(item.transcript, "transcript")
                score = "" if item.score is None else f"{item.score:.6f}"
                b = item.box
                f.write(
                    f"{rec.image_id},{score},{b.cx:.6f},{b.cy:.6f},"
                    f"{b.w:.6f},{b.h:.6f},{b.theta:.6f},{item.transcript}\n"
                )


def parse_predictions(path, ground_truth: bool = False) -> list[SpottingRecord]:
    """Read spotting records grouped by image id (first-seen order).

    With ground_truth, every score field must be empty.
    """
    ids, scores, has_score, boxes, texts = _read_records(path, ground_truth)
    grouped: dict[str, list[SpottingItem]] = {}
    rows = zip(ids, scores.tolist(), has_score, boxes.tolist(), texts)
    for image_id, score, has, row, text in rows:
        item = SpottingItem(RotatedBox(*row), text, score if has else None)
        grouped.setdefault(image_id, []).append(item)
    return [SpottingRecord(image_id, tuple(items)) for image_id, items in grouped.items()]


# _read_records reads and splits lines of about this many characters at a
# time, so that few of a file's strings live at once
_BLOCK_CHARS = 1 << 16


def _read_records(path, ground_truth: bool):
    """A record file as columns, one row per plate in file order.

    Returns (image ids, scores, has-score mask, boxes, transcripts): lists,
    except scores, an (N,) float64 array, and boxes, an (N, 5) float64 array
    of canonical RotatedBox fields. A missing score reads 0.0. Lines are
    only split here; the numbers are parsed and checked in bulk, and on any
    failure the file is checked again line by line, so the ParseError is the
    first bad line's.
    """
    ids, score_fields, texts, numbers = [], [], [], [np.zeros((5, 0))]
    try:
        with open(path, encoding="utf-8-sig") as f:
            while block := f.readlines(_BLOCK_CHARS):
                lines = [line for line in block if line.count(",") == 7]
                # a line of 8 fields holds 7 commas; any other line must be blank
                if len(lines) < len(block) and any(
                    line.strip() for line in block if line.count(",") != 7
                ):
                    raise ValueError("a line does not hold 8 fields")
                if not lines:
                    continue
                fields = "".join(lines).rstrip("\n").replace("\n", ",").split(",")
                ids += fields[0::8]
                score_fields += fields[1::8]
                texts += fields[7::8]
                numbers.append(np.array([fields[k::8] for k in range(2, 7)], dtype=np.float64))
        boxes = _checked_box_array(np.concatenate(numbers, axis=1).T, "boxes")
        has_score = [s != "" for s in score_fields]
        scores = np.zeros(len(ids))
        scores[has_score] = np.array([s for s in score_fields if s], dtype=np.float64)
    except ValueError:  # a UnicodeDecodeError is one too
        _raise_first_bad_record(path, ground_truth)
    if (
        "" in ids
        or (ground_truth and any(has_score))
        or not ((scores >= 0.0) & (scores <= 1.0)).all()
    ):
        _raise_first_bad_record(path, ground_truth)
    return ids, scores, has_score, boxes, texts


def _raise_first_bad_record(path, ground_truth: bool):
    """Check a record file line by line and raise the first bad line's ParseError."""
    for no, line in _text_lines(path):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise ParseError(
                f"expected 8 comma-separated fields, got {len(fields)}",
                path=str(path),
                line=no,
            )
        if not fields[0]:
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
            RotatedBox(nums[0], nums[1], nums[2], nums[3], nums[4])
        except ValueError as exc:
            raise ParseError(f"invalid box: {exc}", path=str(path), line=no)
    raise AssertionError(f"{path}: the bulk record check failed but no line does")


BLANK_MARKER = "<b>"


def save_alphabet(path, alphabet: Alphabet) -> None:
    """One symbol per line; the first line is the blank marker."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(BLANK_MARKER + "\n")
        for ch in alphabet.symbols:
            f.write(ch + "\n")


def load_alphabet(path) -> Alphabet:
    """Read a file written by save_alphabet; raises ParseError with the line."""
    lines = _text_lines(path)
    if next(lines, (1, None))[1] != BLANK_MARKER:
        raise ParseError(f"first line must be {BLANK_MARKER!r}", path=str(path), line=1)
    symbols = []
    for no, line in lines:
        if len(line) != 1:
            raise ParseError(f"expected a single character, got {line!r}", path=str(path), line=no)
        symbols.append(line)
    try:
        return Alphabet(tuple(symbols))
    except ValueError as exc:
        raise ParseError(str(exc), path=str(path)) from exc


_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_TAIL_CHARS = _LETTERS + "0123456789"


def _signed_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    mag = rng.uniform(lo, hi)
    return mag if rng.random() < 0.5 else -mag


# A side scales by e^(noise * u) with |u| <= 0.2, so |noise| <= 80 keeps the
# smallest side, about 23 times e^-16, near 2.6e-6. Past 80 a side can fall
# below 5e-7, which write_predictions' six decimals write as 0.000000.
SYNTH_NOISE_MAX = 80.0


def _check_synth_noise(noise: float) -> None:
    if not abs(noise) <= SYNTH_NOISE_MAX:
        bound = SYNTH_NOISE_MAX
        raise ValueError(f"noise must be finite and in [{-bound:g}, {bound:g}], got {noise!r}")


def synth_fixture(
    seed: int, n_plates: int, noise: float
) -> tuple[SpottingRecord, SpottingRecord]:
    """Deterministic one-image fixture: ground truth plus perturbed copy.

    noise scales a geometric perturbation of every predicted box; zero
    noise reproduces the ground truth exactly, and a noise of ~2 or more
    displaces each prediction by at least its own size (IoU reaches 0).
    |noise| must be at most SYNTH_NOISE_MAX, so that every side still reads
    back from write_predictions' six decimals; otherwise it is a ValueError.
    Transcripts are never corrupted.
    """
    _check_synth_noise(noise)
    rng = np.random.default_rng(seed)
    image_id = f"synth_{seed & (2**64 - 1):016x}"
    gt_items = []
    pred_items = []
    for _ in range(n_plates):
        w = rng.uniform(80.0, 160.0)
        h = w / rng.uniform(2.5, 3.5)
        theta = rng.uniform(-0.3, 0.3)
        cx = rng.uniform(120.0, 520.0)
        cy = rng.uniform(120.0, 520.0)
        text = (
            PROVINCES[rng.integers(len(PROVINCES))]
            + _LETTERS[rng.integers(len(_LETTERS))]
            + "".join(_TAIL_CHARS[rng.integers(len(_TAIL_CHARS))] for _ in range(5))
        )
        assert all(ch in DEFAULT_SYMBOLS for ch in text)
        gt_items.append(SpottingItem(RotatedBox(cx, cy, w, h, theta), text))

        dx = noise * w * _signed_uniform(rng, 0.5, 1.0)
        dy = noise * h * _signed_uniform(rng, 0.5, 1.0)
        scale_w = float(np.exp(noise * _signed_uniform(rng, 0.05, 0.2)))
        scale_h = float(np.exp(noise * _signed_uniform(rng, 0.05, 0.2)))
        dtheta = noise * _signed_uniform(rng, 0.02, 0.1)
        score = float(rng.uniform(0.6, 1.0))
        pred_box = RotatedBox(cx + dx, cy + dy, w * scale_w, h * scale_h, theta + dtheta)
        pred_items.append(SpottingItem(pred_box, text, score))
    return (
        SpottingRecord(image_id, tuple(gt_items)),
        SpottingRecord(image_id, tuple(pred_items)),
    )
