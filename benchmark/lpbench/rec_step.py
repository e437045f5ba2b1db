"""rec_step: the recognition numerics of one training step on one image.

``training_crop_boxes`` keeps the plates plus the predictions scoring above
0.9; each crop is cut from a (32, 80, 80) feature map by ``rroi_align`` and
runs through a convolution, a deformable convolution and a BiLSTM. CTC loss
and greedy decoding run on seeded log-probabilities (T=25, 69 classes) whose
best path spells the plate's 7-character transcript, and ``end_to_end_loss``
combines the recognition loss with a detection term. No geometry runs here.

Each feature-map channel is a linear ramp, on which bilinear sampling is
exact, so crops can be checked against the dense oracle at its 1e-3
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from lpcore import ctc, feature_ops, losses, oracles
from lpcore.feature_ops import BiLstmParams, CropSpec, FeatureMap, LstmParams
from lpcore.geometry import RotatedBox, ScoredBox

from .plates import LETTERS, PROVINCES, TAIL, plate_shape, plate_text, step_rng

CHANNELS, MAP_H, MAP_W = 32, 80, 80
CONV_OUT = 16
HIDDEN = 32
FRAMES = 25  # = CropSpec().out_w, one frame per crop column
CROP = CropSpec()
SCORE_THRESH = 0.9
DENSE_CHECKS = 3  # crops checked against the dense oracle per run
DENSE_CHANNELS = 2
DENSE_TOL = 1e-3


@dataclass(frozen=True)
class Objects:
    alphabet: ctc.Alphabet
    fm: FeatureMap
    conv_w: np.ndarray
    conv_b: np.ndarray
    deform_w: np.ndarray
    deform_b: np.ndarray
    offsets: FeatureMap
    lstm: BiLstmParams


@dataclass(frozen=True)
class StepInput:
    index: int
    gts: list
    preds: list
    # per candidate box: (log-probs, transcript the best path spells)
    labels: dict
    l_det: float


@dataclass
class StepOutput:
    boxes: list
    crops: list
    hidden_shapes: list
    ctc: list  # (loss, finite gradient) per crop
    decoded: list
    total: float


def _path_log_probs(rng: np.random.Generator, classes: list[int], num_classes: int) -> np.ndarray:
    """(FRAMES, K) log-probs whose per-frame argmax collapses to ``classes``."""
    # alternating runs: blanks (>= 1 frame before a repeated label), then the
    # label (>= 1 frame); the spare frames lengthen random runs
    runs: list[tuple[int, int]] = []
    for i, c in enumerate(classes):
        runs.append((0, 1 if i and classes[i - 1] == c else 0))
        runs.append((c, 1))
    runs.append((0, 0))
    spare = FRAMES - sum(n for _, n in runs)
    extra = rng.multinomial(spare, np.full(len(runs), 1.0 / len(runs)))
    path = [cls for (cls, n), e in zip(runs, extra) for _ in range(n + int(e))]
    logits = rng.normal(0.0, 1.0, size=(FRAMES, num_classes))
    logits[np.arange(FRAMES), path] += 12.0
    return logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)


class Workload:
    name = "rec_step"
    item = "crops"
    e2e_names = {
        "items_per_s": "rec_crops_per_s",
        "step_p50_ms": "rec_step_p50_ms",
        "step_p90_ms": "rec_step_p90_ms",
    }
    trace_steps = 50

    def __init__(self, seed: int, workdir=None):
        self.seed = seed
        self.dense_left = DENSE_CHECKS
        self.props = {"steps": 0, "plates": 0, "preds": 0, "crops": 0, "labels": 0, "repeats": 0}

    def setup(self) -> Objects:
        rng = step_rng(self.seed, 3)
        ys, xs = np.mgrid[0:MAP_H, 0:MAP_W]
        slopes = rng.uniform(-0.05, 0.05, size=(CHANNELS, 2))
        level = rng.uniform(-1.0, 1.0, size=CHANNELS)
        data = slopes[:, 0, None, None] * xs + slopes[:, 1, None, None] * ys + level[:, None, None]
        k = 3
        d = CONV_OUT * CROP.out_h

        def lstm() -> LstmParams:
            return LstmParams(
                0.1 * rng.normal(size=(4 * HIDDEN, d)),
                0.1 * rng.normal(size=(4 * HIDDEN, HIDDEN)),
                0.1 * rng.normal(size=4 * HIDDEN),
            )

        return Objects(
            alphabet=ctc.default_alphabet(),
            fm=FeatureMap(data),
            conv_w=0.05 * rng.normal(size=(CONV_OUT, CHANNELS, k, k)),
            conv_b=0.05 * rng.normal(size=CONV_OUT),
            deform_w=0.05 * rng.normal(size=(CONV_OUT, CONV_OUT, k, k)),
            deform_b=0.05 * rng.normal(size=CONV_OUT),
            offsets=FeatureMap(0.5 * rng.normal(size=(2 * k * k, CROP.out_h, CROP.out_w))),
            lstm=BiLstmParams(lstm(), lstm()),
        )

    def step_input(self, index: int) -> StepInput:
        rng = step_rng(self.seed, 3, index)
        n = 1 + index % 3  # every run sees the same mix of 1, 2 and 3 plates
        shapes = [plate_shape(rng, 16.0, 30.0, 0.3) for _ in range(n)]
        # crops may overlap; every crop, jittered copies included, stays 2+
        # pixels inside the map, where bilinear sampling of a ramp is exact
        centers = []
        for w, h, _ in shapes:
            margin = 0.6 * math.hypot(w, h) + 4.0
            centers.append(tuple(float(v) for v in rng.uniform(margin, MAP_W - 1 - margin, size=2)))
        gts, preds, labels = [], [], {}
        num_classes = 1 + len(PROVINCES) + len(TAIL) + 1  # blank, symbols, '*'
        symbols = PROVINCES + LETTERS + "0123456789*"
        for (w, h, t), (cx, cy) in zip(shapes, centers):
            text = plate_text(rng)
            classes = [1 + symbols.index(ch) for ch in text]
            gt = RotatedBox(cx, cy, w, h, t)
            gts.append(gt)
            labels[gt] = (_path_log_probs(rng, classes, num_classes), text)
            for _ in range(int(rng.integers(0, 3))):
                j = rng.normal(size=5)
                box = RotatedBox(cx + 0.5 * j[0], cy + 0.5 * j[1], w * math.exp(0.05 * j[2]),
                                 h * math.exp(0.05 * j[3]), t + 0.03 * j[4])
                preds.append(ScoredBox(box, float(rng.uniform(0.5, 1.0))))
                labels[box] = (_path_log_probs(rng, classes, num_classes), text)
            self.props["labels"] += len(text)
            self.props["repeats"] += sum(a == b for a, b in zip(text, text[1:]))
        self.props["steps"] += 1
        self.props["plates"] += n
        self.props["preds"] += len(preds)
        self.props["crops"] += n + sum(p.score > SCORE_THRESH for p in preds)
        return StepInput(index, gts, preds, labels, float(rng.uniform(0.5, 2.0)))

    def run(self, o: Objects, inp: StepInput) -> StepOutput:
        boxes = feature_ops.training_crop_boxes(inp.gts, inp.preds, SCORE_THRESH)
        crops, shapes, ctc_out, decoded = [], [], [], []
        l_rec = 0.0
        for box in boxes:
            crop = feature_ops.rroi_align(o.fm, box, CROP)
            f1 = feature_ops.conv2d_forward(crop, o.conv_w, o.conv_b, padding=1)
            f2 = feature_ops.deformable_conv2d_forward(f1, o.deform_w, o.deform_b, o.offsets,
                                                       padding=1)
            seq = f2.data.transpose(2, 0, 1).reshape(CROP.out_w, -1)
            hidden = feature_ops.bilstm_forward(seq, o.lstm)
            logp, text = inp.labels[box]
            loss, grad = ctc.ctc_loss(logp, o.alphabet.encode(text))
            decoded.append(ctc.greedy_decode(logp, o.alphabet))
            l_rec += loss
            crops.append(crop)
            shapes.append(hidden.shape)
            ctc_out.append((loss, bool(np.isfinite(grad).all())))
        total = losses.end_to_end_loss(inp.l_det, l_rec / max(1, len(boxes)))
        return StepOutput(boxes, crops, shapes, ctc_out, decoded, total)

    def items(self, inp: StepInput, out: StepOutput) -> int:
        return len(out.boxes)

    def check(self, o: Objects, inp: StepInput, out: StepOutput, counters):
        """(crops attempted, crops failed, messages) for one step."""
        problems: list[str] = []
        failed = 0
        want_boxes = list(inp.gts) + [p.box for p in inp.preds if p.score > SCORE_THRESH]
        if out.boxes != want_boxes:
            problems.append("training_crop_boxes chose other boxes")
        for i, box in enumerate(out.boxes):
            bad = []
            text = inp.labels[box][1] if box in inp.labels else None
            if out.decoded[i] != text:
                bad.append(f"decoded {out.decoded[i]!r}, want {text!r}")
            loss, grad_ok = out.ctc[i]
            if not (math.isfinite(loss) and loss >= 0.0 and grad_ok):
                bad.append(f"CTC loss {loss!r}")
            if out.crops[i].data.shape != (CHANNELS, CROP.out_h, CROP.out_w) or \
                    out.hidden_shapes[i] != (FRAMES, 2 * HIDDEN):
                bad.append("crop or BiLSTM output has the wrong shape")
            if self.dense_left > 0:
                self.dense_left -= 1
                sub = FeatureMap(o.fm.data[:DENSE_CHANNELS])
                want = oracles.dense_rroi_align(sub, box, CROP).data
                err = float(np.abs(out.crops[i].data[:DENSE_CHANNELS] - want).max())
                if not err < DENSE_TOL:
                    bad.append(f"crop differs from the dense oracle by {err:.2e}")
            counters["ctc.decodes"] += 1
            counters["ctc.decodes_exact"] += out.decoded[i] == text
            if bad:
                failed += 1
                problems += bad
        if not math.isfinite(out.total):
            problems.append(f"end-to-end loss {out.total!r}")
            failed = max(failed, 1)
        if problems and not failed:
            failed = 1
        return max(1, len(out.boxes)), failed, problems

    def corrupt(self, inp: StepInput) -> StepInput:
        labels = dict(inp.labels)
        gt = inp.gts[0]
        logp, text = labels[gt]
        labels[gt] = (logp, text[:-1] + ("0" if text[-1] != "0" else "1"))
        return replace(inp, labels=labels)

    def properties(self) -> dict:
        p = self.props
        steps = max(1, p["steps"])
        return {
            "steps_generated": p["steps"],
            "plates_per_step": p["plates"] / steps,
            "predictions_per_step": p["preds"] / steps,
            "crops_per_step": p["crops"] / steps,
            "label_length_mean": p["labels"] / max(1, p["plates"]),
            "labels_with_repeat_share": p["repeats"] / max(1, p["labels"]),
            "frames": FRAMES,
            "feature_map": [CHANNELS, MAP_H, MAP_W],
        }
