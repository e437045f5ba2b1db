"""det_step: the detection numerics of one training step on one image.

Anchor assignment on a 64x64 grid (stride 8) against 1-3 plates, offset
encode/decode for the positives, the focal classification loss over every
anchor plus the localization and refinement losses and their weighted sum,
then greedy rotated NMS over a few hundred candidates, about 80% of them
clustered around the plates and the rest scattered over the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from lpcore import anchors, geometry, losses, oracles
from lpcore.anchors import BoxDelta, ShapeDelta
from lpcore.geometry import RotatedBox, ScoredBox

from .plates import place_apart, plate_shape, step_rng

GRID = 64
STRIDE = 8
IMAGE = GRID * STRIDE
NMS_IOU = 0.5
CANDIDATES = (200, 400)
GOLDEN = (5 ** 0.5 - 1) / 2
SILVER = 2 ** 0.5 - 1
CLUSTERED_SHARE = 0.8
MC_CHECKS = 4  # IoUs checked against the Monte-Carlo oracle per run
MC_TOL = 5e-3
ROUNDTRIP_TOL = 1e-9


@dataclass(frozen=True)
class Objects:
    grid: anchors.AnchorGrid


@dataclass(frozen=True)
class StepInput:
    index: int
    gts: list
    candidates: list
    probs: list
    pred_noise: np.ndarray


@dataclass
class StepOutput:
    assignment: anchors.Assignment
    positives: np.ndarray
    targets: list
    decoded: list
    losses: dict
    kept: list


class Workload:
    name = "det_step"
    item = "steps"
    e2e_names = {
        "items_per_s": "det_steps_per_s",
        "step_p50_ms": "det_step_p50_ms",
        "step_p90_ms": "det_step_p90_ms",
    }
    trace_steps = 4

    def __init__(self, seed: int, workdir=None):
        self.seed = seed
        self.mc_left = MC_CHECKS
        self.props = {"steps": 0, "plates": 0, "candidates": 0, "clustered": 0, "positives": 0,
                      "kept": 0}

    def setup(self) -> Objects:
        return Objects(anchors.generate_anchors(GRID, GRID, stride=STRIDE))

    def step_input(self, index: int) -> StepInput:
        rng = step_rng(self.seed, 2, index)
        # Sizes follow the step index, not the draw, so every run sees the
        # same mix: plates cycle 1, 2, 3, and plate widths and candidate
        # counts sweep their ranges evenly (golden and silver-ratio steps).
        # Step cost grows with both, so a seed's draws would otherwise shift
        # the latency quantiles.
        n = 1 + index % 3
        shapes = [plate_shape(rng, 40.0, 120.0, 0.35, at=((3 * index + j) * SILVER) % 1.0)
                  for j in range(n)]
        radii = [0.5 * math.hypot(w, h) for w, h, _ in shapes]
        centers = place_apart(rng, radii, 70.0, IMAGE - 70.0)
        gts = [RotatedBox(cx, cy, w, h, t) for (w, h, t), (cx, cy) in zip(shapes, centers)]
        m = CANDIDATES[0] + int((index * GOLDEN) % 1.0 * (CANDIDATES[1] - CANDIDATES[0] + 1))
        clustered = int(round(CLUSTERED_SHARE * m))
        candidates = []
        for _ in range(clustered):
            g = gts[int(rng.integers(n))]
            j = rng.normal(size=5)
            box = RotatedBox(
                g.cx + 0.15 * g.w * j[0],
                g.cy + 0.15 * g.h * j[1],
                g.w * math.exp(0.1 * j[2]),
                g.h * math.exp(0.1 * j[3]),
                g.theta + 0.05 * j[4],
            )
            candidates.append(ScoredBox(box, float(rng.uniform(0.3, 1.0))))
        for _ in range(m - clustered):
            w, h, t = plate_shape(rng, 20.0, 100.0, math.pi / 4 - 1e-6)
            x, y = rng.uniform(0.0, IMAGE, size=2)
            candidates.append(ScoredBox(RotatedBox(float(x), float(y), w, h, t),
                                        float(rng.uniform(0.0, 0.6))))
        order = rng.permutation(m)
        candidates = [candidates[i] for i in order]
        probs = rng.uniform(0.01, 0.99, size=GRID * GRID).tolist()
        noise = 0.1 * rng.normal(size=(GRID * GRID, 5))
        self.props["steps"] += 1
        self.props["plates"] += n
        self.props["candidates"] += m
        self.props["clustered"] += clustered
        return StepInput(index, gts, candidates, probs, noise)

    def run(self, objects: Objects, inp: StepInput) -> StepOutput:
        grid = objects.grid
        assignment = anchors.assign_targets(grid, inp.gts)
        gt_index = assignment.gt_index
        positives = np.flatnonzero(gt_index >= 0)
        targets, decoded, preds = [], [], []
        for a in positives:
            anchor = grid.anchors[a]
            t = anchors.encode_delta(anchor, inp.gts[gt_index[a]])
            targets.append(t)
            decoded.append(anchors.decode_delta(anchor, t))
            dx, dy, dw, dh, dt = inp.pred_noise[a]
            preds.append(BoxDelta(t.dx + dx, t.dy + dy, t.dw + dw, t.dh + dh, t.dtheta + dt))
        l_loc = losses.anchor_localization_loss(targets, preds)
        l_ref = sum(
            losses.refinement_loss(ShapeDelta(t.dw, t.dh, t.dtheta), ShapeDelta(p.dw, p.dh, p.dtheta))
            for t, p in zip(targets, preds)
        ) / max(1, len(targets))
        labels = np.where(assignment.positive_mask, 1, np.where(assignment.negative_mask, 0, -1))
        l_cls = losses.anchor_classification_loss(inp.probs, labels.tolist())
        l_det = losses.detection_loss(l_ref, l_loc, l_cls)
        kept = geometry.rotated_nms(inp.candidates, NMS_IOU)
        return StepOutput(
            assignment, positives, targets, decoded,
            {"loc": l_loc, "ref": l_ref, "cls": l_cls, "det": l_det}, kept,
        )

    def items(self, inp: StepInput, out: StepOutput) -> int:
        return 1

    def check(self, objects: Objects, inp: StepInput, out: StepOutput, counters):
        """(steps attempted, steps failed, messages) for one step."""
        problems: list[str] = []
        grid = objects.grid
        gt_index = out.assignment.gt_index
        for k, g in enumerate(inp.gts):
            # the anchor of the cell holding the plate's center overlaps it,
            # so the plate's best IoU is nonzero and it must own a positive
            col = min(GRID - 1, int(g.cx // STRIDE))
            row = min(GRID - 1, int(g.cy // STRIDE))
            near = geometry.rotated_iou(grid.anchors[row * GRID + col], g)
            if near > 0.0 and not np.any(gt_index == k):
                problems.append(f"plate {k} owns no positive anchor")
        if np.any(gt_index >= len(inp.gts)):
            problems.append("assignment names a plate that does not exist")
        for a, d in zip(out.positives, out.decoded):
            g = inp.gts[gt_index[a]]
            if max(abs(d.cx - g.cx), abs(d.cy - g.cy), abs(d.w - g.w), abs(d.h - g.h),
                   abs(d.theta - g.theta)) > ROUNDTRIP_TOL:
                problems.append(f"anchor {a}: decode(encode) misses its plate")
                break
        if not all(math.isfinite(v) and v >= 0.0 for v in out.losses.values()):
            problems.append(f"non-finite or negative loss {out.losses}")
        problems += self._check_nms(inp.candidates, out.kept)
        if self.mc_left > 0:
            self.mc_left -= 1
            rng = step_rng(self.seed, 2, inp.index, 99)
            pairs = [(inp.candidates[0].box, inp.gts[0])]
            pairs += [(grid.anchors[a], inp.gts[gt_index[a]]) for a in out.positives[:1]]
            for a, b in pairs:
                got = geometry.rotated_iou(a, b)
                want = oracles.monte_carlo_iou(a, b, rng=rng)
                if abs(got - want) >= MC_TOL:
                    problems.append(f"rotated_iou {got:.6f} vs Monte-Carlo {want:.6f}")
        self.props["positives"] += len(out.positives)
        self.props["kept"] += len(out.kept)
        return 1, int(bool(problems)), problems

    @staticmethod
    def _check_nms(candidates: list, kept: list) -> list[str]:
        """Kept boxes are a score-ordered subset with no pair above the
        threshold, and every dropped box overlaps an earlier kept one above it
        (the greedy definition)."""
        position = {id(c): i for i, c in enumerate(candidates)}
        if any(id(k) not in position for k in kept) or len({id(k) for k in kept}) != len(kept):
            return ["NMS output is not a subset of its input"]
        if any(a.score < b.score for a, b in zip(kept, kept[1:])):
            return ["NMS output is not in descending score order"]
        centers = np.array([[c.box.cx, c.box.cy, 0.5 * math.hypot(c.box.w, c.box.h)]
                            for c in candidates])

        def may_overlap(i: int, rows: np.ndarray) -> np.ndarray:
            d = np.hypot(centers[rows, 0] - centers[i, 0], centers[rows, 1] - centers[i, 1])
            return rows[d < centers[rows, 2] + centers[i, 2]]

        kept_rows = np.array([position[id(k)] for k in kept], dtype=np.int64)
        for n, i in enumerate(kept_rows):
            for j in may_overlap(i, kept_rows[:n]):
                if geometry.rotated_iou(candidates[i].box, candidates[j].box) > NMS_IOU:
                    return ["two kept boxes overlap above the NMS threshold"]
        kept_set = set(kept_rows.tolist())
        for i in range(len(candidates)):
            if i in kept_set:
                continue
            s = candidates[i].score
            earlier = np.array([r for r in kept_rows if candidates[r].score >= s], dtype=np.int64)
            if not any(
                geometry.rotated_iou(candidates[i].box, candidates[j].box) > NMS_IOU
                for j in may_overlap(i, earlier)
            ):
                return [f"candidate {i} was dropped without a kept box overlapping it"]
        return []

    def corrupt(self, inp: StepInput) -> StepInput:
        # a plate placed where no candidate or anchor assignment saw it
        extra = RotatedBox(IMAGE / 2.0, IMAGE / 2.0, 60.0, 20.0, 0.0)
        return replace(inp, gts=inp.gts + [extra])

    def properties(self) -> dict:
        p = self.props
        steps = max(1, p["steps"])
        return {
            "steps_generated": p["steps"],
            "plates_per_step": p["plates"] / steps,
            "anchors": GRID * GRID,
            "candidates_per_step": p["candidates"] / steps,
            "candidates_clustered_share": p["clustered"] / max(1, p["candidates"]),
            "positives_per_checked_step": p["positives"] / steps,
            "kept_per_checked_step": p["kept"] / steps,
        }
