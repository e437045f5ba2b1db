"""oracle_verify: a fixed slice of the selfcheck suites, at their tolerances.

One step is one round of fifteen oracle comparisons, in this order: eight
rotated IoU pairs against the 1e6-sample Monte-Carlo oracle, one RRoIAlign
crop against the dense oracle, four CTC losses against exhaustive path
enumeration and two CTC gradients against central differences. Rounds repeat
with fresh seeded cases. Every round has the same shapes (the CTC slots have
fixed frame and class counts, every IoU pair overlaps), so each costs about
the same and the step latency does not depend on which kinds a median
happens to fall between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from lpcore import ctc, feature_ops, geometry, oracles
from lpcore.feature_ops import CropSpec, FeatureMap
from lpcore.geometry import RotatedBox

from .plates import step_rng

ROUND = ("iou",) * 8 + ("rroi",) + ("ctc",) * 4 + ("grad",) * 2
TOL = {"iou": 5e-3, "rroi": 1e-3, "ctc": 1e-9, "grad": 1e-4}
# (frames, classes) of the four CTC enumerations of a round: 64, 81, 1024 and
# 729 paths
CTC_SHAPES = ((3, 4), (4, 3), (5, 4), (6, 3))
MC_SAMPLES = 1_000_000
FD_FLOOR = 1e-3


@dataclass(frozen=True)
class Objects:
    ramp: FeatureMap
    spec: CropSpec


@dataclass(frozen=True)
class Check:
    index: int
    kind: str
    args: tuple
    # added to the oracle's answer before comparing; nonzero only when the
    # harness's self-test corrupts the expected value
    bias: float = 0.0


def _log_probs(rng, t_len: int, k: int) -> np.ndarray:
    raw = rng.normal(size=(t_len, k))
    return raw - np.logaddexp.reduce(raw, axis=1, keepdims=True)


def _target(rng, t_len: int, k: int, l_len: int) -> list[int]:
    """A label sequence that fits in t_len frames, shortened until it does."""
    while True:
        target = [int(v) for v in rng.integers(1, k, size=l_len)]
        if ctc.min_frames_for(target) <= t_len:
            return target
        l_len -= 1


class Workload:
    name = "oracle_verify"
    item = "checks"
    e2e_names = {
        "items_per_s": "verify_checks_per_s",
        "step_p50_ms": "verify_round_p50_ms",
        "step_p90_ms": "verify_round_p90_ms",
    }
    trace_steps = 2

    def __init__(self, seed: int, workdir=None):
        self.seed = seed
        self.kinds = {k: 0 for k in TOL}

    def setup(self) -> Objects:
        ys, xs = np.mgrid[0:40, 0:50]
        return Objects(FeatureMap(np.stack([xs + 2.0 * ys, 3.0 * xs - ys]).astype(float)),
                       CropSpec())

    def step_input(self, index: int) -> list[Check]:
        rng = step_rng(self.seed, 4, index)
        checks = []
        ctc_shapes = iter(CTC_SHAPES)
        for slot, kind in enumerate(ROUND):
            self.kinds[kind] += 1
            checks.append(self._case(rng, index * len(ROUND) + slot, kind, ctc_shapes))
        return checks

    @staticmethod
    def _case(rng, number: int, kind: str, ctc_shapes) -> Check:
        if kind == "iou":
            a = RotatedBox(*rng.uniform(-5.0, 5.0, size=2), *rng.uniform(1.0, 8.0, size=2),
                           rng.uniform(-math.pi / 4, math.pi / 4))
            # b's centre lies inside a, so the corner hulls always meet and the
            # oracle always draws its 1e6 samples (disjoint hulls would skip them)
            b = RotatedBox(a.cx + rng.uniform(-0.5, 0.5), a.cy + rng.uniform(-0.5, 0.5),
                           *rng.uniform(1.0, 8.0, size=2), rng.uniform(-math.pi / 4, math.pi / 4))
            return Check(number, kind, (a, b, int(rng.integers(2**32))))
        if kind == "rroi":
            box = RotatedBox(rng.uniform(18.0, 30.0), rng.uniform(14.0, 24.0),
                             rng.uniform(8.0, 16.0), rng.uniform(4.0, 8.0),
                             rng.uniform(-math.pi / 4, math.pi / 4))
            return Check(number, kind, (box,))
        if kind == "ctc":
            t_len, k = next(ctc_shapes)
            target = _target(rng, t_len, k, int(rng.integers(0, min(4, t_len + 1))))
            return Check(number, kind, (_log_probs(rng, t_len, k), target))
        t_len, k = 5, 3
        return Check(number, kind, (_log_probs(rng, t_len, k), _target(rng, t_len, k, 2)))

    def run(self, o: Objects, checks: list[Check]):
        """(implementation's answer, oracle's answer) for each check of a round."""
        return [self._answer(o, check) for check in checks]

    @staticmethod
    def _answer(o: Objects, check: Check):
        if check.kind == "iou":
            a, b, mc_seed = check.args
            want = oracles.monte_carlo_iou(a, b, samples=MC_SAMPLES,
                                           rng=np.random.default_rng(mc_seed))
            return geometry.rotated_iou(a, b), want
        if check.kind == "rroi":
            (box,) = check.args
            return (feature_ops.rroi_align(o.ramp, box, o.spec).data,
                    oracles.dense_rroi_align(o.ramp, box, o.spec).data)
        if check.kind == "ctc":
            logp, target = check.args
            got, _ = ctc.ctc_loss(logp, target)
            return got, oracles.ctc_loss_brute_force(logp, target)
        logp, target = check.args
        _, grad = ctc.ctc_loss(logp, target)
        fd = np.zeros_like(grad)
        for t in range(logp.shape[0]):
            for cls in range(logp.shape[1]):
                def perturbed(eps: float, t=t, cls=cls) -> float:
                    shifted = logp.copy()
                    shifted[t, cls] += eps
                    return ctc.ctc_loss(shifted, target, validate=False)[0]

                fd[t, cls] = oracles.central_difference(perturbed, 0.0)
        return grad, fd

    def items(self, checks: list[Check], answers) -> int:
        return len(checks)

    def check(self, o: Objects, checks: list[Check], answers, counters):
        """(checks attempted, checks failed, messages) for one round."""
        failed = 0
        messages = []
        for check, (got, want) in zip(checks, answers):
            want = np.asarray(want, dtype=float) + check.bias
            if check.kind == "grad":
                error = float((np.abs(got - want) / np.maximum(np.abs(want), FD_FLOOR)).max())
            else:
                error = float(np.abs(np.asarray(got) - want).max())
            if not error < TOL[check.kind]:
                failed += 1
                messages.append(f"{check.kind} check {check.index}: error {error:.3e} "
                                f">= tolerance {TOL[check.kind]:.0e}")
        return len(checks), failed, messages

    def corrupt(self, checks: list[Check]) -> list[Check]:
        return [replace(c, bias=10.0 * TOL[c.kind] + 1e-3) for c in checks]

    def properties(self) -> dict:
        total = max(1, sum(self.kinds.values()))
        return {
            "checks_generated": sum(self.kinds.values()),
            "check_share": {k: v / total for k, v in self.kinds.items()},
            "round": list(ROUND),
            "ctc_shapes": [list(shape) for shape in CTC_SHAPES],
            "mc_samples": MC_SAMPLES,
        }
