"""Seeded plate geometry and transcripts shared by the workload generators.

Transcripts follow the mainland plate grammar the recognizer is built for:
a province character, a letter and five letters or digits (7 characters).
The symbol lists are the benchmark's own, so generated inputs do not depend
on the program's tables.
"""

from __future__ import annotations

import math

import numpy as np

PROVINCES = "京津冀晋蒙辽吉黑沪苏浙皖闽赣鲁豫鄂湘粤桂琼渝川贵云藏陕甘青宁新"
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
TAIL = LETTERS + "0123456789"
PLATE_LEN = 7


def step_rng(seed: int, *keys: int) -> np.random.Generator:
    """Independent stream for one (seed, workload, step) triple."""
    return np.random.default_rng([seed % 2**63, *keys])


def plate_text(rng: np.random.Generator) -> str:
    tail = rng.integers(0, len(TAIL), size=PLATE_LEN - 2)
    return (
        PROVINCES[int(rng.integers(len(PROVINCES)))]
        + LETTERS[int(rng.integers(len(LETTERS)))]
        + "".join(TAIL[int(i)] for i in tail)
    )


def wrong_text(rng: np.random.Generator, text: str) -> str:
    """The same plate with one tail character replaced by another."""
    pos = int(rng.integers(2, PLATE_LEN))
    choices = [c for c in TAIL if c != text[pos]]
    return text[:pos] + choices[int(rng.integers(len(choices)))] + text[pos + 1 :]


def plate_shape(rng: np.random.Generator, w_lo: float, w_hi: float, max_theta: float,
                at: float | None = None):
    """(w, h, theta); ``at`` in [0, 1) places w in its range instead of a draw."""
    w = float(rng.uniform(w_lo, w_hi)) if at is None else w_lo + at * (w_hi - w_lo)
    h = w / float(rng.uniform(2.5, 3.5))
    theta = float(rng.uniform(-max_theta, max_theta))
    return w, h, theta


def place_apart(rng, radii: list[float], lo: float, hi: float, tries: int = 10_000):
    """Centers in [lo, hi]^2 whose discs of the given radii do not touch."""
    centers: list[tuple[float, float]] = []
    for r in radii:
        for _ in range(tries):
            x, y = (float(v) for v in rng.uniform(lo, hi, size=2))
            if all(math.hypot(x - cx, y - cy) > r + rc for (cx, cy), rc in zip(centers, radii)):
                centers.append((x, y))
                break
        else:
            raise RuntimeError("could not place plates apart; widen the area")
    return centers


def shift_along_width(cx, cy, w, theta, fraction, sign):
    """Center moved by ``fraction * w`` along the box's own w-axis.

    Two equal boxes offset this way overlap in (1 - f) w h, so their IoU is
    exactly (1 - f) / (1 + f).
    """
    d = sign * fraction * w
    return cx + d * math.cos(theta), cy + d * math.sin(theta)


def shift_iou(fraction: float) -> float:
    return (1.0 - fraction) / (1.0 + fraction)
