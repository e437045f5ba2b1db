"""CTC transcription: alphabet handling, loss with gradient, greedy decoding.

Class 0 is always the blank. The loss runs entirely in log space so long
frames cannot underflow; targets that cannot fit in the frame, or that
the log-probs give probability 0, raise InfeasibleTargetError instead of
returning infinity.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleTargetError, ShapeMismatchError
from .geometry import _is_int

BLANK_INDEX = 0

# 31 province abbreviations, A-Z, 0-9, and the unidentifiable placeholder.
PROVINCES = "京津冀晋蒙辽吉黑沪苏浙皖闽赣鲁豫鄂湘粤桂琼渝川贵云藏陕甘青宁新"
DEFAULT_SYMBOLS = PROVINCES + string.ascii_uppercase + string.digits + "*"

ROW_NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class Alphabet:
    """Ordered non-blank symbols; class index k maps to symbols[k - 1]."""

    symbols: tuple[str, ...] = tuple(DEFAULT_SYMBOLS)

    def __post_init__(self):
        symbols = tuple(self.symbols)
        if not symbols:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        for ch in symbols:
            if len(ch) != 1:
                raise ValueError(f"symbols must be single characters, got {ch!r}")
            if ch in ("\n", "\r"):
                raise ValueError("newline cannot be an alphabet symbol")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_index", {ch: i + 1 for i, ch in enumerate(symbols)})

    @property
    def num_classes(self) -> int:
        """Class count including the blank."""
        return len(self.symbols) + 1

    def char_to_index(self, ch: str) -> int:
        try:
            return self._index[ch]
        except KeyError:
            raise ValueError(f"character {ch!r} not in alphabet") from None

    def index_to_char(self, index: int) -> str:
        if not 1 <= index < self.num_classes:
            raise ValueError(f"class index {index} out of range [1, {self.num_classes})")
        return self.symbols[index - 1]

    def encode(self, text: str) -> list[int]:
        return [self.char_to_index(ch) for ch in text]

    def decode(self, indices: Sequence[int]) -> str:
        return "".join(self.index_to_char(i) for i in indices)


def default_alphabet() -> Alphabet:
    return Alphabet()


def _check_log_probs(logp: np.ndarray, validate: bool) -> np.ndarray:
    logp = np.asarray(logp, dtype=np.float64)
    if logp.ndim != 2 or logp.shape[0] < 1 or logp.shape[1] < 2:
        raise ShapeMismatchError(f"log-probs must be (T, K) with K >= 2, got {logp.shape}")
    top = logp.max(axis=1, keepdims=True)  # NaN where the row holds a NaN
    if not (top < np.inf).all():
        raise ValueError("log-probs must not be NaN or +inf (-inf is probability 0)")
    if validate:
        # tested apart so that a row of -inf never computes -inf - -inf
        if not (top > -np.inf).all():
            raise ValueError("log-prob rows must normalize to 1, got a row of -inf")
        row = top + np.log(np.exp(logp - top).sum(axis=1, keepdims=True))
        if np.any(np.abs(row) > ROW_NORMALIZATION_TOL):
            worst = float(np.abs(row).max())
            raise ValueError(f"log-prob rows must normalize to 1 (max |logsumexp| {worst:g})")
    return logp


def _extended_target(target: Sequence[int], num_classes: int) -> np.ndarray:
    lab = list(target)
    if not all(map(_is_int, lab)):
        raise ValueError(f"target entries must be int or numpy integers, got {lab}")
    if lab and (min(lab) < 1 or max(lab) >= num_classes):
        raise ValueError(f"target classes must be in [1, {num_classes}), got {lab}")
    ext = np.full(2 * len(lab) + 1, BLANK_INDEX, dtype=np.int64)
    ext[1::2] = lab
    return ext


def min_frames_for(target: Sequence[int]) -> int:
    """Shortest frame able to emit the target (repeats need a blank)."""
    lab = list(target)
    repeats = sum(1 for a, b in zip(lab, lab[1:]) if a == b)
    return len(lab) + repeats


def _paths_into(emit: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Log-mass of all paths into each (t, s) state, before frame t's emission.

    Paths start in state 0 or 1; each frame they stay, step one state or
    jump two, and a jump is allowed only over a blank between different labels.
    On the reversed lattice, `emit[::-1, ::-1]` and `ext[::-1]`, it gives
    the suffix scores, because blanks sit at the even states in both.
    """
    t_len, s_len = emit.shape
    # jump[s]: 0 where the s-2 -> s transition is allowed, -inf where not.
    jump = np.full(s_len, -np.inf)
    jump[2:][(ext[2:] != BLANK_INDEX) & (ext[2:] != ext[:-2])] = 0.0
    into = np.full((t_len, s_len), -np.inf)
    into[0, :2] = 0.0
    # prev holds frame t-1's scores behind two -inf pads, so its one- and
    # two-state shifts are slices of it.
    prev = np.full(s_len + 2, -np.inf)
    for t in range(1, t_len):
        np.add(emit[t - 1], into[t - 1], out=prev[2:])
        into[t] = np.logaddexp(np.logaddexp(prev[2:], prev[1:-1]), prev[:-2] + jump)
    return into


def ctc_loss(
    logp: np.ndarray, target: Sequence[int], validate: bool = True
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the target plus gradient w.r.t. log-probs.

    The recursion runs over the blank-interleaved target; the gradient
    treats each log-probability entry as a free variable.
    """
    logp = _check_log_probs(logp, validate)
    t_len, num_classes = logp.shape
    ext = _extended_target(target, num_classes)
    need = min_frames_for(ext[1::2])
    if t_len < need:
        raise InfeasibleTargetError(
            f"target of {len(ext) // 2} labels needs at least {need} frames, got {t_len}"
        )
    emit = logp[:, ext]  # (T, S)
    alpha = emit + _paths_into(emit, ext)
    beta = _paths_into(emit[::-1, ::-1], ext[::-1])[::-1, ::-1]  # suffixes, without frame t
    log_p = float(np.logaddexp.reduce(alpha[-1, -2:]))  # end on the last label or blank
    if log_p == -np.inf:
        raise InfeasibleTargetError("every path that emits the target has probability 0")
    # Each state's posterior counts towards the class it emits.
    grad = np.zeros((t_len, num_classes))
    np.add.at(grad, (slice(None), ext), -np.exp(alpha + beta - log_p))
    return -log_p, grad


def greedy_decode(logp: np.ndarray, alphabet: Alphabet) -> str:
    """Best path: per-frame argmax, collapse repeats, drop blanks."""
    logp = _check_log_probs(logp, validate=True)
    if logp.shape[1] != alphabet.num_classes:
        raise ShapeMismatchError(
            f"frame has {logp.shape[1]} classes, alphabet expects {alphabet.num_classes}"
        )
    best = logp.argmax(axis=1)
    keep = best != BLANK_INDEX
    keep[1:] &= best[1:] != best[:-1]  # the first frame of each run
    return alphabet.decode(best[keep].tolist())


def exact_match(pred: str, gt: str) -> bool:
    """Codepoint-exact transcript equality; no normalization of any kind."""
    return pred == gt
