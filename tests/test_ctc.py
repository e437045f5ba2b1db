import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcore.ctc import (
    Alphabet,
    BLANK_INDEX,
    ctc_loss,
    default_alphabet,
    exact_match,
    greedy_decode,
    min_frames_for,
)
from lpcore.dataio import load_alphabet, save_alphabet
from lpcore.errors import InfeasibleTargetError, ParseError, ShapeMismatchError
from lpcore.oracles import central_difference, ctc_loss_brute_force, relative_error


def normalized_logits(rng, t_len, k):
    raw = rng.normal(size=(t_len, k))
    return raw - np.logaddexp.reduce(raw, axis=1)[:, None]


def ctc_loss_concatenate_reference(logp, target):
    """The frame-by-frame recursion with per-frame np.concatenate shifts."""
    t_len, num_classes = logp.shape
    ext = np.zeros(2 * len(target) + 1, dtype=np.int64)
    ext[1::2] = target
    s_len = ext.size
    emit = logp[:, ext]
    skip = np.zeros(s_len, dtype=bool)
    if s_len > 2:
        skip[2:] = (ext[2:] != BLANK_INDEX) & (ext[2:] != ext[:-2])
    neg_inf = -np.inf
    alpha = np.full((t_len, s_len), neg_inf)
    alpha[0, 0] = emit[0, 0]
    if s_len > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        step = np.concatenate(([neg_inf], prev))[:s_len]
        jump = np.concatenate(([neg_inf, neg_inf], prev))[:s_len]
        jump = np.where(skip, jump, neg_inf)
        alpha[t] = emit[t] + np.logaddexp(np.logaddexp(prev, step), jump)
    if s_len > 1:
        log_p = float(np.logaddexp(alpha[-1, -1], alpha[-1, -2]))
    else:
        log_p = float(alpha[-1, -1])
    beta = np.full((t_len, s_len), neg_inf)
    beta[-1, -1] = 0.0
    if s_len > 1:
        beta[-1, -2] = 0.0
    for t in range(t_len - 2, -1, -1):
        nxt = emit[t + 1] + beta[t + 1]
        step = np.concatenate((nxt[1:], [neg_inf]))[:s_len]
        jump = np.concatenate((nxt[2:], [neg_inf, neg_inf]))[:s_len]
        allow_jump = np.concatenate((skip[2:], [False, False]))[:s_len]
        jump = np.where(allow_jump, jump, neg_inf)
        beta[t] = np.logaddexp(np.logaddexp(nxt, step), jump)
    occupancy = alpha + beta
    grad = np.zeros((t_len, num_classes))
    for cls in np.unique(ext):
        cols = occupancy[:, ext == cls]
        m = cols.max(axis=1)
        safe = m > neg_inf
        acc = np.full(t_len, neg_inf)
        acc[safe] = m[safe] + np.log(np.exp(cols[safe] - m[safe, None]).sum(axis=1))
        grad[:, cls] = -np.exp(acc - log_p)
    return -log_p, grad


def rows(*probs):
    arr = np.array(probs, dtype=float)
    return np.log(arr / arr.sum(axis=1, keepdims=True))


class TestCtcLoss:
    def test_single_frame_single_path(self):
        logp = np.log(np.full((1, 2), 0.5))
        loss, grad = ctc_loss(logp, [1])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert grad.shape == (1, 2)

    def test_two_frames_three_paths(self):
        # paths aa, a-, -a out of 4 -> P = 0.75
        logp = np.log(np.full((2, 2), 0.5))
        loss, _ = ctc_loss(logp, [1])
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)
        assert loss == pytest.approx(0.28768, abs=1e-5)

    def test_repeat_needs_blank(self):
        logp = np.log(np.full((2, 2), 0.5))
        with pytest.raises(InfeasibleTargetError):
            ctc_loss(logp, [1, 1])
        # brute force agrees there is no valid path
        assert ctc_loss_brute_force(logp, [1, 1]) == math.inf
        loss3, _ = ctc_loss(np.log(np.full((3, 2), 0.5)), [1, 1])
        assert loss3 == pytest.approx(ctc_loss_brute_force(np.log(np.full((3, 2), 0.5)), [1, 1]))

    def test_min_frames_rule(self):
        assert min_frames_for([]) == 0
        assert min_frames_for([1, 2, 3]) == 3
        assert min_frames_for([1, 1]) == 3
        assert min_frames_for([2, 2, 2]) == 5

    def test_empty_target_all_blanks(self):
        rng = np.random.default_rng(0)
        logp = normalized_logits(rng, 4, 3)
        loss, grad = ctc_loss(logp, [])
        assert loss == pytest.approx(-logp[:, BLANK_INDEX].sum(), abs=1e-12)
        assert np.allclose(grad[:, BLANK_INDEX], -1.0)
        assert np.allclose(grad[:, 1:], 0.0)

    def test_matches_brute_force_sweep(self):
        rng = np.random.default_rng(1)
        checked = 0
        for t_len in range(1, 5):
            for k in (2, 3, 4):
                for l_len in range(0, 3):
                    for _ in range(2):
                        target = list(rng.integers(1, k, size=l_len))
                        logp = normalized_logits(rng, t_len, k)
                        want = ctc_loss_brute_force(logp, target)
                        if min_frames_for(target) > t_len:
                            assert want == math.inf
                            with pytest.raises(InfeasibleTargetError):
                                ctc_loss(logp, target)
                            continue
                        got, _ = ctc_loss(logp, target)
                        assert abs(got - want) < 1e-9
                        checked += 1
        assert checked > 40

    def test_equals_concatenate_recursion(self):
        # K from 2 to 69, up to 60 spare frames, every third target drawn
        # from at most two labels (so repeats), half the cases peaked, and
        # every ninth target empty (a one-state lattice)
        rng = np.random.default_rng(7)
        for case in range(2000):
            k = int(rng.integers(2, 70))
            labels = k if case % 3 else min(k, 3)
            target = [int(c) for c in rng.integers(1, labels, size=case % 9)]
            need = min_frames_for(target)
            t_len = max(need + int(rng.integers(0, 61)), 1)
            raw = rng.normal(size=(t_len, k))
            if case % 2:
                raw[np.arange(t_len), rng.integers(0, k, size=t_len)] += 12.0
            logp = raw - np.logaddexp.reduce(raw, axis=1)[:, None]
            loss, grad = ctc_loss(logp, target)
            want_loss, want_grad = ctc_loss_concatenate_reference(logp, target)
            assert loss == want_loss
            np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logp = normalized_logits(rng, 5, 3)
            target = list(rng.integers(1, 3, size=2))
            if min_frames_for(target) > 5:
                continue
            loss, _ = ctc_loss(logp, target)
            assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            logp = normalized_logits(rng, 4, 3)
            target = [1, 2]
            _, grad = ctc_loss(logp, target)
            for t in range(4):
                for cls in range(3):
                    def shift(eps, t=t, cls=cls):
                        moved = logp.copy()
                        moved[t, cls] += eps
                        return ctc_loss(moved, target, validate=False)[0]

                    fd = central_difference(shift, 0.0)
                    assert relative_error(float(grad[t, cls]), fd, floor=1e-3) < 1e-4

    def test_gradient_rows_sum_to_minus_one(self):
        # scaling a frame's probabilities scales P linearly
        rng = np.random.default_rng(4)
        logp = normalized_logits(rng, 6, 4)
        _, grad = ctc_loss(logp, [1, 3, 2])
        assert np.allclose(grad.sum(axis=1), -1.0, atol=1e-12)

    def test_leak_mass_permutation_invariance(self):
        frame_a = rows([0.4, 0.3, 0.2, 0.1], [0.25, 0.5, 0.2, 0.05])
        frame_b = rows([0.4, 0.3, 0.05, 0.25], [0.25, 0.5, 0.125, 0.125])
        loss_a, _ = ctc_loss(frame_a, [1])
        loss_b, _ = ctc_loss(frame_b, [1])
        assert abs(loss_a - loss_b) < 1e-12

    def test_longer_frames_are_feasible(self):
        rng = np.random.default_rng(5)
        logp = normalized_logits(rng, 40, 10)
        loss, grad = ctc_loss(logp, [3, 3, 7, 1])
        assert math.isfinite(loss) and loss > 0
        assert grad.shape == (40, 10)

    def test_input_validation(self):
        with pytest.raises(ShapeMismatchError):
            ctc_loss(np.zeros((3,)), [1])
        with pytest.raises(ValueError):
            ctc_loss(np.zeros((2, 3)), [1])  # rows don't normalize
        logp = np.log(np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            ctc_loss(logp, [0])  # blank not allowed in targets
        with pytest.raises(ValueError):
            ctc_loss(logp, [5])

    @pytest.mark.parametrize("target", [[1.7], ["1"], [True], [1, np.True_], [np.float64(1.0)]])
    def test_rejects_target_entries_that_are_not_integers(self, target):
        logp = np.log(np.full((4, 3), 1.0 / 3.0))
        with pytest.raises(ValueError, match="target entries must be int"):
            ctc_loss(logp, target)

    def test_integer_targets_of_any_kind_agree(self):
        logp = np.log(np.full((4, 3), 1.0 / 3.0))
        want, _ = ctc_loss(logp, [1, 2])
        for target in ([np.int64(1), np.uint8(2)], np.array([1, 2]), (1, 2), iter([1, 2])):
            assert ctc_loss(logp, target)[0] == want
        assert ctc_loss(logp, [])[0] == ctc_loss(logp, np.array([], dtype=int))[0]

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_nan_and_plus_inf(self, entry, validate):
        logp = np.log(np.full((3, 3), 1.0 / 3.0))
        logp[1, 2] = entry
        with pytest.raises(ValueError, match=r"NaN or \+inf"):
            ctc_loss(logp, [1], validate=validate)
        with pytest.raises(ValueError, match=r"NaN or \+inf"):
            greedy_decode(logp, Alphabet(("a", "b")))

    def test_rejects_row_of_minus_inf(self):
        logp = np.log(np.full((3, 3), 1.0 / 3.0))
        logp[1] = -np.inf
        with pytest.raises(ValueError, match="row of -inf"):
            ctc_loss(logp, [1])
        with pytest.raises(ValueError, match="row of -inf"):
            greedy_decode(logp, Alphabet(("a", "b")))

    def test_accepts_normalized_row_with_minus_inf(self):
        logp = np.log(np.full((2, 3), 0.5))
        logp[:, 2] = -np.inf
        loss, grad = ctc_loss(logp, [1])
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)
        assert np.all(grad[:, 2] == 0.0)
        assert greedy_decode(logp, Alphabet(("a", "b"))) == ""

    def test_zero_probability_target_is_infeasible(self):
        # every path that emits the target passes class 1, which no frame can emit
        logp = np.log(np.full((2, 3), 0.5))
        logp[:, 1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleTargetError, match="probability 0"):
                ctc_loss(logp, [1])

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(2, 5)),
        target_len=st.integers(0, 3),
        data=st.data(),
    )
    def test_minus_inf_masks_raise_or_stay_finite(self, shape, target_len, data):
        t_len, k = shape
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=t_len * k, max_size=t_len * k)))
        mask = mask.reshape(t_len, k)
        mask[:, data.draw(st.integers(0, k - 1))] = False  # no row is all -inf
        labels = st.integers(1, k - 1)
        target = data.draw(st.lists(labels, min_size=target_len, max_size=target_len))
        raw = np.random.default_rng(t_len * 10 + k).normal(size=(t_len, k))
        raw[mask] = -np.inf
        logp = raw - np.logaddexp.reduce(raw, axis=1)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                loss, grad = ctc_loss(logp, target)
            except InfeasibleTargetError:
                return
        assert math.isfinite(loss)
        assert np.isfinite(grad).all()


def greedy_decode_loop_reference(logp, alphabet):
    """Frame-by-frame best path: keep a frame's argmax if it starts a non-blank run."""
    chars = []
    prev = -1
    for idx in logp.argmax(axis=1):
        if idx != prev and idx != BLANK_INDEX:
            chars.append(alphabet.index_to_char(int(idx)))
        prev = idx
    return "".join(chars)


class TestGreedyDecode:
    def test_equals_loop_reference(self):
        # best paths over three classes: runs, repeats split by a blank and
        # all-blank frames come up often; every tenth case peaks no frame
        rng = np.random.default_rng(8)
        ab = default_alphabet()
        seen_empty = seen_split = 0
        for case in range(500):
            t_len = int(rng.integers(1, 30))
            classes = rng.choice(ab.num_classes, size=3, replace=False)
            classes[0] = BLANK_INDEX
            raw = rng.normal(size=(t_len, ab.num_classes))
            if case % 10:
                raw[np.arange(t_len), rng.choice(classes, size=t_len)] += 12.0
            logp = raw - np.logaddexp.reduce(raw, axis=1)[:, None]
            want = greedy_decode_loop_reference(logp, ab)
            assert greedy_decode(logp, ab) == want
            seen_empty += want == ""
            seen_split += any(a == b for a, b in zip(want, want[1:]))
        assert seen_empty > 0 and seen_split > 0

    def test_collapse_and_blank_removal(self):
        ab = Alphabet(("a", "b"))
        # frames argmax to: -, -, a, a, -, b
        logp = rows(
            [0.8, 0.1, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.8, 0.1],
            [0.1, 0.8, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.1, 0.8],
        )
        assert greedy_decode(logp, ab) == "ab"

    def test_all_blanks(self):
        ab = Alphabet(("a", "b"))
        logp = rows([0.9, 0.05, 0.05], [0.9, 0.05, 0.05])
        assert greedy_decode(logp, ab) == ""

    def test_blank_separates_repeats(self):
        ab = Alphabet(("a",))
        logp = rows([0.1, 0.9], [0.9, 0.1], [0.1, 0.9])
        assert greedy_decode(logp, ab) == "aa"

    def test_never_emits_blank_marker(self):
        rng = np.random.default_rng(6)
        ab = default_alphabet()
        for _ in range(20):
            logp = normalized_logits(rng, 12, ab.num_classes)
            decoded = greedy_decode(logp, ab)
            assert "<b>" not in decoded
            assert all(ch in ab.symbols for ch in decoded)

    def test_class_count_must_match(self):
        ab = Alphabet(("a", "b"))
        with pytest.raises(ShapeMismatchError):
            greedy_decode(rows([0.5, 0.5]), ab)


class TestExactMatch:
    def test_equal(self):
        assert exact_match("京A12345", "京A12345")
        assert exact_match("", "")

    def test_differs(self):
        assert not exact_match("京A12345", "京A1234S")
        assert not exact_match("a", "A")


class TestAlphabet:
    def test_default_layout(self):
        ab = default_alphabet()
        assert ab.num_classes == 69  # blank + 31 + 26 + 10 + '*'
        assert ab.char_to_index("京") == 1
        assert ab.index_to_char(1) == "京"
        assert ab.char_to_index("*") == 68

    def test_encode_decode_roundtrip(self):
        ab = default_alphabet()
        text = "沪B7A291"
        assert ab.decode(ab.encode(text)) == text

    def test_unknown_character(self):
        ab = Alphabet(("a", "b"))
        with pytest.raises(ValueError):
            ab.encode("c")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(("ab",))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        ab = default_alphabet()
        save_alphabet(path, ab)
        assert load_alphabet(path) == ab
        assert path.read_text(encoding="utf-8").splitlines()[0] == "<b>"

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        path.write_text("a\nb\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_alphabet(path)

    def test_load_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        path.write_bytes(b"<b>\n\xe4\n")  # a truncated three-byte sequence
        with pytest.raises(ParseError, match="not UTF-8 text") as err:
            load_alphabet(path)
        assert err.value.path == str(path)

    def test_load_rejects_multichar_line(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        path.write_text("<b>\nab\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_alphabet(path)
        assert err.value.line == 2
