import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcore.anchors import BoxDelta, ShapeDelta
from lpcore.errors import DomainError
from lpcore.losses import (
    PROB_EPS,
    DetLossWeights,
    EndToEndWeights,
    FocalParams,
    anchor_classification_loss,
    anchor_localization_loss,
    detection_loss,
    end_to_end_loss,
    focal_loss,
    refinement_loss,
    regression_loss,
    smooth_l1,
)
from lpcore.oracles import central_difference, relative_error


class TestFocalLoss:
    def test_perfect_prediction_vanishes(self):
        loss, _ = focal_loss(1.0, 1)
        assert loss < 1e-12
        loss0, _ = focal_loss(0.0, 0)
        assert loss0 < 1e-12

    def test_point_value(self):
        loss, _ = focal_loss(0.5, 1, FocalParams(0.25, 2.0))
        assert loss == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-15)
        assert loss == pytest.approx(0.0433217, abs=1e-6)

    def test_reduces_to_scaled_cross_entropy(self):
        params = FocalParams(alpha=0.5, gamma=0.0)
        for p in (0.05, 0.3, 0.5, 0.77, 0.99):
            for y in (0, 1):
                pt = p if y == 1 else 1.0 - p
                loss, _ = focal_loss(p, y, params)
                assert abs(loss - 0.5 * -math.log(pt)) < 1e-12

    def test_monotone_in_pt(self):
        values = [focal_loss(p, 1)[0] for p in np.linspace(0.01, 0.99, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            loss, _ = focal_loss(float(rng.uniform(0, 1)), int(rng.integers(0, 2)))
            assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p = float(rng.uniform(0.01, 0.99))
            y = int(rng.integers(0, 2))
            params = FocalParams(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, 4.0)))
            _, grad = focal_loss(p, y, params)
            fd = central_difference(lambda q: focal_loss(q, y, params)[0], p)
            assert relative_error(grad, fd, floor=1e-3) < 1e-4

    def test_domain_error(self):
        with pytest.raises(DomainError):
            focal_loss(1.5, 1)
        with pytest.raises(DomainError):
            focal_loss(-0.1, 0)
        with pytest.raises(ValueError):
            focal_loss(0.5, 2)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FocalParams(alpha=0.0)
        with pytest.raises(ValueError):
            FocalParams(gamma=-1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            FocalParams(gamma=gamma)


class TestSmoothL1:
    def test_values_and_grads(self):
        assert smooth_l1(0.0) == (0.0, 0.0)
        assert smooth_l1(0.5) == (0.125, 0.5)
        assert smooth_l1(2.0) == (1.5, 1.0)
        assert smooth_l1(-2.0) == (1.5, -1.0)
        assert smooth_l1(1.0) == (0.5, 1.0)

    def test_continuity_at_knee(self):
        eps = 1e-9
        below, g_below = smooth_l1(1.0 - eps)
        above, g_above = smooth_l1(1.0 + eps)
        assert abs(below - above) < 1e-8
        assert abs(g_below - g_above) < 1e-8

    def test_gradient_matches_finite_differences(self):
        for x in np.linspace(-3, 3, 25):
            if abs(abs(x) - 1.0) < 1e-3:
                continue
            _, grad = smooth_l1(float(x))
            fd = central_difference(lambda v: smooth_l1(v)[0], float(x))
            assert relative_error(grad, fd, floor=1e-3) < 1e-4


class TestCompositeLosses:
    def test_regression_loss(self):
        zero = BoxDelta(0, 0, 0, 0, 0)
        assert regression_loss(zero, zero) == 0.0
        assert regression_loss(BoxDelta(0.5, 0, 0, 0, 0), zero) == pytest.approx(0.125)
        assert regression_loss(BoxDelta(2, 2, 0, 0, 0), zero) == pytest.approx(3.0)

    def test_refinement_loss(self):
        zero = ShapeDelta(0, 0, 0)
        assert refinement_loss(zero, zero) == 0.0
        assert refinement_loss(ShapeDelta(1, 0, 0), zero) == pytest.approx(0.5)
        assert refinement_loss(ShapeDelta(0.2, 0.2, 0.2), zero) == pytest.approx(0.06)

    def test_detection_loss_defaults(self):
        assert detection_loss(1, 1, 1) == 2.0
        assert detection_loss(0, 0, 0) == 0.0
        assert detection_loss(2, 4, 1) == pytest.approx(4.0)

    def test_end_to_end_defaults(self):
        assert end_to_end_loss(1, 10) == 2.0
        assert end_to_end_loss(0, 0) == 0.0
        assert end_to_end_loss(3, 5) == pytest.approx(3.5)

    def test_linearity(self):
        w = DetLossWeights(0.3, 0.6, 1.2)
        for scale in (0.5, 2.0, 7.0):
            assert detection_loss(scale, 0, 0, w) == pytest.approx(scale * detection_loss(1, 0, 0, w))
            assert detection_loss(0, scale, 0, w) == pytest.approx(scale * detection_loss(0, 1, 0, w))
        we = EndToEndWeights(0.7, 0.2)
        assert end_to_end_loss(2, 6, we) == pytest.approx(
            end_to_end_loss(2, 0, we) + end_to_end_loss(0, 6, we)
        )


class TestAnchorReductions:
    def test_ignored_anchors_excluded(self):
        probs = [0.9, 0.2, 0.5]
        with_ignore = anchor_classification_loss(probs, [1, 0, -1])
        without = anchor_classification_loss(probs[:2], [1, 0])
        assert with_ignore == pytest.approx(without)

    def test_positive_normalization(self):
        probs = [0.9, 0.8, 0.2, 0.3]
        labels = [1, 1, 0, 0]
        total = sum(focal_loss(p, y)[0] for p, y in zip(probs, labels))
        assert anchor_classification_loss(probs, labels) == pytest.approx(total / 2)

    def test_no_positives_uses_unit_divisor(self):
        value = anchor_classification_loss([0.2], [0])
        assert value == pytest.approx(focal_loss(0.2, 0)[0])

    def test_localization_mean(self):
        zero = BoxDelta(0, 0, 0, 0, 0)
        targets = [BoxDelta(0.5, 0, 0, 0, 0), BoxDelta(2, 2, 0, 0, 0)]
        preds = [zero, zero]
        assert sum(map(regression_loss, targets, preds)) == pytest.approx(3.125)
        assert anchor_localization_loss(targets, preds) == pytest.approx(3.125 / 2)
        assert anchor_localization_loss([], []) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            anchor_classification_loss([0.5], [1, 0])
        with pytest.raises(ValueError):
            anchor_localization_loss([BoxDelta(0, 0, 0, 0, 0)], [])


def _focal_reference(p, y, params):
    """The scalar focal formula, written out in Python floats."""
    p = min(max(p, PROB_EPS), 1.0 - PROB_EPS)
    if y == 1:
        pt, at, dpt_dp = p, params.alpha, 1.0
    else:
        pt, at, dpt_dp = 1.0 - p, 1.0 - params.alpha, -1.0
    one_minus = 1.0 - pt
    log_pt = math.log(pt)
    gamma = params.gamma
    loss = -at * one_minus**gamma * log_pt
    if gamma == 0.0:
        dloss_dpt = -at / pt
    else:
        dloss_dpt = at * gamma * one_minus ** (gamma - 1.0) * log_pt - at * one_minus**gamma / pt
    return loss, dloss_dpt * dpt_dp


def _anchor_loss_reference(probs, labels, params):
    """Per-anchor loop: scalar checks and formula, divided by the positive count."""
    if len(probs) != len(labels):
        raise ValueError("length mismatch")
    total = 0.0
    n_pos = 0
    for p, lab in zip(probs, labels):
        if lab == -1:
            continue
        if not 0.0 <= p <= 1.0:
            raise DomainError(p)
        if lab not in (0, 1):
            raise ValueError(lab)
        total += _focal_reference(p, lab, params)[0]
        n_pos += lab == 1
    return total / max(1, n_pos)


def _seeded_anchor_sets():
    """(probs, labels, params): 24 seeded 4096-anchor sets, then the edge sets."""
    rng = np.random.default_rng(5)
    for i in range(24):
        labels = rng.choice([-1, 0, 1], size=4096, p=[0.2, 0.75, 0.05]).tolist()
        probs = rng.uniform(0.0, 1.0, size=4096)
        probs[rng.integers(0, 4096, size=16)] = rng.choice([0.0, 1.0, 1e-9, 1.0 - 1e-9], size=16)
        gamma = 0.0 if i % 4 == 0 else float(rng.uniform(0.5, 4.0))
        yield probs.tolist(), labels, FocalParams(float(rng.uniform(0.05, 0.95)), gamma)
    probs = rng.uniform(0.0, 1.0, size=4096).tolist()
    yield probs, [-1] * 4096, FocalParams()
    yield probs, rng.choice([-1, 0], size=4096).tolist(), FocalParams()


class TestAgainstScalarReference:
    def test_focal_loss_matches_formula(self):
        rng = np.random.default_rng(11)
        cases = [(p, y) for p in (0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.5) for y in (0, 1)]
        cases += [(float(rng.uniform(0, 1)), int(rng.integers(0, 2))) for _ in range(2000)]
        for i, (p, y) in enumerate(cases):
            gamma = 0.0 if i % 3 == 0 else float(rng.uniform(0.0, 5.0))
            params = FocalParams(float(rng.uniform(0.01, 0.99)), gamma)
            loss, grad = focal_loss(p, y, params)
            want_loss, want_grad = _focal_reference(p, y, params)
            assert type(loss) is float and type(grad) is float
            assert abs(loss - want_loss) <= 1e-12
            assert abs(grad - want_grad) <= 1e-12 * max(1.0, abs(want_grad))

    def test_anchor_loss_matches_loop(self):
        for probs, labels, params in _seeded_anchor_sets():
            got = anchor_classification_loss(probs, labels, params)
            want = _anchor_loss_reference(probs, labels, params)
            assert type(got) is float
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "probs, labels",
        [
            ([0.2, 1.5, 0.3], [0, 1, 0]),
            ([0.2, -0.1, 0.3], [1, 0, -1]),
            ([0.2, math.nan], [1, 0]),
            ([0.2, 0.3], [1, 2]),
            ([0.2, 0.3], [-2, 0]),
            ([0.2, 0.3, 0.4], [1, 0.5, 0]),
            ([0.2, 0.3, 7.0], [3, 0, 1]),
            ([0.2, 7.0, 0.4], [1, 0, 3]),
            ([0.2, 0.3], [1]),
        ],
    )
    def test_bad_inputs_raise_reference_type(self, probs, labels):
        with pytest.raises(ValueError) as want:
            _anchor_loss_reference(probs, labels, FocalParams())
        with pytest.raises(ValueError) as got:
            anchor_classification_loss(probs, labels)
        assert got.type is want.type

    @pytest.mark.parametrize(
        "probs, labels",
        [(["0.5", 0.2], [1, 0]), ([0.2, "0.5"], [1, -1]), ([None, 0.2], [0, 1]), (["x"], [1])],
    )
    def test_non_numeric_probabilities_raise_type_error(self, probs, labels):
        with pytest.raises(TypeError):
            anchor_classification_loss(probs, labels)

    def test_ignored_anchors_are_never_checked(self):
        probs = [0.2, math.nan, 1.5, -math.inf]
        labels = [1, -1, -1, -1]
        assert anchor_classification_loss(probs, labels) == anchor_classification_loss([0.2], [1])


_anchor_pairs = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.sampled_from([-1, 0, 1])), max_size=64
)


class TestAnchorLossProperties:
    @settings(max_examples=200, deadline=None)
    @given(pairs=_anchor_pairs, seed=st.integers(0, 2**32 - 1), junk=st.floats())
    def test_permutation_and_ignored_probs_do_not_matter(self, pairs, seed, junk):
        probs = [p for p, _ in pairs]
        labels = [y for _, y in pairs]
        base = anchor_classification_loss(probs, labels)
        order = np.random.default_rng(seed).permutation(len(pairs))
        permuted = anchor_classification_loss([probs[i] for i in order], [labels[i] for i in order])
        assert permuted == pytest.approx(base, rel=1e-12, abs=0.0)
        moved = [junk if y == -1 else p for p, y in pairs]
        assert anchor_classification_loss(moved, labels) == base
