"""Scoring functions against independent oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusokit.metrics import UNDEFINED, EvalPair, accuracy, f1_binary, f1_macro, pearson, score


class TestAccuracy:
    def test_basic(self):
        pairs = [(1, 1), (0, 0), (1, 0), (0, 0)]
        assert accuracy(pairs) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([])

    def test_accepts_eval_pairs(self):
        assert accuracy([EvalPair(1, 1), EvalPair("a", "b")]) == 0.5


class TestBinaryF1:
    def test_hand_computed(self):
        # tp=2 fp=1 fn=1 -> P=2/3 R=2/3 -> F1=2/3
        pairs = [(1, 1), (1, 1), (0, 1), (1, 0), (0, 0)]
        assert f1_binary(pairs) == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        assert f1_binary([(1, 0), (0, 0)]) == 0.0

    def test_all_correct(self):
        assert f1_binary([(1, 1), (0, 0), (1, 1)]) == 1.0

    def test_positive_class_override(self):
        pairs = [("sim", "sim"), ("nao", "sim"), ("sim", "nao")]
        assert f1_binary(pairs, positive="sim") == pytest.approx(0.5)

    def test_oracle_agreement(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 40)
            pairs = [(rng.randrange(2), rng.randrange(2)) for _ in range(n)]
            tp = sum(1 for g, p in pairs if g == 1 and p == 1)
            fp = sum(1 for g, p in pairs if g == 0 and p == 1)
            fn = sum(1 for g, p in pairs if g == 1 and p == 0)
            if tp == 0:
                expected = 0.0
            else:
                prec = tp / (tp + fp)
                rec = tp / (tp + fn)
                expected = 2 * prec * rec / (prec + rec)
            assert abs(f1_binary(pairs) - expected) <= 1e-12


class TestMacroF1:
    CLASSES = ["entailment", "contradiction", "neutral"]

    def test_perfect(self):
        pairs = [(c, c) for c in self.CLASSES]
        assert f1_macro(pairs, self.CLASSES) == 1.0

    def test_absent_class_scores_one(self):
        pairs = [("entailment", "entailment"), ("contradiction", "contradiction")]
        assert f1_macro(pairs, self.CLASSES) == 1.0
        pairs = [("entailment", "contradiction"), ("contradiction", "entailment")]
        # neutral absent -> 1, the other two -> 0
        assert f1_macro(pairs, self.CLASSES) == pytest.approx(1 / 3)

    def test_mixed(self):
        pairs = [
            ("entailment", "entailment"),
            ("entailment", "neutral"),
            ("neutral", "neutral"),
            ("contradiction", "contradiction"),
        ]
        # entailment: tp=1 fp=0 fn=1 -> 2/3; neutral: tp=1 fp=1 fn=0 -> 2/3; contradiction: 1
        assert f1_macro(pairs, self.CLASSES) == pytest.approx((2 / 3 + 2 / 3 + 1) / 3)

    def test_class_list_validated(self):
        with pytest.raises(ValueError):
            f1_macro([("a", "a")], [])
        with pytest.raises(ValueError):
            f1_macro([("a", "a")], ["a", "a"])


class TestPearson:
    def test_perfect_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, xs) == pytest.approx(1.0)
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_matches_numpy(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(2, 60)
            xs = [rng.uniform(-50, 50) for _ in range(n)]
            ys = [rng.uniform(-50, 50) for _ in range(n)]
            if len(set(xs)) == 1 or len(set(ys)) == 1:
                continue
            expected = float(np.corrcoef(xs, ys)[0, 1])
            assert abs(pearson(xs, ys) - expected) <= 1e-12

    def test_zero_variance_is_undefined(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is UNDEFINED
        assert pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) is UNDEFINED

    def test_undefined_is_a_singleton_and_falsy(self):
        assert repr(UNDEFINED) == "UNDEFINED"
        assert not UNDEFINED

    def test_clamped_to_range(self):
        xs = [1e-9 * i + 1e8 for i in range(5)]
        result = pearson(xs, xs)
        assert result is UNDEFINED or -1.0 <= result <= 1.0

    def test_length_mismatch_and_tiny_inputs(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    def test_tiny_deviations_keep_their_correlation(self):
        # squared deviations near 1e-320 are subnormal and lose their digits
        ys = [2.2424963906696927e-160, 0.0, 0.0]
        assert abs(pearson([0, 1, 2], ys) - pearson([0.0, 0.25, 0.5], ys)) <= 1e-9
        assert abs(pearson([0, 1, 2], ys) + math.sqrt(3) / 2) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=30,
        ),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-50, max_value=50),
    )
    def test_affine_invariance(self, ys, a, b):
        xs = list(range(len(ys)))
        base = pearson(xs, ys)
        shifted = pearson([a * x + b for x in xs], ys)
        if base is UNDEFINED:
            assert shifted is UNDEFINED
        else:
            assert abs(base - shifted) <= 1e-9


class TestDispatch:
    def test_score_by_name(self):
        assert score("accuracy", [(1, 1), (0, 1)]) == 0.5
        assert score("f1_binary", [(1, 1)]) == 1.0
        assert score("f1_macro", [("a", "a"), ("b", "b")], classes=["a", "b"]) == 1.0
        assert score("pearson", [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]) == pytest.approx(1.0)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            score("rmse", [(1, 1)])
