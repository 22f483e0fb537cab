"""Task registry, schema validation, 90/10 splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusokit.benchmarks import (
    TASKS,
    LabelKind,
    Metric,
    TaskExample,
    read_task_examples,
    split_90_10,
    train_size_90_10,
    validate_examples,
    write_task_examples,
)
from lusokit.errors import DataError
from lusokit.variants import Variant


class TestRegistry:
    def test_ten_tasks(self):
        assert len(TASKS) == 10

    def test_variant_availability(self):
        assert sum(Variant.PTBR in t.variants for t in TASKS.values()) == 10
        ptpt_names = {t.name for t in TASKS.values() if Variant.PTPT in t.variants}
        assert len(ptpt_names) == 8
        assert "assin2-rte" not in ptpt_names
        assert "assin2-sts" not in ptpt_names

    def test_metrics_match_reporting_conventions(self):
        expected = {
            "assin2-rte": Metric.ACCURACY,
            "assin2-sts": Metric.PEARSON,
            "rte": Metric.ACCURACY,
            "wnli": Metric.ACCURACY,
            "mrpc": Metric.F1_BINARY,
            "stsb": Metric.PEARSON,
            "copa": Metric.ACCURACY,
            "cb": Metric.F1_MACRO,
            "multirc": Metric.F1_BINARY,
            "boolq": Metric.ACCURACY,
        }
        assert {name: spec.metric for name, spec in TASKS.items()} == expected

    def test_only_copa_requires_multichoice(self):
        assert [name for name, s in TASKS.items() if s.requires_multichoice] == ["copa"]
        assert TASKS["copa"].label_kind is LabelKind.CHOICE_OF_TWO

    def test_sts_tasks_are_real_valued(self):
        assert TASKS["stsb"].label_kind is LabelKind.REAL_0_5
        assert TASKS["assin2-sts"].label_kind is LabelKind.REAL_0_5


def ex(i, label, **fields):
    return TaskExample(example_id=f"e{i}", fields=fields, label=label)


class TestValidation:
    def test_clean_examples_pass(self):
        spec = TASKS["rte"]
        examples = [ex(i, i % 2, sentence1="um gato", sentence2="um animal") for i in range(4)]
        valid, violations = validate_examples(examples, spec)
        assert valid == 4
        assert violations == []

    def test_missing_field_reported_with_id_and_field(self):
        spec = TASKS["rte"]
        _, violations = validate_examples([ex(0, 1, sentence1="so uma")], spec)
        assert len(violations) == 1
        assert violations[0].example_id == "e0"
        assert violations[0].field == "sentence2"

    def test_binary_label_domain(self):
        spec = TASKS["boolq"]
        bad = [ex(0, 2, passage="p", question="q"), ex(1, True, passage="p", question="q")]
        valid, violations = validate_examples(bad, spec)
        assert valid == 0
        assert all(v.field == "label" for v in violations)

    def test_three_class_labels(self):
        spec = TASKS["cb"]
        good = ex(0, "neutral", premise="p", hypothesis="h")
        bad = ex(1, "maybe", premise="p", hypothesis="h")
        valid, violations = validate_examples([good, bad], spec)
        assert valid == 1
        assert violations[0].example_id == "e1"

    def test_real_label_range(self):
        spec = TASKS["stsb"]
        rows = [
            ex(0, 0.0, sentence1="a", sentence2="b"),
            ex(1, 5.0, sentence1="a", sentence2="b"),
            ex(2, 5.01, sentence1="a", sentence2="b"),
            ex(3, -0.5, sentence1="a", sentence2="b"),
            ex(4, "3.0", sentence1="a", sentence2="b"),
        ]
        valid, violations = validate_examples(rows, spec)
        assert valid == 2
        assert len(violations) == 3

    def test_copa_schema(self):
        spec = TASKS["copa"]
        good = ex(0, 1, premise="p", choice1="c1", choice2="c2", question="cause")
        valid, violations = validate_examples([good], spec)
        assert (valid, violations) == (1, [])


class TestTaskFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        examples = [ex(i, i % 2, sentence1=f"frase {i}", sentence2="outra") for i in range(5)]
        assert write_task_examples(path, examples) == 5
        assert read_task_examples(path) == examples

    def test_structurally_broken_rows_raise(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a"}\n', encoding="utf-8")  # no label
        with pytest.raises(DataError):
            read_task_examples(path)
        path.write_text("nada de json\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_task_examples(path)
        path.write_text('{"id": 3, "label": 1}\n', encoding="utf-8")
        with pytest.raises(DataError):
            read_task_examples(path)

    @pytest.mark.parametrize(
        "body,message",
        [
            ('\nnada de json\n', "2: invalid JSON (Expecting value)"),
            ("[1, 2]\n", "1: row is not an object"),
            ('{"label": 1}\n', "1: missing or invalid 'id'"),
            ('{"id": "a", "label": 0}\n\n{"id": "b"}\n', "3: missing 'label'"),
        ],
    )
    def test_error_messages(self, tmp_path, body, message):
        path = tmp_path / "t.jsonl"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DataError) as exc:
            read_task_examples(path)
        assert str(exc.value) == f"{path}:{message}"


class TestSplitSizes:
    @pytest.mark.parametrize(
        "n,train",
        [(2, 1), (3, 2), (9, 8), (10, 9), (11, 10), (15, 14), (20, 18), (100, 90), (101, 91)],
    )
    def test_exact_half_up_sizes(self, n, train):
        assert train_size_90_10(n) == train

    def test_both_halves_nonempty_for_all_small_n(self):
        for n in range(2, 200):
            train = train_size_90_10(n)
            assert 1 <= train <= n - 1

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            train_size_90_10(1)

    def test_rounding_is_half_up_not_banker(self):
        # 9*15/10 = 13.5 -> 14, not 13
        assert train_size_90_10(15) == 14


class TestSplit:
    def _examples(self, n):
        return [ex(i, i % 2, sentence1=f"s{i}", sentence2="t") for i in range(n)]

    def test_partition_exact(self):
        examples = self._examples(47)
        result = split_90_10(examples, seed=3)
        assert len(result.train) + len(result.dev) == 47
        ids = {e.example_id for e in result.train} | {e.example_id for e in result.dev}
        assert ids == {e.example_id for e in examples}
        assert len(result.train) == train_size_90_10(47)

    def test_same_seed_same_split(self):
        examples = self._examples(50)
        a = split_90_10(examples, seed=11)
        b = split_90_10(examples, seed=11)
        assert a == b

    def test_different_seed_different_split(self):
        examples = self._examples(200)
        a = split_90_10(examples, seed=1)
        b = split_90_10(examples, seed=2)
        assert a.train != b.train

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=600), st.integers(min_value=0, max_value=2**31))
    def test_partition_property(self, n, seed):
        result = split_90_10(range(n), seed)
        assert len(result.train) + len(result.dev) == n
        assert len(result.dev) >= 1 and len(result.train) >= 1
        assert set(result.train) | set(result.dev) == set(range(n))
        assert not (set(result.train) & set(result.dev))
