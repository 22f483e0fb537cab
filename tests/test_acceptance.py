"""Acceptance gate: ten checks of the toolkit's procedural arithmetic.

Each test covers one numbered criterion and prints a single PASS or
FAIL line (visible even under pytest's output capture), so a full run
ends with ten explicit verdicts. Tolerances and time bounds are pinned
in the assertions; the suite is deliberately independent of the unit
tests and recomputes every expectation with brute force where possible.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from lusokit.benchmarks import split_90_10, train_size_90_10
from lusokit.cli import dispatch
from lusokit.corpus_io import CorpusRecord, Source, read_records
from lusokit.curation import (
    RULE_NAMES,
    FilterConfig,
    apply_filters,
    load_default_stopwords,
    measure_rules,
)
from lusokit.errors import ConfigurationError
from lusokit.experiments.grid import HyperGrid, build_matrix, load_roster, make_run_key
from lusokit.experiments.runner import run_matrix
from lusokit.experiments.store import ResultsStore
from lusokit.faketrainer import should_fail_first
from lusokit.metrics import UNDEFINED, accuracy, f1_binary, f1_macro, pearson
from lusokit.packing import (
    TruncationSchedule,
    plan_device_split,
    read_shard,
    stage_for_step,
)
from lusokit.stats import scaled_value
from lusokit.tokenizer import load_vocabulary, tokenize
from lusokit.variants import Variant, classify_variant

from helpers import (
    BLOCK_EXACT_HOST,
    BLOCK_SUFFIX_ENTRY,
    FLAGGED_WORD,
    NOUN_POOL,
    STOP_POOL,
    generate_corpus,
    oracle_first_violation,
    oracle_measurements,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(capsys, number, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        with capsys.disabled():
            print(f"criterion {number:2d} FAIL  {title}  [{exc}]", flush=True)
        raise
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        print(f"criterion {number:2d} PASS  {title}  ({elapsed:.2f}s)", flush=True)


def test_criterion_01_grid_arithmetic(capsys):
    with criterion(capsys, 1, "full roster expands to 4104 runs in under 1s"):
        roster = load_roster(REPO_ROOT / "config" / "models.example.yaml")
        started = time.perf_counter()
        runs = build_matrix(roster)
        elapsed = time.perf_counter() - started
        assert len(runs) == 4104, f"expected 4104 runs, got {len(runs)}"
        keys = {make_run_key(r) for r in runs}
        assert len(keys) == 4104, "run keys collide"
        assert elapsed < 1.0, f"matrix expansion took {elapsed:.3f}s"
        # shape: 7 models x 10 tasks and 6 models x 8 tasks, minus one
        # paired-choice task for the two smallest models per variant
        by_variant = {"ptbr": 0, "ptpt": 0}
        for entry in roster:
            by_variant[entry.variant.value] += 1
        assert by_variant == {"ptbr": 7, "ptpt": 6}


def test_criterion_02_device_batch_split(capsys):
    with criterion(capsys, 2, "global batch 3072 over 16 devices gives 192"):
        assert plan_device_split(3072, 16) == 192
        with pytest.raises(ConfigurationError) as exc:
            plan_device_split(100, 16)
        assert "100" in str(exc.value) and "16" in str(exc.value)


def test_criterion_03_truncation_schedule(capsys):
    with criterion(capsys, 3, "stage lookup matches brute-force expansion of 390000 steps"):
        schedule = TruncationSchedule(((128, 250000), (256, 80000), (512, 60000)))
        assert stage_for_step(schedule, 0) == 128
        assert stage_for_step(schedule, 250000) == 256
        assert stage_for_step(schedule, 330000) == 512
        with pytest.raises(ValueError):
            stage_for_step(schedule, 390000)
        expanded = []
        for cap, steps in schedule.stages:
            expanded.extend([cap] * steps)
        assert len(expanded) == 390000
        started = time.perf_counter()
        for step in range(390000):
            if stage_for_step(schedule, step) != expanded[step]:
                raise AssertionError(f"disagreement at step {step}")
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"exhaustive check took {elapsed:.2f}s"


def test_criterion_04_variant_partition(capsys):
    with criterion(capsys, 4, "variant split partitions 10000 records in under 1s"):
        rng = random.Random(74001)
        records = []
        hosts = []
        for i in range(10000):
            kind = rng.randrange(6)
            if kind == 0:
                host = f"w{i}.noticias{i % 50}.br"
            elif kind == 1:
                host = f"x{i}.jornal{i % 30}.pt"
            elif kind == 2:
                host = f"s{i}.portal{i % 40}.{rng.choice(['com', 'org', 'net', 'es'])}"
            elif kind == 3:
                host = f"10.{i % 250}.0.{(i * 7) % 250}"
            elif kind == 4:
                host = None  # no URL at all
            else:
                host = ""  # unusable URL
            url = None
            if host == "":
                url = "not a real url"
            elif host is not None:
                url = f"https://{host}/p/{i}"
            hosts.append(host)
            records.append(CorpusRecord(id=f"v{i:05d}", url=url, source=Source.OTHER, text="t"))

        started = time.perf_counter()
        by_variant = {Variant.PTPT: set(), Variant.PTBR: set(), Variant.DISCARD: set()}
        for record in records:
            by_variant[classify_variant(record)].add(record.id)
        for record, host in zip(records, hosts):
            if not host:  # mutations only make sense on a parseable host
                continue
            base = classify_variant(record)
            mutations = (
                f"https://{host}/outro/caminho?x=1",
                f"HTTPS://{host.upper()}/p/0",
                f"https://{host}:8443/p/0",
            )
            for mutated in mutations:
                again = classify_variant(
                    CorpusRecord(id=record.id, url=mutated, source=Source.OTHER, text="t")
                )
                assert again is base, f"{mutated} moved {base} -> {again}"
        elapsed = time.perf_counter() - started

        sizes = {v: len(ids) for v, ids in by_variant.items()}
        assert sum(sizes.values()) == 10000, sizes
        assert by_variant[Variant.PTPT] | by_variant[Variant.PTBR] | by_variant[
            Variant.DISCARD
        ] == {r.id for r in records}
        assert not (by_variant[Variant.PTPT] & by_variant[Variant.PTBR])
        assert not (by_variant[Variant.PTPT] & by_variant[Variant.DISCARD])
        assert not (by_variant[Variant.PTBR] & by_variant[Variant.DISCARD])
        assert min(sizes.values()) > 0, f"degenerate partition: {sizes}"
        assert elapsed < 1.0, f"classification took {elapsed:.3f}s"


def _random_filter_text(rng):
    pool = (
        STOP_POOL
        + NOUN_POOL
        + [FLAGGED_WORD, ">>>", "###", "!!!", "a" * 20, "b" * 15]
    )
    words = [rng.choice(pool) for _ in range(rng.randrange(0, 40))]
    if words and rng.random() < 0.3:  # inject heavy repetition
        words.extend([words[0]] * rng.randrange(1, 10))
    return " ".join(words)


# Each rule's threshold field and a value at which it can never fire
# (the random texts have fewer than 50 words).
_OFF_VALUES = {
    "min_words": ("min_words", 0),
    "max_words": ("max_words", 1_000),
    "char_repetition": ("max_char_repetition_ratio", 1.0),
    "word_repetition": ("max_word_repetition_ratio", 1.0),
    "special_char": ("max_special_char_ratio", 1.0),
    "stopword": ("min_stopword_ratio", 0.0),
    "flagged_word": ("max_flagged_word_ratio", 1.0),
}


def _random_filter_config(rng, stopwords):
    """Random thresholds, with a random subset of the rules switched off."""
    min_words = rng.randrange(0, 9)
    thresholds = dict(
        min_words=min_words,
        max_words=rng.randrange(max(min_words, 10), 80),
        max_char_repetition_ratio=rng.random(),
        max_word_repetition_ratio=rng.random(),
        max_special_char_ratio=rng.random(),
        min_stopword_ratio=rng.random() * 0.5,
        stopword_min_words=rng.randrange(0, 30),
        max_flagged_word_ratio=rng.random() * 0.2,
    )
    enabled = rng.sample(RULE_NAMES, rng.randrange(1, len(RULE_NAMES) + 1))
    for rule in set(RULE_NAMES) - set(enabled):
        name, off = _OFF_VALUES[rule]
        thresholds[name] = off
    return FilterConfig(
        **thresholds, stopword_list=stopwords, flagged_word_list=frozenset({FLAGGED_WORD})
    )


def _stricter_variant(cfg, rng):
    min_words = cfg.min_words + rng.randrange(0, 3)
    return FilterConfig(
        min_words=min_words,
        max_words=max(min_words, cfg.max_words - rng.randrange(0, 6)),
        max_char_repetition_ratio=cfg.max_char_repetition_ratio * rng.random(),
        max_word_repetition_ratio=cfg.max_word_repetition_ratio * rng.random(),
        max_special_char_ratio=cfg.max_special_char_ratio * rng.random(),
        min_stopword_ratio=min(1.0, cfg.min_stopword_ratio + rng.random() * 0.3),
        stopword_min_words=rng.randrange(0, cfg.stopword_min_words + 1),
        stopword_list=cfg.stopword_list,
        flagged_word_list=cfg.flagged_word_list,
        max_flagged_word_ratio=cfg.max_flagged_word_ratio * rng.random(),
    )


def test_criterion_05_filter_oracle_agreement(capsys):
    with criterion(capsys, 5, "filter math matches oracle on 1200 pairs, monotone"):
        rng = random.Random(74005)
        stopwords = load_default_stopwords()
        for i in range(1200):
            text = _random_filter_text(rng)
            cfg = _random_filter_config(rng, stopwords)
            record = CorpusRecord(id=f"f{i}", url=None, source=Source.OTHER, text=text)

            measured = measure_rules(text, cfg)
            expected = oracle_measurements(text, stopwords, cfg.flagged_word_list)
            assert measured["min_words"] == expected["n_words"]
            assert measured["max_words"] == expected["n_words"]
            for key in ("char_repetition", "word_repetition", "special_char",
                        "stopword", "flagged_word"):
                assert measured[key] == expected[key], (key, text[:40])

            decision = apply_filters(record, cfg)
            first = oracle_first_violation(text, cfg)
            assert decision.keep == (first is None), text[:60]
            assert decision.rejected_by == first, (decision.rejected_by, first)

            stricter = _stricter_variant(cfg, rng)
            if apply_filters(record, stricter).keep:
                assert decision.keep, f"tightening thresholds rescued: {text[:60]}"


def test_criterion_06_metric_oracles(capsys):
    with criterion(capsys, 6, "metrics match oracles within 1e-12 on 1000 instances"):
        rng = random.Random(74006)
        for _ in range(1000):
            n = rng.randrange(2, 60)
            gold = [rng.randrange(3) for _ in range(n)]
            pred = [rng.randrange(3) for _ in range(n)]
            pairs = list(zip(gold, pred))

            acc = accuracy(pairs)
            assert abs(acc - sum(g == p for g, p in pairs) / n) <= 1e-12

            binary = [(g % 2, p % 2) for g, p in pairs]
            tp = sum(1 for g, p in binary if g == 1 and p == 1)
            fp = sum(1 for g, p in binary if g == 0 and p == 1)
            fn = sum(1 for g, p in binary if g == 1 and p == 0)
            denom = 2 * tp + fp + fn
            expected_f1 = 2 * tp / denom if denom else 0.0
            assert abs(f1_binary(binary) - expected_f1) <= 1e-12

            per_class = []
            for c in (0, 1, 2):
                ctp = sum(1 for g, p in pairs if g == c and p == c)
                cfp = sum(1 for g, p in pairs if g != c and p == c)
                cfn = sum(1 for g, p in pairs if g == c and p != c)
                cd = 2 * ctp + cfp + cfn
                per_class.append(2 * ctp / cd if cd else 1.0)
            macro = f1_macro(pairs, classes=[0, 1, 2])
            assert abs(macro - sum(per_class) / 3) <= 1e-12

            xs = [rng.random() for _ in range(n)]
            ys = [rng.random() for _ in range(n)]
            ours = pearson(xs, ys)
            reference = float(np.corrcoef(xs, ys)[0, 1])
            if math.isnan(reference):
                assert ours is UNDEFINED
            else:
                assert abs(ours - reference) <= 1e-12, (ours, reference)
                scale = 0.5 + rng.random() * 1.5
                offset = rng.random() * 2 - 1
                moved = pearson([scale * x + offset for x in xs], ys)
                assert abs(moved - ours) <= 1e-12, (moved, ours)

        assert pearson([1.0, 1.0, 1.0], [0.1, 0.5, 0.9]) is UNDEFINED
        assert pearson([0.1, 0.5, 0.9], [2.0, 2.0, 2.0]) is UNDEFINED


def test_criterion_07_split_methodology(capsys):
    with criterion(capsys, 7, "90/10 split: N=100 gives 90/10, partition over N in [2,5000]"):
        hundred = split_90_10(list(range(100)), seed=13)
        assert len(hundred.train) == 90 and len(hundred.dev) == 10
        again = split_90_10(list(range(100)), seed=13)
        assert hundred.train == again.train and hundred.dev == again.dev
        other_seed = split_90_10(list(range(100)), seed=14)
        assert other_seed.train != hundred.train

        rng = random.Random(74007)
        sizes = [2, 3, 10, 11, 4999, 5000] + [rng.randrange(2, 5001) for _ in range(300)]
        for n in sizes:
            result = split_90_10(range(n), seed=rng.randrange(1000))
            dev_size = len(result.dev)
            assert 1 <= dev_size <= n - 1, (n, dev_size)
            assert len(result.train) == train_size_90_10(n)
            assert sorted(list(result.train) + list(result.dev)) == list(range(n))


def test_criterion_08_end_to_end_dry_run(capsys, tmp_path):
    with criterion(capsys, 8, "pipeline over 5170-line corpus matches generator ledger"):
        cfg = FilterConfig(
            min_words=5,
            max_words=400,
            stopword_list=load_default_stopwords(),
            flagged_word_list=frozenset({FLAGGED_WORD}),
        )
        raw = tmp_path / "raw.jsonl"
        ledger = generate_corpus(raw, cfg)
        assert ledger.total_lines >= 5000

        (tmp_path / "flagged.txt").write_text(FLAGGED_WORD + "\n", encoding="utf-8")
        (tmp_path / "exact.txt").write_text(BLOCK_EXACT_HOST + "\n", encoding="utf-8")
        (tmp_path / "suffix.txt").write_text(BLOCK_SUFFIX_ENTRY + "\n", encoding="utf-8")
        pipeline_yaml = tmp_path / "pipeline.yaml"
        pipeline_yaml.write_text(
            "curation:\n"
            "  min_words: 5\n"
            "  max_words: 400\n"
            "  flagged_words_file: flagged.txt\n"
            "blocklist:\n"
            "  exact_file: exact.txt\n"
            "  suffix_file: suffix.txt\n",
            encoding="utf-8",
        )

        norm = tmp_path / "norm.jsonl"
        assert dispatch(["ingest", "--input", str(raw), "--output", str(norm)]) == 0
        assert len(norm.read_text(encoding="utf-8").splitlines()) == ledger.well_formed

        ptbr = tmp_path / "ptbr.jsonl"
        ptpt = tmp_path / "ptpt.jsonl"
        disc = tmp_path / "discard.jsonl"
        assert dispatch(
            ["split-variant", "--input", str(norm), "--output-ptpt", str(ptpt),
             "--output-ptbr", str(ptbr), "--output-discard", str(disc)]
        ) == 0
        assert len(ptbr.read_text(encoding="utf-8").splitlines()) == ledger.ptbr
        assert len(ptpt.read_text(encoding="utf-8").splitlines()) == ledger.ptpt
        assert len(disc.read_text(encoding="utf-8").splitlines()) == ledger.discarded_variant

        curated = tmp_path / "curated.jsonl"
        rejects = tmp_path / "rejects.jsonl"
        assert dispatch(
            ["curate", "--input", str(ptbr), "--output", str(curated),
             "--config", str(pipeline_yaml), "--rejects", str(rejects)]
        ) == 0
        assert len(curated.read_text(encoding="utf-8").splitlines()) == ledger.curated_kept
        reject_rows = [
            json.loads(line) for line in rejects.read_text(encoding="utf-8").splitlines()
        ]
        blocked = sum(1 for r in reject_rows if r["stage"] == "blocklist")
        assert blocked == ledger.blocklisted
        by_rule: dict[str, int] = {}
        for row in reject_rows:
            if row["stage"] == "quality":
                by_rule[row["rule"]] = by_rule.get(row["rule"], 0) + 1
        assert by_rule == dict(ledger.rule_rejected), by_rule

        deduped = tmp_path / "deduped.jsonl"
        assert dispatch(["dedup", "--input", str(curated), "--output", str(deduped)]) == 0
        assert len(deduped.read_text(encoding="utf-8").splitlines()) == ledger.unique_after_dedup

        expected_words = sum(len(t.split()) for t in ledger.kept_texts)
        assert dispatch(
            ["stats", "--input", str(deduped), "--names", "corpus", "--tsv"]
        ) == 0
        tsv_lines = capsys.readouterr().out.strip().splitlines()
        assert tsv_lines[-1] == f"corpus\t{ledger.unique_after_dedup}\t{expected_words}"

        vocab_path = REPO_ROOT / "config" / "vocab.demo.txt"
        packed = tmp_path / "packed"
        assert dispatch(
            ["pack", "--input", str(deduped), "--vocab", str(vocab_path),
             "--schedule", "32:1000,64:500", "--output-dir", str(packed)]
        ) == 0
        manifest = json.loads((packed / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["records"] == ledger.unique_after_dedup

        vocab = load_vocabulary(vocab_path)
        records, _ = read_records(deduped)
        lengths = [len(tokenize(record.text, vocab)) for record in records]
        assert len(lengths) == ledger.unique_after_dedup
        for stage in manifest["stages"]:
            cap = stage["max_len"]
            expected_tokens = sum(min(length, cap) for length in lengths)
            assert stage["tokens"] == expected_tokens, stage
            batch = read_shard(packed / stage["shard"])
            assert int(batch.attention_mask.sum()) == expected_tokens
            assert batch.rows == ledger.unique_after_dedup


def test_criterion_09_orchestrator_resumability(capsys, tmp_path):
    with criterion(capsys, 9, "two passes finish 36 runs, no run executed twice after success"):
        grid = HyperGrid()  # 12 combos x 3 seeds on one cell = 36 runs
        from lusokit.benchmarks import TASKS
        from lusokit.experiments.grid import ModelEntry, SizeClass

        entry = ModelEntry("m-accept", Variant.PTBR, SizeClass.S900M, True)
        runs = build_matrix([entry], tasks=[TASKS["rte"]], grid=grid)
        assert len(runs) == 36

        log_path = tmp_path / "invocations.jsonl"
        flaky_dir = tmp_path / "flaky"
        template = (
            f"{sys.executable} -m lusokit.faketrainer --run-key {{run_key}} "
            "--model {model} --task {task} --lr {lr} --dropout {dropout} "
            "--bf16 {bf16} --seed {seed} --split-seed {split_seed} "
            f"--fail-rate 0.1 --flaky-dir {flaky_dir} --log {log_path}"
        )
        flaky_keys = {
            make_run_key(r) for r in runs if should_fail_first(make_run_key(r), 0.1)
        }
        assert flaky_keys, "fault injection selected no runs; test would prove nothing"

        store = ResultsStore(tmp_path / "store")
        first = run_matrix(runs, template, store)
        assert first.attempted == 36
        assert first.failed == len(flaky_keys)
        second = run_matrix(runs, template, store)
        assert second.skipped_completed == 36 - len(flaky_keys)
        assert second.attempted == len(flaky_keys)
        assert second.failed == 0
        assert store.completed_keys() == {make_run_key(r) for r in runs}

        invocations: dict[str, int] = {}
        for line in log_path.read_text(encoding="utf-8").splitlines():
            key = json.loads(line)["run_key"]
            invocations[key] = invocations.get(key, 0) + 1
        for run in runs:
            key = make_run_key(run)
            expected = 2 if key in flaky_keys else 1
            assert invocations[key] == expected, (key, invocations[key], expected)
        assert sum(invocations.values()) == 36 + len(flaky_keys)


def test_criterion_10_table_number_formatting(capsys):
    with criterion(capsys, 10, "4100000 and 2728000000 render as 4.1 and 2.7"):
        assert scaled_value(4_100_000, 1_000_000) == "4.1"
        assert scaled_value(2_728_000_000, 1_000_000_000) == "2.7"
        assert scaled_value(16_100_000, 1_000_000) == "16.1"
        assert scaled_value(4_300_000_000, 1_000_000_000) == "4.3"
