"""Tests of the benchmark itself: generator determinism, ledger shape,
the oracles, and the output checks against corrupted outputs.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

import generate
import oracle
import passes
from procs import Runner

CHECKOUT = Path(__file__).resolve().parents[2]


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _texts(raw: Path) -> list[str]:
    """Texts of the well-formed lines of a generated dump."""
    texts = []
    for line in raw.open(encoding="utf-8"):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("text"), str):
            texts.append(obj["text"])
    return texts


def _shape(ledger: dict) -> dict:
    """Ledger keys with the values a seed may not change."""
    varying = {"input_words", "unique_words", "tokens", "one_tokens", "mt_input_words", "mt_expected",
               "dev_ids", "accuracy", "models", "run_keys", "cells", "one_cell"}
    return {k: (v if k not in varying else type(v).__name__) for k, v in ledger.items()}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_same_bytes_other_seed_same_shape(workload, tmp_path):
    first = generate.generate(workload, 7, tmp_path / "a")
    again = generate.generate(workload, 7, tmp_path / "b")
    other = generate.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first == again
    files_a, files_c = _files(tmp_path / "a"), _files(tmp_path / "c")
    assert files_a.keys() == files_c.keys()
    main_input = "mt.jsonl" if workload == "eval_sweep" else "raw.jsonl"
    assert files_a[main_input] != files_c[main_input]
    assert _shape(first) == _shape(other)


def test_workload_properties_differ_as_designed(tmp_path):
    """The word-cache and truncation properties the workloads exist for."""
    from traced import repeat_word_fraction

    fractions = {}
    for workload in ("crawl_zipf", "crawl_longtail"):
        generate.generate(workload, 3, tmp_path / workload)
        fractions[workload] = repeat_word_fraction(_texts(tmp_path / workload / "raw.jsonl"))
    assert fractions["crawl_zipf"] > 0.85
    assert fractions["crawl_longtail"] < 0.25


def test_oracle_agrees_with_lusokit_on_generated_text(tmp_path):
    from lusokit.config import PipelineConfig
    from lusokit.corpus_io import CorpusRecord
    from lusokit.curation import apply_filters

    inputs = tmp_path / "in"
    generate.generate("crawl_longtail", 5, inputs)
    cfg = PipelineConfig.load(inputs / "pipeline.yaml").make_filter_config()
    sample = random.Random(0).sample(_texts(inputs / "raw.jsonl"), 300)
    cur = generate.params("crawl")["curation"]
    for text in sample:
        expected = oracle.first_violation(text, cur, frozenset(generate.STOPWORDS), frozenset(generate.FLAGGED))
        assert apply_filters(CorpusRecord(id="x", text=text), cfg).rejected_by == expected


@pytest.mark.parametrize("workload", ("crawl_zipf", "crawl_longtail"))
def test_oracle_wordpiece_agrees_with_lusokit_tokenize(workload, tmp_path):
    from lusokit.tokenizer import load_vocabulary, tokenize

    inputs = tmp_path / "in"
    generate.generate(workload, 5, inputs)
    vocab = load_vocabulary(inputs / "vocab.txt")
    wordpiece = oracle.WordPiece((inputs / "vocab.txt").read_text(encoding="utf-8").splitlines())
    texts = random.Random(0).sample(_texts(inputs / "raw.jsonl"), 150)
    texts += ["x🙂🙂y ★ Ação, dá→la", "ab 🙂"]
    for text in texts:
        assert list(tokenize(text, vocab).token_ids) == wordpiece.encode(text)


def test_oracle_run_keys_and_split_match_lusokit():
    from lusokit.benchmarks import TaskExample, split_90_10
    from lusokit.experiments.grid import RunConfig, make_run_key

    for run_spec in generate.cell_runs("enc-x", "rte")[:5]:
        cfg = RunConfig(model="enc-x", task="rte", lr=run_spec["lr"], dropout=run_spec["dropout"],
                        bf16=run_spec["bf16"], seed=run_spec["seed"], split_seed=13)
        assert make_run_key(cfg) == run_spec["key"]
    examples = [TaskExample(example_id=str(i), fields={}, label=0) for i in range(37)]
    dev = [ex.example_id for ex in split_90_10(examples, 13).dev]
    assert dev == [str(i) for i in oracle.split_dev_indices(37, 13)]


@pytest.fixture(scope="module")
def crawl_run(tmp_path_factory):
    """One CLI pass over crawl_zipf inputs, shared by the corruption tests."""
    work = tmp_path_factory.mktemp("crawl")
    led = generate.generate("crawl_zipf", 4, work / "inputs")
    with Runner(CHECKOUT, work) as runner:
        p = passes.crawl_pass(runner, work / "inputs", work / "pass")
    return work, led, p


def test_clean_pass_passes_every_check(crawl_run):
    work, led, p = crawl_run
    passes.check_crawl_summaries(p, led, (work / "inputs" / "raw.jsonl").stat().st_size)
    passes.check_crawl_files(p, led, work / "pass")
    assert p.failures == []


def test_a_dropped_output_line_fails_a_check(crawl_run, tmp_path):
    work, led, p = crawl_run
    out = tmp_path / "pass"
    shutil.copytree(work / "pass", out)
    lines = (out / "unique.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (out / "unique.jsonl").write_text("".join(lines[1:]), encoding="utf-8")
    corrupt = passes.Pass(results=p.results)
    passes.check_crawl_files(corrupt, led, out)
    assert any("unique.jsonl" in f for f in corrupt.failures)


def test_a_corrupted_shard_fails_a_check(crawl_run, tmp_path):
    work, led, _ = crawl_run
    packed = tmp_path / "packed"
    shutil.copytree(work / "pass" / "packed", packed)
    shard = packed / "stage_128.bin"
    data = bytearray(shard.read_bytes())
    data[-4:] = (7).to_bytes(4, "little")  # last cell of the last row: pad becomes a token
    shard.write_bytes(bytes(data))
    assert passes.check_packed(packed, led["tokens"]) != []


@pytest.mark.parametrize("corruption", ("one_id", "all_unk"))
def test_wrong_token_ids_fail_a_check(crawl_run, tmp_path, corruption):
    """Shards whose ids are wrong but consistent across stages, as a broken tokenizer would pack them."""
    from lusokit.packing import PackedBatch, read_shard, write_shard

    work, led, _ = crawl_run
    packed = tmp_path / "packed"
    shutil.copytree(work / "pass" / "packed", packed)
    assert passes.check_packed(packed, led["tokens"]) == []
    for shard in packed.glob("stage_*.bin"):
        batch = read_shard(shard)
        ids = batch.token_ids.copy()
        if corruption == "one_id":
            ids[0, 1] = ids[0, 1] + 1
        else:  # every content token becomes [UNK]; lengths, cls, sep and pad stay right
            lengths = batch.lengths()
            cols = np.arange(batch.width)[None, :]
            ids[(cols > 0) & (cols < (lengths - 1)[:, None])] = 3
        write_shard(shard, PackedBatch(ids, batch.attention_mask, batch.stage_max_len))
    assert any("id rows differ" in f for f in passes.check_packed(packed, led["tokens"]))


def test_a_wrong_stderr_summary_fails_a_check(crawl_run):
    work, led, p = crawl_run
    wrong = dict(led, duplicates=led["duplicates"] + 1)
    corrupt = passes.Pass(results=p.results)
    passes.check_crawl_summaries(corrupt, wrong, (work / "inputs" / "raw.jsonl").stat().st_size)
    assert any(f.startswith("dedup:") for f in corrupt.failures)
