"""Traced run: each layer's public functions called in one process.

Stages run in order on a shared state dict. A `Tracer` records one span
(name, start, end, parent) per stage and aggregates calls made once per
record into count, total time and the kept durations, so tracing costs
two clock reads per record. `NullTracer` runs the same stage code with
no recording; the difference between the two wall times is the tracing
overhead. Spans stay in memory until the run ends.

Nothing inside lusokit is edited: per-record functions are wrapped at
run time by rebinding the module attribute the stage calls through.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import itertools
import json
import os
import pstats
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import passes
from generate import params


@dataclass
class Calls:
    """Aggregate of one per-record function: count, total and durations."""

    durations_ns: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.durations_ns)

    @property
    def total_s(self) -> float:
        return sum(self.durations_ns) / 1e9


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-pct * len(ordered) // 100)))
    return float(ordered[min(rank, len(ordered)) - 1])


class NullTracer:
    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def wrap(self, name: str, fn):
        return fn


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.calls: dict[str, Calls] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        calls = self.calls.setdefault(name, Calls())
        record = calls.durations_ns.append
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(clock() - start)

        return timed

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_s(self, index: int) -> float:
        """Span duration minus the part its direct children cover."""
        span = self.spans[index]
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == index)
        return (span["end"] - span["start"]) - children


@contextlib.contextmanager
def rebound(module, name: str, value):
    """Temporarily rebind module.name (a no-op when value is the original)."""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def run_stages(stages, state: dict, tracer) -> float:
    start = time.perf_counter()
    for name, fn in stages:
        with tracer.span(name):
            fn(state, tracer)
    return time.perf_counter() - start


# ----------------------------------------------------------------- crawl


def crawl_stages():
    from lusokit import curation
    from lusokit.config import PipelineConfig
    from lusokit.corpus_io import read_records, write_records
    from lusokit.curation import curate_stream, dedup_exact
    from lusokit.packing import TruncationSchedule, pack_batch, read_shard, write_shard
    from lusokit.stats import count_stats
    from lusokit.tokenizer import load_vocabulary, tokenize
    from lusokit.variants import Variant, classify_variant

    def read(s, t):
        stream, report = read_records(s["inputs"] / "raw.jsonl")
        s["records"] = list(stream)
        s["report"] = report

    def write(s, t):
        write_records(s["records"], s["out"] / "norm.jsonl")

    def classify(s, t):
        fn = t.wrap("variants.classify_variant", classify_variant)
        parts = {Variant.PTPT: [], Variant.PTBR: [], Variant.DISCARD: []}
        for record in s["records"]:
            parts[fn(record)].append(record)
        s["parts"] = parts

    def curate(s, t):
        cfg = PipelineConfig.load(s["inputs"] / "pipeline.yaml")
        rejected = {}

        def on_reject(record, stage, decision):
            key = "blocklist" if decision is None else decision.rejected_by
            rejected[key] = rejected.get(key, 0) + 1

        with rebound(curation, "apply_blocklist", t.wrap("curation.apply_blocklist", curation.apply_blocklist)), \
                rebound(curation, "apply_filters", t.wrap("curation.apply_filters", curation.apply_filters)):
            stream, stats = curate_stream(
                s["parts"][Variant.PTBR], cfg.make_filter_config(), cfg.make_blocklist(), on_reject=on_reject)
            s["kept"] = list(stream)
        s["curation"] = stats
        s["rejected"] = rejected

    def dedup(s, t):
        stream, stats = dedup_exact(s["kept"])
        s["unique"] = list(stream)
        s["dedup"] = stats

    def stats(s, t):
        s["stats"] = count_stats(s["unique"], "corpus")

    def vocab(s, t):
        s["vocab"] = load_vocabulary(s["inputs"] / "vocab.txt")

    def tok(s, t):
        fn = t.wrap("tokenizer.tokenize", tokenize)
        vocab = s["vocab"]
        s["seqs"] = [fn(record.text, vocab) for record in s["unique"]]

    def pack(s, t):
        schedule = TruncationSchedule.parse(params("crawl")["schedule"])
        s["batches"] = {}
        for cap, _ in schedule.stages:
            with t.span("packing.pack_batch"):
                batch = pack_batch(s["seqs"], cap, s["vocab"].pad_id)
            with t.span("packing.write_shard"):
                write_shard(s["out"] / f"stage_{cap}.bin", batch)
            s["batches"][cap] = batch

    def read_back(s, t):
        s["read_back"] = {cap: read_shard(s["out"] / f"stage_{cap}.bin") for cap in s["batches"]}

    return [
        ("corpus_io.read_records", read),
        ("corpus_io.write_records", write),
        ("variants.classify_variant", classify),
        ("curation.curate_stream", curate),
        ("curation.dedup_exact", dedup),
        ("stats.count_stats", stats),
        ("tokenizer.load_vocabulary", vocab),
        ("tokenizer.tokenize", tok),
        ("packing.pack", pack),
        ("packing.read_shard", read_back),
    ]


def repeat_word_fraction(texts) -> float:
    """Share of word occurrences already seen earlier in the sequence."""
    seen: set[str] = set()
    repeats = total = 0
    for text in texts:
        for word in text.split():
            total += 1
            if word in seen:
                repeats += 1
            else:
                seen.add(word)
    return repeats / total if total else 0.0


def check_crawl_state(s: dict, led: dict) -> list[str]:
    """In-process results against the ledger."""
    import oracle
    from lusokit.tokenizer import pieces_of, tokenize
    from lusokit.variants import Variant

    problems = []
    expect = {
        "well_formed": len(s["records"]), "malformed": s["report"].records_malformed,
        "ptpt": len(s["parts"][Variant.PTPT]), "ptbr": len(s["parts"][Variant.PTBR]),
        "discarded": len(s["parts"][Variant.DISCARD]), "blocklisted": s["curation"].blocklisted,
        "curated_kept": len(s["kept"]), "duplicates": s["dedup"].duplicates, "unique": len(s["unique"]),
        "unique_words": s["stats"].words,
    }
    for key, got in expect.items():
        if got != led[key]:
            problems.append(f"traced {key}: {got}, ledger says {led[key]}")
    rules = {r: n for r, n in s["rejected"].items() if r != "blocklist"}
    if rules != {r: n for r, n in led["rejected"].items() if n}:
        problems.append(f"traced rejects {rules} disagree with {led['rejected']}")
    vocab, seqs = s["vocab"], [q.token_ids for q in s["seqs"]]
    tokens = {
        "content": sum(len(q) - 2 for q in seqs),
        "unk": sum(q.count(vocab.unk_id) for q in seqs),
        "unk_rows": sum(vocab.unk_id in q for q in seqs),
        "digest": oracle.rows_digest([len(q) for q in seqs], [i for q in seqs for i in q]),
    }
    if tokens != {k: led["tokens"][k] for k in tokens}:
        problems.append("traced tokenize differs from the oracle WordPiece "
                        f"(content/unk/unk rows {tokens['content']}/{tokens['unk']}/{tokens['unk_rows']}, "
                        f"ledger {led['tokens']['content']}/{led['tokens']['unk']}/{led['tokens']['unk_rows']})")
    for cap, batch in s["read_back"].items():
        problems += [f"traced {p}" for p in passes.check_batch(cap, batch, led["tokens"]["stages"][cap])]
    words = dict.fromkeys(w for record in s["unique"] for w in record.text.split())
    broken = 0
    for word in itertools.islice(words, 20000):
        seq = tokenize(word, vocab)
        if vocab.unk_id not in seq.token_ids and "".join(pieces_of(seq, vocab)) != word:
            broken += 1
    if broken:
        problems.append(f"pieces_of does not concatenate back to the word for {broken} words")
    return problems


def crawl_layers(tr: Tracer, s: dict, led: dict) -> dict:
    from lusokit.config import PipelineConfig
    from lusokit.corpus_io import Source
    from lusokit.curation import RULE_NAMES, apply_blocklist
    from lusokit.variants import Variant

    vocab = s["vocab"]
    filt = tr.calls["curation.apply_filters"]
    block = tr.calls["curation.apply_blocklist"]
    tok = tr.calls["tokenizer.tokenize"]
    blocklist = PipelineConfig.load(s["inputs"] / "pipeline.yaml").make_blocklist()
    ptbr = s["parts"][Variant.PTBR]
    filtered_words = sum(len(r.text.split()) for r in ptbr
                         if r.source is not Source.CULTURAX and apply_blocklist(r, blocklist))
    content = sum(len(q) - 2 for q in s["seqs"])
    unk = sum(q.token_ids.count(vocab.unk_id) for q in s["seqs"])
    cells = pads = rows = truncated = 0
    for cap, batch in s["batches"].items():
        cells += batch.token_ids.size
        pads += int(batch.token_ids.size - batch.lengths().sum())
        rows += batch.rows
        truncated += sum(1 for q in s["seqs"] if len(q) > cap)
    shard_bytes = sum((s["out"] / f"stage_{cap}.bin").stat().st_size for cap in s["batches"])
    out = {
        "corpus_io.read_mwords_per_s": led["input_words"] / tr.seconds("corpus_io.read_records") / 1e6,
        "corpus_io.write_mb_per_s": (s["out"] / "norm.jsonl").stat().st_size / tr.seconds("corpus_io.write_records") / 1e6,
        "corpus_io.malformed": s["report"].records_malformed,
        "variants.records_per_s": len(s["records"]) / tr.seconds("variants.classify_variant"),
        "variants.discard_fraction": len(s["parts"][Variant.DISCARD]) / len(s["records"]),
        "curation.filter_mwords_per_s": filtered_words / filt.total_s / 1e6,
        "curation.filter_self_s": filt.total_s,
        "curation.blocklist_records_per_s": block.count / block.total_s,
        "curation.dedup_records_per_s": len(s["kept"]) / tr.seconds("curation.dedup_exact"),
        "curation.keep_fraction": len(s["kept"]) / len(ptbr),
        "curation.blocklisted": s["curation"].blocklisted,
        "curation.duplicate_fraction": s["dedup"].duplicates / len(s["kept"]),
        "stats.mwords_per_s": s["stats"].words / tr.seconds("stats.count_stats") / 1e6,
        "tokenizer.vocab_load_s": tr.seconds("tokenizer.load_vocabulary"),
        "tokenizer.mwords_per_s": s["stats"].words / tok.total_s / 1e6,
        "tokenizer.self_s": tok.total_s,
        "tokenizer.repeat_word_fraction": repeat_word_fraction(r.text for r in s["unique"]),
        "tokenizer.tokens_per_word": content / s["stats"].words,
        "tokenizer.unk_fraction": unk / content,
        "packing.pack_s": tr.seconds("packing.pack_batch"),
        "packing.write_mb_per_s": shard_bytes / tr.seconds("packing.write_shard") / 1e6,
        "packing.read_s": tr.seconds("packing.read_shard"),
        "packing.pad_fraction": pads / cells,
        "packing.truncated_fraction": truncated / rows,
    }
    for rule in RULE_NAMES:
        out[f"curation.rejected.{rule}"] = s["rejected"].get(rule, 0)
    return out


def peak_alloc_mb(s: dict) -> float:
    """tracemalloc peak over tokenize + pack of the unique records."""
    from lusokit.packing import TruncationSchedule, pack_batch
    from lusokit.tokenizer import tokenize

    vocab = s["vocab"]
    tracemalloc.start()
    try:
        seqs = [tokenize(record.text, vocab) for record in s["unique"]]
        for cap, _ in TruncationSchedule.parse(params("crawl")["schedule"]).stages:
            pack_batch(seqs, cap, vocab.pad_id)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def profile_top(stages, state: dict, name: str, top: int = 5) -> list[dict]:
    """cProfile of one stage re-run on its own, top functions by own time."""
    fn = dict(stages)[name]
    profiler = cProfile.Profile()
    profiler.enable()
    fn(state, NullTracer())
    profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    rows = []
    for (path, line, func), (cc, nc, tt, ct, _) in stats.stats.items():
        rows.append({"function": f"{Path(path).name}:{line}({func})", "calls": nc,
                     "tottime_s": round(tt, 4), "cumtime_s": round(ct, 4)})
    rows.sort(key=lambda r: -r["tottime_s"])
    return rows[:top]


# ------------------------------------------------------------ eval sweep


class TimedCache:
    """TranslationCache with each get and put timed; hits are counted."""

    def __init__(self, cache, tracer) -> None:
        self._cache = cache
        self.get = tracer.wrap("translate.cache.get", self._get)
        self.put = tracer.wrap("translate.cache.put", cache.put)
        self.gets = self.hits = 0

    def _get(self, text, target):
        value = self._cache.get(text, target)
        self.gets += 1
        self.hits += value is not None
        return value


class TimedStore:
    """ResultsStore proxy timing the calls run_matrix makes."""

    def __init__(self, store, tracer) -> None:
        self._store = store
        for name in ("claim", "release", "append", "load", "completed_keys"):
            setattr(self, name, tracer.wrap(f"experiments.store.{name}", getattr(store, name)))

    def __getattr__(self, name):
        return getattr(self._store, name)


def eval_stages(python: str):
    from lusokit.benchmarks import TASKS, read_task_examples, split_90_10, validate_examples
    from lusokit.corpus_io import read_records
    from lusokit.experiments import runner as runner_mod
    from lusokit.experiments.aggregate import aggregate_cells
    from lusokit.experiments.grid import build_matrix, load_roster
    from lusokit.experiments.store import ResultsStore
    from lusokit.metrics import score
    from lusokit.translate import FakeReversingClient, TranslationCache, translate_dataset

    ep = params("eval_sweep")
    spec = TASKS[ep["task"]]

    def validate(s, t):
        s["examples"] = read_task_examples(s["inputs"] / "task.jsonl")
        with t.span("benchmarks.validate_examples"):
            s["valid"], s["violations"] = validate_examples(s["examples"], spec)

    def split(s, t):
        s["split"] = split_90_10(s["examples"], ep["split_seed"])

    def scoring(s, t):
        preds = {}
        for line in (s["inputs"] / "pred.jsonl").open(encoding="utf-8"):
            row = json.loads(line)
            preds[row["id"]] = row["prediction"]
        pairs = [(ex.label, preds[ex.example_id]) for ex in s["split"].dev]
        with t.span("metrics.score"):
            s["accuracy"] = score(spec.metric.value, pairs)
        s["pairs"] = len(pairs)

    def translate(s, t):
        texts = [r.text for r in read_records(s["inputs"] / "mt.jsonl")[0]]
        cache = TimedCache(TranslationCache(s["out"] / "mt_cache"), t)
        s["mt_texts"], s["mt_cache"] = texts, cache
        for phase in ("cold", "warm"):
            with t.span(f"translate.{phase}"):
                s[f"mt_{phase}"] = translate_dataset(
                    texts, passes.MT_TARGET, FakeReversingClient(), cache=cache,
                    batch_size=ep["mt_batch_size"])

    def matrix(s, t):
        s["models"] = load_roster(s["inputs"] / "roster.yaml")
        s["tasks"] = [TASKS[name] for name in ep["tasks"]]
        with t.span("experiments.grid.build_matrix"):
            s["runs"] = build_matrix(s["models"], tasks=s["tasks"])

    def run(s, t):
        store = TimedStore(ResultsStore(s["out"] / "store"), t)
        template = passes.trainer_template(python, s["out"] / "flaky", s["out"] / "trainer_log.jsonl")
        fsyncs = [0]
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs[0] += 1
            return real_fsync(fd)

        run_one = t.wrap("experiments.runner.run_one", runner_mod.run_one)
        with rebound(runner_mod, "run_one", run_one), rebound(os, "fsync", counting_fsync):
            for phase in ("first", "resume"):
                with t.span(f"experiments.run_matrix.{phase}"):
                    s[f"summary_{phase}"] = runner_mod.run_matrix(
                        s["runs"], template, store, max_workers=ep["max_workers"])
        s["store"], s["fsyncs"] = store, fsyncs[0]

    def aggregate(s, t):
        records = s["store"].load()
        with t.span("experiments.aggregate.aggregate_cells"):
            s["cells"] = aggregate_cells(records, s["models"], tasks=s["tasks"])

    return [
        ("benchmarks.validate", validate),
        ("benchmarks.split_90_10", split),
        ("metrics.score", scoring),
        ("translate.translate_dataset", translate),
        ("experiments.grid", matrix),
        ("experiments.run_matrix", run),
        ("experiments.aggregate", aggregate),
    ]


def check_eval_state(s: dict, led: dict) -> list[str]:
    problems = []
    if s["valid"] != led["task_examples"] or s["violations"]:
        problems.append(f"traced validate: {s['valid']} valid, {len(s['violations'])} violations")
    if [ex.example_id for ex in s["split"].dev] != led["dev_ids"]:
        problems.append("traced split: dev ids differ from the ledger")
    if f"{s['accuracy']:.6f}" != led["accuracy"]:
        problems.append(f"traced score {s['accuracy']:.6f}, ledger says {led['accuracy']}")
    for phase in ("cold", "warm"):
        outcome = s[f"mt_{phase}"]
        if list(outcome.translations) != led["mt_expected"] or outcome.rejects:
            problems.append(f"traced translate {phase}: translations differ from the ledger")
    if s["mt_cold"].requests_issued != led["mt_cold_requests"] or s["mt_warm"].requests_issued != 0:
        problems.append("traced translate: request counts differ from the ledger")
    first, resume = s["summary_first"], s["summary_resume"]
    if (first.attempted, first.failed) != (led["runs"], led["first_pass_failures"]):
        problems.append(f"traced run: first pass {first}")
    if (resume.attempted, resume.failed) != (led["first_pass_failures"], 0):
        problems.append(f"traced run: resume pass {resume}")
    cells = {f"{c.model}\t{c.task}": c.display() for c in s["cells"]}
    if cells != led["cells"]:
        problems.append(f"traced report cells {cells} differ from the ledger")
    calls = passes.trainer_invocations(s["out"] / "trainer_log.jsonl")
    if passes.duplicate_invocations(led, calls):
        problems.append("traced run: a run key was invoked again after it had succeeded")
    return problems


def eval_layers(tr: Tracer, s: dict, led: dict) -> dict:
    n = len(s["mt_texts"])
    gets = [d / 1e3 for d in tr.calls["translate.cache.get"].durations_ns]
    puts = [d / 1e3 for d in tr.calls["translate.cache.put"].durations_ns]
    run_ms = [d / 1e6 for d in tr.calls["experiments.runner.run_one"].durations_ns]

    def median_us(name):
        return percentile([d / 1e3 for d in tr.calls[f"experiments.store.{name}"].durations_ns], 50)

    calls = passes.trainer_invocations(s["out"] / "trainer_log.jsonl")
    return {
        "benchmarks.validate_examples_per_s": len(s["examples"]) / tr.seconds("benchmarks.validate_examples"),
        "benchmarks.split_s": tr.seconds("benchmarks.split_90_10"),
        "metrics.score_pairs_per_s": s["pairs"] / tr.seconds("metrics.score"),
        "translate.cold_texts_per_s": n / tr.seconds("translate.cold"),
        "translate.warm_texts_per_s": n / tr.seconds("translate.warm"),
        "translate.cache_get_us.p50": percentile(gets, 50),
        "translate.cache_get_us.p99": percentile(gets, 99),
        "translate.cache_put_us.p50": percentile(puts, 50),
        "translate.cache_put_us.p99": percentile(puts, 99),
        "translate.cache_hit_fraction": s["mt_cache"].hits / s["mt_cache"].gets,
        "translate.requests_issued": s["mt_cold"].requests_issued + s["mt_warm"].requests_issued,
        "translate.cache_files": sum(1 for _ in (s["out"] / "mt_cache").iterdir()),
        "experiments.runner.run_one_ms.p50": percentile(run_ms, 50),
        "experiments.runner.run_one_ms.p90": percentile(run_ms, 90),
        "experiments.store.claim_us": median_us("claim"),
        "experiments.store.release_us": median_us("release"),
        "experiments.store.append_us": median_us("append"),
        "experiments.store.fsyncs": s["fsyncs"],
        "experiments.store.load_s": tr.calls["experiments.store.load"].total_s,
        "experiments.store.completed_keys_s": tr.calls["experiments.store.completed_keys"].total_s,
        "experiments.grid.build_matrix_s": tr.seconds("experiments.grid.build_matrix"),
        "experiments.aggregate.aggregate_s": tr.seconds("experiments.aggregate.aggregate_cells"),
        "experiments.runner.failed_first_pass": s["summary_first"].failed,
        "experiments.runner.duplicate_invocations": passes.duplicate_invocations(led, calls),
    }


# ------------------------------------------------------------------ run


def traced_run(workload: str, inputs: Path, work: Path, led: dict, python: str,
               seconds: float) -> tuple[dict, list[str], dict]:
    """Untraced and traced in-process passes; returns (metrics, problems, extra).

    One untraced warm-up pass is discarded: it pays for first calls (lazy
    imports, compiled regexes, cold directories). Then pairs of passes,
    untraced first in even pairs and traced first in odd ones, repeat
    while one more pair, as long as the last, still ends within
    `seconds` of the warm-up's start, at least once; the overhead is the
    median traced wall minus the median untraced wall.
    """
    stages = eval_stages(python) if workload == "eval_sweep" else crawl_stages()
    start = time.perf_counter()
    run_stages(stages, {"inputs": inputs, "out": passes._fresh(work / "plain")}, NullTracer())
    walls_plain, walls_traced = [], []
    for pair in itertools.count():
        begun = time.perf_counter()
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer = Tracer()
                state = {"inputs": inputs, "out": passes._fresh(work / "traced")}
                walls_traced.append(run_stages(stages, state, tracer))
            else:
                plain = {"inputs": inputs, "out": passes._fresh(work / "plain")}
                walls_plain.append(run_stages(stages, plain, NullTracer()))
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            break
    overhead = statistics.median(walls_traced) - statistics.median(walls_plain)
    metrics = {
        "trace.overhead_s": overhead,
        "trace.overhead_fraction": overhead / statistics.median(walls_plain),
        "trace.spans": len(tracer.spans),
    }
    extra = {"spans": tracer.spans,
             "calls": {k: {"count": c.count, "total_s": c.total_s} for k, c in tracer.calls.items()},
             "self_s": {s["name"]: tracer.self_s(i) for i, s in enumerate(tracer.spans) if s["parent"] is None}}
    if workload == "eval_sweep":
        problems = check_eval_state(state, led)
        metrics.update(eval_layers(tracer, state, led))
    else:
        problems = check_crawl_state(state, led)
        metrics.update(crawl_layers(tracer, state, led))
        metrics["packing.peak_alloc_mb"] = peak_alloc_mb(state)
        slowest = max((s for s in tracer.spans if s["parent"] is None), key=lambda s: s["end"] - s["start"])
        extra["profile"] = {"stage": slowest["name"],
                            "top": profile_top(stages, state, slowest["name"])}
    return metrics, problems, extra
