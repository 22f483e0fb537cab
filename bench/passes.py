"""Untraced runs: the lusokit CLI as child processes, checked against the ledger.

A pass is one full run of a workload's command sequence over its
generated inputs. `setup` runs the same sequence over a one-record (or
one-cell) input, so its time is what every command pays before it
reads a record: interpreter, imports, config, vocab and roster loading.
Every check failure is kept as a message; the caller turns them into
failed operations.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from generate import params
from procs import Result, Runner

EVAL_COMMANDS = ("translate", "translate", "validate", "split", "run", "run", "report", "score")
MT_TARGET = "PT-PT"
PAD_ID = 2  # the third line of every generated vocabulary


@dataclass
class Pass:
    """Wall time and max RSS of each command of one pass, in order."""

    results: list[Result] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    def seconds(self, command: str) -> float:
        return sum(r.wall_s for r in self.results if r.argv[3] == command)

    def max_rss_mb(self, command: str) -> float:
        return max((r.max_rss_mb for r in self.results if r.argv[3] == command), default=0.0)

    def expect(self, result: Result, code: int, stderr_line: str | None = None) -> None:
        """Record a failure unless the exit code and stderr summary match."""
        cmd = result.argv[3]
        if result.code != code:
            self.failures.append(f"{cmd}: exit {result.code}, expected {code}: {result.stderr[-300:]}")
        elif stderr_line is not None and stderr_line not in result.stderr.splitlines():
            self.failures.append(f"{cmd}: stderr {result.stderr.strip()[-200:]!r}, expected {stderr_line!r}")


def guarded(check, p: Pass, *args) -> int:
    """Run one check; output so malformed that the check crashes is a failure too."""
    try:
        return check(p, *args) or 0
    except Exception as exc:  # any crash here means the output is wrong; report, don't abort
        p.failures.append(f"{check.__name__} crashed on the output: {exc!r}")
        return 1


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


# ----------------------------------------------------------------- crawl


def crawl_pass(runner: Runner, inputs: Path, out: Path, raw: str = "raw.jsonl") -> Pass:
    """ingest -> split-variant -> curate -> dedup -> stats -> pack."""
    cp = params("crawl")
    _fresh(out)
    p = Pass()
    p.results.append(runner.lusokit("ingest", "--input", str(inputs / raw), "--output", str(out / "norm.jsonl")))
    p.results.append(runner.lusokit(
        "split-variant", "--input", str(out / "norm.jsonl"), "--output-ptpt", str(out / "ptpt.jsonl"),
        "--output-ptbr", str(out / "ptbr.jsonl"), "--output-discard", str(out / "discard.jsonl")))
    p.results.append(runner.lusokit(
        "curate", "--input", str(out / "ptbr.jsonl"), "--output", str(out / "curated.jsonl"),
        "--config", str(inputs / "pipeline.yaml"), "--rejects", str(out / "rejects.jsonl")))
    p.results.append(runner.lusokit("dedup", "--input", str(out / "curated.jsonl"), "--output", str(out / "unique.jsonl")))
    p.results.append(runner.lusokit("stats", "--input", str(out / "unique.jsonl"), "--names", "corpus", "--tsv"))
    p.results.append(runner.lusokit(
        "pack", "--input", str(out / "unique.jsonl"), "--vocab", str(inputs / "vocab.txt"),
        "--schedule", cp["schedule"], "--output-dir", str(out / "packed"),
        "--global-batch", str(cp["global_batch"]), "--devices", str(cp["devices"])))
    return p


def check_crawl_summaries(p: Pass, led: dict, raw_bytes: int) -> None:
    """Each command's exit code and stderr/stdout summary against the ledger."""
    ingest, split, curate, dedup, stats, pack = p.results
    p.expect(ingest, 0, f"ingested {led['well_formed']} records "
             f"({led['malformed']} malformed units skipped, {raw_bytes} bytes read)")
    p.expect(split, 0, f"ptpt={led['ptpt']} ptbr={led['ptbr']} discarded={led['discarded']}")
    rejected = sum(led["rejected"].values())
    p.expect(curate, 0, f"kept={led['curated_kept']} blocklisted={led['blocklisted']} rejected={rejected}")
    p.expect(dedup, 0, f"kept={led['unique']} duplicates={led['duplicates']}")
    p.expect(stats, 0)
    if stats.code == 0 and stats.stdout.strip().splitlines()[-1:] != [f"corpus\t{led['unique']}\t{led['unique_words']}"]:
        p.failures.append(f"stats: stdout {stats.stdout.strip()[-120:]!r} disagrees with the ledger")
    p.expect(pack, 0)


def check_crawl_files(p: Pass, led: dict, out: Path) -> None:
    """Output line counts, reject attribution, the pack manifest and shards."""
    counts = {
        "norm.jsonl": led["well_formed"], "ptpt.jsonl": led["ptpt"], "ptbr.jsonl": led["ptbr"],
        "discard.jsonl": led["discarded"], "curated.jsonl": led["curated_kept"], "unique.jsonl": led["unique"],
    }
    for name, expected in counts.items():
        got = _lines(out / name) if (out / name).exists() else None
        if got != expected:
            p.failures.append(f"{name}: {got} lines, ledger says {expected}")
    stages = Counter()
    rules = Counter()
    with (out / "rejects.jsonl").open(encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            stages[row["stage"]] += 1
            if row["stage"] == "quality":
                rules[row["rule"]] += 1
    if stages["blocklist"] != led["blocklisted"]:
        p.failures.append(f"rejects: {stages['blocklist']} blocklist rows, ledger says {led['blocklisted']}")
    if dict(rules) != {r: n for r, n in led["rejected"].items() if n}:
        p.failures.append(f"rejects: per-rule counts {dict(rules)} disagree with {led['rejected']}")
    p.failures += check_packed(out / "packed", led["tokens"])


def check_packed(packed: Path, expect: dict) -> list[str]:
    """The pack manifest and every shard, read back, against the ledger.

    `expect` is a generate.token_ledger: per stage cap the rows, tokens,
    truncated rows, width and digest of the id rows that the oracle's
    WordPiece gives.
    """
    from lusokit.packing import read_shard

    cp = params("crawl")
    want = expect["stages"]
    problems = []
    try:
        manifest = json.loads((packed / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"pack: no readable manifest ({exc})"]
    records = next(iter(want.values()))["rows"]
    if manifest.get("records") != records:
        problems.append(f"pack: manifest records {manifest.get('records')}, ledger says {records}")
    if manifest.get("per_device_batch") != cp["global_batch"] // cp["devices"]:
        problems.append(f"pack: per_device_batch {manifest.get('per_device_batch')}")
    stages = {s.get("max_len"): s for s in manifest.get("stages", [])}
    if sorted(stages) != sorted(want):
        return problems + [f"pack: manifest stages {sorted(stages)}, schedule has {sorted(want)}"]
    for cap, stage in want.items():
        got = {k: stages[cap].get(k) for k in ("rows", "tokens", "truncated_rows", "width")}
        if got != {k: stage[k] for k in got}:
            problems.append(f"pack: cap {cap} manifest {got} disagrees with the ledger")
        try:
            batch = read_shard(packed / stages[cap]["shard"])
        except Exception as exc:  # any failure to read back is a failed check
            problems.append(f"pack: shard for cap {cap} does not read back: {exc}")
            continue
        problems += check_batch(cap, batch, stage)
    return problems


def check_batch(cap: int, batch, stage: dict) -> list[str]:
    """One packed batch against the ledger's rows for its stage cap."""
    import oracle

    lengths = batch.lengths()
    pad = np.arange(batch.width)[None, :] >= lengths[:, None]
    problems = []
    if np.any(batch.token_ids[pad] != PAD_ID):
        problems.append(f"pack: cap {cap} padding cells are not pad_id")
    if oracle.rows_digest(lengths, batch.token_ids[~pad]) != stage["digest"]:
        problems.append(f"pack: cap {cap} id rows differ from the oracle WordPiece's ({batch.rows} rows)")
    return problems


def crawl_setup(runner: Runner, inputs: Path, out: Path, led: dict) -> Pass:
    p = crawl_pass(runner, inputs, out, raw="one.jsonl")
    for r in p.results:
        p.expect(r, 0)
    p.expect(p.results[0], 0, "ingested 1 records (0 malformed units skipped, "
             f"{(inputs / 'one.jsonl').stat().st_size} bytes read)")
    p.failures += check_packed(out / "packed", led["one_tokens"])
    return p


# ------------------------------------------------------------ eval sweep


def trainer_template(python: str, flaky: Path, log: Path) -> str:
    ep = params("eval_sweep")
    return (f"{python} -m lusokit.faketrainer --run-key {{run_key}} --model {{model}} --task {{task}} "
            f"--lr {{lr}} --dropout {{dropout}} --bf16 {{bf16}} --seed {{seed}} --split-seed {{split_seed}} "
            f"--fail-rate {ep['fail_rate']} --flaky-dir {flaky} --log {log}")


def eval_pass(runner: Runner, inputs: Path, out: Path, one: bool = False) -> Pass:
    """translate cold, translate warm, validate, split, run, run again, report, score."""
    ep = params("eval_sweep")
    _fresh(out)
    mt = inputs / ("mt_one.jsonl" if one else "mt.jsonl")
    task = inputs / ("task_two.jsonl" if one else "task.jsonl")
    roster = inputs / ("roster_one.yaml" if one else "roster.yaml")
    tasks = ep["tasks"][0] if one else ",".join(ep["tasks"])
    store = out / "store"
    if one:
        shutil.copytree(inputs / "store_one", store)
    template = trainer_template(runner.python, out / "flaky", out / "trainer_log.jsonl")
    p = Pass()
    for name in ("mt_cold.jsonl", "mt_warm.jsonl"):
        p.results.append(runner.lusokit(
            "translate", "--input", str(mt), "--output", str(out / name), "--target", MT_TARGET,
            "--fake", "--cache-dir", str(out / "mt_cache"), "--batch-size", str(ep["mt_batch_size"])))
    p.results.append(runner.lusokit("validate", "--input", str(task), "--task", ep["task"]))
    p.results.append(runner.lusokit(
        "split", "--input", str(task), "--task", ep["task"], "--seed", str(ep["split_seed"]),
        "--output-train", str(out / "train.jsonl"), "--output-dev", str(out / "dev.jsonl")))
    for _ in range(2):
        p.results.append(runner.lusokit(
            "run", "--models", str(roster), "--template", template, "--store", str(store),
            "--tasks", tasks, "--max-workers", str(ep["max_workers"])))
    p.results.append(runner.lusokit("report", "--models", str(roster), "--store", str(store), "--tasks", tasks, "--tsv"))
    if one:
        gold, pred = inputs / "gold_one.jsonl", inputs / "pred_one.jsonl"
    else:
        gold, pred = out / "dev.jsonl", inputs / "pred.jsonl"
    p.results.append(runner.lusokit("score", "--gold", str(gold), "--pred", str(pred), "--task", ep["task"]))
    return p


def eval_setup(runner: Runner, inputs: Path, out: Path) -> Pass:
    p = eval_pass(runner, inputs, out, one=True)
    for r in p.results:
        p.expect(r, 0)
    p.expect(p.results[4], 0, "attempted=0 succeeded=0 failed=0 already_done=36 claimed_elsewhere=0")
    return p


def check_eval(p: Pass, led: dict, out: Path) -> int:
    """Check one eval pass; returns the number of failed operations.

    An operation is one translated text or one grid run. Command-level
    mismatches count as one failed operation each.
    """
    cold, warm, validate, split, run1, run2, report, score = p.results
    n = led["mt_texts"]
    failed_ops = 0
    p.expect(cold, 0, f"translated={n} rejected=0 requests={led['mt_cold_requests']}")
    p.expect(warm, 0, f"translated={n} rejected=0 requests=0")
    for name in ("mt_cold.jsonl", "mt_warm.jsonl"):
        path = out / name
        rows = [json.loads(line) for line in path.open(encoding="utf-8")] if path.exists() else []
        got = {row.get("id"): row.get("text") for row in rows}
        wrong = sum(got.get(f"mt{i}") != text for i, text in enumerate(led["mt_expected"]))
        if wrong or len(rows) != n:
            p.failures.append(f"{name}: {wrong} of {n} translations differ from the ledger ({len(rows)} rows)")
        failed_ops += wrong
    p.expect(validate, 0, f"valid={led['task_examples']} violations=0")
    dev = len(led["dev_ids"])
    p.expect(split, 0, f"split {led['task_examples']} examples into train={led['train']} dev={dev} "
             f"(seed {params('eval_sweep')['split_seed']})")
    dev_path = out / "dev.jsonl"
    dev_ids = [json.loads(line)["id"] for line in dev_path.open(encoding="utf-8")] if dev_path.exists() else []
    if dev_ids != led["dev_ids"]:
        p.failures.append("split: dev ids differ from the ledger")
    runs, fails = led["runs"], led["first_pass_failures"]
    p.expect(run1, 1 if fails else 0,
             f"attempted={runs} succeeded={runs - fails} failed={fails} already_done=0 claimed_elsewhere=0")
    p.expect(run2, 0, f"attempted={fails} succeeded={fails} failed=0 already_done={runs - fails} claimed_elsewhere=0")
    failed_ops += check_store(p, led, out)
    rows = [line.split("\t") for line in report.stdout.strip().splitlines()[1:]]
    cells = {f"{r[0]}\t{r[1]}": (r[2], r[3], r[4]) for r in rows if len(r) == 5}
    expected = {k: (v, "36", "36") for k, v in led["cells"].items()}
    p.expect(report, 0, f"cells={len(expected)} incomplete=0")
    if cells != expected:
        p.failures.append(f"report: cells {cells} differ from the ledger {expected}")
    p.expect(score, 0)
    if score.stdout.strip() != f"accuracy={led['accuracy']}":
        p.failures.append(f"score: {score.stdout.strip()!r}, ledger says accuracy={led['accuracy']}")
    return failed_ops + len(p.failures)


def trainer_invocations(log: Path) -> Counter:
    if not log.exists():
        return Counter()
    return Counter(json.loads(line)["run_key"] for line in log.open(encoding="utf-8"))


def duplicate_invocations(led: dict, calls: Counter) -> int:
    """Invocations beyond the one (or, for fail-once keys, two) each key needs."""
    import oracle

    rate = params("eval_sweep")["fail_rate"]
    return sum(
        max(0, calls[key] - (2 if oracle.fails_first(key, rate) else 1)) for key in calls
    )


def check_store(p: Pass, led: dict, out: Path) -> int:
    """Every run ok with the trainer's scores; no key re-run after success."""
    import oracle

    latest = {}
    path = out / "store" / "results.jsonl"
    if path.exists():
        for line in path.open(encoding="utf-8"):
            rec = json.loads(line)
            latest[rec["run_key"]] = rec
    bad = 0
    for key in led["run_keys"]:
        rec = latest.get(key)
        if rec is None or rec.get("status") != "ok" or (rec.get("dev"), rec.get("test")) != oracle.trainer_scores(key):
            bad += 1
    if bad or len(latest) != led["runs"]:
        p.failures.append(f"store: {bad} of {led['runs']} runs not ok with the trainer's scores")
    calls = trainer_invocations(out / "trainer_log.jsonl")
    dup = duplicate_invocations(led, calls)
    if dup:
        p.failures.append(f"trainer log: {dup} invocations after the key had succeeded")
    if set(calls) != set(led["run_keys"]):
        p.failures.append("trainer log: invoked keys differ from the ledger's run keys")
    return bad + dup


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
