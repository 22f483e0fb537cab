"""lusokit benchmark: one command, seeded inputs, checked outputs.

    python3 bench/run.py --workload crawl_zipf --seed 1 --seconds 50 --trace 0

Run from any directory; the checkout is the parent of this file's
directory and lusokit is imported from its src/. Inputs are generated
from --seed under .bench_work/ in the checkout, which is removed again
when the run ends (only a small result JSON is kept there).

--trace 0 drives the lusokit CLI as child processes and prints the
end-to-end metrics. --trace 1 runs one CLI pass for the per-command
numbers, then calls each layer's public functions in this process,
untraced and traced, and prints the per-layer metrics, the tracing
overhead and a cProfile top-5 of the slowest crawl stage.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A failed output check makes the command
exit 1 after printing every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from procs import Runner

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SETUP_REPS = 3  # alternating with the passes, so setup and passes see the same drift
MIN_PASSES = 2  # a median over fewer passes is a single sample
STARTUP_REPS = 5

CRAWL_CLI = ("ingest", "split-variant", "curate", "dedup", "stats", "pack")
EVAL_CLI = ("translate", "validate", "split", "run", "report", "score")

# The metric set is BENCHMARK.json's: end-to-end metrics for --trace 0,
# per-layer metrics for --trace 1, where a layer the workload leaves idle
# reports 0.
_SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

CAVEATS = (
    "An fsync costs about 0.08 ms on the reference machine's disk, so "
    "experiments.store.append_us says nothing about real disks; compare "
    "experiments.store.fsyncs as a count instead.",
    "One run process with --max-workers 2 is used: two-process claim "
    "contention double-executes runs at random, so it belongs in "
    "deterministic tests, not in a steady metric.",
    "ok_fraction is 1 - error_rate: a gated metric must never be 0.",
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _git_sha() -> str:
    if not (CHECKOUT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cli_metrics(passes_run, names) -> dict:
    out = {}
    for name in names:
        out[f"cli.{name}.s"] = _median([p.seconds(name) for p in passes_run])
        out[f"cli.{name}.max_rss_mb"] = max(p.max_rss_mb(name) for p in passes_run)
    return out


@dataclass
class CliRun:
    """What the untraced CLI passes of one run measured and found."""

    setups: list
    passes: list
    failures: list[str]
    attempted: int
    failed: int
    output_mb: float
    workload: dict  # workload-level metrics (mwords_per_s, runs_per_s, ...) and cli.* per command


def _interleaved(setup, one_pass, seconds, reps, min_passes) -> tuple[list, list]:
    """Setup reps and passes alternate, so both see the same drift.

    `reps` setups, at least `min_passes` passes, and more passes while
    one more, as long as the last, still ends within `seconds`.
    """
    setups, done = [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        if len(setups) < reps:
            setups.append(setup())
        if len(done) >= min_passes and time.perf_counter() - start + last > seconds:
            if len(setups) >= reps:
                return setups, done
            continue
        begun = time.perf_counter()
        done.append(one_pass())
        last = time.perf_counter() - begun


def _crawl_cli(runner, inputs, work, led, seconds, reps, min_passes) -> CliRun:
    import passes

    raw_bytes = (inputs / "raw.jsonl").stat().st_size

    def one_pass():
        p = passes.crawl_pass(runner, inputs, work / "pass")
        passes.guarded(passes.check_crawl_summaries, p, led, raw_bytes)
        return p

    setups, done = _interleaved(lambda: passes.crawl_setup(runner, inputs, work / "setup", led),
                                one_pass, seconds, reps, min_passes)
    passes.guarded(passes.check_crawl_files, done[-1], led, work / "pass")
    failures = [f for p in setups + done for f in p.failures]
    attempted = len(CRAWL_CLI) * (len(setups) + len(done))
    packed_mb = passes.dir_bytes(work / "pass" / "packed") / 1e6
    workload = {
        "mwords_per_s": led["input_words"] / _median([p.wall_s for p in done]) / 1e6,
        "packed_mb": packed_mb,
        **_cli_metrics(done, CRAWL_CLI),
    }
    return CliRun(setups, done, failures, attempted, min(len(failures), attempted), packed_mb, workload)


def _eval_cli(runner, inputs, work, led, seconds, reps, min_passes) -> CliRun:
    import passes

    failed = 0

    def one_pass():
        nonlocal failed
        p = passes.eval_pass(runner, inputs, work / "pass")
        failed += passes.guarded(passes.check_eval, p, led, work / "pass")
        return p

    setups, done = _interleaved(lambda: passes.eval_setup(runner, inputs, work / "setup"),
                                one_pass, seconds, reps, min_passes)
    failed += sum(len(p.failures) for p in setups)
    failures = [f for p in setups + done for f in p.failures]
    attempted = len(setups) * len(passes.EVAL_COMMANDS) + len(done) * (2 * led["mt_texts"] + led["runs"])
    out = work / "pass"
    output_mb = (passes.dir_bytes(out / "store") + passes.dir_bytes(out / "mt_cache")) / 1e6
    runs = [p.results for p in done]
    workload = {
        "runs_per_s": _median([led["runs"] / r[4].wall_s for r in runs]),
        "resume_s": _median([r[5].wall_s + r[6].wall_s for r in runs]),
        "mt_cold_texts_per_s": _median([led["mt_texts"] / r[0].wall_s for r in runs]),
        "mt_warm_texts_per_s": _median([led["mt_texts"] / r[1].wall_s for r in runs]),
        **_cli_metrics(done, EVAL_CLI),
    }
    return CliRun(setups, done, failures, attempted, min(failed, attempted), output_mb, workload)


def measure(runner, workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import generate

    inputs = work / "inputs"
    led = generate.generate(workload, seed, inputs)
    runner.lusokit("--version")  # compiles bytecode so no timed command pays for it
    cli = _eval_cli if workload == "eval_sweep" else _crawl_cli
    extra: dict = {}
    if not trace:
        run = cli(runner, inputs, work, led, seconds, SETUP_REPS, MIN_PASSES)
        metrics = {
            "setup_s": _median([p.wall_s for p in run.setups]),
            "pass_s": _median([p.wall_s for p in run.passes]),
            "peak_rss_mb": runner.peak_rss_mb,
            "output_mb": run.output_mb,
            "ok_fraction": 1.0 - run.failed / run.attempted,
        }
        failures, attempted, failed = run.failures, run.attempted, run.failed
        extra["workload_metrics"] = {**run.workload, "error_rate": failed / attempted}
        extra["pass_walls_s"] = [p.wall_s for p in run.passes]
        extra["setup_walls_s"] = [p.wall_s for p in run.setups]
    else:
        import traced

        start = time.perf_counter()
        startup = [runner.lusokit("--version").wall_s for _ in range(STARTUP_REPS)]
        run = cli(runner, inputs, work, led, 0, 0, 1)
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(run.workload)
        metrics["cli.startup_s"] = _median(startup)
        layer, problems, extra_traced = traced.traced_run(
            workload, inputs, work / "inproc", led, runner.python, seconds - (time.perf_counter() - start))
        metrics.update(layer)
        if set(metrics) != set(PER_LAYER):
            raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(set(metrics) - set(PER_LAYER))}")
        failures = run.failures + problems
        attempted = run.attempted + len(extra_traced["self_s"])
        failed = min(run.failed + len(problems), attempted)
        metrics["error_rate"] = failed / attempted
        extra.update(extra_traced)
    return {"metrics": metrics, "failures": failures, "attempted": attempted, "failed": failed,
            "extra": extra}


def _print_human(workload, seed, trace, result, meta) -> None:
    print(f"# lusokit benchmark: workload={workload} seed={seed} trace={int(trace)}")
    shown = dict(result["metrics"])
    shown.update(result["extra"].get("workload_metrics", {}))
    for name, value in shown.items():
        print(f"{name:44s} {value:14.6g} {UNITS.get(name, '')}")
    profile = result["extra"].get("profile")
    if profile:
        print(f"# cProfile top-5 by own time, stage {profile['stage']} re-run alone:")
        for row in profile["top"]:
            print(f"#   {row['tottime_s']:8.4f} s own {row['cumtime_s']:8.4f} s cum "
                  f"{row['calls']:>9} calls  {row['function']}")
    for failure in result["failures"]:
        print(f"# FAILED CHECK: {failure}")
    print("# meta " + json.dumps(meta, ensure_ascii=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("crawl_zipf", "crawl_longtail", "eval_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "lusokit" / "cli.py").is_file():
        print(f"error: no lusokit sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    root = CHECKOUT / ".bench_work"
    work = root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # The launcher must start while this process is still small; see procs.py.
        with Runner(CHECKOUT, work) as runner:
            sys.path.insert(0, str(CHECKOUT / "src"))
            os.environ["PYTHONPATH"] = runner.env["PYTHONPATH"]  # for trainers the traced run starts
            result = measure(runner, args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import numpy

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "git_sha": _git_sha(), "setup_reps": SETUP_REPS, "caveats": CAVEATS,
    }
    if args.trace:
        meta["tracing_overhead_s"] = result["metrics"]["trace.overhead_s"]
    _print_human(args.workload, args.seed, args.trace, result, meta)
    (root / "results").mkdir(exist_ok=True)
    (root / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1, ensure_ascii=False, default=str) + "\n",
        encoding="utf-8")
    names = PER_LAYER if args.trace else END_TO_END
    correct = result["failed"] == 0 and not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": max(result["failed"], 0 if correct else 1),
        "metrics": {n: {"value": result["metrics"][n], "unit": UNITS[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
