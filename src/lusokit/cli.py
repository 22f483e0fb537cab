"""Command-line entry point.

One executable, one subcommand per pipeline step. Exit codes: 0 on
success (including runs whose whole point is reporting rejections),
1 when input data violates a contract, 2 for configuration and usage
errors, 3 when a worker process dies, 130 when interrupted (SIGINT).
Diagnostics go to stderr; data goes to stdout or the file the user named.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import stat
import sys
from collections import Counter
from contextlib import ExitStack, closing
from functools import reduce
from itertools import count, islice
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from lusokit import DEFAULT_SPLIT_SEED, __version__
from lusokit.corpus_io import (
    FORMAT_LINE_DELIMITED,
    FORMAT_PLAIN_TEXT_BLOCKS,
    IngestReport,
    Source,
    parse_source,
    parse_units,
    read_units,
    record_to_json,
)
from lusokit.errors import ConfigurationError, DataError, WorkerDied

# Each command imports the rest of what it uses, so no command pays at
# start-up for another's modules (yaml, requests, the experiment and
# benchmark modules). No command imports numpy.

log = logging.getLogger("lusokit")

# Input units (lines, or blocks for --format blocks) per chunk: a worker
# process reads and parses one chunk at a time, and each chunk's result
# is one message back to the command's process.
CHUNK_RECORDS = 256


def _check_outputs(path: str, outputs: Sequence[Optional[str]]) -> None:
    """Refuse an output that is the input at path or another output: the same
    regular file or path not made yet (so /dev/null may be named twice)."""
    named = [out for out in outputs if out]
    for i, out in enumerate(named):
        for other in [path, *named[:i]]:
            try:
                a, b = os.stat(out), os.stat(other)
            except FileNotFoundError:
                same = Path(out).resolve() == Path(other).resolve()
            else:
                same = stat.S_ISREG(a.st_mode) and os.path.samestat(a, b)
            if same:
                raise ConfigurationError(f"output {out} is the same file as {other}")


def _map_corpus(
    path: str, work: Callable, outputs: Sequence[Optional[str]] = (),
    format: str = FORMAT_LINE_DELIMITED, default_source: Source = Source.OTHER,
) -> tuple[Iterator, IngestReport]:
    """(values, report) of work over the records of the corpus at path.

    ``process_map``'s workers each reopen the input, split it into chunks
    of CHUNK_RECORDS raw units (``read_units``), and parse their own chunks
    (``parse_units``) into work(records): UTF-8 bytes per output path and a
    value. Only that result crosses back; this process writes the bytes in
    input order (a None path's to devnull), and report sums the ingest
    counts once the values are exhausted. An input that is not a regular file (a FIFO, /dev/stdin)
    cannot be reread by each worker, so it runs in this process. An output
    that is the input or another output is refused before any is opened.
    """
    from lusokit.fanout import process_map

    _check_outputs(path, outputs)
    handle = open(path, "rb")  # an unreadable input fails here, before any output exists
    rereadable = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    report = IngestReport()

    def chunks():
        """(start, units) per chunk: the first call reads the handle opened
        above, and each later one (a worker's) reopens the path."""
        nonlocal handle
        file, handle = handle or open(path, "rb"), None
        with file:
            units = read_units(file, format)
            for start in count(0, CHUNK_RECORDS):  # every chunk but the last is full
                raw = list(islice(units, CHUNK_RECORDS))
                if not raw:
                    return
                yield start, raw

    def run(chunk):
        start, raw = chunk
        records, counts = parse_units(raw, start, format, default_source, Path(path).name)
        return work(list(records)), counts

    def values():
        with ExitStack() as stack:
            files = [stack.enter_context(open(out or os.devnull, "wb")) for out in outputs]
            results = process_map(run, chunks) if rereadable else (run(c) for c in chunks())
            for (texts, value), counts in stack.enter_context(closing(results)):
                for file, text in zip(files, texts):
                    file.write(text)
                report.records_read += counts.records_read
                report.records_malformed += counts.records_malformed
                report.bytes_read += counts.bytes_read
                yield value

    return values(), report


def _jsonl(records) -> bytes:
    return "".join(record_to_json(record) + "\n" for record in records).encode("utf-8")


def _cmd_ingest(args: argparse.Namespace) -> int:
    written, report = _map_corpus(
        args.input,
        lambda records: ([_jsonl(records)], len(records)),
        [args.output],
        args.format,
        parse_source(args.source),
    )
    print(
        f"ingested {sum(written)} records "
        f"({report.records_malformed} malformed units skipped, "
        f"{report.bytes_read} bytes read)",
        file=sys.stderr,
    )
    return 0


def _cmd_split_variant(args: argparse.Namespace) -> int:
    from lusokit.variants import Variant, classify_variant

    def split(records):
        variants = list(map(classify_variant, records))
        texts = [_jsonl(r for r, v in zip(records, variants) if v is want) for want in Variant]
        return texts, Counter(variants)

    outputs = [args.output_ptpt, args.output_ptbr, args.output_discard]  # in Variant order
    counts = sum(_map_corpus(args.input, split, outputs)[0], Counter())
    print(
        f"ptpt={counts[Variant.PTPT]} ptbr={counts[Variant.PTBR]} "
        f"discarded={counts[Variant.DISCARD]}",
        file=sys.stderr,
    )
    return 0


def _cmd_curate(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from lusokit.config import PipelineConfig
    from lusokit.curation import curate_stream

    pipeline_cfg = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    filter_cfg, blocklist = pipeline_cfg.make_filter_config(), pipeline_cfg.make_blocklist()

    def curate(records):
        rows = []

        def on_reject(record, stage, decision):
            obj = {"id": record.id, "stage": stage}
            if decision is not None:
                obj["rule"] = decision.rejected_by
            rows.append(json.dumps(obj, ensure_ascii=False) + "\n")

        kept, stats = curate_stream(records, filter_cfg, blocklist, on_reject=on_reject)
        texts = [_jsonl(kept), "".join(rows).encode("utf-8")]  # stats, rows final once kept is read
        return texts, Counter(asdict(stats))

    counts = sum(_map_corpus(args.input, curate, [args.output, args.rejects])[0], Counter())
    print(
        f"kept={counts['kept']} blocklisted={counts['blocklisted']} rejected={counts['rejected']}",
        file=sys.stderr,
    )
    return 0


def _cmd_dedup(args: argparse.Namespace) -> int:
    from lusokit.curation import DedupStats, first_wins, text_digest

    _check_outputs(args.input, [args.output])
    chunks, _ = _map_corpus(
        args.input, lambda records: ([], [(text_digest(r.text), _jsonl([r])) for r in records])
    )
    seen: set[bytes] = set()  # across chunks, in this process
    stats = DedupStats()
    with open(args.output, "wb") as out:
        for pairs in chunks:  # each chunk's kept lines are written as it is read
            out.write(b"".join(first_wins(pairs, seen, stats)))
    print(f"kept={stats.kept} duplicates={stats.duplicates}", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from lusokit.stats import CorpusStats, Scale, count_stats, render_report, render_tsv

    names = args.names.split(",") if args.names else None
    if names is not None and len(names) != len(args.input):
        raise ConfigurationError(
            f"--names lists {len(names)} names for {len(args.input)} inputs"
        )
    all_stats = []
    for i, path in enumerate(args.input):
        name = names[i] if names else Path(path).stem
        counts, _ = _map_corpus(path, lambda records, name=name: ([], count_stats(records, name)))
        all_stats.append(reduce(CorpusStats.merged, counts, CorpusStats(name)))
    scale = Scale.MILLIONS_BILLIONS if args.scale == "mb" else Scale.UNIT
    renderer = render_tsv if args.tsv else render_report
    print(renderer(all_stats, scale))
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from lusokit.packing import (
        ShardWriter,
        TruncationSchedule,
        cap_rows,
        plan_device_split,
        write_view,
    )
    from lusokit.tokenizer import load_vocabulary, tokenize_flat

    if (args.global_batch is None) != (args.devices is None):
        raise ConfigurationError("--global-batch and --devices must be given together")
    per_device_batch = None
    if args.global_batch is not None:
        try:
            per_device_batch = plan_device_split(args.global_batch, args.devices)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
    schedule = TruncationSchedule.parse(args.schedule)
    caps = [cap for cap, _steps in schedule.stages]
    top = caps[-1]
    vocab = load_vocabulary(args.vocab)
    memo: dict = {}  # word -> ids as shard bytes; each worker fills its own copy

    def tokenize_chunk(records):
        """Ids capped at the top cap as shard bytes (<u2 for a vocabulary of at
        most 65,536 pieces, <i4 otherwise), kept lengths, rows over the cap."""
        ids, lengths = tokenize_flat([record.text for record in records], vocab, memo)
        return [], (*cap_rows(ids, lengths, top), sum(n > top for n in lengths))

    chunks, _ = _map_corpus(args.input, tokenize_chunk)

    # The top stage's shard appears whole once written (ShardWriter); each
    # smaller stage is then a cap view of it, and the manifest comes last.
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / f"stage_{top}.bin"
    manifest_path = out_dir / "manifest.json"
    truncated_at_top = 0
    with ShardWriter(base, top, vocab.pad_id, len(vocab)) as writer:
        for ids, kept, cut in chunks:
            writer.append(ids, kept)
            truncated_at_top += cut
        if not writer.rows:
            raise DataError(f"{args.input} has no records to pack")
        manifest_path.unlink(missing_ok=True)
    for cap in caps[:-1]:
        write_view(out_dir / f"stage_{cap}.bin", base, cap)
    # Capping a row at top, then at a smaller cap, caps it at that cap.
    lengths = writer.lengths
    manifest: dict = {
        "records": writer.rows,
        "schedule": [
            {"max_len": cap, "steps": steps} for cap, steps in schedule.stages
        ],
        "stages": [
            {
                "max_len": cap,
                "shard": f"stage_{cap}.bin",
                "rows": writer.rows,
                "width": min(max(lengths), cap),
                "tokens": sum(min(n, cap) for n in lengths),
                "truncated_rows": (
                    truncated_at_top if cap == top else sum(n > cap for n in lengths)
                ),
            }
            for cap in caps
        ],
    }
    if per_device_batch is not None:
        manifest["per_device_batch"] = per_device_batch
    manifest_path.write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(
        f"packed {writer.rows} records into {len(schedule.stages)} stage shards "
        f"under {out_dir}",
        file=sys.stderr,
    )
    return 0


def _require_task(name: str):
    from lusokit.benchmarks import TASKS

    if name not in TASKS:
        raise ConfigurationError(
            f"unknown task {name!r}; known tasks: {', '.join(TASKS)}"
        )
    return TASKS[name]


def _cmd_split(args: argparse.Namespace) -> int:
    from lusokit.benchmarks import read_task_examples, split_90_10, validate_examples, write_task_examples

    _check_outputs(args.input, [args.output_train, args.output_dev])
    spec = _require_task(args.task)
    examples = read_task_examples(args.input)
    _, violations = validate_examples(examples, spec)
    if violations:
        for v in violations[:20]:
            print(f"{v.example_id}\t{v.field}\t{v.message}", file=sys.stderr)
        raise DataError(
            f"{args.input} has {len(violations)} schema violations for task {args.task}"
        )
    try:
        result = split_90_10(examples, args.seed)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    write_task_examples(args.output_train, result.train)
    write_task_examples(args.output_dev, result.dev)
    print(
        f"split {len(examples)} examples into train={len(result.train)} "
        f"dev={len(result.dev)} (seed {args.seed})",
        file=sys.stderr,
    )
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    import dataclasses

    from lusokit.corpus_io import read_records, write_records
    from lusokit.translate import (
        FakeReversingClient,
        HttpMTClient,
        TranslationCache,
        translate_dataset,
    )

    _check_outputs(args.input, [args.output])
    for flag, value in (("--batch-size", args.batch_size), ("--max-workers", args.max_workers)):
        if value < 1:
            raise ConfigurationError(f"{flag} must be positive, got {value}")
    materialized = list(read_records(args.input)[0])
    texts = [record.text for record in materialized]
    if args.fake:
        client = FakeReversingClient()
    else:
        if not args.endpoint:
            raise ConfigurationError("--endpoint is required unless --fake is given")
        client = HttpMTClient(args.endpoint)
    cache = TranslationCache(args.cache_dir, texts=texts) if args.cache_dir else None
    try:
        outcome = translate_dataset(
            texts,
            args.target,
            client,
            cache=cache,
            batch_size=args.batch_size,
            max_workers=args.max_workers,
        )
    finally:
        if not args.fake:
            client.close()
    pairs = zip(materialized, outcome.translations)
    translated = [dataclasses.replace(r, text=t) for r, t in pairs if t is not None]
    written = write_records(translated, args.output)
    for idx, message in outcome.rejects:
        log.warning("rejected %s: %s", materialized[idx].id, message)
    print(
        f"translated={written} rejected={len(outcome.rejects)} "
        f"requests={outcome.requests_issued}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from lusokit.benchmarks import read_task_examples, validate_examples

    spec = _require_task(args.task)
    valid, violations = validate_examples(read_task_examples(args.input), spec)
    for v in violations:
        print(f"{v.example_id}\t{v.field}\t{v.message}")
    print(f"valid={valid} violations={len(violations)}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from lusokit.experiments.grid import build_matrix, load_roster

    _check_outputs(args.models, [args.output])
    models = load_roster(args.models)
    runs = build_matrix(models, split_seed=args.split_seed)
    if args.count:
        print(len(runs))
        return 0
    out = Path(args.output).open("w", encoding="utf-8") if args.output else sys.stdout
    try:
        for run in runs:
            out.write(json.dumps(run.to_dict(), ensure_ascii=False) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"{len(runs)} runs", file=sys.stderr)
    return 0


def _selected_tasks(names: Optional[str]):
    if not names:
        return None
    selected = [name.strip() for name in names.split(",")]
    tasks = [_require_task(name) for name in selected]
    for name, n in Counter(selected).items():
        if n > 1:
            raise ConfigurationError(f"--tasks names {name} {'twice' if n == 2 else f'{n} times'}")
    return tasks


def _cmd_run(args: argparse.Namespace) -> int:
    from lusokit.experiments.grid import build_matrix, load_roster
    from lusokit.experiments.runner import run_matrix
    from lusokit.experiments.store import ResultsStore

    models = load_roster(args.models)
    tasks = _selected_tasks(args.tasks)
    runs = build_matrix(models, tasks=tasks, split_seed=args.split_seed)

    def progress(record: dict) -> None:
        print(f"{record['status']} {record['run_key']} {record['model']} "
              f"{record['task']} {record['duration_s']:.3f}s", file=sys.stderr)

    summary = run_matrix(
        runs,
        args.template,
        ResultsStore(args.store),
        max_workers=args.max_workers,
        timeout=args.timeout,
        progress=progress,
    )
    print(
        f"attempted={summary.attempted} succeeded={summary.succeeded} "
        f"failed={summary.failed} already_done={summary.skipped_completed} "
        f"claimed_elsewhere={summary.skipped_claimed}",
        file=sys.stderr,
    )
    return 0 if summary.failed == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from lusokit.experiments.aggregate import aggregate_cells, render_cell_table, render_cell_tsv
    from lusokit.experiments.grid import load_roster
    from lusokit.experiments.store import ResultsStore

    models = load_roster(args.models)
    tasks = _selected_tasks(args.tasks)
    store = ResultsStore(args.store)
    cells = aggregate_cells(
        store.load(), models, tasks=tasks, split_seed=args.split_seed
    )
    renderer = render_cell_tsv if args.tsv else render_cell_table
    print(renderer(cells))
    incomplete = sum(1 for c in cells if not c.complete)
    print(f"cells={len(cells)} incomplete={incomplete}", file=sys.stderr)
    return 0


def _read_predictions(path: str | Path) -> dict[str, object]:
    from lusokit.benchmarks import read_jsonl_rows

    preds: dict[str, object] = {}
    for line_no, obj in read_jsonl_rows(path):
        if not isinstance(obj, dict) or "id" not in obj or "prediction" not in obj:
            raise DataError(f"{path}:{line_no}: need 'id' and 'prediction' keys")
        example_id = obj["id"]
        if not isinstance(example_id, str):
            raise DataError(f"{path}:{line_no}: prediction id must be a string, got {example_id!r}")
        if example_id in preds:
            raise DataError(f"{path}:{line_no}: duplicate prediction for {example_id!r}")
        preds[example_id] = obj["prediction"]
    return preds


def _cmd_score(args: argparse.Namespace) -> int:
    from lusokit.benchmarks import read_task_examples
    from lusokit.metrics import UNDEFINED, score

    spec = _require_task(args.task)
    gold = read_task_examples(args.gold)
    preds = _read_predictions(args.pred)
    pairs = []
    for ex in gold:
        if ex.example_id not in preds:
            raise DataError(f"no prediction for example {ex.example_id!r}")
        pairs.append((ex.label, preds[ex.example_id]))
    extra = set(preds) - {ex.example_id for ex in gold}
    if extra:
        raise DataError(f"predictions for unknown example ids: {sorted(extra)[:5]}")
    if not pairs:
        raise DataError(f"{args.gold} has no examples")
    try:
        value = score(spec.metric.value, pairs)
    except (TypeError, ValueError) as exc:  # Pearson on non-numbers or on one point
        raise DataError(f"cannot compute {spec.metric.value}: {exc}") from None
    if value is UNDEFINED:
        print(f"{spec.metric.value}=undefined")
    else:
        print(f"{spec.metric.value}={value:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="store_true", help="debug logging on stderr"
    )

    parser = argparse.ArgumentParser(
        prog="lusokit",
        description="Corpus curation and evaluation toolkit for Portuguese variants.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", parents=[common], help="normalize raw corpus files")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    formats = sorted([FORMAT_LINE_DELIMITED, FORMAT_PLAIN_TEXT_BLOCKS])
    p.add_argument("--format", choices=formats, default=FORMAT_LINE_DELIMITED)
    p.add_argument("--source", default=None, help="source label for records without one")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "split-variant", parents=[common], help="partition records by URL domain"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--output-ptpt", required=True)
    p.add_argument("--output-ptbr", required=True)
    p.add_argument("--output-discard", default=None)
    p.set_defaults(func=_cmd_split_variant)

    p = sub.add_parser("curate", parents=[common], help="apply blocklist and quality rules")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", default=None, help="pipeline config YAML (rules and blocklist)")
    p.add_argument("--rejects", default=None, help="write rejected ids and rules here")
    p.set_defaults(func=_cmd_curate)

    p = sub.add_parser("dedup", parents=[common], help="drop exact duplicate texts")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_dedup)

    p = sub.add_parser("stats", parents=[common], help="example and word counts")
    p.add_argument("--input", required=True, nargs="+")
    p.add_argument("--names", default=None, help="comma-separated dataset names")
    p.add_argument("--scale", choices=["unit", "mb"], default="unit")
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("pack", parents=[common], help="tokenize and pack stage shards")
    p.add_argument("--input", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--schedule", required=True, help="e.g. 128:250000,256:80000,512:60000")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--global-batch", type=int, default=None)
    p.add_argument("--devices", type=int, default=None)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("split", parents=[common], help="90/10 train/dev split")
    p.add_argument("--input", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output-train", required=True)
    p.add_argument("--output-dev", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("translate", parents=[common], help="machine-translate record texts")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--target", required=True, help="e.g. PT-PT or PT-BR")
    p.add_argument("--fake", action="store_true", help="offline word-reversing client")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--batch-size", type=int, default=50)
    p.add_argument("--max-workers", type=int, default=1)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("validate", parents=[common], help="check a task file's schema")
    p.add_argument("--input", required=True)
    p.add_argument("--task", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("matrix", parents=[common], help="expand the run matrix")
    p.add_argument("--models", required=True, help="roster YAML")
    p.add_argument("--count", action="store_true", help="print the run count only")
    p.add_argument("--output", default=None)
    p.add_argument("--split-seed", type=int, default=DEFAULT_SPLIT_SEED)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("run", parents=[common], help="execute the run matrix")
    p.add_argument("--models", required=True)
    p.add_argument("--template", required=True, help="trainer command template")
    p.add_argument("--store", required=True, help="results store directory")
    p.add_argument("--tasks", default=None, help="comma-separated task subset")
    p.add_argument("--max-workers", type=int, default=1)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--split-seed", type=int, default=DEFAULT_SPLIT_SEED)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", parents=[common], help="aggregate stored results")
    p.add_argument("--models", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--tasks", default=None)
    p.add_argument("--tsv", action="store_true")
    p.add_argument("--split-seed", type=int, default=DEFAULT_SPLIT_SEED)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("score", parents=[common], help="score predictions for a task")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--task", required=True)
    p.set_defaults(func=_cmd_score)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.func(args)
    except (ConfigurationError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DataError) else 2
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
