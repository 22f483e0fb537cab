"""Command-line entry point.

One executable, one subcommand per pipeline step. Exit codes: 0 on
success (including runs whose whole point is reporting rejections),
1 when input data violates a contract, 2 for configuration and usage
errors. Diagnostics go to stderr; data goes to stdout or the file the
user named.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from itertools import islice, tee
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from lusokit import DEFAULT_SPLIT_SEED, __version__
from lusokit.corpus_io import (
    FORMAT_LINE_DELIMITED,
    FORMAT_PLAIN_TEXT_BLOCKS,
    parse_source,
    read_records,
    record_to_json,
    write_records,
)
from lusokit.errors import ConfigurationError, DataError

if TYPE_CHECKING:
    from lusokit.config import PipelineConfig
    from lusokit.curation import Blocklist

# Each command imports the rest of what it uses, so no command pays at
# start-up for another's modules (yaml, numpy, requests, the experiment
# and benchmark modules).

log = logging.getLogger("lusokit")

_FORMAT_ALIASES = {
    "jsonl": FORMAT_LINE_DELIMITED,
    "blocks": FORMAT_PLAIN_TEXT_BLOCKS,
}


def _cmd_ingest(args: argparse.Namespace) -> int:
    records, report = read_records(
        args.input,
        format=_FORMAT_ALIASES[args.format],
        default_source=parse_source(args.source),
    )
    written = write_records(records, args.output)
    print(
        f"ingested {written} records "
        f"({report.records_malformed} malformed units skipped, "
        f"{report.bytes_read} bytes read)",
        file=sys.stderr,
    )
    return 0


def _cmd_split_variant(args: argparse.Namespace) -> int:
    from lusokit.variants import Variant, classify_variant

    records, _ = read_records(args.input)
    outputs = {
        Variant.PTPT: Path(args.output_ptpt).open("w", encoding="utf-8"),
        Variant.PTBR: Path(args.output_ptbr).open("w", encoding="utf-8"),
    }
    discard_handle = (
        Path(args.output_discard).open("w", encoding="utf-8")
        if args.output_discard
        else None
    )
    counts = {Variant.PTPT: 0, Variant.PTBR: 0, Variant.DISCARD: 0}
    try:
        for record in records:
            variant = classify_variant(record)
            counts[variant] += 1
            if variant is Variant.DISCARD:
                if discard_handle is not None:
                    discard_handle.write(record_to_json(record) + "\n")
                continue
            outputs[variant].write(record_to_json(record) + "\n")
    finally:
        for handle in outputs.values():
            handle.close()
        if discard_handle is not None:
            discard_handle.close()
    print(
        f"ptpt={counts[Variant.PTPT]} ptbr={counts[Variant.PTBR]} "
        f"discarded={counts[Variant.DISCARD]}",
        file=sys.stderr,
    )
    return 0


def _load_blocklist(args: argparse.Namespace, cfg: Optional[PipelineConfig]) -> Blocklist:
    from lusokit.config import load_domain_list
    from lusokit.curation import Blocklist

    exact = frozenset()
    suffix = frozenset()
    if cfg is not None:
        block = cfg.make_blocklist()
        exact, suffix = block.exact_domains, block.suffix_domains
    if getattr(args, "blocklist_exact", None):
        exact = exact | load_domain_list(args.blocklist_exact)
    if getattr(args, "blocklist_suffix", None):
        suffix = suffix | load_domain_list(args.blocklist_suffix)
    return Blocklist(exact_domains=exact, suffix_domains=suffix)


# Records (curate) or texts (pack) per chunk a worker process handles.
CHUNK_RECORDS = 64


def _chunks(items, size: int):
    items = iter(items)
    return iter(lambda: list(islice(items, size)), [])


def _cmd_curate(args: argparse.Namespace) -> int:
    import numpy  # noqa: F401  (the quality rules use it; imported once, before the workers fork)

    from lusokit.config import PipelineConfig
    from lusokit.curation import FilterConfig, curate_stream
    from lusokit.fanout import process_map

    pipeline_cfg = PipelineConfig.load(args.config) if args.config else None
    filter_cfg = (
        pipeline_cfg.make_filter_config()
        if pipeline_cfg is not None
        else FilterConfig.default()
    )
    blocklist = _load_blocklist(args, pipeline_cfg)
    records, _ = read_records(args.input)

    def curate_chunk(chunk):
        """(kept positions, reject rows, (kept, blocklisted, rejected))."""
        rows = []

        def on_reject(record, stage, decision):
            obj = {"id": record.id, "stage": stage}
            if decision is not None:
                obj["rule"] = decision.rejected_by
            rows.append(json.dumps(obj, ensure_ascii=False) + "\n")

        kept, stats = curate_stream(
            chunk, filter_cfg, blocklist, on_reject=on_reject if args.rejects else None
        )
        position = {id(record): i for i, record in enumerate(chunk)}
        positions = [position[id(record)] for record in kept]
        return positions, rows, (stats.kept, stats.blocklisted, stats.rejected)

    rejects_handle = (
        Path(args.rejects).open("w", encoding="utf-8") if args.rejects else None
    )
    totals = [0, 0, 0]

    def kept_records():
        chunks, to_workers = tee(_chunks(records, CHUNK_RECORDS))
        for chunk, (positions, rows, counts) in zip(chunks, process_map(curate_chunk, to_workers)):
            if rejects_handle is not None:
                rejects_handle.writelines(rows)
            for i, n in enumerate(counts):
                totals[i] += n
            for i in positions:
                yield chunk[i]

    try:
        write_records(kept_records(), args.output)
    finally:
        if rejects_handle is not None:
            rejects_handle.close()
    kept, blocklisted, rejected = totals
    print(f"kept={kept} blocklisted={blocklisted} rejected={rejected}", file=sys.stderr)
    return 0


def _cmd_dedup(args: argparse.Namespace) -> int:
    from lusokit.curation import dedup_exact

    records, _ = read_records(args.input)
    unique, stats = dedup_exact(records)
    write_records(unique, args.output)
    print(f"kept={stats.kept} duplicates={stats.duplicates}", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from lusokit.stats import Scale, count_stats, render_report, render_tsv

    names = args.names.split(",") if args.names else None
    if names is not None and len(names) != len(args.input):
        raise ConfigurationError(
            f"--names lists {len(names)} names for {len(args.input)} inputs"
        )
    all_stats = []
    for i, path in enumerate(args.input):
        records, _ = read_records(path)
        name = names[i] if names else Path(path).stem
        all_stats.append(count_stats(records, name))
    scale = Scale.MILLIONS_BILLIONS if args.scale == "mb" else Scale.UNIT
    renderer = render_tsv if args.tsv else render_report
    print(renderer(all_stats, scale))
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    import numpy as np

    from lusokit.fanout import process_map
    from lusokit.packing import TruncationSchedule, pack_flat, plan_device_split, write_shard
    from lusokit.tokenizer import load_vocabulary, tokenize_flat

    if (args.global_batch is None) != (args.devices is None):
        raise ConfigurationError("--global-batch and --devices must be given together")
    per_device_batch = None
    if args.global_batch is not None:
        try:
            per_device_batch = plan_device_split(args.global_batch, args.devices)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
    vocab = load_vocabulary(args.vocab)
    schedule = TruncationSchedule.parse(args.schedule)
    records, _ = read_records(args.input)
    memo: dict = {}  # word -> ids; each worker fills its own copy

    def tokenize_chunk(texts):
        ids, lengths = tokenize_flat(texts, vocab, memo)
        return np.array(ids, dtype="<i4"), lengths

    # Chunks' ids are appended to one growing buffer, so the flat ids
    # never exist twice.
    flat = bytearray()
    lengths = []
    texts = (record.text for record in records)
    for chunk_ids, chunk_lengths in process_map(tokenize_chunk, _chunks(texts, CHUNK_RECORDS)):
        flat += memoryview(chunk_ids)
        lengths += chunk_lengths
    del memo
    if not lengths:
        raise DataError(f"{args.input} has no records to pack")
    ids = np.frombuffer(flat, dtype="<i4")
    lengths = np.array(lengths, dtype=np.int64)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "records": len(lengths),
        "schedule": [
            {"max_len": cap, "steps": steps} for cap, steps in schedule.stages
        ],
        "stages": [],
    }
    for cap, _steps in schedule.stages:
        batch = pack_flat(ids, lengths, cap, vocab.pad_id)
        shard_name = f"stage_{cap}.bin"
        write_shard(out_dir / shard_name, batch)
        manifest["stages"].append(
            {
                "max_len": cap,
                "shard": shard_name,
                "rows": batch.rows,
                "width": batch.width,
                "tokens": int(batch.lengths().sum()),
                "truncated_rows": int(np.count_nonzero(lengths > cap)),
            }
        )
        del batch
    if per_device_batch is not None:
        manifest["per_device_batch"] = per_device_batch
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(
        f"packed {len(lengths)} records into {len(schedule.stages)} stage shards "
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

    from lusokit.translate import (
        FakeReversingClient,
        HttpMTClient,
        TranslationCache,
        translate_dataset,
    )

    records, _ = read_records(args.input)
    materialized = list(records)
    texts = [record.text for record in materialized]
    if args.fake:
        client = FakeReversingClient()
    else:
        if not args.endpoint:
            raise ConfigurationError("--endpoint is required unless --fake is given")
        client = HttpMTClient(args.endpoint)
    cache = TranslationCache(args.cache_dir) if args.cache_dir else None
    outcome = translate_dataset(
        texts,
        args.target,
        client,
        cache=cache,
        batch_size=args.batch_size,
        max_workers=args.max_workers,
    )
    written = 0
    with Path(args.output).open("w", encoding="utf-8") as out:
        for record, translation in zip(materialized, outcome.translations):
            if translation is None:
                continue
            out.write(record_to_json(dataclasses.replace(record, text=translation)) + "\n")
            written += 1
    for idx, message in outcome.rejects:
        log.debug("rejected input %d: %s", idx, message)
    print(
        f"translated={written} rejected={len(outcome.rejects)} "
        f"requests={outcome.requests_issued}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from lusokit.benchmarks import validate_task_file

    spec = _require_task(args.task)
    valid, violations = validate_task_file(args.input, spec)
    for v in violations:
        print(f"{v.example_id}\t{v.field}\t{v.message}")
    print(f"valid={valid} violations={len(violations)}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from lusokit.experiments.grid import build_matrix, load_roster

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
    selected = []
    for name in names.split(","):
        selected.append(_require_task(name.strip()))
    return selected


def _cmd_run(args: argparse.Namespace) -> int:
    from lusokit.experiments.grid import build_matrix, load_roster
    from lusokit.experiments.runner import run_matrix
    from lusokit.experiments.store import ResultsStore

    models = load_roster(args.models)
    tasks = _selected_tasks(args.tasks)
    runs = build_matrix(models, tasks=tasks, split_seed=args.split_seed)
    store = ResultsStore(args.store)
    stale = store.clear_claims()
    if stale:
        log.debug("cleared %d stale claims", stale)
    summary = run_matrix(
        runs,
        args.template,
        store,
        max_workers=args.max_workers,
        timeout=args.timeout,
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
    preds: dict[str, object] = {}
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or "id" not in obj or "prediction" not in obj:
                raise DataError(f"{path}:{line_no}: need 'id' and 'prediction' keys")
            example_id = obj["id"]
            if example_id in preds:
                raise DataError(f"{path}:{line_no}: duplicate prediction for {example_id!r}")
            preds[example_id] = obj["prediction"]
    return preds


def _cmd_score(args: argparse.Namespace) -> int:
    from lusokit.benchmarks import THREE_CLASS_LABELS, read_task_examples
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
    classes = sorted(THREE_CLASS_LABELS) if spec.metric.value == "f1_macro" else None
    value = score(spec.metric.value, pairs, classes=classes)
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
    p.add_argument("--format", choices=sorted(_FORMAT_ALIASES), default="jsonl")
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
    p.add_argument("--config", default=None, help="pipeline config YAML")
    p.add_argument("--blocklist-exact", default=None, help="exact-domain file")
    p.add_argument("--blocklist-suffix", default=None, help="suffix-domain file")
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
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
