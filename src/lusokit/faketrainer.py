"""Stand-in trainer executable for exercising the orchestrator.

Honors the trainer contract: prints 'dev=<float> test=<float>' on
stdout and exits 0 on success. Scores are pseudo-random but fully
determined by the run key, so reruns reproduce identical numbers.

Fault injection: with --fail-rate and --flaky-dir, a deterministic
fraction of run keys fail on their first invocation and succeed on
the next, which is exactly the failure shape resumable orchestration
has to survive. Marker files in --flaky-dir remember who failed.

Run as: python3 -m lusokit.faketrainer --run-key ... [flags]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from lusokit import jsonlog
from lusokit.textutil import sha256


def _unit_interval(key: str, salt: str) -> float:
    """Deterministic float in [0, 1) from a key and salt."""
    digest = sha256(f"{key}|{salt}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16) / float(16**12)


def scores_for(run_key: str) -> tuple[float, float]:
    return _unit_interval(run_key, "dev"), _unit_interval(run_key, "test")


def should_fail_first(run_key: str, fail_rate: float) -> bool:
    return _unit_interval(run_key, "fail") < fail_rate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faketrainer", description="deterministic no-op trainer"
    )
    parser.add_argument("--run-key", required=True)
    parser.add_argument("--model", default="")
    parser.add_argument("--task", default="")
    parser.add_argument("--lr", default="")
    parser.add_argument("--dropout", default="")
    parser.add_argument("--bf16", default="")
    parser.add_argument("--seed", default="")
    parser.add_argument("--split-seed", default="")
    parser.add_argument("--log", default=None, help="append invocation records here")
    parser.add_argument(
        "--flaky-dir", default=None, help="marker directory for fail-once injection"
    )
    parser.add_argument(
        "--fail-rate", type=float, default=0.0,
        help="fraction of run keys that fail on first invocation",
    )
    parser.add_argument("--sleep", type=float, default=0.0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    if args.log:
        jsonlog.append(args.log, {"run_key": args.run_key, "argv": argv})
    if args.sleep > 0:
        time.sleep(args.sleep)
    if args.fail_rate > 0:
        if not args.flaky_dir:
            print("--fail-rate needs --flaky-dir", file=sys.stderr)
            return 2
        if should_fail_first(args.run_key, args.fail_rate):
            marker = Path(args.flaky_dir) / f"{args.run_key}.failed"
            if not marker.exists():
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.write_text("1", encoding="utf-8")
                print(f"injected failure for {args.run_key}", file=sys.stderr)
                return 1
    dev, test = scores_for(args.run_key)
    print(f"dev={dev:.6f} test={test:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
