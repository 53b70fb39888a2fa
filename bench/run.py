"""voteboard benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload glue-cli --seed 0 --seconds 20 --trace 0

`--workload all` runs every workload in turn, each in its own process, and
exits with the highest of their exit codes.

Generates the workload's boards from the seed, measures set-up in fresh
interpreters, then issues the workload's ops back to back (one caller, one
thread) in whole passes, stopping at the pass boundary nearest to
`--seconds`. Times are divided by the machine's pace (see pace.py). Every
op's output is checked afterwards.

With `--trace 1` the run instead makes one untraced and one traced pass and
reports per-layer metrics from the spans (see README.md in this directory).
The exit code is 0 when every output check passes, 1 when one fails, and 2
when the run cannot start.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"
ALL = "all"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="voteboard benchmark")
    parser.add_argument("--workload", required=True, help=f"a workload name, or {ALL}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_each(workloads: list[str], argv: list[str]) -> list[int]:
    """Run every workload in its own process, one after another; their exit codes."""
    codes = []
    for name in workloads:
        args = list(argv)
        args[args.index("--workload") + 1] = name
        sys.stdout.flush()
        codes.append(subprocess.run([sys.executable, __file__, *args], check=False).returncode)
    return codes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "voteboard" / "cli.py").is_file() or not (TESTS / "oracle.py").is_file():
        print(f"error: no voteboard sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH), str(TESTS)]
    from workloads import WORKLOADS

    if args.workload == ALL:
        return max(_run_each(list(WORKLOADS), argv if argv is not None else sys.argv[1:]))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or {ALL}", file=sys.stderr)
        return 2
    from session import Session

    session = Session(WORKLOADS[args.workload], args.seed, WORK)
    result = session.run_traced() if args.trace else session.run_timed(args.seconds)
    for line in result.summary:
        print(line)
    print(result.json_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
