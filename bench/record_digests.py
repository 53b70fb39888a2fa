"""Record the per-op output digests that later runs are checked against.

    python3 bench/record_digests.py --seeds 0 1000

Runs one pass of every workload per seed and writes `digests.json` next to
this file. Every output check runs except the comparison with the digests
already recorded, which the new ones replace. Re-record only when an output
is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, SRC, TESTS, WORK


def record(workloads, seeds: list[int], path: Path, work: Path) -> int:
    """Write the digests of one checked pass per workload and seed to `path`."""
    from pace import Pacer
    from session import Session

    recorded: dict[str, dict[str, dict[str, str]]] = {}
    for name, workload in workloads.items():
        for seed in seeds:
            session = Session(workload, seed, work)
            session.load_boards()
            session.run_pass(workload.ops, Pacer())
            session.check_outputs(recorded=False)
            if not session.log.ok:
                print("\n".join(session.log.problems), file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = session.digests
            print(f"{name} seed {seed}: {len(session.digests)} ops", file=sys.stderr)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1000])
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(TESTS)]
    from session import DIGESTS
    from workloads import WORKLOADS

    code = record(WORKLOADS, args.seeds, DIGESTS, WORK)
    if code == 0:
        print(f"wrote {DIGESTS.relative_to(ROOT)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
