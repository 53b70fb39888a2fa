"""Time two voteboard source trees op by op, in one process.

    python tools/side_by_side.py PARENT_SRC CHANGE_SRC [--workload wide-lib]
        [--seed 0] [--passes 9] [--rules baldwin coombs ...]

Each SRC is a directory holding a voteboard package. Both packages are
copied into a temporary directory under their own names (voteboard_parent,
voteboard_change) and imported side by side. The workload's boards are
built at the seed with the benchmark's own generator (bench/boards.py and
bench/workloads.py, which are only imported), and each side loads them.

Every pass issues each op once on each side, one side right after the
other, and the side that goes first alternates from op to op and from
pass to pass. For each op key (one rule on every board of the workload),
the script prints each side's best-of-passes total in milliseconds and the
change/parent ratio, and an `all ops` row ends the table with each side's
sum of those totals. An op whose code is the same on both sides shows the
method's own bias, so read a ratio against the untouched ops of the same
run. Stdout's last line is the same table as one JSON object.

Before timing, each op runs once, untimed, on each side, and the two sides'
output is compared: a CLI op's stdout and exit code, an aggregate outcome
as outcome_to_dict renders it to JSON, an experiment report as its JSON,
and a refusal as its type and message. The first lines printed count the
CLI ops and the library ops that differ, one line for each kind the
workload has, and name the first few. The exit status is 1 when any op
differs, else 0, so a script can gate on the outputs alone.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SIDES = ("parent", "change")


def load_side(src: Path, name: str, root: Path):
    """The voteboard package under src, imported as name from a copy in root."""
    shutil.copytree(src / "voteboard", root / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {part: importlib.import_module(f"{name}.{part}")
            for part in ("cli", "errors", "experiments", "io", "registry")}


def cli_argv(op, files) -> list[str]:
    """The CLI request of a glue-cli op, as the benchmark issues it."""
    a = op.args
    argv = [a["command"], "--input", str(files.csv)]
    if a["command"] == "rank":
        argv += ["--rule", a["rule"]]
        if a["mode"] == "two_step":
            argv += ["--groups", str(files.groups), "--mode", "two_step"]
    elif a["command"] == "compare":
        argv += ["--rules", *a["rules"]]
    else:
        argv += ["--system", a["system"]]
    return argv + ["--format", "json"]


def op_call(side, op, board, files):
    """A no-argument call that issues op on one side's loaded board."""
    a = op.args
    if op.kind == "aggregate":
        params = {"vector": a["vector"]} if "vector" in a else {}
        return lambda: side["registry"].aggregate(board, a["rule"], **params)
    experiments = side["experiments"]
    if op.kind == "robustness":
        cfg = experiments.ExperimentConfig(seed=a["seed"], trials=a["trials"],
                                           omit_count=a["omit"], top_k=a["top_k"])
        return lambda: experiments.robustness_experiment(board, list(a["rules"]), cfg)
    if op.kind == "iia":
        cfg = experiments.ExperimentConfig(seed=a["seed"], trials=a["trials"])
        return lambda: experiments.iia_experiment(board, a["rule"], cfg)
    argv = cli_argv(op, files)

    def request():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = side["cli"].main(list(argv))
        return code, out.getvalue()

    return request


def rendered(side, op, call, refused):
    """What op gives on one side: the CLI op's exit code and stdout, or the
    library op's JSON text or refusal."""
    try:
        out = call()
    except refused as exc:
        return f"{type(exc).__name__}: {exc}"
    if op.kind == "cli":
        return out
    if op.kind == "aggregate":
        out = side["io"].outcome_to_dict(out)
    return side["io"].to_json(out)


def timed(call, refused) -> int:
    """The call's time in ns; a refusal the op documents (refused, the
    side's VoteboardError) is timed as it ran, as the benchmark does."""
    start = time.perf_counter_ns()
    try:
        call()
    except refused:
        pass
    return time.perf_counter_ns() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="src directory of the parent")
    parser.add_argument("change", type=Path, help="src directory of the change")
    parser.add_argument("--workload", default="wide-lib", choices=("glue-cli", "wide-lib", "perturb"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=9)
    parser.add_argument("--rules", nargs="+", help="time only the ops of these rules")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sys.path.insert(0, str(BENCH))
    from boards import write_boards
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ops = [op for op in workload.ops if not args.rules
           or {op.args.get("rule"), *op.args.get("rules", ())} & set(args.rules)]
    if not ops:
        parser.error("no op of the workload names those rules")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = {f.name: f for f in write_boards(list(workload.boards), args.seed, root / "boards")}
        sys.path.insert(0, str(root))
        calls, refused, outputs = {}, {}, {}
        for name, src in zip(SIDES, (args.parent, args.change)):
            side = load_side(src, f"voteboard_{name}", root)
            refused[name] = side["errors"].VoteboardError
            boards = {b: side["io"].load_leaderboard(f.csv, groups_path=f.groups)
                      for b, f in files.items()}
            calls[name] = [op_call(side, op, boards[op.board], files[op.board]) for op in ops]
            outputs[name] = [rendered(side, op, call, refused[name])
                             for op, call in zip(ops, calls[name])]
        best: dict[str, dict[str, float]] = {name: {} for name in SIDES}
        for p in range(args.passes):
            totals: dict[str, dict[str, int]] = {name: {} for name in SIDES}
            for i, op in enumerate(ops):
                for name in SIDES if (i + p) % 2 == 0 else SIDES[::-1]:
                    spent = timed(calls[name][i], refused[name])
                    totals[name][op.key] = totals[name].get(op.key, 0) + spent
            for name in SIDES:
                for key, ns in totals[name].items():
                    best[name][key] = min(best[name].get(key, ns), ns)
    for name in SIDES:
        best[name]["all ops"] = sum(best[name].values())
    rows = {key: {"parent_ms": best["parent"][key] / 1e6, "change_ms": best["change"][key] / 1e6,
                  "ratio": best["change"][key] / best["parent"][key]}
            for key in best["parent"]}
    differing = 0
    for cli, kind, what in ((True, "CLI", "stdout or exit code"),
                            (False, "library", "rendered output")):
        mine = [i for i, op in enumerate(ops) if (op.kind == "cli") == cli]
        if not mine:
            continue
        differ = [ops[i].op_id for i in mine if outputs["parent"][i] != outputs["change"][i]]
        differing += len(differ)
        line = f"{len(differ)} of {len(mine)} {kind} ops differ in {what}"
        if differ:
            line += ": " + ", ".join(differ[:5]) + (", ..." if len(differ) > 5 else "")
        print(line)
    print(f"{args.workload} seed {args.seed}, best of {args.passes} passes")
    print(f"{'op':36} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")
    for key, row in rows.items():
        print(f"{key:36} {row['parent_ms']:10.2f} {row['change_ms']:10.2f} {row['ratio']:7.3f}")
    print(json.dumps(rows, sort_keys=True))
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
