"""Command line front end.

Exit codes: 0 success, 1 input problems (flags that do not parse, unreadable
or malformed files), 2 a requested operation is incompatible with the data
(unknown rule, mode restrictions, missing scores, parameters out of range),
3 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Sequence

from . import io as vio
from .cw import build_dominance_matrix, find_cw_weights
from .errors import InvalidParameter, ParseError, UnknownRule, VoteboardError
from .experiments import ExperimentConfig, iia_experiment, robustness_experiment
from .metrics import DEFAULT_GAMMA, agreement_rate, kendall_tau, spearman_rho
from .model import Leaderboard, RuleOutcome
from .modes import BASIC, MODES
from .registry import aggregate, get_rule, rule_ids

SEED_ENV = "VNR_SEED"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; we reserve 2 for data issues
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _command(sub: argparse._SubParsersAction, name: str, help: str) -> argparse.ArgumentParser:
    """The subcommand's parser, with the input flags and --format."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--input", "-i", required=True, help="leaderboard CSV path")
    parser.add_argument("--groups", help="JSON file mapping task -> group name")
    parser.add_argument("--weights", help="JSON file mapping task -> weight")
    parser.add_argument(
        "--normalize", action="store_true", help="divide every score by 100, exactly, on load"
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args leaves it unchanged."""
    parser = _Parser(prog="voteboard", description="Rank systems on a leaderboard.")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = _command(sub, "rank", "rank all systems under one rule")
    offered = [r for r in rule_ids() if r != "custom"]
    rank.add_argument("--rule", required=True, help=f"one of: {', '.join(offered)}")
    rank.add_argument("--mode", choices=sorted(MODES), default=BASIC)
    rank.add_argument("--gamma", type=float, default=DEFAULT_GAMMA,
                      help="optimality gap discount (optimality_gap rule only)")
    rank.add_argument("--baseline", help="second rule to show rank movement against")

    winner = _command(sub, "winner", "print the winning system(s)")
    winner.add_argument("--rule", required=True)
    winner.add_argument("--mode", choices=sorted(MODES), default=BASIC)
    winner.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)

    cw = _command(sub, "cw-weights", "find task weights under which no rival beats a system")
    cw.add_argument("--system", required=True, help="candidate system name")
    cw.add_argument("--margin", type=float, default=0.0,
                    help="required weighted advantage in every duel; the default 0 "
                         "allows ties, a positive margin asks for a strict win")
    cw.add_argument("--lower", type=float, default=0.0, help="lower bound for every weight")
    cw.add_argument("--upper", type=float, default=None, help="upper bound for every weight")

    compare = _command(sub, "compare", "compare the rankings of two rules")
    compare.add_argument("--rules", nargs=2, required=True, metavar=("RULE_A", "RULE_B"))
    compare.add_argument("--mode", choices=sorted(MODES), default=BASIC)
    compare.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    compare.add_argument("--top-k", type=int, default=3, help="agreement window size")

    exp = sub.add_parser("experiment", help="run a perturbation experiment")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    iia = _command(exp_sub, "iia", "count rank flips as systems are reintroduced")
    iia.add_argument("--rule", required=True)
    iia.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    iia.add_argument("--trials", type=int, default=50)
    iia.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default: ${SEED_ENV} or 0)")

    rob = _command(exp_sub, "robustness", "rank stability under score deletion")
    rob.add_argument("--rules", nargs="+", required=True)
    rob.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    rob.add_argument("--omit", type=int, default=1, help="scores deleted per trial")
    rob.add_argument("--top-k", type=int, default=7)
    rob.add_argument("--trials", type=int, default=100)
    rob.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default: ${SEED_ENV} or 0)")

    return parser


def _load(args: argparse.Namespace) -> Leaderboard:
    return vio.load_leaderboard(
        args.input,
        normalize=args.normalize,
        groups_path=args.groups,
        weights_path=args.weights,
    )


def _rule_params(rule_id: str, gamma: float) -> dict[str, float]:
    """--gamma as a keyword for the rules that take one. custom, whose scoring
    vector no flag passes, is an unknown rule here."""
    if rule_id == "custom":
        raise UnknownRule(f"unknown rule: {rule_id!r}")
    return {"gamma": gamma} if "gamma" in get_rule(rule_id).params else {}


def _run(lb: Leaderboard, rule_id: str, mode: str, gamma: float) -> RuleOutcome:
    return aggregate(lb, rule_id, mode=mode, **_rule_params(rule_id, gamma))


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    lb = _load(args)
    outcome = _run(lb, args.rule, args.mode, args.gamma)
    baseline = None
    if args.baseline:
        baseline = _run(lb, args.baseline, args.mode, args.gamma)
    if args.format == "json":
        payload = vio.outcome_to_dict(outcome)
        if baseline is not None:
            payload["baseline"] = vio.outcome_to_dict(baseline)
        sys.stdout.write(vio.to_json(payload))
    else:
        print(vio.render_outcome_table(outcome, baseline))
    return 0


def _cmd_winner(args: argparse.Namespace) -> int:
    lb = _load(args)
    outcome = _run(lb, args.rule, args.mode, args.gamma)
    winners = sorted(outcome.winners)
    if args.format == "json":
        sys.stdout.write(vio.to_json({"rule": args.rule, "winners": winners}))
    elif args.rule == "condorcet" and not winners:
        print("no Condorcet winner")
    elif winners:
        print(", ".join(winners))
    else:
        print("no winner")
    return 0


def _cmd_cw_weights(args: argparse.Namespace) -> int:
    lb = _load(args)
    matrix = build_dominance_matrix(lb, args.system)
    result = find_cw_weights(
        matrix,
        lower_bounds=args.lower,
        upper_bounds=args.upper,
        margin=args.margin,
    )
    if args.format == "json":
        payload = {
            "system": args.system,
            "status": result.status,
            "weights": None
            if result.witness is None
            else {t: float(w) for t, w in zip(matrix.tasks, result.witness)},
        }
        sys.stdout.write(vio.to_json(payload))
        return 0
    if result.witness is None:
        print(f"{args.system}: no feasible weighting ({result.status})")
    else:
        print(f"{args.system}: {result.status}")
        for task, w in zip(matrix.tasks, result.witness):
            print(f"  {task}: {float(w):.6g}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    lb = _load(args)
    rule_a, rule_b = args.rules
    out_a = _run(lb, rule_a, args.mode, args.gamma)
    out_b = _run(lb, rule_b, args.mode, args.gamma)
    k = min(args.top_k, len(lb.systems))
    if k < 1:
        raise InvalidParameter("--top-k must be at least 1")
    stats = {
        "kendall_tau": kendall_tau(out_a, out_b),
        "spearman_rho": spearman_rho(out_a, out_b),
        f"top_{k}_agreement": agreement_rate(out_a, out_b, k, end="top"),
        f"least_{k}_agreement": agreement_rate(out_a, out_b, k, end="least"),
    }
    if args.format == "json":
        sys.stdout.write(vio.to_json({"rules": [rule_a, rule_b], "stats": stats}))
    else:
        print(f"{rule_a} vs {rule_b}")
        for name, value in stats.items():
            print(f"  {name}: {value:.4f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    lb = _load(args)
    seed = _seed(args)
    if args.experiment == "iia":
        cfg = ExperimentConfig(seed=seed, trials=args.trials)
        report = iia_experiment(lb, args.rule, cfg, **_rule_params(args.rule, args.gamma))
    else:
        for rule_id in args.rules:
            _rule_params(rule_id, args.gamma)  # refuses custom, as the others do
        cfg = ExperimentConfig(
            seed=seed,
            trials=args.trials,
            omit_count=args.omit,
            top_k=min(args.top_k, len(lb.systems)),
        )
        report = robustness_experiment(lb, list(args.rules), cfg, gamma=args.gamma)
    if args.format == "json":
        sys.stdout.write(vio.to_json(report))
    else:
        print(f"{report.kind} experiment, seed={report.seed}, trials={report.trials}")
        print(vio.render_report_table(report))
    return 0


_COMMANDS = {
    "rank": _cmd_rank,
    "winner": _cmd_winner,
    "cw-weights": _cmd_cw_weights,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VoteboardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
