"""The one module through which the benchmark calls voteboard.

Only front-door calls are used: `cli.main` and `cli.build_parser`,
`aggregate`, `load_leaderboard`, the render and comparison functions,
`build_profile`, `build_majority_graph`, `build_dominance_matrix`,
`find_cw_weights` and the two experiments. A rename in the package then
touches this file alone.

`cli_request` issues a CLI request as a user would. `cli_request_traced`
issues the same request as the public calls the CLI command makes, each in a
child span of the request, and must print byte for byte the same output.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Any, Sequence

from voteboard.cli import build_parser, main as cli_main
from voteboard.cw import build_dominance_matrix, find_cw_weights
from voteboard.errors import ParseError, VoteboardError
from voteboard.experiments import ExperimentConfig, iia_experiment, robustness_experiment
from voteboard.io import (
    load_leaderboard,
    outcome_to_dict,
    render_outcome_table,
    to_json,
)
from voteboard.majority import build_majority_graph
from voteboard.metrics import agreement_rate, kendall_tau, spearman_rho
from voteboard.model import build_profile
from voteboard.registry import aggregate

from tracing import Tracer
from workloads import BASELINES, SCORERS, SET_RULES


@dataclass(frozen=True)
class Reply:
    """What a CLI request returned: its exit code and standard output."""

    code: int
    stdout: str


def load_board(csv_path: str, groups_path: str | None = None):
    return load_leaderboard(csv_path, groups_path=groups_path)


def cli_request(argv: Sequence[str]) -> Reply:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return Reply(code, out.getvalue())


def robustness(lb, rules: Sequence[str], *, seed: int, trials: int, omit: int, top_k: int):
    cfg = ExperimentConfig(seed=seed, trials=trials, omit_count=omit, top_k=top_k)
    return robustness_experiment(lb, list(rules), cfg)


def iia(lb, rule: str, *, seed: int, trials: int):
    return iia_experiment(lb, rule, ExperimentConfig(seed=seed, trials=trials))


def solve_cw(lb, system: str):
    """Exact cw-weights answer with default bounds: (status, witness or None)."""
    result = find_cw_weights(build_dominance_matrix(lb, system))
    return result.status, result.witness


# -- traced library calls -------------------------------------------------------


def traced_robustness(tracer: Tracer, lb, rules: Sequence[str], *, seed: int, trials: int,
                      omit: int, top_k: int, probe: random.Random):
    """robustness() in a span, after probes of the derived-board layers.

    The probes delete `omit` cells picked by `probe` and rank the damaged
    board, as every trial of the experiment does.
    """
    with tracer.span("derive"):
        damaged = lb.without_cells(probe.sample(lb.present_cells(), omit))
    with tracer.span("build_profile_missing"):
        build_profile(damaged, missing_ok=True)
    with tracer.span("robustness_experiment", aggregations=len(rules) * (trials + 1)):
        return robustness(lb, rules, seed=seed, trials=trials, omit=omit, top_k=top_k)


def traced_iia(tracer: Tracer, lb, rule: str, *, seed: int, trials: int,
               probe: random.Random):
    """iia() in a span, after probes of a restricted board like its trials build."""
    keep = probe.sample(lb.systems, len(lb.systems) // 2)
    with tracer.span("derive"):
        part = lb.restrict_systems(keep)
    with tracer.span("build_profile", rows=len(part.systems), cols=len(part.tasks)):
        build_profile(part)
    with tracer.span("iia_experiment", aggregations=trials * (len(lb.systems) - 1)):
        return iia(lb, rule, seed=seed, trials=trials)


def ladder_probe(tracer: Tracer, lb, shape: str) -> None:
    """Time build_profile and build_majority_graph on one ladder board."""
    with tracer.span("ladder.profile", shape=shape):
        build_profile(lb)
    with tracer.span("ladder.graph", shape=shape):
        build_majority_graph(lb)


# -- the CLI request, decomposed into its public calls ------------------------

# rules that read the pairwise majority relation
PAIRWISE_RULES = frozenset(SCORERS + SET_RULES)


def traced_aggregate(tracer: Tracer, lb, rule: str, mode: str = "basic", **params: Any):
    """aggregate() in a span, after probes of the layers it builds on.

    The probes call build_profile (and build_majority_graph for pairwise
    rules) on the same board, so their spans time those layers on the input
    the rule sees. They are extra calls, so they count in the traced op's
    latency and in trace.overhead_pct.
    """
    if rule not in BASELINES and mode == "basic":
        with tracer.span("build_profile", rows=len(lb.systems), cols=len(lb.tasks)):
            build_profile(lb)
        if rule in PAIRWISE_RULES:
            n = len(lb.systems)
            with tracer.span("build_majority_graph", pair_cells=n * (n - 1) // 2 * len(lb.tasks)):
                build_majority_graph(lb)
    with tracer.span("aggregate", rule=rule, mode=mode) as span:
        try:
            outcome = aggregate(lb, rule, mode=mode, **params)
        except RuntimeError:
            span.attrs["refused"] = True
            raise
    span.attrs.update(_outcome_counts(outcome))
    return outcome


def _outcome_counts(outcome) -> dict[str, int]:
    """Work counts the rule reports in its diagnostics, where it has them."""
    diagnostics = outcome.diagnostics
    counts = {}
    trace = diagnostics.get("trace")
    if trace is not None and hasattr(trace, "rounds"):
        counts["rounds"] = len(trace.rounds)
    repetitions = diagnostics.get("repetitions")
    if repetitions is not None:
        counts["stages"] = sum(len(rep.get("stages", ())) for rep in repetitions)
    return counts


def cli_request_traced(argv: Sequence[str], tracer: Tracer) -> Reply:
    """The request `cli_request(argv)` makes, issued call by call."""
    with tracer.span("cli") as span:
        args = build_parser().parse_args(list(argv))
        span.attrs["command"] = (
            "two_step" if getattr(args, "mode", None) == "two_step" else args.command
        )
        command = _COMMANDS[args.command]
        try:
            return Reply(0, command(args, tracer))
        except ParseError:
            return Reply(1, "")
        except VoteboardError:
            return Reply(2, "")
        except Exception:
            return Reply(3, "")


def _load(args, tracer: Tracer):
    with tracer.span("load_leaderboard"):
        return load_leaderboard(
            args.input,
            normalize=args.normalize,
            groups_path=args.groups,
            weights_path=args.weights,
        )


def _params(rule: str, gamma: float) -> dict[str, Any]:
    return {"gamma": gamma} if rule == "optimality_gap" else {}


def _rank(args, tracer: Tracer) -> str:
    lb = _load(args, tracer)
    outcome = traced_aggregate(tracer, lb, args.rule, args.mode, **_params(args.rule, args.gamma))
    if args.format == "json":
        with tracer.span("render_json"):
            return to_json(outcome_to_dict(outcome))
    with tracer.span("render_table"):
        return render_outcome_table(outcome, None) + "\n"


def _compare(args, tracer: Tracer) -> str:
    lb = _load(args, tracer)
    rule_a, rule_b = args.rules
    out_a = traced_aggregate(tracer, lb, rule_a, args.mode, **_params(rule_a, args.gamma))
    out_b = traced_aggregate(tracer, lb, rule_b, args.mode, **_params(rule_b, args.gamma))
    k = min(args.top_k, len(lb.systems))
    if k < 1:
        raise VoteboardError("--top-k must be at least 1")
    with tracer.span("compare_stats"):
        stats = {
            "kendall_tau": kendall_tau(out_a, out_b),
            "spearman_rho": spearman_rho(out_a, out_b),
            f"top_{k}_agreement": agreement_rate(out_a, out_b, k, end="top"),
            f"least_{k}_agreement": agreement_rate(out_a, out_b, k, end="least"),
        }
    with tracer.span("render_json"):
        return to_json({"rules": [rule_a, rule_b], "stats": stats})


def _cw_weights(args, tracer: Tracer) -> str:
    lb = _load(args, tracer)
    with tracer.span("build_dominance_matrix") as span:
        matrix = build_dominance_matrix(lb, args.system)
    span.attrs["rows"] = len(matrix.rows)
    with tracer.span("find_cw_weights") as span:
        result = find_cw_weights(
            matrix, lower_bounds=args.lower, upper_bounds=args.upper, margin=args.margin
        )
    span.attrs["prospective"] = result.witness is not None
    payload = {
        "system": args.system,
        "status": result.status,
        "weights": None
        if result.witness is None
        else {t: float(w) for t, w in zip(matrix.tasks, result.witness)},
    }
    with tracer.span("render_json"):
        return to_json(payload)


_COMMANDS = {"rank": _rank, "compare": _compare, "cw-weights": _cw_weights}
