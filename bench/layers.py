"""Per-layer metrics, derived from the spans of a traced run.

The layers are voteboard's modules. A time is the median self time per call
in milliseconds (microseconds where the name says `_us`), divided by the
pace factor like every time the benchmark reports; a count is the total
over the traced pass. A layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from typing import Callable, Iterable

from tracing import Span
from workloads import BASELINES, ELIMINATION, POSITIONAL, RULE_IDS, SCORERS, SET_RULES

LADDER_SHAPES = ((20, 9), (50, 20), (100, 20), (200, 40))

Pick = Callable[[Span], bool]


def _named(name: str, **attrs) -> Pick:
    return lambda s: s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())


def _rules(rules: Iterable[str], mode: str = "basic") -> Pick:
    chosen = frozenset(rules)
    return lambda s: (s.name == "aggregate" and s.attrs.get("mode") == mode
                      and s.attrs.get("rule") in chosen)


def _median_ms(pick: Pick) -> Callable[[list[Span]], float]:
    def value(spans: list[Span]) -> float:
        times = [s.self_time for s in spans if pick(s)]
        return statistics.median(times) * 1e3 if times else 0.0
    return value


def _total(pick: Pick, count: Callable[[Span], int]) -> Callable[[list[Span]], float]:
    return lambda spans: sum(count(s) for s in spans if pick(s))


def _attr(name: str) -> Callable[[Span], int]:
    return lambda s: s.attrs.get(name, 0)


def _share(pick: Pick, attr: str) -> Callable[[list[Span]], float]:
    def value(spans: list[Span]) -> float:
        chosen = [s for s in spans if pick(s)]
        return sum(1 for s in chosen if s.attrs.get(attr)) / len(chosen) if chosen else 0.0
    return value


def _per_aggregation_us(pick: Pick) -> Callable[[list[Span]], float]:
    def value(spans: list[Span]) -> float:
        per = [s.duration / s.attrs["aggregations"] for s in spans if pick(s)]
        return statistics.median(per) * 1e6 if per else 0.0
    return value


def _experiments(s: Span) -> bool:
    return s.name in ("iia_experiment", "robustness_experiment")


# name -> (unit, better, value from spans)
METRICS: dict[str, tuple[str, str, Callable[[list[Span]], float]]] = {
    "cli.rank_ms": ("ms", "lower", _median_ms(_named("cli", command="rank"))),
    "cli.two_step_ms": ("ms", "lower", _median_ms(_named("cli", command="two_step"))),
    "cli.compare_ms": ("ms", "lower", _median_ms(_named("cli", command="compare"))),
    "cli.cw_weights_ms": ("ms", "lower", _median_ms(_named("cli", command="cw-weights"))),
    "io.parse_ms": ("ms", "lower", _median_ms(_named("load_leaderboard"))),
    "io.render_json_ms": ("ms", "lower", _median_ms(_named("render_json"))),
    "io.render_table_ms": ("ms", "lower", _median_ms(_named("render_table"))),
    "model.profile_ms": ("ms", "lower", _median_ms(_named("build_profile"))),
    "model.cells_ranked": ("count", "lower", _total(
        _named("build_profile"), lambda s: s.attrs["rows"] * s.attrs["cols"])),
    "model.profile_missing_ms": ("ms", "lower", _median_ms(_named("build_profile_missing"))),
    "model.derive_ms": ("ms", "lower", _median_ms(_named("derive"))),
    "modes.two_step_ms": ("ms", "lower", _median_ms(_rules(RULE_IDS, mode="two_step"))),
    "scoring.rule_ms": ("ms", "lower", _median_ms(_rules(POSITIONAL))),
    "iterative.threshold_ms": ("ms", "lower", _median_ms(_rules(("threshold",)))),
    "iterative.elimination_ms": ("ms", "lower", _median_ms(_rules(ELIMINATION))),
    "iterative.black_ms": ("ms", "lower", _median_ms(_rules(("black",)))),
    "iterative.rounds": ("count", "lower", _total(_named("aggregate"), _attr("rounds"))),
    "iterative.threshold_stages": ("count", "lower",
                                   _total(_named("aggregate"), _attr("stages"))),
    "majority.graph_ms": ("ms", "lower", _median_ms(_named("build_majority_graph"))),
    "majority.pair_cells": ("count", "lower",
                            _total(_named("build_majority_graph"), _attr("pair_cells"))),
    "majority.scorer_ms": ("ms", "lower", _median_ms(_rules(SCORERS))),
    "majority.set_rule_ms": ("ms", "lower", _median_ms(_rules(SET_RULES))),
    "majority.refused": ("count", "lower",
                         _total(_named("aggregate"), lambda s: int(bool(s.attrs.get("refused"))))),
    "cw.matrix_ms": ("ms", "lower", _median_ms(_named("build_dominance_matrix"))),
    "cw.solve_ms": ("ms", "lower", _median_ms(_named("find_cw_weights"))),
    "cw.rows": ("count", "lower", _total(_named("build_dominance_matrix"), _attr("rows"))),
    "cw.prospective_share": ("share", "higher", _share(_named("find_cw_weights"), "prospective")),
    "metrics.baseline_ms": ("ms", "lower", _median_ms(_rules(BASELINES))),
    "metrics.compare_ms": ("ms", "lower", _median_ms(_named("compare_stats"))),
    "experiments.iia_ms": ("ms", "lower", _median_ms(_named("iia_experiment"))),
    "experiments.robustness_ms": ("ms", "lower", _median_ms(_named("robustness_experiment"))),
    "experiments.aggregations": ("count", "lower", _total(_experiments, _attr("aggregations"))),
    "experiments.aggregation_us": ("us", "lower", _per_aggregation_us(_experiments)),
    **{f"rule.{rule}_ms": ("ms", "lower", _median_ms(_rules((rule,)))) for rule in RULE_IDS},
    **{
        f"ladder.{layer}_ms.{n}x{t}": (
            "ms", "lower", _median_ms(_named(f"ladder.{layer}", shape=f"{n}x{t}")))
        for layer in ("profile", "graph")
        for n, t in LADDER_SHAPES
    },
}
OVERHEAD = "trace.overhead_pct"
OVERHEAD_UNIT = "%"


def layer_metrics(spans: list[Span], pace: float) -> dict[str, tuple[float, str]]:
    """Every metric of METRICS, with times divided by the pace factor."""
    return {
        name: (float(fn(spans)) / (pace if unit in ("ms", "us") else 1), unit)
        for name, (unit, _, fn) in METRICS.items()
    }
