"""Invariance properties of the rank rules on small boards.

The positional, iterative, pairwise and set rules read rank positions only,
so their outcome must not change when one task's scores are rescaled by a
strictly monotone map or when the tasks are reordered, and must follow the
systems when they are relabeled. Every outcome also survives a JSON round
trip with its rule, mode, ranking and unranked set.

The score baselines never reshuffle the systems already present when one
more is added, so their spoiler count is exactly zero on any complete
board, and Spearman rho ignores a common positive rescaling of both rank
vectors.

The robustness imputation stores each median as its float's exact ratio,
equal to cell_ratio's for every finite float, -0.0, subnormals and the
float limit included, and refuses a median past the float range.

The minimal dominant set, found from the order of wins, equals the
smallest closure under "fails to beat" on boards with ties, holes and
zero weights.

Whether task weights can make a system a weak Condorcet winner does not
depend on the order or the repetition of its rival rows, nor on the order
of the tasks when their bounds move with them, and every witness returned
holds exactly.

No command line is an internal error: on small boards of extreme cells
and holes, with or without sidecar files, every subcommand, rule, mode and
numeric flag exits 0, 1 or 2, and JSON output parses.
"""

import contextlib
import io
import json
import math
import statistics
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voteboard as vb
from voteboard.cli import main
from voteboard.experiments import _impute_medians
from voteboard.io import outcome_to_dict, to_json
from voteboard.majority import minimal_dominant_set
from voteboard.model import cell_ratio

import reference

POSITIONAL = ("plurality", "two_approval", "antiplurality", "borda", "dowdall", "custom")
ITERATIVE = ("threshold", "baldwin", "hare", "coombs", "nanson", "black")
PAIRWISE = ("condorcet", "copeland", "copeland2", "copeland3", "minimax")
SET_RULES = ("minimal_dominant", "minimal_undominated", "uncovered", "uncovered2",
             "richelson", "fishburn", "weakly_stable")
RULES = POSITIONAL + ITERATIVE + PAIRWISE + SET_RULES
SETTINGS = settings(max_examples=30, deadline=None, database=None)
MONOTONE = (
    lambda x: 3 * x - 7,
    lambda x: x ** 3,
    lambda x: math.exp(x) / 10,
)


@st.composite
def boards(draw):
    """2-6 systems, 1-4 tasks, scores 0-4 so that ties are common."""
    n = draw(st.integers(2, 6))
    t = draw(st.integers(1, 4))
    cell = st.integers(0, 4).map(float)
    scores = draw(st.lists(st.lists(cell, min_size=t, max_size=t), min_size=n, max_size=n))
    directions = draw(st.lists(st.sampled_from(["max", "min"]), min_size=t, max_size=t))
    weights = draw(st.lists(st.sampled_from([F(1), F(1, 2), F(1, 3)]), min_size=t, max_size=t))
    return vb.Leaderboard(
        systems=tuple([f"s{i}" for i in range(n)]),
        tasks=tuple([f"t{j}" for j in range(t)]),
        scores=tuple([tuple(row) for row in scores]),
        directions=tuple(directions),
        weights=tuple(weights),
    )


def outcome(lb, rule):
    if rule != "custom":
        return vb.aggregate(lb, rule)
    n = len(lb.systems)
    return vb.aggregate(lb, rule, vector=[F((n - p) ** 2, 3) for p in range(n)])


def relabeled(out, label):
    """Ranking, unranked set, scores and eliminations under new system names."""
    trace = out.diagnostics.get("trace")
    return (
        tuple([frozenset([label[m] for m in group]) for group in out.ranking]),
        frozenset([label[m] for m in out.unranked]),
        None if out.scores is None else {label[m]: s for m, s in out.scores.items()},
        None if trace is None else [
            ({label[m]: s for m, s in r.scores.items()}, frozenset([label[m] for m in r.eliminated]))
            for r in trace.rounds
        ],
    )


@SETTINGS
@given(lb=boards(), data=st.data())
def test_monotone_rescaling_of_one_column(lb, data):
    j = data.draw(st.integers(0, len(lb.tasks) - 1))
    f = data.draw(st.sampled_from(MONOTONE))
    rows = tuple([row[:j] + (f(row[j]),) + row[j + 1:] for row in lb.scores])
    rescaled = vb.Leaderboard(lb.systems, lb.tasks, rows, lb.directions, lb.weights)
    for rule in RULES:
        assert outcome(rescaled, rule) == outcome(lb, rule), rule


@SETTINGS
@given(lb=boards(), data=st.data())
def test_relabeling_the_systems(lb, data):
    order = data.draw(st.permutations(range(len(lb.systems))))
    # new names sort in a different order than the old ones
    label = {m: f"x{len(lb.systems) - i}" for i, m in enumerate(lb.systems)}
    moved = vb.Leaderboard(
        tuple([label[lb.systems[i]] for i in order]),
        lb.tasks,
        tuple([lb.scores[i] for i in order]),
        lb.directions,
        lb.weights,
    )
    identity = {m: m for m in moved.systems}
    for rule in RULES:
        assert relabeled(outcome(moved, rule), identity) == relabeled(outcome(lb, rule), label), rule


@SETTINGS
@given(lb=boards(), data=st.data())
def test_reordering_the_tasks(lb, data):
    order = data.draw(st.permutations(range(len(lb.tasks))))
    shuffled = vb.Leaderboard(
        lb.systems,
        tuple([lb.tasks[j] for j in order]),
        tuple([tuple([row[j] for j in order]) for row in lb.scores]),
        tuple([lb.directions[j] for j in order]),
        tuple([lb.weights[j] for j in order]),
    )
    for rule in RULES:
        assert outcome(shuffled, rule) == outcome(lb, rule), rule


@SETTINGS
@given(lb=boards())
def test_json_round_trip(lb):
    for rule in RULES + ("mean",):
        out = outcome(lb, rule)
        back = reference.outcome_from_dict(json.loads(to_json(outcome_to_dict(out))))
        assert (back.rule_id, back.mode, back.ranking, back.unranked) == (
            out.rule_id, out.mode, out.ranking, out.unranked
        ), rule


@st.composite
def unit_boards(draw):
    """3-7 systems, 1-4 tasks, positive cells in (0, 1]: tied, round or arbitrary."""
    n = draw(st.integers(3, 7))
    t = draw(st.integers(1, 4))
    cell = st.one_of(
        st.sampled_from([0.25, 0.5, 1.0]),
        st.floats(min_value=5e-324, max_value=1.0),
    )
    scores = draw(st.lists(st.lists(cell, min_size=t, max_size=t), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from([F(1), F(1, 2), F(1, 3)]), min_size=t, max_size=t))
    return vb.Leaderboard(
        systems=tuple([f"s{i}" for i in range(n)]),
        tasks=tuple([f"t{j}" for j in range(t)]),
        scores=tuple([tuple(row) for row in scores]),
        directions=("max",) * t,
        weights=tuple(weights),
    )


@SETTINGS
@given(lb=unit_boards(), seed=st.integers(0, 2**16))
def test_iia_of_score_baselines_is_zero(lb, seed):
    cfg = vb.ExperimentConfig(seed=seed, trials=3)
    for rule in ("mean", "gmean", "optimality_gap"):
        assert vb.iia_experiment(lb, rule, cfg).series[rule] == (0.0,) * 3, rule


# finite floats, with -0.0, the smallest subnormal, the largest subnormal and
# the float limit's neighbourhood drawn as well as generated
MEDIAN_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.79e308, -1.79e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@SETTINGS
@given(x=MEDIAN_FLOATS, y=MEDIAN_FLOATS)
def test_an_imputed_median_is_the_cell_ratio_of_its_float(x, y):
    """The imputation stores each median as its float's exact ratio, which
    must equal cell_ratio's, in lowest terms; a median beyond the float range
    is refused."""
    for value in (x, y):
        assert Decimal(repr(value)).as_integer_ratio() == cell_ratio(value)
    lb = vb.Leaderboard.from_scores({"a": {"t": x}, "b": {"t": y}, "c": {"t": 1.0}})
    for present, deleted in ((1, [(1, 0), (2, 0)]), (2, [(2, 0)])):
        median = statistics.median([lb.cells[i][0] / lb.denominator for i in range(present)])
        if not math.isfinite(median):
            with pytest.raises(vb.ScoreOutOfRange):
                _impute_medians(lb, deleted)
            continue
        assert Decimal(repr(median)).as_integer_ratio() == cell_ratio(median)
        # equal boards hold equal integer cells over one denominator
        assert _impute_medians(lb, deleted) == lb._with_cells(
            dict.fromkeys(deleted, cell_ratio(median)))


@SETTINGS
@given(
    pairs=st.lists(
        st.tuples(st.fractions(-50, 50, max_denominator=12), st.fractions(-50, 50, max_denominator=12)),
        min_size=2,
        max_size=12,
    ),
    q=st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
)
def test_rho_ignores_a_common_positive_scale(pairs, q):
    x = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    assert vb.rho_from_rank_vectors([v * q for v in x], [v * q for v in y]) == (
        vb.rho_from_rank_vectors(x, y)
    )


@st.composite
def holed_boards(draw):
    """2-12 systems, 1-5 tasks, scores 0-3 or missing, weights 0, 1/2 or 1."""
    n = draw(st.integers(2, 12))
    t = draw(st.integers(1, 5))
    cell = st.one_of(st.none(), st.integers(0, 3).map(float))
    scores = draw(st.lists(st.lists(cell, min_size=t, max_size=t), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from([F(0), F(1, 2), F(1)]), min_size=t, max_size=t)
                   .filter(any))
    return vb.Leaderboard(
        systems=tuple([f"s{i}" for i in range(n)]),
        tasks=tuple([f"t{j}" for j in range(t)]),
        scores=tuple([tuple(row) for row in scores]),
        directions=("max",) * t,
        weights=tuple(weights),
    )


@settings(max_examples=300, deadline=None, database=None)
@given(lb=holed_boards())
def test_minimal_dominant_set_matches_the_closure_search(lb):
    profile = reference.build_profile(lb, missing_ok=True)
    graph = reference.majority_graph_from_profile(profile, reference.base_weights(lb))
    assert minimal_dominant_set(vb.build_majority_graph(lb)) == reference.minimal_dominant_set(graph)


@st.composite
def cw_problems(draw):
    """1-6 rival rows over 1-4 tasks, per-task bounds and a margin."""
    t = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.sampled_from((-1, 0, 1))] * t), min_size=1, max_size=6))
    lower = draw(st.lists(st.sampled_from([None, 0, F(1, 10), F(1, 4)]), min_size=t, max_size=t))
    upper = draw(st.lists(st.sampled_from([None, F(1, 4), F(1, 2), 1]), min_size=t, max_size=t))
    margin = draw(st.sampled_from([0, F(1, 100), F(1, 7)]))
    return rows, lower, upper, margin


def cw_status(rows, lower, upper, margin):
    """find_cw_weights' status, after checking its witness against the rows."""
    matrix = vb.DominanceMatrix(
        "m", tuple([f"r{i}" for i in range(len(rows))]), tuple([f"t{j}" for j in range(len(lower))]),
        tuple(rows),
    )
    try:
        res = vb.find_cw_weights(matrix, lower_bounds=lower, upper_bounds=upper, margin=margin)
    except vb.InfeasibleBounds:
        return "contradictory bounds"
    if res.witness is not None:
        w = res.witness
        assert sum(w) == 1
        for v, lo, up in zip(w, lower, upper):
            assert v >= (lo or 0) and (up is None or v <= up)
        totals = [sum(c * v for c, v in zip(row, w)) for row in rows]
        assert all(total >= margin for total in totals)
        assert res.active_constraints == tuple(i for i, total in enumerate(totals) if total == margin)
    return res.status


@settings(max_examples=200, deadline=None, database=None)
@given(problem=cw_problems(), data=st.data())
def test_cw_status_ignores_rival_and_task_order(problem, data):
    rows, lower, upper, margin = problem
    rivals = data.draw(st.permutations(rows)) + [data.draw(st.sampled_from(rows))]
    order = data.draw(st.permutations(range(len(lower))))
    moved = [tuple([row[j] for j in order]) for row in rivals]
    assert cw_status(moved, [lower[j] for j in order], [upper[j] for j in order], margin) == (
        cw_status(rows, lower, upper, margin)
    )


# the float limits, the smallest subnormal, 2**53 + 1 (not a float) and a hole
CELLS = ("1.7e308", "-1.7e308", "5e-324", "1e300", "1e-300", "9007199254740993", "0", "")
WEIGHTS = ("1", "0", "1/3", "5e-324", "1e300", "1e-7", "9007199254740993")
FLOATS = ("0", "1", "0.5", "-1", "1e300", "5e-324", "1.7e308", "inf", "nan")
# counts in range three times as often as ones out of it
COUNTS = ("1", "2", "3") * 3 + ("0", "-1", "99")
CLI_RULES = (*vb.rule_ids(), "nosuch")


@st.composite
def cli_requests(draw, command):
    """A board file of 1-6 systems by 1-4 tasks, optional sidecars and an argv."""
    n, t = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    tasks = [f"t{j}" for j in range(t)]
    lines = [",".join(["system", *tasks])]
    if draw(st.booleans()):
        directions = draw(st.lists(st.sampled_from(["max", "min"]), min_size=t, max_size=t))
        lines.append(",".join(["#direction", *directions]))
    if draw(st.booleans()):
        lines.append(",".join(["#weight", *draw(
            st.lists(st.sampled_from(WEIGHTS), min_size=t, max_size=t))]))
    # a few values per board, so that equal extreme cells meet; holes half the time
    palette = draw(st.lists(st.sampled_from(CELLS[:-1]), min_size=1, max_size=3, unique=True))
    cell = st.sampled_from(palette + [""] * draw(st.integers(0, 1)))
    for i in range(n):
        lines.append(",".join([f"s{i}", *draw(st.lists(cell, min_size=t, max_size=t))]))
    files = {"board.csv": "\n".join(lines) + "\n"}
    flags = ["-i", "@board.csv"]
    if draw(st.booleans()):
        # most groupings cover every task, as two_step needs
        grouped = tasks if draw(st.integers(0, 3)) else draw(st.sets(st.sampled_from(tasks)))
        files["groups.json"] = json.dumps({tk: draw(st.sampled_from(["g", "h"])) for tk in grouped})
        flags += ["--groups", "@groups.json"]
    if draw(st.booleans()):
        files["weights.json"] = json.dumps(
            {tk: draw(st.sampled_from(WEIGHTS)) for tk in draw(st.sets(st.sampled_from(tasks)))})
        flags += ["--weights", "@weights.json"]
    if draw(st.booleans()):
        flags.append("--normalize")
    rule, mode, gamma = (draw(st.sampled_from(CLI_RULES)), draw(st.sampled_from(vb.MODES)),
                         draw(st.sampled_from(FLOATS)))
    if command in ("rank", "winner"):
        argv = [command, *flags, "--rule", rule, "--mode", mode, "--gamma", gamma]
        if command == "rank" and draw(st.booleans()):
            argv += ["--baseline", draw(st.sampled_from(CLI_RULES))]
    elif command == "cw-weights":
        argv = [command, *flags, "--system", draw(st.sampled_from(["s0", "s5", "nosuch"]))]
        for flag in ("--margin", "--lower", "--upper"):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(FLOATS))]
    elif command == "compare":
        argv = [command, *flags, "--rules", rule, draw(st.sampled_from(CLI_RULES)),
                "--mode", mode, "--gamma", gamma, "--top-k", draw(st.sampled_from(COUNTS))]
    else:
        argv = ["experiment", command, *flags, "--gamma", gamma,
                "--trials", draw(st.sampled_from(COUNTS[:-1])),
                "--seed", draw(st.sampled_from(["0", "1", "-5"]))]
        if command == "iia":
            argv += ["--rule", rule]
        else:
            # half the time only rules that take holes, as robustness needs
            pool = ("copeland", "minimax", "mean", "optimality_gap") if draw(st.booleans()) else (
                CLI_RULES)
            argv += ["--rules", *draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)),
                     "--omit", draw(st.sampled_from(COUNTS)),
                     "--top-k", draw(st.sampled_from(COUNTS))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return files, argv


@pytest.mark.parametrize("command", ["rank", "winner", "cw-weights", "compare", "iia",
                                     "robustness"])
@settings(max_examples=150, deadline=5000, derandomize=True, database=None)
@given(data=st.data())
def test_no_command_line_is_an_internal_error(tmp_path_factory, command, data):
    files, argv = data.draw(cli_requests(command))
    root = tmp_path_factory.mktemp("cli")
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    args = [str(root / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (args, err.getvalue())
    assert "internal error" not in err.getvalue(), args
    if code == 0 and "json" in args:
        json.loads(out.getvalue())
