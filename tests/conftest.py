import contextlib
import importlib
import random
import warnings

import pytest

from voteboard import Leaderboard, iterative, model, modes, scoring
from voteboard.model import IndexOutcome

# hypothesis's pytest plugin imports hypothesis.extra._patching to suggest a
# patch once a property test fails. Where libcst is installed, that import
# trips a DeprecationWarning of mypy_extensions, which -W error turns into an
# INTERNALERROR that ends the whole run. Imported once here with that one
# warning ignored, the module is cached for the plugin; every other warning,
# and every test, stays under -W error. Without libcst the import fails here
# as it does in the plugin, which then suggests no patch.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated",
                            DeprecationWarning)
    with contextlib.suppress(ImportError):
        importlib.import_module("hypothesis.extra._patching")

# every function that turns a rule's kept state into its diagnostics, and
# the Fraction build of a LazyScores
DIAGNOSTIC_BUILDERS = (
    (iterative, "_threshold_diagnostics"),
    (iterative, "_elimination_diagnostics"),
    (scoring, "_vector_diagnostics"),
    (modes, "_with_electors"),
    (model, "_over_unit"),
)


@contextlib.contextmanager
def diagnostics_unbuilt():
    """Inside the block, every diagnostic builder raises AssertionError.

    An outcome made inside keeps the patched builder, which calls the
    original once the block has exited, so its diagnostics and scores read
    afterwards as they would have.
    """
    armed = [True]

    def guarded(name, original):
        def build(*args):
            if armed[0]:
                raise AssertionError(f"{name} ran before anything read the outcome")
            return original(*args)

        return build

    saved = [(owner, name, getattr(owner, name)) for owner, name in DIAGNOSTIC_BUILDERS]
    for owner, name, original in saved:
        setattr(owner, name, guarded(name, original))
    try:
        yield
    finally:
        armed[0] = False
        for owner, name, original in saved:
            setattr(owner, name, original)


@contextlib.contextmanager
def outcomes_unnamed():
    """Inside the block, naming a rule core's result, which modes.run_rule
    does with IndexOutcome.named, raises AssertionError."""
    original = IndexOutcome.named

    def named(*args):
        raise AssertionError("a rule's result was named inside the block")

    IndexOutcome.named = named
    try:
        yield
    finally:
        IndexOutcome.named = original

# the worked example used throughout: five tasks, four systems, per-task
# orders chosen so B is the majority champion but plurality picks A
TOY_ORDERS = {
    "t1": ["A", "B", "C", "D"],
    "t2": ["A", "C", "D", "B"],
    "t3": ["B", "D", "C", "A"],
    "t4": ["C", "B", "D", "A"],
    "t5": ["D", "B", "C", "A"],
}


def board_from_orders(orders, *, weights=None, groups=None):
    """Build a leaderboard whose per-task orders match the given lists.

    Scores are descending integers, so any strictly monotone transform of
    them would induce the same profile.
    """
    systems = sorted({m for order in orders.values() for m in order})
    scores = {m: {} for m in systems}
    for task, order in orders.items():
        for place, m in enumerate(order):
            scores[m][task] = float(len(order) - place)
    return Leaderboard.from_scores(
        scores, tasks=list(orders), weights=weights, groups=groups
    )


def tie_groups(table, task):
    """One task's tie groups in a RankTable as sorted names, best first."""
    names = table.systems
    groups = table.orders[table.tasks.index(task)]
    return tuple([tuple(sorted([names[i] for i in group])) for group in groups])


def is_complete(table):
    """Whether every task of a RankTable ranks every system."""
    n = len(table.systems)
    return all(sum(map(len, groups)) == n for groups in table.orders)


@pytest.fixture
def toy():
    return board_from_orders(TOY_ORDERS)


def random_board(rng: random.Random, *, max_systems=5, max_tasks=7,
                 min_systems=2, min_tasks=1, lo=1, hi=9,
                 allow_min_direction=False, allow_weights=False):
    """Random integer-score leaderboard. Small score range makes ties common."""
    n = rng.randint(min_systems, max_systems)
    t = rng.randint(min_tasks, max_tasks)
    systems = [f"m{i}" for i in range(n)]
    tasks = [f"t{j}" for j in range(t)]
    scores = {m: {tk: float(rng.randint(lo, hi)) for tk in tasks} for m in systems}
    directions = None
    if allow_min_direction and rng.random() < 0.3:
        directions = {tk: rng.choice(["max", "min"]) for tk in tasks}
    weights = None
    if allow_weights and rng.random() < 0.3:
        weights = {tk: rng.randint(1, 3) for tk in tasks}
    return Leaderboard.from_scores(
        scores, tasks=tasks, directions=directions, weights=weights
    )
