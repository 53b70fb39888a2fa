"""Leaderboard data model, rank tables, and rule outcomes.

A Leaderboard is a systems-by-tasks matrix of optional scores, stored as
integers over one common denominator, plus per-task metadata (direction,
weight, optional group). build_profile turns it into a
RankTable: the per-task tie orders (tie groups of system indices, best
first) from one sort of each task's system indices keyed by their cells,
with the task weights scaled to integers by the LCM of their denominators.
Rank rules read only the table; the score baselines (mean, gmean,
optimality_gap) read the board's cells. Fractional positions (tied systems
share the mean of the integer places they span) are a view derived from
the orders. A table derived from another holds one source, (parent, k,
dropped): prefix keeps the first k systems, and without keeps all n and
unranks the dropped cells. It builds its orders and its counts from the
parent's when each is first read.

The table's kernels sum integers: the packed pairwise counts, summed per
distinct task weight and multiplied by it once, in fields wide enough for
the total weight and read back in little-endian order; the place slots,
one per ranked system holding its tie group, from which threshold reads
one place column at a time; and the first- and last-place mass columns,
walked from either end. A rule core returns an IndexOutcome on system
indices, from ranked_by (a stable sort of the indices on integer scores)
or chosen (a set rule's winners, ascending indices); modes.run_rule alone
names it. The elimination, threshold and named positional rules, and
two_step's electors, keep their diagnostics as a LazyDiagnostics: the
integer state the rule core made anyway, and the function that builds the
diagnostics dict from it on the first read. Outcome scores, and the score
maps kept as diagnostics, are its subclass LazyScores, which builds its
Fractions when first read. So a caller that reads only the ranking, as
the experiment loops do, builds neither.

Tuples built on every rule call come from lists, not from generators or
map objects. tuple() of an iterator without a length resizes its result,
and the resized tuple is later freed onto the interpreter's free list for
its final size, so those lists grow call after call until a full garbage
collection empties them. Code that allocates little triggers few full
collections: on 20-system boards the growth raised peak memory by a tenth.
"""

from __future__ import annotations

import math
import struct
from dataclasses import InitVar, dataclass, field
from decimal import Decimal, InvalidOperation
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress
from operator import eq, ne
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import EmptySubset, MissingScore, UnknownSystem

MAXIMIZE = "max"
MINIMIZE = "min"

# as_fraction refuses a decimal string whose magnitude is beyond 10**±this:
# its exact ratio holds 10**|exponent|, which hangs on "1e100000000", while
# every float lies between about 1e-324 and 1e308
DECIMAL_EXPONENT_LIMIT = 1000
# a value's float is finite exactly when its magnitude is below this: the
# largest float plus half its last place rounds, to even, up to 2**1024
FLOAT_BOUND = 2**1024 - 2**970


def as_fraction(value: int | float | Fraction | str) -> Fraction:
    """Exact rational from a numeric input.

    Floats convert through their shortest decimal repr, so 0.1 becomes 1/10
    rather than the binary expansion. Strings accept decimal ("0.25") and
    ratio ("1/4") forms. A non-finite value, a ratio with a zero
    denominator, or a nonzero decimal string whose magnitude is beyond
    10**±DECIMAL_EXPONENT_LIMIT, raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value: {value!r}")
        return Fraction(Decimal(repr(value)))
    if isinstance(value, str):
        text = value.strip()
        try:
            exact = Decimal(text)
        except InvalidOperation:
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator: {value!r}") from None
        if not exact.is_finite():
            raise ValueError(f"non-finite value: {value!r}")
        if exact and abs(exact.adjusted()) > DECIMAL_EXPONENT_LIMIT:
            raise ValueError(f"decimal exponent beyond ±{DECIMAL_EXPONENT_LIMIT}: {value!r}")
        return Fraction(exact)
    raise TypeError(f"unsupported numeric type: {type(value).__name__}")


def missing_score(system: str, task: str) -> MissingScore:
    return MissingScore(f"system {system!r} has no score on task {task!r}")


def cell_ratio(value: int | float | Fraction) -> tuple[int, int]:
    """A score cell's exact (numerator, denominator), converted as by
    as_fraction; a value whose float is not finite raises ValueError."""
    try:
        exact = as_fraction(value)
    except ValueError:
        exact = FLOAT_BOUND
    if not -FLOAT_BOUND < exact < FLOAT_BOUND:
        raise ValueError("scores must be finite or None")
    return exact.as_integer_ratio()


Cells = tuple[tuple[int | None, ...], ...]


def over_one_denominator(ratios: Iterable[Sequence[tuple[int, int] | None]]) -> tuple[Cells, int]:
    """Rows of (numerator, denominator) or None as integer rows over one LCM, and the LCM."""
    ratios = list(ratios)
    den = math.lcm(*{r[1] for row in ratios for r in row if r is not None})
    return tuple([tuple([None if r is None else r[0] * (den // r[1]) for r in row])
                  for row in ratios]), den


def exact_cells(lb: Leaderboard) -> tuple[Cells, int]:
    """The board's cells and denominator; a missing cell raises MissingScore."""
    for system, row in zip(lb.systems, lb.cells):
        if None in row:
            raise missing_score(system, lb.tasks[row.index(None)])
    return lb.cells, lb.denominator


def integer_weights(weights: Sequence[Fraction | int]) -> tuple[tuple[int, ...], int]:
    """Task weights, or any exact values, times the LCM of their
    denominators, and that LCM."""
    scale = math.lcm(*{w.denominator for w in weights})
    return tuple([w.numerator * (scale // w.denominator) for w in weights]), scale


def _check_known(given: Mapping[str, Any] | None, tasks: Sequence[str], kind: str) -> None:
    """Refuse a key of given that names none of the tasks."""
    if given is not None and not given.keys() <= set(tasks):
        stray = next(t for t in given if t not in tasks)
        raise ValueError(f"{kind} name an unknown task: {stray!r}")


def _check_unique(names: Sequence[str], kind: str) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {kind} id: {name!r}")
        seen.add(name)


def _task_names(owner: str, names: Iterable[str], kind: str = "tasks") -> tuple[str, ...]:
    # tuple() would split a string into its characters
    if isinstance(names, str):
        raise ValueError(f"{owner}: {kind} must be a sequence of names, not the string {names!r}")
    return tuple(names)


@dataclass(frozen=True, init=False)
class Leaderboard:
    """Immutable score matrix with task directions, weights, and groups.

    Leaderboard(systems, tasks, scores, directions, weights, groups) takes
    scores[i][j], the score of systems[i] on tasks[j], as an int, float
    (read by its shortest decimal repr) or Fraction, or None for missing.
    It stores each cell once, exactly, as cells[i][j] / denominator in
    lowest terms, so boards of equal cells are equal however they were
    built; scores and score() are Fraction views built on first read. It
    reads each weight with as_fraction, so a boolean weight is a TypeError
    and a non-finite one a ValueError, and it keeps the systems, tasks,
    directions, weights and groups as tuples. A minimize-direction task
    ranks low scores first. groups, when present, maps group names, in
    order, to their tasks, as a Mapping or as (name, tasks) pairs; a task
    is in one group at most, and the systems, the tasks or a group's tasks
    given as one str are a ValueError.
    dataclasses.replace builds the edited board with the constructor, from
    the board's scores and the replaced fields, and checks it as it does.
    """

    systems: tuple[str, ...]
    tasks: tuple[str, ...]
    # dataclasses.replace passes scores, read as the view below, not the stored fields
    scores: InitVar[Sequence[Sequence[int | float | Fraction | None]]]
    cells: Cells = field(init=False)
    denominator: int = field(init=False)
    directions: tuple[str, ...]
    weights: tuple[Fraction, ...]
    groups: tuple[tuple[str, tuple[str, ...]], ...] | None = None

    def __init__(self, systems, tasks, scores, directions, weights, groups=None) -> None:
        ratios = [[None if c is None else cell_ratio(c) for c in row] for row in scores]
        if groups is not None:
            pairs = groups.items() if isinstance(groups, Mapping) else groups
            groups = tuple([(name, _task_names(f"group {name!r}", members))
                            for name, members in pairs])
        self._fill(_task_names("leaderboard", systems, "systems"),
                   _task_names("leaderboard", tasks), *over_one_denominator(ratios),
                   tuple(directions), tuple([as_fraction(w) for w in weights]), groups)
        self._check()

    @classmethod
    def _of_cells(cls, *fields: Any) -> "Leaderboard":
        """A board from its fields, checked as the constructor checks them,
        whose cells' floats are finite."""
        return object.__new__(cls)._fill(*fields)._check()

    def _fill(self, systems, tasks, cells, den, directions, weights, groups) -> "Leaderboard":
        """Set the fields, with cells over den reduced to lowest terms."""
        present = [c for row in cells for c in row if c is not None] if den > 1 else ()
        common = math.gcd(den, *present)
        if common > 1:
            den //= common
            cells = tuple([tuple([None if c is None else c // common for c in row])
                           for row in cells])
        self.__dict__.update(systems=systems, tasks=tasks, cells=cells, denominator=den,
                             directions=directions, weights=weights, groups=groups)
        return self

    def _check(self) -> "Leaderboard":
        if not self.systems:
            raise ValueError("leaderboard needs at least one system")
        if not self.tasks:
            raise ValueError("leaderboard needs at least one task")
        _check_unique(self.systems, "system")
        _check_unique(self.tasks, "task")
        if len(self.cells) != len(self.systems):
            raise ValueError("score matrix must have one row per system")
        if any(len(row) != len(self.tasks) for row in self.cells):
            raise ValueError("score row length must match task count")
        if len(self.directions) != len(self.tasks):
            raise ValueError("one direction per task required")
        for d in self.directions:
            if d not in (MAXIMIZE, MINIMIZE):
                raise ValueError(f"direction must be 'max' or 'min', got {d!r}")
        if len(self.weights) != len(self.tasks):
            raise ValueError("one weight per task required")
        if any(w < 0 for w in self.weights):
            raise ValueError("task weights must be non-negative")
        if not any(w > 0 for w in self.weights):
            raise ValueError("at least one task weight must be positive")
        if self.groups is not None:
            _check_unique([name for name, _ in self.groups], "group")
            known = set(self.tasks)
            claimed: set[str] = set()
            for name, members in self.groups:
                if not members:
                    raise ValueError(f"group {name!r} has no tasks")
                for t in members:
                    if t not in known:
                        raise ValueError(f"group {name!r} names unknown task {t!r}")
                    if t in claimed:
                        raise ValueError(f"task {t!r} appears in two groups")
                    claimed.add(t)
        return self

    @classmethod
    def from_scores(
        cls,
        scores: Mapping[str, Mapping[str, int | float | Fraction | None]],
        *,
        tasks: Sequence[str] | None = None,
        directions: Mapping[str, str] | None = None,
        weights: Mapping[str, int | float | Fraction | str] | None = None,
        groups: Mapping[str, Sequence[str]] | None = None,
    ) -> "Leaderboard":
        """Build from nested dicts; iteration order fixes system/task order.

        A weights or directions key that names no task raises ValueError.
        """
        systems = tuple(scores)
        if tasks is None:
            tasks = dict.fromkeys([t for row in scores.values() for t in row])
        task_tuple = _task_names("from_scores", tasks)
        _check_known(weights, task_tuple, "weights")
        _check_known(directions, task_tuple, "directions")
        matrix = [[scores[m].get(t) for t in task_tuple] for m in systems]
        dirs = [(directions or {}).get(t, MAXIMIZE) for t in task_tuple]
        wts = [(weights or {}).get(t, 1) for t in task_tuple]
        return cls(systems, task_tuple, matrix, dirs, wts, groups)

    # -- lookups ---------------------------------------------------------

    def _sys_index(self, system: str) -> int:
        try:
            return self.systems.index(system)
        except ValueError:
            raise UnknownSystem(f"unknown system: {system!r}") from None

    def _task_index(self, task: str) -> int:
        try:
            return self.tasks.index(task)
        except ValueError:
            raise ValueError(f"unknown task: {task!r}") from None

    @cached_property
    def scores(self) -> tuple[tuple[Fraction | None, ...], ...]:
        den = self.denominator
        return tuple([tuple([None if c is None else Fraction(c, den) for c in row])
                      for row in self.cells])

    def score(self, system: str, task: str) -> Fraction | None:
        return self.scores[self._sys_index(system)][self._task_index(task)]

    def direction(self, task: str) -> str:
        return self.directions[self._task_index(task)]

    def task_weight(self, task: str) -> Fraction:
        return self.weights[self._task_index(task)]

    def present_cells(self) -> tuple[tuple[str, str], ...]:
        """All (system, task) pairs that carry a score."""
        return tuple([(m, t) for m, row in zip(self.systems, self.cells)
                      for t, cell in zip(self.tasks, row) if cell is not None])

    # -- derived leaderboards -------------------------------------------

    def _derived(self, systems: tuple[str, ...], cells: Cells, den: int,
                 weights: tuple[Fraction, ...] | None = None) -> "Leaderboard":
        """A board on this board's tasks and metadata, built without its checks:
        systems are distinct systems of this board, cells its rows, with cells
        removed or set to values whose floats are finite, and weights (default
        this board's) non-negative Fractions, one per task, at least one
        positive."""
        return object.__new__(Leaderboard)._fill(
            systems, self.tasks, cells, den, self.directions,
            self.weights if weights is None else weights, self.groups)

    def _rows(self, kept: Sequence[int]) -> "Leaderboard":
        """The board of those systems, in that order, built without checks."""
        return self._derived(tuple([self.systems[i] for i in kept]),
                             tuple([self.cells[i] for i in kept]), self.denominator)

    def restrict_systems(self, keep: Iterable[str]) -> "Leaderboard":
        keep = _task_names("restrict_systems", keep, "systems")
        for m in keep:
            self._sys_index(m)
        wanted = set(keep)
        kept = [i for i, m in enumerate(self.systems) if m in wanted]
        if not kept:
            raise ValueError("cannot drop every system")
        return self._rows(kept)

    def without_cells(self, cells: Iterable[tuple[str, str]]) -> "Leaderboard":
        gone = [(self._sys_index(m), self._task_index(t)) for m, t in cells]
        return self._with_cells(dict.fromkeys(gone))

    def _with_cells(self, cells: Mapping[tuple[int, int], tuple[int, int] | None]):
        """This board with cell (i, j) set to each value: a cell_ratio, or None."""
        den = math.lcm(self.denominator, *[r[1] for r in cells.values() if r is not None])
        up = den // self.denominator
        rows = [list(row) if up == 1 else [None if c is None else c * up for c in row]
                for row in self.cells]
        for (i, j), r in cells.items():
            rows[i][j] = None if r is None else r[0] * (den // r[1])
        return self._derived(self.systems, tuple([tuple(r) for r in rows]), den)


def build_profile(
    lb: Leaderboard,
    task_subset: Sequence[str] | None = None,
    *,
    missing_ok: bool = False,
) -> RankTable:
    """A RankTable that ranks every task of the subset (default: all tasks),
    weighted by the board's weights of those tasks.

    Each task ranks the systems by score: minimize-direction tasks rank low
    scores first, and equal scores form one tie group. A missing cell
    raises MissingScore unless missing_ok is set, in which case the system
    is simply unranked on that task. A subset that names a task the board
    lacks or names one twice, or is one str, raises ValueError.

    Each task's system indices are sorted by their cells, and runs of equal
    neighbours become tie groups. An untied system's group is taken from
    one list of singleton groups made per call.
    """
    if task_subset is None:
        tasks = lb.tasks
        index: Sequence[int] = range(len(tasks))
    else:
        tasks = _task_names("task subset", task_subset)
        if not tasks:
            raise EmptySubset("task subset is empty")
        # looked up first: an unhashable name is an unknown task, not a duplicate
        index = [lb._task_index(t) for t in tasks]
        _check_unique(tasks, "task")
    scaled, scale = integer_weights([lb.weights[j] for j in index])
    columns = list(zip(*lb.cells))
    everyone = range(len(lb.systems))
    singles = [(i,) for i in everyone]
    orders = []
    for task, j in zip(tasks, index):
        col = columns[j]
        ranked: Sequence[int] = everyone
        if None in col:
            if not missing_ok:
                raise missing_score(lb.systems[col.index(None)], task)
            ranked = [i for i in everyone if col[i] is not None]
        # a stable sort: tied systems keep index order
        order = sorted(ranked, key=col.__getitem__, reverse=lb.directions[j] != MINIMIZE)
        values = list(map(col.__getitem__, order))
        groups = list(map(singles.__getitem__, order))
        # p is listed when the systems at places p - 1 and p tie
        tied = list(compress(range(1, len(order)), map(eq, values, values[1:])))
        if tied:
            runs: list[list[int]] = []
            for p in tied:
                if runs and runs[-1][1] == p:
                    runs[-1][1] = p + 1
                else:
                    runs.append([p - 1, p + 1])
            # the last run first, so the places of the earlier runs hold
            for start, stop in reversed(runs):
                groups[start:stop] = [tuple(order[start:stop])]
        orders.append(tuple(groups))
    return RankTable._unchecked(systems=lb.systems, tasks=tasks, orders=tuple(orders),
                                weights=scaled, scale=scale)


Counts = tuple[tuple[int, ...], ...]
# the struct code of a packed count field, by its width in bytes
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@dataclass(frozen=True, init=False)
class RankTable:
    """Per-task rankings as integer tie orders, with integer task weights.

    orders[t] holds task t's tie groups, best first, each a tuple of indices
    into systems. A system missing from a task (missing-tolerant tables) is
    in none of its groups. weights[t] is the task weight times scale, the
    LCM of the weight denominators, so the kernels below sum integers.
    Callers turn their results into Fractions once, where the outcome is
    packaged. positions and position() are views derived from the orders,
    and place_slots builds each task's places as fresh slot rows per call.
    Nothing a table caches (orders, counts, mass unit, completeness)
    outlives it.

    build_profile builds a table from a board, and run_rule builds one per
    rule call. iia builds one per trial from the board in the trial's
    arrival order and runs step k on its prefix(k), the first k systems,
    numbered as on the trial's table; robustness builds one per op and runs
    each trial on it with the deleted cells unranked (without). Each is a
    derived table, whose source is (parent, k, dropped): the parent's first
    k systems, less the system indices dropped maps each task index to. It
    builds its orders and its pairwise counts from the parent's when each is
    first read, so a rule that reads only the counts never builds the
    orders. Equality, repr and every kernel but the counts read the orders,
    and build them. A table built from orders packs each system's counts
    into one integer, one row per distinct task weight multiplied out at the
    end, with a field per rival of 8, 16, 32 or 64 bits, the narrowest that
    holds total, or past 64 bits the next multiple of 32. Each task is
    walked from its last group up, adding the fields passed so far to each
    member's row; an untied system is one step, not a loop over a group of
    one. Each row is read back from its little-endian bytes: fields of up to
    64 bits with struct's B, H, I or Q, wider ones in slices.

    The constructor checks the orders it is given; build_profile, the
    two-step second step and the derived tables build through _unchecked.
    """

    systems: tuple[str, ...]
    tasks: tuple[str, ...]
    # a field; a derived table builds it in the cached property of that name below
    orders: tuple[tuple[tuple[int, ...], ...], ...]
    weights: tuple[int, ...]
    scale: int
    # a derived table's (parent, k, dropped), set by _derived; not a field
    _source = None

    def __init__(self, systems, tasks, orders, weights, scale) -> None:
        """A table from its fields, checked: systems and tasks that are not one
        str, one order and one weight per task, each weight a non-negative int,
        an int scale of at least 1, and in each task non-empty groups of
        distinct indices into systems; else ValueError."""
        if not len(tasks) == len(orders) == len(weights):
            raise ValueError("tasks, orders and weights must be of one length")
        if not all(type(w) is int and w >= 0 for w in weights):
            raise ValueError(f"weights must be non-negative ints: {weights!r}")
        if type(scale) is not int or scale < 1:
            raise ValueError(f"scale must be an int of at least 1: {scale!r}")
        systems = _task_names("rank table", systems, "systems")
        tasks = _task_names("rank table", tasks)
        n = len(systems)
        for task, groups in zip(tasks, orders):
            ranked = list(chain.from_iterable(groups))
            if not all(groups):
                raise ValueError(f"task {task!r} has an empty tie group")
            if len(set(ranked)) < len(ranked):
                raise ValueError(f"task {task!r} ranks a system twice")
            if not all(type(a) is int and 0 <= a < n for a in ranked):
                raise ValueError(f"task {task!r} ranks an index outside 0..{n - 1}")
        self.__dict__.update(systems=systems, tasks=tasks, orders=orders, weights=weights,
                             scale=scale)

    @classmethod
    def _unchecked(cls, **fields: Any) -> "RankTable":
        """A table from its fields, or a derived table from its source, without
        the constructor's checks, for callers whose orders pass them."""
        table = object.__new__(cls)
        table.__dict__.update(fields)
        return table

    @cached_property
    def orders(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """A derived table's orders, built on first read: each task keeps the
        parent's groups of its members below k that it does not unrank, emptied
        groups gone, reusing the parent's tuple where it loses nothing and an
        untied group as it stands. A table built from orders holds them."""
        parent, k, dropped = self._source
        whole = k == len(parent.systems)
        out = []
        for j, groups in enumerate(parent.orders):
            gone = dropped.get(j)
            if whole and not gone:
                out.append(groups)
                continue
            left = []
            for group in groups:
                if len(group) == 1:
                    # untied, the common case; gone is None where nothing is unranked
                    if group[0] < k and not (gone and group[0] in gone):
                        left.append(group)
                    continue
                group = tuple([i for i in group if i < k and not (gone and i in gone)])
                if group:
                    left.append(group)
            out.append(tuple(left))
        return tuple(out)

    def _derived(self, k: int, dropped: dict[int, set[int]]) -> "RankTable":
        """The first k systems, each task index's dropped ones (ranked) unranked;
        dropped is empty unless k is this table's system count."""
        return self._unchecked(systems=self.systems[:k], tasks=self.tasks, weights=self.weights,
                               scale=self.scale, _source=(self, k, dropped))

    @cached_property
    def positions(self) -> dict[str, dict[str, Fraction]]:
        """positions[task][system] -> fractional place, best place 1.

        Tied systems share the mean of the places they span, so a complete
        task's positions sum to n(n+1)/2. A system a task leaves unranked
        has no entry.
        """
        names = self.systems
        return {
            task: fractional_ranks_of([[names[i] for i in group] for group in groups])
            for task, groups in zip(self.tasks, self.orders)
        }

    def position(self, task: str, system: str) -> Fraction | None:
        if task not in self.positions:
            raise ValueError(f"unknown task: {task!r}")
        return self.positions[task].get(system)

    @property
    def total(self) -> int:
        """Scaled weight of all tasks."""
        return sum(self.weights)

    @cached_property
    def mass_unit(self) -> int:
        """Denominator of the place masses: scale times the LCM of 1..largest
        tie group.

        A surviving tie group is never larger than its group in orders, so
        every share w / g of a task's weight is a whole number of units.
        """
        largest = max(map(len, chain.from_iterable(self.orders)), default=1)
        return self.scale * math.lcm(*range(1, largest + 1))

    def prefix(self, k: int) -> "RankTable":
        """The table of the first k systems, numbered as on this table.

        k must be an int from 1 to the number of systems, else ValueError.
        Its source is (this table, k, {}): it builds its orders and counts
        from this table's when each is first read.
        """
        if type(k) is not int or not 0 < k <= len(self.systems):
            raise ValueError(f"a prefix holds 1 to {len(self.systems)} systems: {k!r}")
        return self._derived(k, {})

    def without(self, cells: Iterable[tuple[int, int]]) -> "RankTable":
        """The table with each cell (system index, task index) unranked.

        Each cell must be ranked on this table, else ValueError; the check
        reads this table's orders, O(n) per task the cells touch. Its source
        is (this table, n, the unranked system indices by task index).
        """
        dropped: dict[int, set[int]] = {}
        for i, j in cells:
            dropped.setdefault(j, set()).add(i)
        for j, gone in dropped.items():
            stray = gone.difference(chain.from_iterable(
                self.orders[j] if 0 <= j < len(self.tasks) else ()))
            if stray:
                raise ValueError(f"cell ({min(stray)!r}, {j!r}) is not ranked on this table")
        return self._derived(len(self.systems), dropped)

    def pairwise(self) -> Counts:
        """counts[a][b]: scaled weight of the tasks ranking a strictly above b.

        Ties and missing cells count for neither side. Built once per table.
        """
        return self._counts

    @cached_property
    def _counts(self) -> Counts:
        if self._source is not None:
            # a count reads only its two systems: the parent's first k entries of
            # its first k rows, less each dropped cell's pairs, O(n) per cell; a
            # cell leaves its task's levels first, so no pair is subtracted twice
            parent, k, dropped = self._source
            if not dropped:
                return tuple([row[:k] for row in parent.pairwise()[:k]])
            # k is the parent's system count here, so no row is cut
            rows = [list(row) for row in parent.pairwise()]
            for j, gone in dropped.items():
                w = parent.weights[j]
                level = {i: p for p, group in enumerate(parent.orders[j]) for i in group}
                for a in gone:
                    here = level.pop(a)
                    for b, there in level.items():
                        if here < there:
                            rows[a][b] -= w
                        elif there < here:
                            rows[b][a] -= w
            return tuple([tuple(row) for row in rows])
        # row a holds counts[a][b] at bit width * b; no count exceeds total, so none carries
        bits = self.total.bit_length()
        width = 8 if bits <= 8 else 16 if bits <= 16 else 32 * -(-bits // 32)
        n = len(self.systems)
        field_of = [1 << (width * b) for b in range(n)]
        # the unweighted counts of each distinct positive weight's tasks, so
        # each class is multiplied by its weight once, below
        by_weight: dict[int, list[int]] = {}
        for groups, w in zip(self.orders, self.weights):
            if not w:
                continue
            rows = by_weight.get(w)
            if rows is None:
                rows = by_weight[w] = [0] * n
            below = 0
            for group in reversed(groups):
                if len(group) == 1:
                    a = group[0]
                    rows[a] += below
                    below += field_of[a]
                    continue
                for a in group:
                    rows[a] += below
                for b in group:
                    below += field_of[b]
        rows = [0] * n
        for w, counted in by_weight.items():
            rows = [r + w * x for r, x in zip(rows, counted)]
        step = width // 8
        data = [row.to_bytes(n * step, "little") for row in rows]
        if width <= 64:
            unpack = struct.Struct(f"<{n}{_FIELD_CODES[step]}").unpack
            return tuple([unpack(row) for row in data])
        slices = range(0, n * step, step)
        return tuple([tuple([int.from_bytes(row[i:i + step], "little") for i in slices])
                      for row in data])

    @cached_property
    def _complete(self) -> list[bool]:
        """Whether each task ranks every system."""
        n = len(self.systems)
        return [sum(map(len, groups)) == n for groups in self.orders]

    def edge_masses(self, survivors: Sequence[int], *, last: bool = False) -> list[int]:
        """Each survivor's mass at the first place, or with last at the last
        place, in mass_unit units and in the order of survivors.

        The tasks are re-ranked on the survivors alone, and a surviving tie
        group of g gives each member w/g at each place it spans. Each task
        is walked from that end only as far as its first group holding a
        survivor. A task that leaves a survivor unranked puts no mass on
        the last place.
        """
        alive = set(survivors)
        mass = dict.fromkeys(survivors, 0)
        per_weight = self.mass_unit // self.scale
        for groups, w, complete in zip(self.orders, self.weights, self._complete):
            if last:
                if not (complete or alive.issubset(chain.from_iterable(groups))):
                    continue
                groups = reversed(groups)
            w *= per_weight
            for group in groups:
                if len(group) == 1:
                    if group[0] in alive:
                        mass[group[0]] += w
                        break
                    continue
                live = alive.intersection(group)
                if live:
                    share = w // len(live)
                    for a in live:
                        mass[a] += share
                    break
        return [mass[a] for a in survivors]

    def place_slots(self) -> tuple[list[list[tuple[int, ...]]], list[int]]:
        """Each task's places as a fresh list of slots, and each system's total
        mass in mass_unit units.

        Slot p of a task's row holds the tie group at place p, and a group of
        g systems fills g slots, so a row is as long as its task's ranked
        systems and a member of the group at slot p holds w/g there. A
        system's total mass is the weight of the tasks that rank it. Every
        call builds new rows, which the caller may mutate.
        """
        per_weight = self.mass_unit // self.scale
        rows = []
        totals = [0] * len(self.systems)
        for groups, w in zip(self.orders, self.weights):
            ranked = list(chain.from_iterable(groups))
            # a task without ties has one slot per group already
            rows.append(list(groups) if len(groups) == len(ranked)
                        else [group for group in groups for _ in group])
            for a in ranked:
                totals[a] += w
        return rows, [x * per_weight for x in totals]


def tie_groups(scores: Sequence[Any], *, ascending: bool = False) -> list[tuple[int, ...]]:
    """The indices of scores in tie groups, best (highest, or with ascending
    lowest) first: runs of equal scores in a stable sort of the indices, so
    each group is ascending."""
    n = len(scores)
    order = sorted(range(n), key=scores.__getitem__, reverse=not ascending)
    values = [scores[i] for i in order]
    cuts = [*compress(range(n), [True, *map(ne, values, values[1:])]), n]
    return [tuple(order[a:b]) for a, b in zip(cuts, cuts[1:])]


def first_groups(groups: Iterable[Iterable[Any]], k: int) -> list[Any]:
    """The members of the first tie groups, until k or more are in."""
    chosen: list[Any] = []
    for group in groups:
        if len(chosen) >= k:
            break
        chosen += group
    return chosen


def doubled_ranks(groups: Iterable[Sequence[Any]]) -> dict[Any, int]:
    """Twice the fractional rank of each member of ordered tie groups, an
    integer: a group of g after p ranked members spans places p + 1 to
    p + g, whose mean doubled is 2p + g + 1."""
    ranks = {}
    place = 0
    for group in groups:
        g = len(group)
        rank = 2 * place + g + 1
        for member in group:
            ranks[member] = rank
        place += g
    return ranks


def fractional_ranks_of(groups: Sequence[frozenset[str] | Sequence[str]]) -> dict[str, Fraction]:
    """Fractional rank of each system given ordered tie groups: doubled_ranks halved."""
    return {member: Fraction(rank, 2) for member, rank in doubled_ranks(groups).items()}


@dataclass(frozen=True)
class RuleOutcome:
    """Result of applying a rule: ordered tie groups plus bookkeeping.

    ranking holds disjoint nonempty tie groups, best first. Rules that only
    produce a winning set put it in ranking[0] and list everything else in
    unranked. scores, when present, maps each ranked system to the value the
    rule ordered by (exact rationals where the rule allows it); a rule
    packaged by ranked_by holds them as a LazyScores. diagnostics is a dict,
    or a LazyDiagnostics that builds it when first read. modes.run_rule
    builds it from a rule core's IndexOutcome and stamps rule_id and mode.
    """

    rule_id: str = ""
    mode: str = ""
    ranking: tuple[frozenset[str], ...] = ()
    scores: Mapping[str, Fraction] | None = None
    unranked: frozenset[str] = frozenset()
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for group in self.ranking:
            if not group:
                raise ValueError("empty tie group in ranking")
            if seen & group:
                raise ValueError("tie groups must be disjoint")
            seen |= group
        if seen & self.unranked:
            raise ValueError("a system cannot be both ranked and unranked")

    @property
    def winners(self) -> frozenset[str]:
        return self.ranking[0] if self.ranking else frozenset()

    @property
    def ranked_systems(self) -> frozenset[str]:
        out: set[str] = set()
        for group in self.ranking:
            out |= group
        return frozenset(out)

    @property
    def all_systems(self) -> frozenset[str]:
        return self.ranked_systems | self.unranked

    def is_total(self) -> bool:
        return not self.unranked

    def competition_ranks(self) -> dict[str, int]:
        """1224-style ranks: a group's rank is 1 + systems ranked above it."""
        ranks: dict[str, int] = {}
        place = 1
        for group in self.ranking:
            for member in group:
                ranks[member] = place
            place += len(group)
        return ranks

    def fractional_ranks(self) -> dict[str, Fraction]:
        return fractional_ranks_of(self.ranking)


class IndexOutcome(NamedTuple):
    """A rule core's result on system indices: tie groups best first, each
    an ascending tuple, the unranked indices, each system's score in index
    order (integers over unit, or with unit None the floats shown), and a
    diagnostics dict, LazyDiagnostics or None."""

    groups: list[tuple[int, ...]]
    unranked: Sequence[int] = ()
    scores: Sequence[int] | Sequence[float] | None = None
    unit: int | None = None
    diagnostics: Mapping[str, Any] | None = None

    def named(self, systems: Sequence[str], rule_id: str, mode: str) -> RuleOutcome:
        """The RuleOutcome naming index i systems[i], stamped with rule_id and
        mode. Index groups partition the systems by construction, so
        RuleOutcome's checks do not run."""
        scores = self.scores
        if scores is not None:
            scores = (dict(zip(systems, scores)) if self.unit is None
                      else LazyScores(systems, scores, self.unit))
        out = object.__new__(RuleOutcome)
        out.__dict__.update(
            rule_id=rule_id, mode=mode,
            # an untied system, the common case, without a loop over its group
            ranking=tuple([frozenset((systems[group[0]],)) if len(group) == 1
                           else frozenset([systems[i] for i in group]) for group in self.groups]),
            scores=scores,
            unranked=frozenset([systems[i] for i in self.unranked]),
            diagnostics={} if self.diagnostics is None else self.diagnostics,
        )
        return out


def ranked_by(
    scores: Sequence[int],
    unit: int,
    *,
    ascending: bool = False,
    diagnostics: Mapping[str, Any] | None = None,
) -> IndexOutcome:
    """Result of a rule that orders the systems by integer scores over one
    positive unit, listed in index order; named() makes them a LazyScores."""
    return IndexOutcome(tie_groups(scores, ascending=ascending), (), scores, unit, diagnostics)


class LazyDiagnostics(Mapping[str, Any]):
    """Read-only diagnostics dict that build(*state) makes on the first read.

    state is what the rule core made anyway: names, integer lists, units
    and index tie groups, never a table or a board. build is a module-level
    function, and the mapping pickles and copies as build and state alone,
    so a copy builds its dict, frozensets printing in the same order, as an
    unread one does. It equals, prints and serialises as the dict it
    stands for.
    """

    __slots__ = ("_build", "_state", "_dict")

    def __init__(self, build: Callable[..., dict[str, Any]], *state: Any) -> None:
        self._build = build
        self._state = state
        self._dict: dict[str, Any] | None = None

    def _filled(self) -> dict[str, Any]:
        if self._dict is None:
            self._dict = self._build(*self._state)
        return self._dict

    def __reduce__(self):
        return LazyDiagnostics, (self._build, *self._state)

    def __getitem__(self, key: str) -> Any:
        return self._filled()[key]

    def __iter__(self):
        return iter(self._filled())

    def __len__(self) -> int:
        return len(self._filled())

    def __repr__(self) -> str:
        return repr(self._filled())


def _over_unit(names: Sequence[str], row: Sequence[int], unit: int) -> dict[str, Fraction]:
    return {m: Fraction(x, unit) for m, x in zip(names, row)}


class LazyScores(LazyDiagnostics):
    """Read-only {name: Fraction(score, unit)}, unit positive, that keeps the
    integers until read. Iterating it and its length read the names alone,
    and a copy stays a LazyScores, which io.jsonify reads from the integers."""

    __slots__ = ()

    def __init__(self, names: Sequence[str], row: Sequence[int], unit: int) -> None:
        super().__init__(_over_unit, names, row, unit)

    def over_unit(self) -> tuple[Sequence[str], Sequence[int], int]:
        """The names, their integer scores and the unit, read without building a Fraction."""
        return self._state

    def __reduce__(self):
        return LazyScores, self._state

    def __iter__(self):
        return iter(self._state[0])

    def __len__(self) -> int:
        return len(self._state[0])


def chosen(winners: Sequence[int], n: int,
           diagnostics: Mapping[str, Any] | None = None) -> IndexOutcome:
    """Result of a set-valued rule on n systems: the winners, ascending
    indices, tie, and everyone else is unranked."""
    won = set(winners)
    return IndexOutcome([tuple(winners)] if winners else [],
                        [i for i in range(n) if i not in won], diagnostics=diagnostics)
