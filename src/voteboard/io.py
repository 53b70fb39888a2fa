"""Leaderboard file ingestion and outcome serialization.

The CSV layout is self-describing: a header row names the tasks, optional
rows starting with #direction and #weight carry per-task metadata, and every
other row is one system. Empty or whitespace cells are missing scores.

    system,sst2,qqp
    #direction,max,max
    #weight,1,0.5
    alpha,91.2,88.0
    beta,90.1,

Sidecar JSON files can supply task -> group and task -> weight mappings and
take precedence over in-file rows. Every file is read as UTF-8, with or
without a byte-order mark.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from .errors import ParseError
from .model import (DECIMAL_EXPONENT_LIMIT, FLOAT_BOUND, MAXIMIZE, LazyScores, Leaderboard,
                    RuleOutcome, as_fraction, over_one_denominator)

if TYPE_CHECKING:
    from .experiments import ExperimentReport

DIRECTION_TAG = "#direction"
WEIGHT_TAG = "#weight"


def _parse_score(text: str, where: str) -> tuple[int, int] | None:
    """A stripped cell's exact (numerator, denominator), read as a Decimal, or
    None for a hole. A cell whose float is not finite, or nonzero and below
    10**-DECIMAL_EXPONENT_LIMIT in magnitude, raises ParseError."""
    if not text:
        return None
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ParseError(f"{where}: not a number: {text!r}") from None
    if not value.is_finite() or value.adjusted() >= 308 and not value.copy_abs() < FLOAT_BOUND:
        raise ParseError(f"{where}: non-finite scores are not allowed")
    if value and value.adjusted() < -DECIMAL_EXPONENT_LIMIT:
        raise ParseError(f"{where}: score below 1e-{DECIMAL_EXPONENT_LIMIT} in magnitude")
    return value.as_integer_ratio()


def load_leaderboard(
    path: str | Path,
    *,
    normalize: bool = False,
    groups_path: str | Path | None = None,
    weights_path: str | Path | None = None,
) -> Leaderboard:
    """Read a leaderboard CSV plus optional sidecar groups/weights files."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            rows = [row for row in csv.reader(handle) if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: file is empty")
    header = [c.strip() for c in rows[0]]
    if not header or header[0].lower() != "system":
        raise ParseError(f"{path}: first header cell must be 'system'")
    tasks = header[1:]
    if not tasks:
        raise ParseError(f"{path}: no task columns")
    if len(set(tasks)) != len(tasks):
        raise ParseError(f"{path}: duplicate task names")

    directions: dict[str, str] = {}
    weights: dict[str, Fraction] = {}
    ratios: dict[str, list[tuple[int, int] | None]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row]
        label = cells[0]
        if label.startswith("#"):
            if len(cells) != len(header):
                raise ParseError(f"{path}:{lineno}: metadata row needs one cell per task")
            if label.lower() == DIRECTION_TAG:
                for task, cell in zip(tasks, cells[1:]):
                    d = cell.lower()
                    if d not in ("max", "min"):
                        raise ParseError(f"{path}:{lineno}: direction must be max or min")
                    directions[task] = d
            elif label.lower() == WEIGHT_TAG:
                for task, cell in zip(tasks, cells[1:]):
                    try:
                        weights[task] = as_fraction(cell)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: bad weight {cell!r}") from exc
            else:
                raise ParseError(f"{path}:{lineno}: unknown metadata row {label!r}")
            continue
        if not label:
            raise ParseError(f"{path}:{lineno}: system name is empty")
        if label in ratios:
            raise ParseError(f"{path}:{lineno}: duplicate system {label!r}")
        if len(cells) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        where = f"{path}:{lineno}"
        ratios[label] = [_parse_score(cell, where) for cell in cells[1:]]
    if not ratios:
        raise ParseError(f"{path}: no system rows")

    groups: dict[str, list[str]] | None = None
    if groups_path is not None:
        mapping = _load_json_mapping(groups_path, tasks)
        groups = {}
        for task in tasks:
            if task in mapping:
                name = str(mapping[task])
                groups.setdefault(name, []).append(task)
    if weights_path is not None:
        mapping = _load_json_mapping(weights_path, tasks)
        for task, value in mapping.items():
            try:
                weights[task] = as_fraction(value)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{weights_path}: bad weight for {task!r}") from exc

    cells, den = over_one_denominator(ratios.values())
    try:
        return Leaderboard._of_cells(
            tuple(ratios), tuple(tasks), cells, den * 100 if normalize else den,
            tuple([directions.get(t, MAXIMIZE) for t in tasks]),
            tuple([weights.get(t, Fraction(1)) for t in tasks]),
            None if groups is None else tuple([(g, tuple(ts)) for g, ts in groups.items()]))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_json_mapping(path: str | Path, tasks: list[str]) -> Mapping[str, Any]:
    """A sidecar's JSON object, each of whose keys names one of the tasks."""
    try:
        with Path(path).open(encoding="utf-8-sig") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an integer literal beyond
        # the interpreter's digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    unknown = set(data) - set(tasks)
    if unknown:
        raise ParseError(f"{path}: unknown tasks {sorted(unknown)}")
    return data


def _quotient(num: int, den: int) -> float:
    # int true division is correctly rounded, so this is float(Fraction(num, den));
    # a value beyond the float range, as under a task weight of 1e400, rounds to
    # an infinity, where the division would raise
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


# leaf types that jsonify returns, and _write writes, as they are, before the
# dataclass and Mapping checks, whose abc instance checks cost most on the
# many name strings of an outcome
_LEAVES = frozenset([str, int, float, bool, type(None)])


def jsonify(value: Any) -> Any:
    """Recursively convert package values into JSON-serializable ones: a
    Fraction or a LazyScores' score becomes its float, a set its sorted list,
    a dataclass and a Mapping a dict with str keys, a tuple a list."""
    if type(value) in _LEAVES:
        return value
    if type(value) is LazyScores:
        # read from the integers, without the Fractions of the Mapping read
        names, row, unit = value.over_unit()
        return {m: _quotient(x, unit) for m, x in zip(names, row)}
    if isinstance(value, Fraction):
        return _quotient(value.numerator, value.denominator)
    if isinstance(value, (frozenset, set)):
        return [jsonify(v) for v in sorted(value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def outcome_to_dict(outcome: RuleOutcome) -> dict[str, Any]:
    scores = None if outcome.scores is None else jsonify(outcome.scores)
    ranks = outcome.competition_ranks()
    ranking = []
    for group in outcome.ranking:
        members = sorted(group)
        score = None if scores is None else scores[members[0]]
        ranking.append({"rank": ranks[members[0]], "systems": members, "score": score})
    diagnostics = jsonify(dict(outcome.diagnostics))
    if outcome.unranked:
        diagnostics["unranked"] = sorted(outcome.unranked)
    return {
        "rule": outcome.rule_id,
        "mode": outcome.mode,
        "ranking": ranking,
        "diagnostics": diagnostics,
        "seed": None,
    }


def to_json(payload: Any) -> str:
    """The text of json.dumps(jsonify(payload), sort_keys=True, indent=2) plus
    a trailing newline: sorted keys, a 2-space indent, ASCII escapes, each
    float as its shortest repr, and NaN, Infinity and -Infinity as json spells
    them. It is written here in one walk, because json.dumps runs its
    pure-Python encoder whenever indent is set."""
    out: list[str] = []
    _write(payload, "", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(value: Any, indent: str, out: list[str]) -> None:
    """Append the JSON text of jsonify(value), nested at indent, to out.

    A list, a tuple, a dict whose keys are all str, and a leaf are written as
    they stand; any other value is written as jsonify converts it. One that
    jsonify leaves as it is, other than a subclass of str, int or float,
    raises TypeError, as json.dumps does."""
    t = type(value)
    if t is dict and all([type(k) is str for k in value]):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            item = value[key]
            if type(item) in _LEAVES:
                out.append(f"{sep}{_encode_str(key)}: {_leaf(item)}")
            else:
                out.append(f"{sep}{_encode_str(key)}: ")
                _write(item, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{indent}}}")
    elif t is list or t is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            if type(item) in _LEAVES:
                out.append(sep + _leaf(item))
            else:
                out.append(sep)
                _write(item, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{indent}]")
    elif t in _LEAVES:
        out.append(_leaf(value))
    else:
        converted = jsonify(value)
        if converted is not value:
            _write(converted, indent, out)
        elif isinstance(value, (str, int, float)):
            out.append(_leaf(value))
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _leaf(value: str | int | float | None) -> str:
    """A leaf's JSON text, as json.dumps writes it, subclasses of str, int and float included."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_SPELLINGS.get(text, text)
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    return int.__repr__(value)


def _fmt_score(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def _arrow(delta: int) -> str:
    if delta > 0:
        return f"up {delta}"
    if delta < 0:
        return f"down {-delta}"
    return "same"


def render_outcome_table(outcome: RuleOutcome, baseline: RuleOutcome | None = None) -> str:
    headers = ["rank", "system", "score"]
    base_ranks: dict[str, int] = {}
    if baseline is not None:
        headers.append(f"vs {baseline.rule_id}")
        base_ranks = baseline.competition_ranks()
    rows: list[list[str]] = []
    ranks = outcome.competition_ranks()
    scores = None if outcome.scores is None else jsonify(outcome.scores)
    for group in outcome.ranking:
        for system in sorted(group):
            row = [
                str(ranks[system]),
                system,
                _fmt_score(None if scores is None else scores[system]),
            ]
            if baseline is not None:
                if system in base_ranks:
                    row.append(_arrow(base_ranks[system] - ranks[system]))
                else:
                    row.append("new")
            rows.append(row)
    for system in sorted(outcome.unranked):
        row = ["-", system, ""]
        if baseline is not None:
            row.append("")
        rows.append(row)
    return _table(headers, rows)


def render_report_table(report: ExperimentReport) -> str:
    headers = ["rule", "mean", "sd", "trials"]
    rows = [
        [name, f"{report.mean[name]:.4f}", f"{report.sd[name]:.4f}", str(report.trials)]
        for name in report.series
    ]
    return _table(headers, rows)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
