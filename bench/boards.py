"""Seeded leaderboard generator.

A board's scores come from a latent model: every system has a skill, every
task a difficulty, and every cell its own noise. The cell is the logistic of
skill - difficulty + noise, squeezed into [0.001, 0.999] and rounded to three
decimals, so ties occur and the geometric mean and optimality gap accept
every cell. A `min` task stores the error 1 - p instead.

The skill spread sets how transitive the majorities are: at 2 one order
dominates almost every task. Pure noise (spread 0) does not make majorities
reliably cyclic: on a 20 x 9 board about a third of seeds still have a
Condorcet winner, and the rest a top cycle of any size. So a cyclic board is
built: with `cycle` > 0 every system sits on a circle and each task favours
the systems near its own point of the circle, by amplitude `cycle`. With
amplitude 3 all the systems form one top cycle on every seed, so the minimal
dominant set is the whole board.

Boards are written as CSV with `#direction` and `#weight` rows plus a groups
JSON file, byte for byte the same for the same seed.

Run `python3 bench/boards.py --seed 0 --out DIR` to write every workload's
boards to DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class BoardSpec:
    """Shape of one generated board; the seed fills in the numbers."""

    name: str
    systems: int
    tasks: tuple[str, ...]
    spread: float
    weights: tuple[Fraction, ...]
    directions: tuple[str, ...]
    groups: tuple[tuple[str, tuple[str, ...]], ...] | None = None
    cycle: float = 0.0


@dataclass(frozen=True)
class BoardFiles:
    name: str
    csv: Path
    groups: Path | None


def _logistic(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _normal_quantiles(n: int, rng: random.Random) -> list[float]:
    """The n standard-normal quantiles at (k + 1/2) / n, in seeded order.

    Every board of a spec gets the same set of skills (or difficulties), so
    its realized spread is the nominal one; the seed decides who gets which
    and draws every cell's noise.
    """
    normal = statistics.NormalDist()
    values = [normal.inv_cdf((k + 0.5) / n) for k in range(n)]
    rng.shuffle(values)
    return values


def score_matrix(spec: BoardSpec, rng: random.Random) -> list[list[str]]:
    """Cells as three-decimal strings, one row per system."""
    skill = [z * spec.spread for z in _normal_quantiles(spec.systems, rng)]
    difficulty = _normal_quantiles(len(spec.tasks), rng)
    # on a cyclic board the systems sit evenly spaced on the circle in seeded
    # order; the tasks' points are evenly spaced from a seeded offset, drawn
    # on every board so that each keeps its stream of noise
    k = spec.systems if spec.cycle else 0
    angle = [c / k for c in range(k)]
    rng.shuffle(angle)
    offset = rng.random()
    point = [(j + offset) / len(spec.tasks) for j in range(len(spec.tasks))]
    rows = []
    for i in range(spec.systems):
        row = []
        for j, direction in enumerate(spec.directions):
            latent = skill[i] - difficulty[j] + rng.gauss(0.0, 1.0)
            if spec.cycle:
                latent += spec.cycle * math.cos(2 * math.pi * (angle[i] - point[j]))
            p = _logistic(latent)
            p = min(max(round(p, 3), 0.001), 0.999)
            if direction == "min":
                p = round(1.0 - p, 3)
            row.append(f"{p:.3f}")
        rows.append(row)
    return rows


def _weight_text(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def board_csv(spec: BoardSpec, rng: random.Random) -> str:
    lines = [",".join(("system", *spec.tasks))]
    lines.append(",".join(("#direction", *spec.directions)))
    lines.append(",".join(("#weight", *(_weight_text(w) for w in spec.weights))))
    width = len(str(spec.systems - 1))
    for i, row in enumerate(score_matrix(spec, rng)):
        lines.append(",".join((f"sys{i:0{width}d}", *row)))
    return "\n".join(lines) + "\n"


def groups_json(spec: BoardSpec) -> str:
    mapping = {t: name for name, members in spec.groups or () for t in members}
    return json.dumps(mapping, sort_keys=True, indent=2) + "\n"


def board_rng(seed: int, name: str) -> random.Random:
    """Independent substream per board, stable across platforms."""
    return random.Random(f"voteboard-bench:{seed}:{name}")


def write_boards(specs: list[BoardSpec], seed: int, out: Path) -> list[BoardFiles]:
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in specs:
        csv_path = out / f"{spec.name}.csv"
        csv_path.write_text(board_csv(spec, board_rng(seed, spec.name)), encoding="utf-8")
        groups_path = None
        if spec.groups is not None:
            groups_path = out / f"{spec.name}.groups.json"
            groups_path.write_text(groups_json(spec), encoding="utf-8")
        written.append(BoardFiles(spec.name, csv_path, groups_path))
    return written


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for workload in WORKLOADS.values():
        for files in write_boards(list(workload.boards), args.seed, args.out / workload.name):
            print(files.csv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
