"""One benchmark run: generate boards, measure, check, report."""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import adapter
import checks
import layers
from boards import BoardSpec, write_boards
from pace import Pacer
from tracing import Tracer
from workloads import Op, Workload

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTS = BENCH / "digests.json"

SETUP_SAMPLES = 15
# What a fresh interpreter does for setup_s: import voteboard and its CLI and
# load the boards, timed from inside; then it samples the pace where it ran and
# prints both.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import adapter
for csv, groups in zip(sys.argv[3::2], sys.argv[4::2]):
    adapter.load_board(csv, groups or None)
elapsed = time.perf_counter() - start
import pace
pacer = pace.Pacer()
pacer.sample(20)
print(elapsed, pacer.factor)
"""
LADDER_REPEATS = {(20, 9): 5, (50, 20): 5, (100, 20): 3, (200, 40): 1}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    summary: list[str] = field(default_factory=list)

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(10_000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-13:
            break
    return front * (f - 1.0)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics, with beta weights centred on
    rank q/100 * n. The op mix is a few clusters of very different cost, so
    a single order statistic jumps from cluster to cluster as a board
    shifts one op across a boundary; this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) * q / 100
    b = (n + 1) * (1 - q / 100)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


class Session:
    def __init__(self, workload: Workload, seed: int, work_root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = work_root / f"{workload.name}-{seed}"
        self.files = {f.name: f for f in write_boards(list(workload.boards), seed, self.dir)}
        self.ops_by_id = {op.op_id: op for op in workload.ops}
        self.argv = {op.op_id: self._argv(op) for op in workload.ops if op.kind == "cli"}
        self.lbs: dict[str, Any] = {}
        self.log = checks.CheckLog()
        self.digests: dict[str, str] = {}
        self.decisions: dict[str, Any] = {}
        self.failed: dict[str, str] = {}

    # -- ops ---------------------------------------------------------------

    def _argv(self, op: Op) -> list[str]:
        files = self.files[op.board]
        a = op.args
        argv = [a["command"], "--input", str(files.csv)]
        if a["command"] == "rank":
            argv += ["--rule", a["rule"]]
            if a["mode"] == "two_step":
                return argv + ["--groups", str(files.groups), "--mode", "two_step"]
        elif a["command"] == "compare":
            argv += ["--rules", *a["rules"]]
        else:
            argv += ["--system", a["system"]]
        return argv + ["--format", "json"]

    def _shape(self, op: Op) -> str:
        a = op.args
        if a["command"] == "rank":
            return "rank-table" if a["mode"] == "two_step" else "rank"
        return a["command"]

    def call(self, op: Op, tracer: Tracer | None):
        """Issue one op; returns its raw result or the exception it raised."""
        a = op.args
        try:
            if op.kind == "cli":
                if tracer is None:
                    return adapter.cli_request(self.argv[op.op_id])
                return adapter.cli_request_traced(self.argv[op.op_id], tracer)
            lb = self.lbs[op.board]
            if op.kind == "aggregate":
                params = {"vector": a["vector"]} if "vector" in a else {}
                if tracer is None:
                    return adapter.aggregate(lb, a["rule"], **params)
                return adapter.traced_aggregate(tracer, lb, a["rule"], **params)
            probe = random.Random(f"probe:{op.op_id}")
            if op.kind == "robustness":
                kw = dict(seed=a["seed"], trials=a["trials"], omit=a["omit"], top_k=a["top_k"])
                if tracer is None:
                    return adapter.robustness(lb, a["rules"], **kw)
                return adapter.traced_robustness(tracer, lb, a["rules"], probe=probe, **kw)
            kw = dict(seed=a["seed"], trials=a["trials"])
            if tracer is None:
                return adapter.iia(lb, a["rule"], **kw)
            return adapter.traced_iia(tracer, lb, a["rule"], probe=probe, **kw)
        except Exception as exc:  # an op that raises counts as failed
            return exc

    def decide(self, op: Op, raw) -> tuple[Any, str | None]:
        """(decision, None) for a success, (None, reason) for a failure."""
        if isinstance(raw, Exception):
            return None, type(raw).__name__
        if op.kind == "cli":
            if raw.code != 0:
                return None, f"exit {raw.code}"
            return checks.cli_decision(self._shape(op), raw.stdout), None
        if op.kind == "aggregate":
            return checks.outcome_decision(raw), None
        return checks.report_decision(raw), None

    def record(self, op: Op, decision: Any, failure: str | None) -> None:
        d = checks.digest(decision) if failure is None else checks.FAILED
        if self.digests.setdefault(op.op_id, d) != d:
            self.log.fail(f"{op.op_id}: output differs between repetitions or flows")
        if failure is not None:
            self.failed[op.op_id] = failure
        else:
            self.decisions.setdefault(op.op_id, decision)

    def run_pass(self, ops, pacer: Pacer, tracer: Tracer | None = None
                 ) -> tuple[list[float], int]:
        """Issue the ops back to back; returns their latencies and failure count."""
        latencies = []
        failures = 0
        for op in ops:
            if tracer is not None:
                tracer.op_id = op.op_id
            timer_before = pacer.timer_seconds
            start = time.perf_counter()
            raw = self.call(op, tracer)
            elapsed = time.perf_counter() - start
            latencies.append(elapsed - (pacer.timer_seconds - timer_before))
            pacer.after(start, latencies[-1])
            decision, failure = self.decide(op, raw)
            self.record(op, decision, failure)
            failures += failure is not None
        return latencies, failures

    # -- set-up ------------------------------------------------------------

    def load_boards(self, tracer: Tracer | None = None) -> None:
        for name, files in self.files.items():
            groups = None if files.groups is None else str(files.groups)
            if tracer is None:
                self.lbs[name] = adapter.load_board(str(files.csv), groups)
            else:
                with tracer.span("load_leaderboard"):
                    self.lbs[name] = adapter.load_board(str(files.csv), groups)

    def measure_setup(self) -> tuple[float, float]:
        """Median over fresh interpreters of the time to import voteboard and
        its CLI and load the boards: wall-clock and paced."""
        argv = [sys.executable, "-c", SETUP_PROBE, str(BENCH), str(SRC)]
        for files in self.files.values():
            argv += [str(files.csv), "" if files.groups is None else str(files.groups)]
        wall, paced = [], []
        for _ in range(SETUP_SAMPLES):
            done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                                  text=True, timeout=120, check=False)
            if done.returncode != 0:
                self.log.fail(f"set-up interpreter exited {done.returncode}: "
                              f"{done.stderr.strip()[-300:]}")
                continue
            elapsed, factor = map(float, done.stdout.split())
            wall.append(elapsed)
            paced.append(elapsed / factor)
        if not wall:
            return 0.0, 0.0
        return statistics.median(wall), statistics.median(paced)

    # -- checks --------------------------------------------------------------

    def check_outputs(self, recorded: bool = True) -> None:
        """Run every output check; `recorded=False` skips the comparison with
        `digests.json`, for re-recording it."""
        checks.check_known_failures(self.failed, self.ops_by_id, self.decisions, self.log)
        if recorded:
            self._check_recorded()
        ops = self.workload.ops
        if self.workload.name == "glue-cli":
            import oracle

            rules = 0
            for name, lb in self.lbs.items():
                rules += checks.check_against_oracle(oracle, name, lb, self.decisions, self.log)
            if rules == 0:
                self.log.fail("no rank request was cross-checked against the oracle")
            for op in ops:
                if op.args.get("command") == "cw-weights" and op.op_id in self.decisions:
                    checks.check_cw(op.op_id, self.decisions[op.op_id], self.lbs[op.board],
                                    op.args["system"], adapter.solve_cw, self.log)
        for op in ops:
            decision = self.decisions.get(op.op_id)
            if decision is None:
                continue
            if op.kind == "aggregate":
                checks.check_partition(op.op_id, decision, self.lbs[op.board].systems, self.log)
            elif op.kind == "robustness":
                checks.check_series(op.op_id, decision, op.args["trials"], -1.0, 1.0, self.log)
            elif op.kind == "iia":
                n = len(self.lbs[op.board].systems)
                checks.check_series(op.op_id, decision, op.args["trials"], 0, n - 2, self.log)

    def _check_recorded(self) -> None:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        expected = recorded.get(self.workload.name, {}).get(str(self.seed))
        if expected is None:
            return
        for op_id, want in expected.items():
            got = self.digests.get(op_id)
            # an op that failed when recorded and answers now had a known
            # failure fixed; its answer is checked by the other checks
            if got is not None and got != want and want != checks.FAILED:
                self.log.fail(f"{op_id}: digest {got} differs from the recorded {want}")

    # -- runs ----------------------------------------------------------------

    def run_timed(self, seconds: float) -> Result:
        setup_wall, setup_s = self.measure_setup()
        self.load_boards()
        pacer = Pacer()
        latencies: list[float] = []
        failed = 0
        start = time.perf_counter()
        # whole passes, so every run times the same mix; stop at the pass
        # boundary nearest to `seconds`
        with pacer.timer():
            while True:
                pass_start = time.perf_counter()
                lat, fails = self.run_pass(self.workload.ops, pacer)
                latencies += lat
                failed += fails
                now = time.perf_counter()
                if now - start + (now - pass_start) / 2 >= seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check_outputs()
        attempted = len(latencies)
        paced = pacer.paced()
        metrics = {
            "ops_per_s": (attempted / sum(paced), "1/s"),
            "op_p50_ms": (percentile(paced, 50) * 1e3, "ms"),
            "op_p90_ms": (percentile(paced, 90) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((attempted - failed) / attempted, "share"),
        }
        note = (f"{attempted // len(self.workload.ops)} passes; "
                f"pace factor {sum(latencies) / sum(paced):.4f}; "
                f"wall clock: {attempted / sum(latencies):.4f} ops/s, "
                f"p50 {percentile(latencies, 50) * 1e3:.4f} ms, "
                f"p90 {percentile(latencies, 90) * 1e3:.4f} ms, setup {setup_wall:.4f} s")
        return Result(self.log.ok, attempted, failed, metrics,
                      self._summary(metrics, attempted, failed, note))

    def run_traced(self) -> Result:
        tracer = Tracer()
        self.load_boards(tracer)
        untraced_pace, traced_pace = Pacer(), Pacer()
        untraced = sum(self.run_pass(self.workload.ops, untraced_pace)[0])
        traced_latencies, failed = self.run_pass(self.workload.ops, traced_pace, tracer)
        traced = sum(traced_latencies)
        tracer.op_id = None
        for (n, t), repeats in LADDER_REPEATS.items():
            lb = self._ladder_board(n, t)
            for _ in range(repeats):
                start = time.perf_counter()
                adapter.ladder_probe(tracer, lb, f"{n}x{t}")
                traced_pace.after(start, time.perf_counter() - start)
        self.check_outputs()
        metrics = layers.layer_metrics(tracer.spans, traced_pace.factor)
        untraced /= untraced_pace.factor
        traced /= traced_pace.factor
        metrics[layers.OVERHEAD] = ((traced - untraced) / untraced * 100, layers.OVERHEAD_UNIT)
        tracer.dump(self.dir / "spans.jsonl")
        attempted = len(traced_latencies)
        return Result(self.log.ok, attempted, failed, metrics, self._summary(
            metrics, attempted, failed, f"spans in {self.dir / 'spans.jsonl'}"))

    def _ladder_board(self, n: int, t: int):
        spec = BoardSpec(f"ladder{n}x{t}", n, tuple(f"t{j:02d}" for j in range(t)), 1.0,
                         (Fraction(1),) * t, ("max",) * t)
        (files,) = write_boards([spec], self.seed, self.dir)
        return adapter.load_board(str(files.csv))

    def _summary(self, metrics, attempted: int, failed: int, note: str) -> list[str]:
        lines = [f"workload {self.workload.name}, seed {self.seed}: {attempted} ops "
                 f"({note}), {failed} failed (failed_share {failed / attempted:.4f})"]
        for op_id, reason in sorted(self.failed.items()):
            lines.append(f"  failing op {op_id}: {reason}")
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:34s} {value:14.4f} {unit}")
        for problem in self.log.problems:
            lines.append(f"CHECK FAILED: {problem}")
        return lines
