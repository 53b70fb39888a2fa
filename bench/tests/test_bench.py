"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import adapter
import layers
import record_digests
import session as session_module
from boards import write_boards
from pace import Pacer, reference
from session import Session, percentile
from tracing import Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _mini(name: str, keep) -> Workload:
    """The workload cut to its first board and the ops `keep` accepts."""
    full = WORKLOADS[name]
    board = full.boards[0]
    ops = tuple(op for op in full.ops if op.board == board.name and keep(op))
    return replace(full, boards=(board,), ops=ops)


def _glue_sample(op) -> bool:
    a = op.args
    return (a.get("rule") in ("borda", "minimal_dominant", "weakly_stable", "custom", "mean")
            or a["command"] in ("compare", "cw-weights") and op.op_id.endswith(("borda", "sys00")))


def _cheap_rules(op) -> bool:
    return op.args["rule"] in (
        "borda", "copeland", "mean", "minimal_dominant", "weakly_stable", "custom")


def test_generation_is_deterministic_per_seed(tmp_path):
    specs = [b for w in WORKLOADS.values() for b in w.boards]
    first = write_boards(specs, 7, tmp_path / "a")
    again = write_boards(specs, 7, tmp_path / "b")
    other = write_boards(specs, 8, tmp_path / "c")
    for x, y, z in zip(first, again, other):
        assert x.csv.read_bytes() == y.csv.read_bytes()
        assert x.csv.read_bytes() != z.csv.read_bytes()
        if x.groups is not None:
            assert x.groups.read_bytes() == y.groups.read_bytes()


def test_traced_cli_flow_prints_what_cli_main_prints(tmp_path):
    workload = _mini("glue-cli", lambda op: True)
    session = Session(workload, 0, tmp_path)
    assert len(workload.ops) == 52
    for op in workload.ops:
        argv = session.argv[op.op_id]
        assert adapter.cli_request_traced(argv, Tracer()) == adapter.cli_request(argv), op.op_id


def test_tracing_leaves_digests_unchanged(tmp_path):
    for workload in (_mini("glue-cli", _glue_sample), _mini("wide-lib", _cheap_rules),
                     _mini("perturb", lambda op: True)):
        session = Session(workload, 3, tmp_path)
        session.load_boards()
        session.run_pass(workload.ops, Pacer())
        untraced = dict(session.digests)
        tracer = Tracer()
        session.run_pass(workload.ops, Pacer(), tracer)
        assert session.digests == untraced
        assert session.log.ok, session.log.problems
        assert tracer.spans


def test_result_json_has_the_declared_metrics(tmp_path):
    session = Session(_mini("glue-cli", _glue_sample), 0, tmp_path)
    result = session.run_timed(0.01)
    line = json.loads(result.json_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, result.summary
    assert line["attempted"] >= 1 and isinstance(line["failed"], int)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_result_has_every_layer_metric(tmp_path):
    session = Session(_mini("perturb", lambda op: True), 0, tmp_path)
    line = json.loads(session.run_traced().json_line())
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert line["correct"] is True
    assert line["metrics"]["experiments.aggregations"]["value"] > 0


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert names == [*layers.METRICS, layers.OVERHEAD]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "glue-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_percentile_weighs_the_order_statistics():
    assert percentile([5.0], 50) == 5.0
    values = [float(v) for v in range(1, 102)]
    assert abs(percentile(values, 50) - 51.0) < 1e-9
    assert percentile(values, 10) < percentile(values, 50) < percentile(values, 90) < 101
    mixed = [1.0] * 7 + [9.0] * 3
    assert abs(percentile(mixed, 90) - percentile(mixed[::-1], 90)) < 1e-12


def test_record_digests_replaces_a_changed_digest(tmp_path, monkeypatch):
    workload = _mini("glue-cli", lambda op: op.args.get("rule") in ("borda", "custom"))
    stale = tmp_path / "digests.json"
    stale.write_text(json.dumps(
        {"glue-cli": {"0": {op.op_id: "0" * 16 for op in workload.ops}}}), encoding="utf-8")
    monkeypatch.setattr(session_module, "DIGESTS", stale)
    checked = Session(workload, 0, tmp_path / "work")
    checked.load_boards()
    checked.run_pass(workload.ops, Pacer())
    checked.check_outputs()
    assert not checked.log.ok
    assert record_digests.record({"glue-cli": workload}, [0], stale, tmp_path / "work") == 0
    digests = json.loads(stale.read_text(encoding="utf-8"))["glue-cli"]["0"]
    assert digests == checked.digests


def _young_generation_due() -> list:
    """Allocate until the next allocation of a tracked object starts a collection."""
    kept = []
    while gc.get_count()[0] < gc.get_threshold()[0]:
        kept.append([])
    return kept


def test_pace_reference_starts_no_collection():
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(note)
    try:
        kept = _young_generation_due()
        reference()
        unpaced = len(started)
        started.clear()
        pacer = Pacer()
        for _ in range(20):
            kept += _young_generation_due()
            pacer.sample(3)
        paced = len(started)
    finally:
        gc.callbacks.remove(note)
    assert unpaced > 0  # the reference alone would collect the program's heap
    assert paced == 0


def test_ballast_slows_the_ops_and_not_the_pace():
    def op():
        kept = [[] for _ in range(2000)]
        gc.collect()  # a collection's cost grows with the heap
        return kept

    ballast: list = []
    paces = {False: Pacer(), True: Pacer()}
    latencies: dict[bool, list[float]] = {False: [], True: []}
    # alternate between the two heaps, so that both see the same machine
    for block in range(16):
        heavy = block % 2 == 1
        ballast = [[i] for i in range(300_000)] if heavy else []
        for _ in range(3):
            start = time.perf_counter()
            op()
            latencies[heavy].append(time.perf_counter() - start)
            paces[heavy].after(start, latencies[heavy][-1])
    del ballast
    slower = statistics.median(latencies[True]) / statistics.median(latencies[False])
    assert slower > 2
    assert 0.67 < paces[True].factor / paces[False].factor < 1.5


def test_each_op_is_paced_by_the_calls_around_it():
    pacer = Pacer()
    pacer.ops = [(0.0, 0.010), (10.0, 0.010)]
    pacer.calls = [(0.011, 0.001), (10.011, 0.002)]
    assert [round(x, 12) for x in pacer.paced()] == [0.010, 0.005]
