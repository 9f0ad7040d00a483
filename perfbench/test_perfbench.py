"""Self-tests of the benchmark: exact counts, tracer transparency, hygiene.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.metrics import UNITS, layer_of  # noqa: E402
from perfbench.run import leftovers  # noqa: E402
from perfbench.tracer import ENTRY_POINTS, OutsideTracer  # noqa: E402
from perfbench.workloads import compare_passes, run_pass  # noqa: E402

# Counters a later change may claim exactly: they must repeat for a seed.
EXACT_COUNTERS = (
    "sim.events_run",
    "switch.data_pkt_hops",
    "switch.pfc_frames",
    "telemetry.snapshots",
    "collection.collections",
    "monitor.samples",
)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    # Relative paths keep the service's socket path short.
    monkeypatch.chdir(tmp_path)
    return Path("out")


def _exact(pass_):
    return [
        (r.name, r.fingerprint, {k: r.counters[k] for k in EXACT_COUNTERS})
        for r in pass_.runs
    ]


@pytest.mark.parametrize(
    "workload,runs",
    [("anomaly-classes", 6), ("fleet-k16", 1), ("serve-open-loop", 2)],
)
def test_counts_repeat_exactly(workload, runs, out_dir):
    first = run_pass(workload, 3, out_dir, runs=runs)
    assert leftovers() == []
    second = run_pass(workload, 3, out_dir, runs=runs)
    assert leftovers() == []
    assert len(first.runs) == runs
    assert all(r.correct for r in first.runs + second.runs)
    assert first.failed == second.failed == 0
    assert _exact(first) == _exact(second)
    if workload == "serve-open-loop":
        assert all(r.counters["monitor.samples"] > 0 for r in first.runs)
        assert first.queries and all(q.status == "ok" for q in first.queries)


@pytest.mark.parametrize(
    "workload,runs", [("anomaly-classes", 6), ("serve-open-loop", 2)]
)
def test_traced_pass_reproduces_untraced(workload, runs, out_dir):
    from repro.sim.engine import Simulator

    originals = {
        name: Simulator.__dict__[name]
        for name in ("schedule_at", "schedule_delivery", "schedule_every", "run")
    }
    plain = run_pass(workload, 5, out_dir, runs=runs)
    tracer = OutsideTracer()
    with tracer:
        assert Simulator.schedule_at is not originals["schedule_at"]
        traced = run_pass(workload, 5, out_dir, runs=runs)
    assert {n: Simulator.__dict__[n] for n in originals} == originals
    assert compare_passes(plain, traced) == []
    # Every event the engine ran executed inside a callback span.
    name_of_span = dict(zip(tracer.span_id, tracer.span_name))
    engine_run = tracer.names.index("Simulator.run")
    dispatched = sum(
        1 for name, parent in zip(tracer.span_name, tracer.span_parent)
        if tracer.names[name].startswith("cb:")
        and name_of_span.get(parent) == engine_run
    )
    events = sum(r.counters["sim.events_run"] for r in traced.runs)
    assert dispatched == events
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["cb:repro.sim.switch"] > 0 and calls["cb:repro.sim.host"] > 0
    assert layer_of("cb:repro.sim.switch") == "switch"
    assert leftovers() == []


def test_self_time_excludes_children(tmp_path):
    tracer = OutsideTracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")

    def work():
        tracer.call(inner, time.sleep, 0.05)

    tracer.call(outer, work)
    self_s = dict(zip(tracer.names, tracer.self_s))
    assert self_s["inner"] >= 0.05
    assert self_s["outer"] < 0.01
    assert list(tracer.span_parent) == [0, -1]  # inner closes first
    path = tracer.write(tmp_path / "spans")
    index = json.loads(path.with_suffix(".json").read_text())
    assert index["count"] == 2 and index["names"] == ["outer", "inner"]
    with open(path, "rb") as raw:
        ids = array("q")
        ids.fromfile(raw, 2)
    assert list(ids) == [1, 0]


def test_entry_points_exist():
    import importlib

    for module_name, qualname in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), qualname


def _command(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["anomaly-classes", "serve-open-loop"])
def test_command_prints_every_declared_metric(workload, trace, tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    done = _command(copy, "--workload", workload, "--seed", "2",
                    "--seconds", "2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert not list((copy / "perfbench" / "out").glob("*.sock"))


def test_declared_per_layer_units_match_layers():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == UNITS


def test_command_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _command(tmp_path, "--workload", "anomaly-classes", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
