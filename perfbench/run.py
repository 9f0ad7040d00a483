"""The repo benchmark: one command per workload, every verdict checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload anomaly-classes --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same work twice, untraced and then under
:class:`~perfbench.tracer.OutsideTracer`, requires both passes to agree
exactly (events run, diagnosis text, counters) and reports per-layer
numbers.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full report
(environment, per-run records, every metric) goes to ``perfbench/out/``.

The command exits 0 only when every verdict and reply was correct, the
traced pass matched the untraced one and no process, thread or socket
file was left behind.  Without the program's sources next to it, it
exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path("perfbench") / "out"

# Set-up is measured several times per run and reported as the median.
IMPORT_REPS = 5
SERVE_SETUP_REPS = 5
# Share of ``--seconds`` the untraced pass of a traced run may use; the
# traced pass then replays exactly that work (~1.2-1.8x slower).
TRACE_BASELINE_SHARE = 0.35
# The command must end within 180 s; stop well before that.
WATCHDOG_S = 170
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "t0 = time.perf_counter()\n"
    "import repro.experiments, repro.serve\n"
    "print(time.perf_counter() - t0)\n"
)

class Timeout(Exception):
    """Raised by the watchdog alarm."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise Timeout(f"benchmark exceeded {WATCHDOG_S} s")


# -- set-up ------------------------------------------------------------------


def import_seconds(reps: int) -> List[float]:
    """Import time of the program in fresh interpreters, one per rep.

    Each child imports and exits; it is waited for before the next starts
    and before anything is measured, so it never competes for a core.
    """
    times = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -- provenance --------------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git (or None)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- hygiene -----------------------------------------------------------------


def leftovers(sock: Optional[str] = None) -> List[str]:
    """Child processes, extra threads or a socket file still around."""
    found = []
    children = multiprocessing.active_children()
    if children:
        found.append(f"child processes alive: {children}")
    threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
    if threads:
        found.append(f"threads alive: {[t.name for t in threads]}")
    if sock is not None and os.path.exists(sock):
        found.append(f"socket file left behind: {sock}")
    return found


# -- the command -------------------------------------------------------------


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Run the requested pass(es); returns the full report."""
    from perfbench import metrics as measures
    from perfbench.tracer import OutsideTracer
    from perfbench.workloads import compare_passes, run_pass, socket_path

    sock = socket_path(OUT_DIR)
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "problems": [],
    }
    problems = report["problems"]
    if not args.trace:
        import_s = import_seconds(IMPORT_REPS)
        report["import_s"] = import_s
        measured = run_pass(
            args.workload, args.seed, OUT_DIR, budget_s=args.seconds,
            setup_reps=SERVE_SETUP_REPS,
        )
        problems += leftovers(sock)
        metrics = measures.end_to_end(measured, import_s)
        units = measures.END_TO_END_UNITS
        passes = [measured]
    else:
        plain = run_pass(
            args.workload, args.seed, OUT_DIR,
            budget_s=args.seconds * TRACE_BASELINE_SHARE,
        )
        problems += leftovers(sock)
        tracer = OutsideTracer()
        with tracer:
            traced = run_pass(args.workload, args.seed, OUT_DIR, runs=len(plain.runs))
        problems += leftovers(sock)
        problems += compare_passes(plain, traced)
        # One spans file per workload (the latest traced run): they are large.
        spans = tracer.write(OUT_DIR / f"spans-{args.workload}")
        report["spans_file"] = str(spans)
        metrics, units = measures.per_layer(plain, traced, tracer)
        report["tracer_self_s"] = dict(zip(tracer.names, tracer.self_s))
        report["tracer_calls"] = dict(zip(tracer.names, tracer.calls))
        passes = [plain, traced]
    for pass_ in passes:
        problems += pass_.errors
        problems += [
            f"{r.name}: {r.error}" for r in pass_.runs if not r.correct
        ]
        problems += [
            f"query {q.status}: {q.detail}" for q in pass_.queries
            if q.status == "error"
        ]
    report["attempted"] = sum(p.attempted for p in passes)
    report["failed"] = sum(p.failed for p in passes)
    report["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()
    }
    report["runs"] = [
        {"name": r.name, "latency_s": r.latency_s, "correct": r.correct,
         "events_run": r.fingerprint[0], "counters": r.counters}
        for r in passes[-1].runs
    ]
    return report


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import socket_path

    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        report = measure(args)
    except Exception:  # report, check for leftovers, exit without a result
        traceback.print_exc()
        for problem in leftovers(socket_path(OUT_DIR)):
            print(f"error: {problem}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    problems = report["problems"]
    correct = not problems and report["failed"] == 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_file = OUT_DIR / (
        f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out_file.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print("# environment " + json.dumps(report["environment"], sort_keys=True))
    for name, metric in report["metrics"].items():
        print(f"# {name:28s} {metric['value']:14.6f} {metric['unit']}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
