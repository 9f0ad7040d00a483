"""The benchmark's workloads, driven in-process from one load generator.

Every workload turns ``--seed`` into the scenarios the program receives
and records, per build→verdict run, its latency, simulated time, verdict
check and exact counters.  Nothing runs sharded, forked or as a
subprocess: ``RunConfig()`` keeps ``shards=1`` and ``analyzer_jobs=1``.

- ``anomaly-classes``: closed loop, one caller, the six anomaly classes
  in rounds; round ``r`` runs every class at ``seed + r``.  Monitor and
  tracing off.
- ``fleet-k16``: closed loop, ``fleet-incast-k16`` at ``seed + r``.
- ``serve-open-loop``: a :class:`DiagnosisService` on ``pfc-storm`` with a
  finite episode count, one subscriber connection checking every
  ``episode-end`` verdict and one querier connection sending queries open
  loop at :data:`SERVE_RATE_QPS`, each timed from when it was due.

A batch pass stops at the first round boundary after its time budget (or
after a fixed number of runs); a serve pass stops at the first
``episode-end`` after its budget (or after a fixed number of episodes).
Either way the work done is a whole number of runs, so a traced pass can
replay exactly the work of an untraced one.
"""

from __future__ import annotations

import asyncio
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BATCH_CLASSES: Tuple[str, ...] = (
    "incast-backpressure",
    "pfc-storm",
    "in-loop-deadlock",
    "out-of-loop-deadlock",
    "normal-contention",
    "contention-masked-storm",
)
FLEET_SCENARIO = "fleet-incast-k16"
SERVE_SCENARIO = "pfc-storm"
WORKLOADS: Tuple[str, ...] = ("anomaly-classes", "fleet-k16", "serve-open-loop")

# Open-loop query rate.  The querier's queries are answered one at a time,
# each after the slice running when it arrives, so queries pile up behind a
# long slice (up to ~0.3 s); at 10 q/s the pile stays short and latency
# tracks slice time instead of amplifying it, with 300 samples per 30 s.
SERVE_RATE_QPS = 10.0
# A query is on time within the repo's serve SLO (``STRICT_P99_S`` in
# ``benchmarks/test_serve_scale.py``).  A batch run is the batch form of a
# diagnosis query; it is on time when its verdict arrives within
# ``BATCH_SLO_S`` of asking for it.
SERVE_SLO_S = 0.5
BATCH_SLO_S = 10.0
# Counters that mid-run queries move: the replay cache is shared by the
# queries and the episode's own diagnosis, and queries arrive by wall clock.
QUERY_DEPENDENT_COUNTERS = frozenset(
    {"core.replay_cache_hits", "core.replay_cache_lookups"}
)
# Cap on served episodes.  The service never replays forever; the pass
# normally stops at its time budget long before reaching this.
SERVE_EPISODES_PER_SECOND_CAP = 100


@dataclass
class RunRecord:
    """One build→verdict run (a batch run or a served episode)."""

    name: str
    latency_s: float
    sim_ns: int
    correct: bool
    error: Optional[str] = None
    counters: Dict[str, int] = field(default_factory=dict)
    # (events_run, primary diagnosis text): must match between passes.
    fingerprint: Tuple[int, str] = (0, "")


@dataclass
class QueryRecord:
    """One open-loop query: latency counts from its due time."""

    latency_s: float
    status: str  # "ok", "rejected" or "error"
    detail: str = ""


@dataclass
class Pass:
    """Everything one pass over a workload measured."""

    workload: str
    seed: int
    wall_s: float = 0.0
    runs: List[RunRecord] = field(default_factory=list)
    queries: List[QueryRecord] = field(default_factory=list)
    sim_ns: int = 0
    late_max_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    service_histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    service_counters: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        bad_runs = sum(1 for r in self.runs if not r.correct)
        bad_queries = sum(1 for q in self.queries if q.status == "error")
        return bad_runs + bad_queries + len(self.errors)

    @property
    def attempted(self) -> int:
        return len(self.runs) + len(self.queries) + len(self.errors)


def run_counters(result: Any) -> Dict[str, int]:
    """The deterministic per-run counters of a :class:`RunResult`."""
    counters = result.metrics.to_dict()["counters"]
    perf = result.perf
    net = result.scenario.network
    pfc_frames = sum(
        sw.stats.pause_sent + sw.stats.resume_sent
        for sw in net.switches.values()
    )
    snap = perf.caches.get("telemetry_snapshot", {})
    epoch = perf.caches.get("telemetry_epoch_materialize", {})
    replay = perf.caches.get("replay_contribution", {})
    return {
        "build.switches": len(net.switches),
        "build.hosts": len(net.topology.hosts),
        "sim.events_run": perf.events_run,
        "sim.peak_pending": perf.peak_pending_events,
        "sim.compactions": perf.compactions,
        "switch.data_pkt_hops": result.data_pkt_hops,
        "switch.pfc_frames": pfc_frames,
        "telemetry.snapshots": snap.get("hits", 0) + snap.get("misses", 0),
        "telemetry.cache_hits": snap.get("hits", 0) + epoch.get("hits", 0),
        "telemetry.cache_lookups": sum(
            c.get("hits", 0) + c.get("misses", 0) for c in (snap, epoch)
        ),
        "core.replay_cache_hits": replay.get("hits", 0),
        "core.replay_cache_lookups": replay.get("hits", 0) + replay.get("misses", 0),
        "collection.collections": result.collections,
        "collection.polling_packets": result.polling_packets,
        "agent.triggers": counters.get("agent.triggers", 0),
        "monitor.samples": counters.get("monitor.samples", 0),
        "monitor.alerts": counters.get("monitor.alerts_total", 0),
    }


def _fingerprint(result: Any) -> Tuple[int, str]:
    diagnosis = result.diagnosis()
    text = diagnosis.describe() if diagnosis is not None else "<no diagnosis>"
    return result.events_run, text


def _record(name: str, latency_s: float, result: Any) -> RunRecord:
    from repro.experiments import diagnosis_correct

    diagnosis = result.diagnosis()
    correct = diagnosis is not None and diagnosis_correct(
        diagnosis, result.scenario.truth
    )
    return RunRecord(
        name=name,
        latency_s=latency_s,
        sim_ns=result.scenario.duration_ns,
        correct=correct,
        error=None if correct else "incorrect verdict",
        counters=run_counters(result),
        fingerprint=_fingerprint(result),
    )


def exact_counters(run: RunRecord, workload: str) -> Dict[str, int]:
    """The counters of ``run`` that must repeat exactly for its seed."""
    if workload != "serve-open-loop":
        return run.counters
    return {
        k: v for k, v in run.counters.items()
        if k not in QUERY_DEPENDENT_COUNTERS
    }


def compare_passes(untraced: Pass, traced: Pass) -> List[str]:
    """Every difference between the untraced pass and its traced replay."""
    problems = []
    if len(untraced.runs) != len(traced.runs):
        problems.append(
            f"traced pass ran {len(traced.runs)} runs, untraced {len(untraced.runs)}"
        )
    for plain, seen in zip(untraced.runs, traced.runs):
        if plain.name != seen.name:
            problems.append(f"run order differs: {plain.name} vs {seen.name}")
        elif plain.fingerprint != seen.fingerprint:
            problems.append(f"{plain.name}: traced events/diagnosis differ")
        elif exact_counters(plain, untraced.workload) != exact_counters(
            seen, traced.workload
        ):
            problems.append(f"{plain.name}: traced counters differ")
    return problems


# -- batch workloads ---------------------------------------------------------


def batch_rounds(workload: str, seed: int, round_index: int) -> List[Any]:
    """The scenario specs of one round: what the program receives."""
    from repro.experiments import ScenarioSpec

    names = BATCH_CLASSES if workload == "anomaly-classes" else (FLEET_SCENARIO,)
    return [ScenarioSpec(name, seed=seed + round_index) for name in names]


def run_batch(
    workload: str,
    seed: int,
    budget_s: Optional[float] = None,
    runs: Optional[int] = None,
) -> Pass:
    """Closed loop: build→verdict runs until the budget or run count."""
    from repro.experiments import RunConfig, run_scenario

    if (budget_s is None) == (runs is None):
        raise ValueError("give exactly one of budget_s and runs")
    out = Pass(workload, seed)
    start = time.perf_counter()
    round_index = 0
    while True:
        for spec in batch_rounds(workload, seed, round_index):
            if runs is not None and len(out.runs) >= runs:
                break
            t0 = time.perf_counter()
            try:
                scenario = spec.build()
                result = run_scenario(scenario, RunConfig())
            except Exception:  # a failed run is counted, never hidden
                out.runs.append(RunRecord(
                    spec.name, time.perf_counter() - t0, 0, False,
                    error=traceback.format_exc(),
                ))
                continue
            latency = time.perf_counter() - t0
            out.runs.append(_record(spec.name, latency, result))
            out.sim_ns += scenario.duration_ns
            del result, scenario
        round_index += 1
        if runs is not None and len(out.runs) >= runs:
            break
        if budget_s is not None and time.perf_counter() - start >= budget_s:
            break
    out.wall_s = time.perf_counter() - start
    return out


# -- the serve workload ------------------------------------------------------


def socket_path(out_dir: Path) -> str:
    """A short socket path relative to the checkout root (AF_UNIX paths
    are limited to ~107 bytes, and the checkout may sit deep)."""
    return os.path.relpath(out_dir / f"serve-{os.getpid()}.sock")


async def _start_and_subscribe(config: Any, sock: str):
    """Service start through the subscribe reply: the serve set-up."""
    from repro.serve import DiagnosisService, ServeClient

    service = DiagnosisService(config)
    try:
        await service.start(unix_path=sock)
        subscriber = await ServeClient.connect(unix_path=sock, tenant="subscriber")
        reply = await subscriber.subscribe()
    except BaseException:
        await _shutdown(service, [], sock)
        raise
    if reply.get("type") != "subscribed":
        await _shutdown(service, [subscriber], sock)
        raise RuntimeError(f"subscribe failed: {reply}")
    return service, subscriber


async def _shutdown(service: Any, clients: List[Any], sock: str) -> None:
    # Stop before disconnecting: every stream then ends on its shutdown
    # notice.  A subscriber that hangs up first leaves its forwarder
    # waiting, and stop() spends its 5 s grace period on it.
    await service.stop(reason="benchmark-complete")
    for client in clients:
        await client.close()
    # asyncio leaves the socket file behind on close; remove ours.
    if os.path.exists(sock):
        os.unlink(sock)


async def _serve_pass(
    out: Pass, sock: str, setup_reps: int,
    budget_s: Optional[float], episodes: Optional[int],
) -> None:
    from repro.serve import ServeClient, ServeConfig

    cap = episodes
    if cap is None:
        cap = int(SERVE_EPISODES_PER_SECOND_CAP * max(1.0, budget_s))
    config = ServeConfig(scenario=SERVE_SCENARIO, seed=out.seed, episodes=cap)
    # Repeat the set-up, keep the last service for the measured pass.
    for _ in range(max(0, setup_reps - 1)):
        t0 = time.perf_counter()
        service, subscriber = await _start_and_subscribe(config, sock)
        out.setup_s.append(time.perf_counter() - t0)
        await _shutdown(service, [subscriber], sock)
    t0 = time.perf_counter()
    service, subscriber = await _start_and_subscribe(config, sock)
    out.setup_s.append(time.perf_counter() - t0)
    clients = [subscriber]
    try:
        querier = await ServeClient.connect(unix_path=sock, tenant="querier")
        clients.append(querier)
        await _drive(out, service, subscriber, querier, budget_s, episodes)
    finally:
        await _shutdown(service, clients, sock)


async def _drive(
    out: Pass, service: Any, subscriber: Any, querier: Any,
    budget_s: Optional[float], episodes: Optional[int],
) -> None:
    start = time.perf_counter()
    done = asyncio.Event()
    sim_base = service.session.now_ns if service.session is not None else 0

    async def watch_episodes() -> None:
        # Check every episode-end verdict against that seed's truth.
        from repro.experiments import diagnosis_correct

        while True:
            event = await subscriber.next_event()
            kind = event.get("event")
            if kind != "episode-end":
                if kind in ("shutdown", "evicted"):
                    out.errors.append(f"stream ended early: {kind}")
                    done.set()
                    return
                continue
            seed = event["seed"]
            result = service.last_result
            name = f"{SERVE_SCENARIO}-seed{seed}"
            if result is None or result.scenario.name != name:
                raise RuntimeError(f"episode result for {name} was not kept")
            diagnosis = result.diagnosis()
            truth = result.scenario.truth
            correct = (
                diagnosis is not None
                and diagnosis_correct(diagnosis, truth)
                and event.get("verdict") == truth.anomaly.value
            )
            out.runs.append(RunRecord(
                name=result.scenario.name,
                latency_s=result.perf.wall_s,
                sim_ns=result.scenario.duration_ns,
                correct=correct,
                error=None if correct else f"verdict {event.get('verdict')!r}",
                counters=run_counters(result),
                fingerprint=_fingerprint(result),
            ))
            if episodes is not None and len(out.runs) >= episodes:
                done.set()
                return
            if budget_s is not None and time.perf_counter() - start >= budget_s:
                done.set()
                return

    async def one_query(due: float) -> None:
        try:
            reply = await querier.query()
        except ConnectionError as exc:
            out.queries.append(QueryRecord(
                time.perf_counter() - due, "error", repr(exc)))
            return
        latency = time.perf_counter() - due
        kind = reply.get("type")
        if reply.get("ok") and kind == "result" and reply.get("status") in (
            "diagnosed", "no-trigger"
        ):
            out.queries.append(QueryRecord(latency, "ok", reply["status"]))
        elif kind == "rejected":
            out.queries.append(QueryRecord(latency, "rejected", str(reply)))
        else:
            out.queries.append(QueryRecord(latency, "error", str(reply)))

    watcher = asyncio.ensure_future(watch_episodes())
    pending: List[asyncio.Future] = []
    index = 0
    try:
        while not done.is_set():
            due = start + index / SERVE_RATE_QPS
            delay = due - time.perf_counter()
            if delay > 0:
                try:
                    await asyncio.wait_for(done.wait(), delay)
                    break
                except asyncio.TimeoutError:
                    pass
            if watcher.done():
                break
            out.late_max_s = max(out.late_max_s, time.perf_counter() - due)
            pending.append(asyncio.ensure_future(one_query(due)))
            index += 1
        if pending:
            await asyncio.gather(*pending)
        out.wall_s = time.perf_counter() - start
        # Simulated time advanced in the window: every finished episode,
        # plus the live one if it has not finished yet.
        session = service.session
        out.sim_ns = service.episodes_completed * session.duration_ns - sim_base
        if service.episode >= service.episodes_completed:
            out.sim_ns += session.now_ns
    finally:
        if not watcher.done():
            watcher.cancel()
        results = await asyncio.gather(watcher, return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException) and not isinstance(
                result, asyncio.CancelledError
            ):
                out.errors.append(
                    "".join(traceback.format_exception(result)).strip()
                )
    doc = service.registry.to_dict()
    out.service_histograms = doc["histograms"]
    out.service_counters = doc["counters"]


def run_serve(
    seed: int,
    out_dir: Path,
    budget_s: Optional[float] = None,
    episodes: Optional[int] = None,
    setup_reps: int = 1,
) -> Pass:
    """Serve ``pfc-storm`` and drive it until the budget or episode count."""
    if (budget_s is None) == (episodes is None):
        raise ValueError("give exactly one of budget_s and episodes")
    out = Pass("serve-open-loop", seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    sock = socket_path(out_dir)
    if os.path.exists(sock):
        os.unlink(sock)
    asyncio.run(_serve_pass(out, sock, setup_reps, budget_s, episodes))
    return out


def run_pass(
    workload: str,
    seed: int,
    out_dir: Path,
    budget_s: Optional[float] = None,
    runs: Optional[int] = None,
    setup_reps: int = 1,
) -> Pass:
    """One pass over ``workload``: by time budget, or by run count."""
    if workload == "serve-open-loop":
        return run_serve(seed, out_dir, budget_s, runs, setup_reps)
    if workload in WORKLOADS:
        return run_batch(workload, seed, budget_s, runs)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
