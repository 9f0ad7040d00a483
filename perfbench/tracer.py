"""An outside tracer: spans around calls into each layer's public API.

Nothing under ``src/`` is edited.  :class:`OutsideTracer` patches, for the
duration of a ``with`` block,

- the engine's public scheduling calls (``Simulator.schedule_at``,
  ``schedule_delivery`` and ``schedule_every``), so that every callback the
  engine later runs executes inside a span named after the callback's
  owning module (``cb:repro.sim.switch`` and so on);
- a fixed list of named entry points (:data:`ENTRY_POINTS`), each wrapped
  in a span of the same name.

Patching happens before any scenario is built, so every simulator, switch
and telemetry object the traced work creates resolves the wrapped
functions.  Leaving the block restores every original.

A span is ``(id, name, start, end, parent id)``.  Spans stay in memory in
flat typed arrays and :meth:`OutsideTracer.write` saves them at exit.  Self
time (span duration minus the part its direct children cover) is folded
per name as each span closes, so the per-layer totals need no second pass.
"""

from __future__ import annotations

import json
import sys
import threading
from array import array
from functools import partial, wraps
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, qualified attribute) of every named entry point, in the order
# they are patched.  Free functions are replaced in every ``repro`` module
# that imported them by name, because callers look them up there.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro.experiments.runner", "ScenarioSpec.build"),
    ("repro.experiments.runner", "FabricSession.__init__"),
    ("repro.experiments.runner", "FabricSession.advance"),
    ("repro.experiments.runner", "FabricSession.finish"),
    ("repro.experiments.runner", "FabricSession.diagnose_now"),
    ("repro.experiments.runner", "select_reports"),
    ("repro.core.build", "build_provenance"),
    ("repro.core.diagnosis", "Diagnoser.diagnose"),
    ("repro.collection.collector", "TelemetryCollector.collect"),
    ("repro.collection.collector", "TelemetryCollector.flush_pending"),
    ("repro.telemetry.hawkeye", "HawkeyeSwitchTelemetry.on_egress_enqueue"),
    ("repro.telemetry.hawkeye", "HawkeyeSwitchTelemetry.on_pfc_received"),
    ("repro.telemetry.hawkeye", "HawkeyeSwitchTelemetry.snapshot"),
    ("repro.serve.admission", "AdmissionController.admit"),
    ("repro.sim.engine", "Simulator.run"),
)

CALLBACK_PREFIX = "cb:"


class OutsideTracer:
    """Span recorder; use as a context manager around the traced work."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._bucket_of_module: Dict[Optional[str], int] = {}
        # Columns of the closed spans, in closing order.
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        # Per name: self time and number of spans.
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self._next_id = 0
        # One open-span stack per thread: [span id, child time] pairs.
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- names ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def _bucket(self, fn: Callable[..., Any]) -> int:
        module = getattr(fn, "__module__", None)
        nid = self._bucket_of_module.get(module)
        if nid is None:
            nid = self._bucket_of_module[module] = self.name_id(
                CALLBACK_PREFIX + str(module)
            )
        return nid

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, nid: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside a span named ``names[nid]``."""
        stack = self._stack()
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[nid] += duration - frame[1]
            self.calls[nid] += 1
            if stack:
                parent = stack[-1]
                parent[1] += duration
                parent_id = parent[0]
            else:
                parent_id = -1
            self.span_id.append(sid)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent_id)

    def spans_named(self, name: str) -> List[Tuple[float, float]]:
        """``(start, end)`` of every span called ``name``, in start order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        found = [
            (self.span_id[i], self.span_start[i], self.span_end[i])
            for i in range(len(self.span_name))
            if self.span_name[i] == nid
        ]
        found.sort()
        return [(start, end) for _, start, end in found]

    # -- patching ------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapped(self, nid: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        call = self.call

        # ``wraps`` keeps ``__module__``, so a wrapped method handed to the
        # engine as a callback is still bucketed under its own module.
        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if kwargs:
                return call(nid, partial(fn, **kwargs), *args)
            return call(nid, fn, *args)

        return traced

    def _patch_entry(self, module_name: str, qualname: str) -> None:
        module = sys.modules[module_name]
        nid = self.name_id(qualname)
        if "." in qualname:
            cls_name, attr = qualname.split(".", 1)
            cls = getattr(module, cls_name)
            self._set(cls, attr, self._wrapped(nid, cls.__dict__[attr]))
            return
        original = getattr(module, qualname)
        wrapped = self._wrapped(nid, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _patch_engine(self) -> None:
        from repro.sim.engine import Simulator

        call = self.call
        bucket = self._bucket
        schedule_at = Simulator.schedule_at
        schedule_delivery = Simulator.schedule_delivery
        schedule_every = Simulator.schedule_every

        def traced_schedule_at(sim, time_ns, fn, *args):
            return schedule_at(sim, time_ns, call, bucket(fn), fn, *args)

        def traced_schedule_delivery(sim, time_ns, order_key, fn, *args):
            return schedule_delivery(
                sim, time_ns, order_key, call, bucket(fn), fn, *args
            )

        def traced_schedule_every(sim, interval_ns, fn):
            return schedule_every(
                sim, interval_ns, partial(call, bucket(fn), fn)
            )

        self._set(Simulator, "schedule_at", traced_schedule_at)
        self._set(Simulator, "schedule_delivery", traced_schedule_delivery)
        self._set(Simulator, "schedule_every", traced_schedule_every)

    def __enter__(self) -> "OutsideTracer":
        for module_name, _ in ENTRY_POINTS:
            __import__(module_name)
        try:
            self._patch_engine()
            for module_name, qualname in ENTRY_POINTS:
                self._patch_entry(module_name, qualname)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> Path:
        """Save the spans: ``<path>.bin`` columns plus a ``<path>.json`` index.

        The binary file holds the five columns back to back, each
        ``count`` items long, in the order and typecodes the index lists.
        """
        columns = (
            ("id", self.span_id),
            ("name", self.span_name),
            ("start_s", self.span_start),
            ("end_s", self.span_end),
            ("parent", self.span_parent),
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        bin_path = path.with_suffix(".bin")
        with open(bin_path, "wb") as out:
            for _, column in columns:
                column.tofile(out)
        index = {
            "count": len(self.span_id),
            "byteorder": sys.byteorder,
            "columns": [
                {"name": name, "typecode": column.typecode,
                 "itemsize": column.itemsize}
                for name, column in columns
            ],
            "names": self.names,
        }
        json_path = path.with_suffix(".json")
        json_path.write_text(json.dumps(index, indent=1) + "\n")
        return bin_path
