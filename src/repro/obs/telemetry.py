"""The run-telemetry hub: spans, counters, and per-iteration events.

A :class:`Telemetry` instance is the single collection point for one
run's observability data — the instrumentation KADABRA-style adaptive
samplers lean on to debug and tune their stopping rules:

* **Spans** — nestable timed sections (``with tel.span("greedy"):``).
  Durations aggregate per span *path* (``run/greedy``), so the
  wall-clock breakdown of a whole adaptive run is one dict.
* **Counters** — monotonic totals (``tel.count("engine.samples", 64)``),
  the home of the re-exported :class:`~repro.engine.base.EngineStats`.
* **Events** — structured per-iteration records
  (``tel.event("iteration", q=3, eps_sum=0.28)``), the machine-readable
  version of the trace each algorithm used to assemble by hand.

Every record flows to the attached sinks as a flat JSON-friendly dict
carrying at least ``ts`` (seconds since the hub was created), ``span``
(the active span path) and ``kind`` (``"span"`` / ``"event"`` /
``"counter"``).  :class:`JsonlSink` appends one JSON line per record
(the CLI's ``--log-json``); the hub itself keeps everything in memory
and :meth:`Telemetry.snapshot` renders it for
``GBCResult.diagnostics["telemetry"]``.

Instrumented code never checks whether telemetry is on: disabled
components hold the module-level :data:`NULL_TELEMETRY`, whose methods
are no-ops and whose ``span`` hands out one shared no-op context
manager — the disabled overhead is a few attribute lookups per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "as_telemetry",
    "JsonlSink",
    "MemorySink",
    "CallbackSink",
    "REQUIRED_FIELDS",
]

#: Fields every emitted record carries (the JSONL schema contract).
REQUIRED_FIELDS = ("ts", "span", "kind")


def _jsonable(value):
    """Coerce numpy scalars (and anything odd) into JSON-friendly types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    for caster in (int, float):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return str(value)


class JsonlSink:
    """Append one JSON line per record to ``path`` (the ``--log-json`` sink)."""

    def __init__(self, path):
        self.path = Path(path)
        self._handle = open(self.path, "w", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class MemorySink:
    """Collect every record in a list (tests, programmatic consumers)."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class CallbackSink:
    """Invoke ``fn(record)`` per record (the CLI's ``--progress`` line)."""

    def __init__(self, fn):
        self.fn = fn

    def emit(self, record: dict) -> None:
        self.fn(record)

    def close(self) -> None:
        pass


class Telemetry:
    """The telemetry hub one run writes to.

    Parameters
    ----------
    sinks:
        Zero or more sinks receiving every record as it is produced
        (the hub always keeps its own in-memory copy regardless).
    clock:
        Monotonic time source (overridable for tests).
    retain_events:
        Keep every event in :attr:`events` (the default).  A
        long-lived hub — the daemon's — passes ``False``: its events
        still reach the sinks, but memory and :meth:`snapshot` cost
        stop growing with its lifetime.

    Attributes
    ----------
    counters:
        ``name -> int`` monotonic totals.
    events:
        Every ``kind="event"`` record, in emission order.
    spans:
        ``path -> {"seconds", "count"}`` aggregated section timings.
    """

    #: Distinguishes the live hub from :class:`NullTelemetry` without
    #: an isinstance check in hot paths.
    enabled = True

    def __init__(self, sinks=(), clock=time.perf_counter, retain_events=True):
        self._sinks = list(sinks)
        self.retain_events = bool(retain_events)
        self._clock = clock
        self._start = clock()
        self._stack: list[str] = []
        self.counters: dict[str, int] = {}
        self.events: list[dict] = []
        self.spans: dict[str, dict] = {}
        #: Total span/event/count invocations — the denominator of the
        #: disabled-overhead micro-benchmark.
        self.ops = 0

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._start

    def _emit(self, record: dict) -> None:
        for sink in self._sinks:
            sink.emit(record)

    @property
    def span_path(self) -> str:
        """The currently active nested-span path (``""`` at top level)."""
        return "/".join(self._stack)

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """A timed, nestable section; emits one ``kind="span"`` record
        on exit and aggregates the duration under the span path."""
        self.ops += 1
        self._stack.append(name)
        path = "/".join(self._stack)
        begin = self._clock()
        try:
            yield self
        finally:
            seconds = self._clock() - begin
            self._stack.pop()
            agg = self.spans.setdefault(path, {"seconds": 0.0, "count": 0})
            agg["seconds"] += seconds
            agg["count"] += 1
            record = {
                "ts": self._now(),
                "span": path,
                "kind": "span",
                "name": name,
                "seconds": seconds,
            }
            record.update({k: _jsonable(v) for k, v in attrs.items()})
            self._emit(record)

    def event(self, name: str, **fields) -> dict:
        """Record one structured event (e.g. a per-iteration snapshot)."""
        self.ops += 1
        record = {
            "ts": self._now(),
            "span": self.span_path,
            "kind": "event",
            "name": name,
        }
        record.update({k: _jsonable(v) for k, v in fields.items()})
        if self.retain_events:
            self.events.append(record)
        self._emit(record)
        return record

    def count(self, name: str, value: int = 1) -> None:
        """Increment the monotonic counter ``name`` by ``value``.

        Counters aggregate silently; their totals are flushed to the
        sinks as ``kind="counter"`` records by :meth:`close`.
        """
        self.ops += 1
        self.counters[name] = self.counters.get(name, 0) + int(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The JSON-friendly collected state, for
        ``GBCResult.diagnostics["telemetry"]``."""
        return {
            "counters": dict(self.counters),
            "spans": {path: dict(agg) for path, agg in self.spans.items()},
            "events": [dict(event) for event in self.events],
        }

    def close(self) -> None:
        """Flush counter totals to the sinks and close them; idempotent."""
        for name in sorted(self.counters):
            self._emit(
                {
                    "ts": self._now(),
                    "span": self.span_path,
                    "kind": "counter",
                    "name": name,
                    "value": self.counters[name],
                }
            )
        sinks, self._sinks = self._sinks, []
        for sink in sinks:
            sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class _NullSpan:
    """The shared no-op context manager :class:`NullTelemetry` hands out."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *_exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled hub: every operation is a no-op.

    Instrumented code holds this by default, so the cost of telemetry
    when nobody asked for it is a method call returning a shared
    object — well under the 2% overhead budget (see
    ``tests/obs/test_overhead.py``).
    """

    enabled = False
    counters: dict = {}
    events: list = []
    spans: dict = {}

    def span(self, _name, **_attrs):
        return _NULL_SPAN

    def event(self, _name, **_fields) -> None:
        return None

    def count(self, _name, _value: int = 1) -> None:
        return None

    def snapshot(self) -> dict:
        return {}

    def close(self) -> None:
        return None


#: The shared disabled hub every component defaults to.
NULL_TELEMETRY = NullTelemetry()


def as_telemetry(telemetry) -> "Telemetry | NullTelemetry":
    """Normalize an optional telemetry argument (``None`` → disabled)."""
    return NULL_TELEMETRY if telemetry is None else telemetry
