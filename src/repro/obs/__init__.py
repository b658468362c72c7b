"""Run telemetry and debug invariants (``repro.obs``).

The observability layer of the package: :mod:`repro.obs.telemetry`
collects timed spans, monotonic counters, and per-iteration events
from the engines and sampling algorithms (JSONL via the CLI's
``--log-json``, in-memory via ``GBCResult.diagnostics["telemetry"]``),
and :mod:`repro.obs.invariants` holds the opt-in ``debug=True``
validators that re-verify sampled paths and coverage bookkeeping.
See ``docs/observability.md`` for the full model.
"""

from __future__ import annotations

from .clock import Stopwatch, monotonic
from .invariants import check_coverage, check_greedy, check_instance, check_samples
from .registry import COUNTERS, EVENTS, SPANS, is_counter, is_event, is_span
from .telemetry import (
    NULL_TELEMETRY,
    REQUIRED_FIELDS,
    CallbackSink,
    JsonlSink,
    MemorySink,
    NullTelemetry,
    Telemetry,
    as_telemetry,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "as_telemetry",
    "JsonlSink",
    "MemorySink",
    "CallbackSink",
    "REQUIRED_FIELDS",
    "check_samples",
    "check_instance",
    "check_coverage",
    "check_greedy",
    "monotonic",
    "Stopwatch",
    "COUNTERS",
    "EVENTS",
    "SPANS",
    "is_counter",
    "is_event",
    "is_span",
]
