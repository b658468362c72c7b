"""Spans recorded from outside the program, and the per-layer ledger.

``install(recorder)`` wraps the program's layer entry points, as the
calling module looks them up, with functions that record one span per
call: ``(id, parent, name, start, end, counts)``.  ``parent`` is the
span open on the same thread when the call began; ``counts`` holds the
work counters read at that seam (traversals, CELF evaluations, ...).
Spans stay in memory until ``Recorder.dump`` writes them out.  Times
come from ``time.perf_counter``, which on Linux is ``CLOCK_MONOTONIC``
and therefore comparable between the benchmark, its worker and the
daemon on one host.

``ledger(...)`` turns the spans of a timed phase into self times per
layer (a span's duration minus its direct children's), so the layers
plus the unattributed remainder add up to the phase's wall time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time

__all__ = ["Recorder", "install", "ledger", "load_spans", "LAYER_OF"]

clock = time.perf_counter

#: span name -> per-layer self-time metric.  ``client.*`` spans are the
#: benchmark's own round trips to the daemon: their self time is
#: whatever the daemon spent outside the layers below, i.e. protocol,
#: event loop and compute-thread hand-off.
LAYER_OF = {
    "paths.search": "paths.search_ms",
    "paths.sample": "paths.walk_ms",
    "engine.draw": "engine.draw_ms",
    "engine.extend": "engine.ingest_ms",
    "coverage.celf": "coverage.celf_ms",
    "coverage.validate": "coverage.validate_ms",
    "bounds": "bounds.ms",
    "algorithms.run": "algorithms.self_ms",
    "session.migrate": "session.migrate_ms",
    "graph.delta": "graph.delta_ms",
    "obs.snapshot": "obs.snapshot_ms",
    "client.query": "serve.protocol_ms",
    "client.mutate": "serve.protocol_ms",
}


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` timed as span ``name``.  ``before(args)`` reads state
        ahead of the call; ``after(args, result, state)`` returns the
        span's counts."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            state = before(args) if before else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            counts = after(args, result, state) if after else None
            self.spans.append((sid, parent, name, start, end, counts))
            return result

        return timed

    def wrap_async(self, fn, name):
        """Coroutine-function counterpart of :meth:`wrap` (no nesting:
        used only for the daemon's drain)."""

        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            sid = next(self._ids)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.spans.append((sid, None, name, start, clock(), None))

        return timed

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, name, start, end, counts in self.spans:
                row = {"id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if counts:
                    row["counts"] = counts
                out.write(json.dumps(row) + "\n")


def load_spans(path) -> list[dict]:
    with open(path) as src:
        return [json.loads(line) for line in src]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _patch(rec, owner, attr, name, before=None, after=None):
    setattr(owner, attr, rec.wrap(getattr(owner, attr), name, before, after))


def _sampler_state(args):
    s = args[0]
    return s.total_traversals, s.total_edges_explored, s.total_samples


def _sampler_counts(args, _result, before):
    s = args[0]
    return {
        "traversals": s.total_traversals - before[0],
        "edges": s.total_edges_explored - before[1],
        "samples": s.total_samples - before[2],
    }


def _rebuild_state(args):
    inst = args[0]
    return inst.rebuilds, inst.rebuilt_elements


def _rebuild_counts(args, _result, before):
    inst = args[0]
    return {
        "rebuilds": inst.rebuilds - before[0],
        "rebuilt_elements": inst.rebuilt_elements - before[1],
    }


def _celf_counts(args, result, before):
    return {**_rebuild_counts(args, result, before), "evals": result.evaluations}


def install(rec: Recorder) -> None:
    """Wrap every layer seam the ledger reports on."""
    import repro.datasets
    import repro.paths.sampler as sampler_mod
    from repro.algorithms import adaalg as adaalg_mod
    from repro.coverage.hypergraph import CoverageInstance
    from repro.engine.base import SampleEngine
    from repro.engine.serial import SerialEngine
    from repro.graph.delta import DeltaGraph
    from repro.obs.telemetry import Telemetry
    from repro.serve.daemon import GBCServer
    from repro.session.session import SamplingSession

    # paths: the search kernels as the sampler module looks them up,
    # and the sampler's draw entry points (their self time is the walk)
    for fn in ("bidirectional_search", "bfs_sigma", "wavefront_search",
               "dijkstra_sigma", "wavefront_weighted_search"):
        _patch(rec, sampler_mod, fn, "paths.search")
    for meth in ("sample", "sample_batch", "sample_cohort"):
        _patch(rec, sampler_mod.PathSampler, meth, "paths.sample",
               _sampler_state, _sampler_counts)
    # engine: draw, and extend (whose self time is the ingest loop)
    _patch(rec, SerialEngine, "draw", "engine.draw")
    _patch(rec, SampleEngine, "extend", "engine.extend")
    # coverage: CELF as AdaAlg looks it up, and the validation count
    _patch(rec, adaalg_mod, "greedy_max_cover", "coverage.celf",
           _rebuild_state, _celf_counts)
    _patch(rec, CoverageInstance, "covered_count", "coverage.validate",
           _rebuild_state, _rebuild_counts)
    # bounds: the eps_1 root and the sample schedule
    for fn in ("epsilon_one", "adaalg_schedule"):
        _patch(rec, adaalg_mod, fn, "bounds")
    # algorithms
    _patch(rec, adaalg_mod.AdaAlg, "run", "algorithms.run",
           after=lambda _a, result, _s: {"iterations": result.iterations,
                                         "samples": result.num_samples})
    # session
    _patch(rec, SamplingSession, "migrate", "session.migrate",
           after=lambda _a, stats, _s: {"invalidated": stats["invalidated"],
                                        "surviving": stats["surviving"]})
    # graph
    _patch(rec, repro.datasets, "load", "graph.load")
    _patch(rec, DeltaGraph, "apply", "graph.delta")
    _patch(rec, DeltaGraph, "compact", "graph.delta")
    # obs
    _patch(rec, Telemetry, "snapshot", "obs.snapshot",
           after=lambda args, _r, _s: {"events": len(args[0].events)})
    # serve: the drain that ends every daemon run
    GBCServer.drain = rec.wrap_async(GBCServer.drain, "serve.drain")


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------
def ledger(spans: list[dict], t0: float, t1: float, pauses=()) -> dict:
    """Per-layer figures for the timed phase ``[t0, t1]``, less the
    ``pauses`` (the benchmark's calibration probes, ``(start, end)``).

    ``spans`` may mix processes (benchmark client spans and daemon
    spans share one clock).  A daemon span without a parent is given
    the client round trip that encloses it as parent and request id.
    Returns the metrics, and annotates every span with ``request``.
    """
    inside = [s for s in spans if t0 <= s["start"] <= t1]
    clients = sorted(
        (s for s in inside if s["name"].startswith("client.")),
        key=lambda s: s["start"],
    )
    starts = [c["start"] for c in clients]
    by_id = {s["id"]: s for s in inside}
    for s in inside:
        if s["parent"] is None and not s["name"].startswith(("client.", "bench.")):
            i = bisect.bisect_right(starts, s["start"]) - 1
            if i >= 0 and s["end"] <= clients[i]["end"]:
                s["parent"] = clients[i]["id"]
    child_time: dict = {}
    for s in inside:
        if s["parent"] in by_id:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                s["end"] - s["start"]
            )

    def root(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s["id"]

    metrics = {name: 0.0 for name in set(LAYER_OF.values())}
    attributed = 0.0
    counts: dict = {}
    for s in inside:
        s["request"] = root(s)
        self_s = (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
        metric = LAYER_OF.get(s["name"])
        if metric is not None:
            metrics[metric] += self_s * 1e3
            attributed += self_s
        for key, value in (s.get("counts") or {}).items():
            slot = (s["name"], key)
            counts[slot] = counts.get(slot, 0) + value
    total = (t1 - t0) - sum(
        end - start for start, end in pauses if t0 <= start <= t1)
    runs = sum(1 for s in inside if s["name"] == "algorithms.run")
    mutates = sum(1 for s in inside if s["name"] == "client.mutate")
    samples = counts.get(("paths.sample", "samples"), 0)
    snapshots = [s for s in spans if s["name"] == "obs.snapshot"]
    daemon_runs = sum(
        s["end"] - s["start"]
        for s in inside
        if s["name"] == "algorithms.run" and s["parent"] is not None
        and by_id[s["parent"]]["name"].startswith("client.")
    )
    metrics.update({
        "paths.traversals": counts.get(("paths.sample", "traversals"), 0),
        "paths.edges_per_sample": (
            counts.get(("paths.sample", "edges"), 0) / samples if samples else 0.0
        ),
        "coverage.celf_evals": counts.get(("coverage.celf", "evals"), 0),
        "coverage.rebuilds": counts.get(("coverage.celf", "rebuilds"), 0)
        + counts.get(("coverage.validate", "rebuilds"), 0),
        "coverage.rebuilt_elements": counts.get(
            ("coverage.celf", "rebuilt_elements"), 0)
        + counts.get(("coverage.validate", "rebuilt_elements"), 0),
        "algorithms.iterations_per_query": (
            counts.get(("algorithms.run", "iterations"), 0) / runs if runs else 0.0
        ),
        "session.invalidated": (
            counts.get(("session.migrate", "invalidated"), 0) / mutates
            if mutates else 0.0
        ),
        "session.surviving": (
            counts.get(("session.migrate", "surviving"), 0) / mutates
            if mutates else 0.0
        ),
        "serve.compute_ms": daemon_runs * 1e3,
        "obs.events_retained": (
            max(s["counts"]["events"] for s in snapshots) if snapshots else 0
        ),
        "session.checkpoint_ms": 1e3 * sum(
            s["end"] - s["start"] for s in spans if s["name"] == "serve.drain"
        ),
        "graph.load_ms": 1e3 * sum(
            s["end"] - s["start"] for s in spans if s["name"] == "graph.load"
        ),
        "unattributed_ms": (total - attributed) * 1e3,
        "ledger.total_ms": total * 1e3,
    })
    return metrics
