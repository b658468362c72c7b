"""The checked-in telemetry name registry.

Telemetry counters and events are the cross-engine contract of the
observability layer: the equality tests in ``tests/obs`` compare
``engine.*`` counter totals *by name* across serial/batch/process
engines, so a typo in one engine's counter name silently breaks the
comparison instead of failing it.  This module pins every name the
package is allowed to emit; the static-analysis rule ``RPR301``
(:mod:`repro.checks.rules_telemetry`) rejects any
``telemetry.count``/``telemetry.event``/``telemetry.span`` call whose
literal name is not registered here.

Adding a new counter, event or span is a two-line change: emit it at the call
site and register it below (with a short comment saying what it
measures).  The checker keeps the two in lockstep; see
``docs/static-analysis.md`` for the workflow.
"""

from __future__ import annotations

__all__ = ["COUNTERS", "EVENTS", "SPANS", "is_counter", "is_event", "is_span"]

#: Every monotonic counter name the package may pass to
#: :meth:`repro.obs.Telemetry.count`.
COUNTERS: frozenset[str] = frozenset(
    {
        # engine layer (SampleEngine.extend deltas)
        "engine.samples",  # path samples drawn
        "engine.draw_calls",  # draw() invocations served
        "engine.traversals",  # graph traversals executed
        "engine.edges_explored",  # arcs touched across traversals
        # epoch engine (the worker fan-out)
        "engine.epoch.dispatches",  # index-range tickets drawn (incl. in-process)
        # out-of-core graph tier (repro.graph.mmap)
        "graph.mmap.opens",  # memory-mapped graph directories opened
        "graph.mmap.bytes_mapped",  # bytes attached read-only via np.memmap
        # dynamic graph tier (repro.graph.delta)
        "graph.delta.updates",  # update batches applied to a DeltaGraph
        "graph.delta.edges_changed",  # edge inserts/deletes/reweights applied
        # unweighted wavefront kernel (repro.paths.wavefront)
        "paths.search_rounds",  # lock-step search rounds, summed over calls
        # weighted wavefront kernel (repro.paths.wavefront_weighted)
        "paths.weighted_cohorts",  # weighted cohort draws executed
        "paths.bucket_relaxations",  # delta-stepping level relaxation rounds
        # coverage layer (node->path CSR rebuild accounting)
        "coverage.rebuilds",  # incidence rebuilds paid
        "coverage.rebuilt_elements",  # flat elements re-argsorted
        "coverage.batched_evals",  # CELF marginal gains evaluated in batches
        # session layer (SamplingSession)
        "session.samples_drawn",  # samples drawn through extend()
        "session.extend_calls",  # extend() requests served
        "session.checkpoints",  # checkpoints written
        "session.restores",  # checkpoints thawed
        "store.invalidated",  # stored samples whose pair a graph update changed
        "store.redrawn",  # stored samples redrawn in place after an update
        # serving layer (repro.serve daemon)
        "serve.connections",  # client connections accepted
        "serve.requests",  # frames received (queries + control)
        "serve.queries",  # well-formed top-K queries admitted
        "serve.cache_hits",  # answered from the LRU result cache
        "serve.cache_misses",  # missed the LRU result cache
        "serve.coalesced",  # followers attached to an in-flight leader
        "serve.computed",  # sampling computations actually executed
        "serve.batched",  # queries that reused a warm lane's samples
        "serve.samples_reused",  # warm-store samples inherited by queries
        "serve.mutations",  # graph-mutation ops applied by the daemon
        "serve.errors",  # requests rejected or failed
    }
)

#: Every structured-event name the package may pass to
#: :meth:`repro.obs.Telemetry.event`.
EVENTS: frozenset[str] = frozenset(
    {
        "iteration",  # one outer-loop iteration of a sampling algorithm
        "capped",  # a sample-budget cap preempted the stopping rule
        "serve.request",  # one served query (outcome + latency)
        "serve.drain",  # one graceful-drain pass (checkpoints written)
        "session.update",  # one graph update migrated through a session
        "serve.mutate",  # one daemon-applied graph mutation (outcome)
    }
)


#: Every literal span name the package may pass to
#: :meth:`repro.obs.Telemetry.span` (the algorithms' outer spans are
#: named after the algorithm at run time and are not listed).
SPANS: frozenset[str] = frozenset(
    {
        "draw",  # one engine draw inside SampleEngine.extend
        "sample",  # one algorithm's extend of a lane
        "greedy",  # one CELF pass
        "era",  # CentRa's empirical Rademacher average
        "checkpoint",  # one session checkpoint write
        "restore",  # one session checkpoint thaw
        "session.invalidate",  # the exact per-pair test of a graph update
        "session.redraw",  # the in-place redraws after a graph update
        "serve.compute",  # one computed daemon query
    }
)


def is_counter(name: str) -> bool:
    """Whether ``name`` is a registered counter name."""
    return name in COUNTERS


def is_event(name: str) -> bool:
    """Whether ``name`` is a registered event name."""
    return name in EVENTS


def is_span(name: str) -> bool:
    """Whether ``name`` is a registered span name."""
    return name in SPANS
