"""The :class:`SampleEngine` protocol — the package's sampling substrate.

Every path-sampling algorithm (AdaAlg, HEDGE, CentRa, EXHAUST) needs
the same primitive: *draw ``count`` independent uniform shortest-path
samples and fold them into a coverage instance*.  The engine layer
isolates that primitive behind one interface so the execution strategy
— in process, or fanned out to persistent worker processes — is a
runtime knob instead of per-algorithm code.

The contract every engine honors:

* an engine reads one *index-addressed* sample stream: sample ``i`` is
  a pure function of ``(key, i, graph)``
  (:class:`~repro.paths.sampler.PathSampler`), and ``draw(count)``
  returns the samples at indices ``cursor .. cursor + count - 1``, then
  advances the cursor.  Engines differ in *where* the samples are
  computed, never in which samples come out, so the stream does not
  depend on the worker count or on how requests slice it;
* ``rng_state()`` is ``{stream tag, key, cursor}``; restoring it
  continues the stream exactly;
* ``redraw(ids)`` is the samples of ``ids`` on the engine's graph —
  after a graph update, exactly what a cold draw of those indices on
  the new graph gives;
* ``extend(instance, upto)`` applies the endpoint convention
  (``include_endpoints``) and appends to a
  :class:`~repro.coverage.CoverageInstance`;
* ``stats`` exposes the work counters (samples, traversals, batches,
  arcs, worker utilization) that algorithms surface in
  ``GBCResult.diagnostics``.
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import asdict, dataclass, field

from .._rng import stream_key
from ..coverage.hypergraph import CoverageInstance
from ..exceptions import CheckpointError, ParameterError
from ..graph.csr import CSRGraph
from ..obs import NULL_TELEMETRY, check_instance, check_samples
from ..paths.sampler import PackedSamples, PathSampler

__all__ = [
    "STREAM_TAG",
    "EngineStats",
    "SampleEngine",
    "check_stream_state",
    "sampler_work",
]

#: Tag of the index-addressed sample stream in :meth:`SampleEngine.rng_state`.
STREAM_TAG = "repro-index-stream"


def check_stream_state(state, where: str = "the RNG state") -> None:
    """Refuse a stream state that is not of the index-addressed stream.

    Older checkpoints hold a PCG64 generator state or the epoch
    engine's ``repro-epoch-stream`` cursor.  Their samples came from
    generators this package no longer has, so no engine can continue
    them; :class:`~repro.exceptions.CheckpointError` says so.
    """
    if not isinstance(state, dict):
        state = {}
    found = state.get("stream", state.get("bit_generator"))
    if found != STREAM_TAG:
        raise CheckpointError(
            f"{where} belongs to an older sample stream ({found!r}); sample "
            f"i is now a pure function of (seed, i, graph) on the "
            f"{STREAM_TAG!r} stream, which cannot continue it — start a "
            "new run"
        )


def sampler_work(sampler: PathSampler) -> tuple[int, ...]:
    """A sampler's cumulative work counters, in the order
    :meth:`EngineStats.add_work` folds them."""
    return (
        sampler.total_traversals,
        sampler.total_edges_explored,
        sampler.total_search_rounds,
        sampler.total_weighted_cohorts,
        sampler.total_bucket_relaxations,
    )


@dataclass
class EngineStats:
    """Work counters of one engine instance.

    Attributes
    ----------
    samples:
        Total path samples drawn.
    draw_calls:
        Number of ``draw`` invocations served.
    traversals:
        Graph traversals executed (one search per sample).
    batches:
        Work units: one per non-empty serial draw, one per index-range
        ticket for the epoch engine.
    edges_explored:
        Total arcs touched across all traversals.
    search_rounds:
        Lock-step rounds of the unweighted search kernel, summed over
        its calls (one call per chunk of a cohort draw) — the count its
        per-round cost follows.
    workers:
        Worker processes backing the engine (0 = in-process).
    worker_samples:
        Samples served per worker process id — the utilization
        breakdown for the parallel engine (empty when in-process).
    pool_startups:
        Worker-pool launches — stays at 1 across many ``draw`` /
        ``extend`` calls when the persistent workers are reused.
    weighted_cohorts:
        Weighted cohort draws executed
        (:meth:`~repro.paths.sampler.PathSampler.sample_cohort` on a
        weighted graph); 0 on unweighted inputs.
    bucket_relaxations:
        Per-query level relaxation rounds of the weighted
        delta-stepping kernel — its main work counter.
    coverage_rebuilds, coverage_rebuilt_elements:
        Node→path CSR rebuilds of the coverage instances this engine
        extends, and the total flat-array elements re-argsorted by
        those rebuilds.  Every append→query transition pays one full
        rebuild (:class:`~repro.coverage.CoverageInstance`), so a
        regression in query batching shows up here first.
    """

    samples: int = 0
    draw_calls: int = 0
    traversals: int = 0
    batches: int = 0
    edges_explored: int = 0
    search_rounds: int = 0
    workers: int = 0
    worker_samples: dict[int, int] = field(default_factory=dict)
    pool_startups: int = 0
    weighted_cohorts: int = 0
    bucket_relaxations: int = 0
    coverage_rebuilds: int = 0
    coverage_rebuilt_elements: int = 0

    def add_work(self, work: tuple[int, ...]) -> None:
        """Fold a :func:`sampler_work` difference into the counters."""
        traversals, edges, rounds, cohorts, relaxations = work
        self.traversals += traversals
        self.edges_explored += edges
        self.search_rounds += rounds
        self.weighted_cohorts += cohorts
        self.bucket_relaxations += relaxations

    def as_dict(self) -> dict:
        """A JSON-friendly copy for ``GBCResult.diagnostics``."""
        return asdict(self)


class SampleEngine(abc.ABC):
    """Abstract sampling engine: ``draw(count) -> PackedSamples``.

    Parameters
    ----------
    graph:
        The network to sample from.
    seed:
        The stream key, or anything :func:`repro._rng.stream_key` turns
        into one; the engine's whole sample sequence is a pure function
        of it.
    include_endpoints:
        Endpoint convention applied by :meth:`extend`.

    Attributes
    ----------
    key, cursor:
        The stream key and the index of the next sample :meth:`draw`
        returns.
    telemetry:
        The :class:`~repro.obs.Telemetry` hub :meth:`extend` reports
        to (spans around ``draw``, :class:`EngineStats` deltas as
        ``engine.*`` counters).  Defaults to the shared disabled hub;
        assign a live one (or pass ``telemetry=`` to
        :func:`~repro.engine.create_engine`) to collect.
    debug:
        When ``True``, :meth:`extend` validates every drawn sample
        against the graph and the coverage bookkeeping against a
        recount (:mod:`repro.obs.invariants`) — slow, opt-in.
    """

    #: Engine name reported in telemetry ("serial", "epoch").
    name: str = "abstract"

    def __init__(self, graph: CSRGraph, seed=None, include_endpoints: bool = True):
        self.graph = graph
        self.include_endpoints = include_endpoints
        self._sampler = PathSampler(graph, seed=stream_key(seed))
        self.cursor = 0
        self.stats = EngineStats()
        self.telemetry = NULL_TELEMETRY
        self.debug = False
        # per-instance high-water marks of the coverage rebuild
        # counters, so extend() can report deltas without double
        # counting when several instances share one engine
        self._coverage_seen: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )

    @property
    def key(self) -> int:
        """The stream key."""
        return self._sampler.key

    # ------------------------------------------------------------------
    def rng_state(self) -> dict:
        """The stream position, as a JSON-serializable dict: the stream
        tag, the key and the cursor.  Valid between any two draws."""
        return {"stream": STREAM_TAG, "key": self.key, "cursor": self.cursor}

    def set_rng_state(self, state: dict) -> None:
        """Reposition the stream at a state captured by
        :meth:`rng_state`; a state of any other stream raises
        :class:`~repro.exceptions.CheckpointError`."""
        check_stream_state(state)
        self._sampler.key = stream_key(int(state["key"]))
        self.cursor = int(state["cursor"])

    def _flush_coverage(self, instance: CoverageInstance) -> None:
        """Fold the instance's rebuild-counter growth since the last
        flush into :attr:`stats` and the ``coverage.*`` telemetry."""
        prev_rebuilds, prev_elements = self._coverage_seen.get(instance, (0, 0))
        delta_rebuilds = instance.rebuilds - prev_rebuilds
        delta_elements = instance.rebuilt_elements - prev_elements
        if delta_rebuilds or delta_elements:
            self.stats.coverage_rebuilds += delta_rebuilds
            self.stats.coverage_rebuilt_elements += delta_elements
            self.telemetry.count("coverage.rebuilds", delta_rebuilds)
            self.telemetry.count("coverage.rebuilt_elements", delta_elements)
        self._coverage_seen[instance] = (
            instance.rebuilds,
            instance.rebuilt_elements,
        )

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def draw(self, count: int) -> PackedSamples:
        """Draw ``count`` independent uniform shortest-path samples.

        The result is one :class:`~repro.paths.packed.PackedSamples`
        record.
        """

    def extend(self, instance: CoverageInstance, upto: int) -> None:
        """Grow ``instance`` to hold ``upto`` samples.

        Applies the engine's endpoint convention to every drawn path
        and appends the whole draw in one
        :meth:`~repro.coverage.CoverageInstance.add_samples` call;
        a no-op when the instance already holds enough samples.  The
        draw is reported to :attr:`telemetry` (a ``draw`` span plus
        ``engine.*`` counter deltas), and :attr:`debug` mode validates
        the samples and the instance bookkeeping.
        """
        # pick up CSR rebuilds triggered by queries since the last draw
        # (greedy passes run between extends) before appending more
        self._flush_coverage(instance)
        missing = upto - instance.num_paths
        if missing <= 0:
            return
        telemetry = self.telemetry
        stats = self.stats
        before = (
            stats.samples,
            stats.traversals,
            stats.edges_explored,
            stats.search_rounds,
            stats.weighted_cohorts,
            stats.bucket_relaxations,
        )
        with telemetry.span("draw", engine=self.name, count=missing):
            samples = self.draw(missing)
        telemetry.count("engine.samples", stats.samples - before[0])
        telemetry.count("engine.draw_calls", 1)
        telemetry.count("engine.traversals", stats.traversals - before[1])
        telemetry.count("engine.edges_explored", stats.edges_explored - before[2])
        if stats.search_rounds != before[3]:
            telemetry.count("paths.search_rounds", stats.search_rounds - before[3])
        if stats.weighted_cohorts != before[4]:
            telemetry.count(
                "paths.weighted_cohorts", stats.weighted_cohorts - before[4]
            )
        if stats.bucket_relaxations != before[5]:
            telemetry.count(
                "paths.bucket_relaxations", stats.bucket_relaxations - before[5]
            )
        if self.debug:
            check_samples(self.graph, samples)
        instance.add_samples(samples, self.include_endpoints)
        if self.debug:
            check_instance(instance)
        self._flush_coverage(instance)

    def redraw(self, ids) -> PackedSamples:
        """The samples of indices ``ids`` on the engine's graph — how a
        session replaces, in place, the samples a graph update
        invalidated.  Sample ``i`` is the cold sample ``i`` of the new
        graph; the cursor does not move and :attr:`stats` does not
        count redraws."""
        return self._sampler.sample_cohort(ids)

    def close(self) -> None:
        """Release engine resources (worker processes); idempotent."""

    # ------------------------------------------------------------------
    def __enter__(self) -> "SampleEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(graph={self.graph!r})"

    # ------------------------------------------------------------------
    def _check_count(self, count: int) -> None:
        if count < 0:
            raise ParameterError("sample count must be non-negative")
