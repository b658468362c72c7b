"""The :class:`SampleEngine` protocol — the package's sampling substrate.

Every path-sampling algorithm (AdaAlg, HEDGE, CentRa, EXHAUST) needs
the same primitive: *draw ``count`` independent uniform shortest-path
samples and fold them into a coverage instance*.  The engine layer
isolates that primitive behind one interface so the execution strategy
— in process, or fanned out to persistent worker processes — is a
runtime knob instead of per-algorithm code.

The contract every engine honors:

* ``draw(count)`` returns ``count`` i.i.d. samples from the paper's
  uniform shortest-path law (Sec. III-D) — engines differ in *how*
  the traversals are executed, never in the sampled distribution;
* a fixed construction seed makes the engine's sample sequence
  deterministic, and :class:`~repro.engine.epoch.EpochEngine` is
  additionally deterministic *across worker counts* (see its
  docstring for the indexed epoch-stream scheme);
* ``extend(instance, upto)`` applies the endpoint convention
  (``include_endpoints``) and appends to a
  :class:`~repro.coverage.CoverageInstance` — the plumbing that used
  to live on ``SamplingAlgorithm``;
* ``stats`` exposes the work counters (samples, traversals, batches,
  arcs, worker utilization) that algorithms surface in
  ``GBCResult.diagnostics``.
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass, field

import numpy as np

from .._rng import as_generator
from ..coverage.hypergraph import CoverageInstance
from ..exceptions import CheckpointError, ParameterError
from ..graph.csr import CSRGraph
from ..obs import NULL_TELEMETRY, check_instance, check_sample
from ..paths.sampler import PackedSamples, PathSampler

__all__ = [
    "EngineStats",
    "SampleEngine",
    "sampler_work",
]


def sampler_work(sampler: PathSampler) -> tuple[int, ...]:
    """A sampler's cumulative work counters, in the order
    :meth:`EngineStats.add_work` folds them."""
    return (
        sampler.total_traversals,
        sampler.total_edges_explored,
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
        Work units dispatched: one per non-empty serial draw, one per
        epoch for the epoch engine.
    epochs:
        Fixed-size sample epochs *ingested* into the stream, in index
        order (epoch engine only; 0 elsewhere).
    dispatches:
        Epoch tasks handed to workers — or run in-process when no
        workers back the engine.  Exceeds :attr:`epochs` by whatever
        speculative lookahead was discarded at close.
    edges_explored:
        Total arcs touched across all traversals.
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
    epochs: int = 0
    dispatches: int = 0
    edges_explored: int = 0
    workers: int = 0
    worker_samples: dict[int, int] = field(default_factory=dict)
    pool_startups: int = 0
    weighted_cohorts: int = 0
    bucket_relaxations: int = 0
    coverage_rebuilds: int = 0
    coverage_rebuilt_elements: int = 0

    def add_work(self, work: tuple[int, ...]) -> None:
        """Fold a :func:`sampler_work` difference into the counters."""
        traversals, edges, cohorts, relaxations = work
        self.traversals += traversals
        self.edges_explored += edges
        self.weighted_cohorts += cohorts
        self.bucket_relaxations += relaxations

    def as_dict(self) -> dict:
        """A JSON-friendly copy for ``GBCResult.diagnostics``."""
        return {
            "samples": self.samples,
            "draw_calls": self.draw_calls,
            "traversals": self.traversals,
            "batches": self.batches,
            "epochs": self.epochs,
            "dispatches": self.dispatches,
            "edges_explored": self.edges_explored,
            "workers": self.workers,
            "worker_samples": dict(self.worker_samples),
            "pool_startups": self.pool_startups,
            "weighted_cohorts": self.weighted_cohorts,
            "bucket_relaxations": self.bucket_relaxations,
            "coverage_rebuilds": self.coverage_rebuilds,
            "coverage_rebuilt_elements": self.coverage_rebuilt_elements,
        }


class SampleEngine(abc.ABC):
    """Abstract sampling engine: ``draw(count) -> PackedSamples``.

    Parameters
    ----------
    graph:
        The network to sample from.
    seed:
        Anything accepted by :func:`repro._rng.as_generator`; the
        engine's whole sample sequence is a pure function of it.
    include_endpoints:
        Endpoint convention applied by :meth:`extend`.

    Attributes
    ----------
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

    #: Registry name, set by subclasses ("serial", "epoch").
    name: str = "abstract"

    def __init__(self, graph: CSRGraph, seed=None, include_endpoints: bool = True):
        self.graph = graph
        self.include_endpoints = include_endpoints
        self._rng = as_generator(seed)
        self.stats = EngineStats()
        self.telemetry = NULL_TELEMETRY
        self.debug = False
        # per-instance high-water marks of the coverage rebuild
        # counters, so extend() can report deltas without double
        # counting when several instances share one engine
        self._coverage_seen: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def rng_state(self) -> dict:
        """The engine's random-stream state, as a JSON-serializable dict.

        Every engine's sample sequence is a pure function of this state
        (the epoch engine derives its epoch streams from the same
        stream), so capturing it at a draw boundary and restoring it
        with :meth:`set_rng_state` continues the sequence bit-identically
        — the contract :class:`~repro.session.SamplingSession`
        checkpoints rely on.
        """
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`rng_state`.

        The engine must be backed by the same bit-generator type the
        state was captured from (``default_rng`` seeds always yield
        ``PCG64``); a mismatch raises
        :class:`~repro.exceptions.CheckpointError`.
        """
        current = self._rng.bit_generator.state.get("bit_generator")
        wanted = state.get("bit_generator") if isinstance(state, dict) else None
        if wanted != current:
            raise CheckpointError(
                f"cannot restore RNG state of bit generator {wanted!r} "
                f"into {current!r}"
            )
        self._rng.bit_generator.state = state

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
        record, which also reads as a sequence of
        :class:`~repro.paths.sampler.PathSample` objects.
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
            stats.weighted_cohorts,
            stats.bucket_relaxations,
        )
        with telemetry.span("draw", engine=self.name, count=missing):
            samples = self.draw(missing)
        telemetry.count("engine.samples", stats.samples - before[0])
        telemetry.count("engine.draw_calls", 1)
        telemetry.count("engine.traversals", stats.traversals - before[1])
        telemetry.count("engine.edges_explored", stats.edges_explored - before[2])
        if stats.weighted_cohorts != before[3]:
            telemetry.count(
                "paths.weighted_cohorts", stats.weighted_cohorts - before[3]
            )
        if stats.bucket_relaxations != before[4]:
            telemetry.count(
                "paths.bucket_relaxations", stats.bucket_relaxations - before[4]
            )
        if self.debug:
            for sample in samples:
                check_sample(self.graph, sample)
        instance.add_samples(samples, self.include_endpoints)
        if self.debug:
            check_instance(instance)
        self._flush_coverage(instance)

    def redraw(self, sources, targets) -> PackedSamples:
        """One fresh sample for each given ordered pair, on the engine's
        graph — how a session replaces, in place, the samples a graph
        update invalidated.

        A pair with source ``-1`` (unknown, from a snapshot that
        predates the pair columns) is drawn afresh first.  The paths
        come from the engine's *redraw stream*: the generator
        :meth:`_redraw_sampler` draws from, which :meth:`rng_state`
        captures, so a checkpoint taken after a redraw continues
        bit-identically.  :attr:`stats` does not count redraws.
        """
        sampler = self._redraw_sampler()
        sources = np.array(sources, dtype=np.int64)
        targets = np.array(targets, dtype=np.int64)
        unknown = np.flatnonzero(sources < 0)
        if unknown.size:
            sources[unknown], targets[unknown] = sampler.draw_pairs(unknown.size)
        return sampler.sample_pairs(sources, targets)

    def _redraw_sampler(self) -> PathSampler:
        """The sampler :meth:`redraw` draws through."""
        return PathSampler(self.graph, seed=self._rng)

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
