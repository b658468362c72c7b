"""The worker fan-out: draws cut into index-range tickets for
persistent worker processes.

Sample ``i`` is a pure function of ``(key, i, graph)``
(:class:`~repro.paths.sampler.PathSampler`), so a draw of the indices
``cursor .. cursor + count - 1`` can be cut into fixed-size ranges,
computed anywhere and concatenated back in index order: the result is
the in-process :class:`~repro.engine.serial.SerialEngine` draw, bit for
bit, for any worker count — the low-sync recipe of van der Grinten,
Angriman & Meyerhenke ("Parallel Adaptive Sampling with almost no
Synchronization"), taken down to single samples.

Each worker is one long-lived process: it attaches the graph once
(shared memory, a re-opened memory map for out-of-core graphs, or
pickled arrays where ``/dev/shm`` is unavailable), then serves
``(key, lo, hi)`` tickets from a queue, answering each with the
:class:`~repro.paths.packed.PackedSamples` record its sampler drew.
The parent owns the shared-memory blocks and unlinks them on
:meth:`EpochEngine.close`.  A worker that dies mid-draw costs only
time: the tickets that arrived are kept, the rest are computed in
process, and later draws stay in process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager
from queue import Empty

import numpy as np

from ..coverage.hypergraph import CoverageInstance
from ..exceptions import EngineError, ParameterError
from ..graph.csr import CSRGraph
from ..graph.weighted import WeightedCSRGraph
from ..paths.sampler import PackedSamples, PathSampler
from .base import sampler_work
from .serial import SerialEngine
from .shm import SharedGraphBlocks, attach_graph

__all__ = ["EpochEngine"]

#: Sample indices per ticket — large enough that the one pickle per
#: ticket is amortized over hundreds of paths, small enough that a
#: draw spreads over the workers.  Never changes which samples a draw
#: returns.
_TICKET = 512

#: Result-queue poll interval; only bounds how fast worker death is
#: noticed, never what is computed.
_POLL_SECONDS = 0.1

_JOIN_SECONDS = 5.0


def _pickle_payload(graph: CSRGraph) -> dict:
    """Fallback graph description when shared memory is unavailable."""
    return {
        "arrays": graph.export_arrays(),
        "directed": graph.directed,
        "weighted": isinstance(graph, WeightedCSRGraph),
    }


def _materialize_graph(transport: str, payload: dict):
    """Rebuild the worker's graph; returns ``(graph, shm_handles)``."""
    if transport == "shm":
        return attach_graph(payload)
    if transport == "mmap":
        from ..graph.mmap import load_mmap  # deferred: graph.mmap is cold-path

        return load_mmap(payload["path"]), []
    cls = WeightedCSRGraph if payload["weighted"] else CSRGraph
    return cls.from_arrays(payload["arrays"], directed=payload["directed"]), []


def _ticket_samples(
    graph: CSRGraph, key: int, lo: int, hi: int
) -> tuple[PackedSamples, tuple[int, ...]]:
    """The samples of indices ``lo .. hi - 1`` of stream ``key``.

    The single ticket body shared by the workers and the in-process
    path.  Returns the packed samples and the ticket's work counters
    (:func:`~repro.engine.base.sampler_work`).
    """
    sampler = PathSampler(graph, seed=key)
    packed = sampler.sample_cohort(np.arange(lo, hi))
    return packed, sampler_work(sampler)


def _ticket_worker(transport: str, payload: dict, tasks, results) -> None:
    """One persistent worker loop: attach the graph once, then serve
    tickets until the ``None`` sentinel arrives.

    Each ticket is ``(key, lo, hi)``; each answer is
    ``(lo, pid, PackedSamples | None, info)`` where ``info`` is the
    work-counter tuple on success and the formatted exception on
    failure (a failed ticket never kills the loop — the parent re-runs
    it in-process to surface the real traceback).
    """
    graph, handles = _materialize_graph(transport, payload)
    pid = os.getpid()
    try:
        while True:
            ticket = tasks.get()
            if ticket is None:
                break
            key, lo, hi = ticket
            try:
                packed, work = _ticket_samples(graph, key, lo, hi)
            except Exception as exc:
                results.put((lo, pid, None, repr(exc)))
                continue
            results.put((lo, pid, packed, work))
    finally:
        del graph
        for handle in handles:
            handle.close()


class EpochEngine(SerialEngine):
    """The serial engine's stream, computed by persistent worker
    processes.

    Parameters
    ----------
    workers:
        Worker processes (default ``os.cpu_count()``).  ``0`` runs the
        same tickets in-process.  The samples never depend on it.
    """

    name = "epoch"

    def __init__(
        self,
        graph: CSRGraph,
        seed=None,
        include_endpoints: bool = True,
        workers: int | None = None,
    ):
        super().__init__(graph, seed=seed, include_endpoints=include_endpoints)
        if workers is not None and workers < 0:
            raise ParameterError(f"workers must be >= 0, got {workers}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._procs: list = []
        self._tasks = None
        self._results = None
        self._broken = False
        self._segments: SharedGraphBlocks | None = None

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _worker_payload(self) -> tuple[str, dict]:
        """Graph transport for the workers: memory-mapped graphs are
        re-opened from disk, others go through shm with a pickle
        fallback."""
        if self.graph.mmap_source is not None:
            return "mmap", {"path": self.graph.mmap_source}
        if self._segments is None:
            try:
                self._segments = SharedGraphBlocks(self.graph)
            except OSError:
                return "pickle", _pickle_payload(self.graph)
        return "shm", self._segments.spec

    def _ensure_workers(self) -> bool:
        """Start the persistent workers lazily; ``False`` means run
        in-process (``workers=0``, or subprocesses unavailable)."""
        if self._broken or self.workers == 0:
            return False
        if self._procs:
            return True
        transport, payload = self._worker_payload()
        context = mp.get_context()
        procs: list = []
        try:
            self._tasks = context.Queue()
            self._results = context.Queue()
            for _ in range(self.workers):
                proc = context.Process(
                    target=_ticket_worker,
                    args=(transport, payload, self._tasks, self._results),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
        except (OSError, PermissionError, ValueError):
            # sandboxes without subprocess support: same tickets,
            # in-process
            self._procs = procs
            self._shutdown_workers()
            self._broken = True
            self._release_segments()
            return False
        self._procs = procs
        self.stats.pool_startups += 1
        return True

    def _shutdown_workers(self) -> dict:
        """Stop the worker loops; returns the finished tickets that
        were still in the result queue (``lo -> arrival``)."""
        arrived: dict = {}
        procs, self._procs = self._procs, []
        if procs and self._tasks is not None:
            # revoke unconsumed tickets (racing workers may still grab
            # some), then send one exit sentinel per worker
            while True:
                try:
                    self._tasks.get_nowait()
                except Empty:
                    break
            for _ in procs:
                self._tasks.put(None)
            # drain results until every loop exits — their queue feeder
            # threads must flush before join can complete
            while any(proc.is_alive() for proc in procs):
                try:
                    self._store(arrived, self._results.get(timeout=_POLL_SECONDS))
                except Empty:
                    continue
            while True:
                try:
                    self._store(arrived, self._results.get_nowait())
                except Empty:
                    break
        for proc in procs:
            proc.join(timeout=_JOIN_SECONDS)
            if proc.is_alive():  # pragma: no cover - stuck-worker escape
                proc.terminate()
                proc.join(timeout=_JOIN_SECONDS)
        for channel in (self._tasks, self._results):
            if channel is not None:
                channel.close()
                channel.cancel_join_thread()
        self._tasks = None
        self._results = None
        return arrived

    @staticmethod
    def _store(arrived: dict, arrival: tuple) -> None:
        lo, pid, packed, info = arrival
        if packed is not None:  # a failed ticket is recomputed here
            arrived[lo] = (packed, info, pid)

    # ------------------------------------------------------------------
    # tickets
    # ------------------------------------------------------------------
    def _compute(self, lo: int, hi: int) -> tuple:
        """One ticket in process — the same samples a worker returns,
        because both run :func:`_ticket_samples`."""
        try:
            packed, work = _ticket_samples(self.graph, self.key, lo, hi)
        except Exception as exc:
            raise EngineError(
                f"ticket [{lo}, {hi}) (key={self.key}) failed: {exc}"
            ) from exc
        return packed, work, os.getpid()

    def _fan_out(self, tickets: list[tuple[int, int]]) -> dict:
        """Hand ``tickets`` to the workers and collect their answers,
        ``lo -> (packed, work, pid)``.  A failed ticket is left out; a
        dead worker stops the pool, keeping what already arrived."""
        for lo, hi in tickets:
            self._tasks.put((self.key, lo, hi))
        pending = {lo for lo, _ in tickets}
        arrived: dict = {}
        while pending:
            try:
                arrival = self._results.get(timeout=_POLL_SECONDS)
            except Empty:
                if any(not proc.is_alive() for proc in self._procs):
                    # a worker died without reporting: salvage finished
                    # tickets, then compute the rest in process
                    arrived.update(self._shutdown_workers())
                    self._broken = True
                    break
                continue
            pending.discard(arrival[0])
            self._store(arrived, arrival)
        return arrived

    @contextmanager
    def _reap_on_error(self):
        """Stop the persistent workers when an exception escapes a
        ``draw``/``extend`` body.

        Without this, an error raised between ``_ensure_workers`` and
        ``close`` (a coverage append failing, an invariant check, a
        ``KeyboardInterrupt``) leaves daemon children waiting forever
        if the caller holds the engine in a reference cycle —
        ``__del__`` is belt-and-braces, not a guarantee.  The engine
        stays usable: the next draw lazily restarts the pool.
        """
        try:
            yield
        except BaseException:
            self._shutdown_workers()
            self._release_segments()
            raise

    # ------------------------------------------------------------------
    # SampleEngine interface
    # ------------------------------------------------------------------
    def draw(self, count: int) -> PackedSamples:
        """The next ``count`` samples of the stream, as tickets of
        :data:`_TICKET` indices spread over the workers."""
        self._check_count(count)
        end = self.cursor + count
        tickets = [
            (lo, min(lo + _TICKET, end)) for lo in range(self.cursor, end, _TICKET)
        ]
        with self._reap_on_error():
            arrived = self._fan_out(tickets) if self._ensure_workers() else {}
            parts = [
                arrived[lo] if lo in arrived else self._compute(lo, hi)
                for lo, hi in tickets
            ]
        for packed, work, pid in parts:
            self.stats.add_work(work)
            self.stats.worker_samples[pid] = (
                self.stats.worker_samples.get(pid, 0) + len(packed)
            )
        self.telemetry.count("engine.epoch.dispatches", len(tickets))
        self.cursor = end
        self.stats.samples += count
        self.stats.draw_calls += 1
        self.stats.batches += len(tickets)
        self.stats.workers = 0 if (self._broken or self.workers == 0) else self.workers
        return PackedSamples.concat([packed for packed, _, _ in parts])

    def extend(self, instance: CoverageInstance, upto: int) -> None:
        """:meth:`~repro.engine.base.SampleEngine.extend`, reaping the
        workers if anything in it raises."""
        with self._reap_on_error():
            super().extend(instance, upto)

    # ------------------------------------------------------------------
    def _release_segments(self) -> None:
        if self._segments is not None:
            self._segments.close()
            self._segments = None

    def close(self) -> None:
        """Stop the workers and release the shared graph segments;
        idempotent — a later draw restarts the workers and continues
        the stream where it stopped."""
        self._shutdown_workers()
        self._release_segments()

    def __del__(self):  # pragma: no cover - belt-and-braces cleanup
        try:
            self.close()
        except Exception:
            pass
