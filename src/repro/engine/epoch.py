"""Epoch-based asynchronous sampling over persistent worker loops.

A request/response pool — chunk each ``draw``, submit one task per
chunk, pickle one chunk back per task — puts its dispatch overhead
*inside* every stopping-rule evaluation.  This engine inverts the loop,
following the low-sync recipe of van der Grinten, Angriman & Meyerhenke
("Parallel Adaptive Sampling with almost no Synchronization"):

* **Persistent workers.**  Each worker is one long-lived process
  running a task loop — attach the graph once (shared memory, a
  re-opened memory map for out-of-core graphs, or pickled arrays
  where ``/dev/shm`` is unavailable), then consume
  ``(epoch_index, seed, size)`` tickets from a queue forever.  No
  executor round-trips, no per-draw initializer.  The parent owns the
  shared-memory blocks and unlinks them on :meth:`EpochEngine.close`,
  including after a worker crash.
* **Fixed-size epochs.**  The unit of work is an *epoch* of
  ``epoch_size`` samples.  Epoch ``i`` is sampled from the child
  stream ``indexed_seed(entropy, i)`` (:mod:`repro._rng`), so the
  content of every epoch is a pure function of ``(seed, epoch_size)``
  — which worker ran it, and in which order epochs *finished*, is
  irrelevant.  The parent ingests epochs strictly in index order;
  that is the whole determinism argument, and it holds for 0 (in
  process), 1, or 8 workers.
* **Compact deltas.**  Workers return each epoch as the
  :class:`~repro.paths.packed.PackedSamples` record the sampler drew —
  flat arrays, one pickle per epoch — and the parent folds a draw into
  the :class:`~repro.coverage.CoverageInstance` with a single
  vectorized append, like every engine.
* **Speculative lookahead.**  While the stopping rule deliberates,
  workers keep sampling: the parent keeps ``lookahead`` epochs per
  worker in flight beyond current demand.  Epochs that were sampled
  but never needed are discarded at close (counted as
  ``engine.epoch.discarded``) — wasted samples, saved wall-clock, and
  zero effect on results because unused suffixes never enter the
  stream.

Redraws after a graph update (:meth:`~repro.engine.base.SampleEngine.redraw`)
come from the master generator, which nothing else draws from once the
entropy word is taken; the epoch cursor never moves for them, and
:meth:`EpochEngine.rng_state` carries the master state along.

``extend`` rounds its target **up to an epoch boundary**: the stores
of a :class:`~repro.session.SamplingSession` then always sit on a
whole number of epochs, which is where checkpoints land and where
:meth:`rng_state` is well-defined.  The stopping-rule policies divide
by the store's actual ``num_paths``, so the overshoot changes sample
counts, never estimator validity.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager
from queue import Empty

from .._rng import indexed_seed, stream_entropy
from ..coverage.hypergraph import CoverageInstance
from ..exceptions import CheckpointError, EngineError, ParameterError
from ..graph.csr import CSRGraph
from ..graph.weighted import WeightedCSRGraph
from ..paths.sampler import PackedSamples, PathSampler
from .base import SampleEngine, sampler_work
from .shm import SharedGraphBlocks, attach_graph

__all__ = ["EpochEngine"]

#: Default samples per epoch — small enough that stopping rules never
#: overshoot their targets by much, large enough that the one-pickle
#: per-epoch overhead is amortized over hundreds of paths.
_DEFAULT_EPOCH = 512

#: Tag identifying this engine's composite RNG state in checkpoints.
_STATE_TAG = "repro-epoch-stream"

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


def _epoch_samples(
    graph: CSRGraph, seed: int, count: int
) -> tuple[PackedSamples, tuple[int, ...]]:
    """One epoch of samples from its own seeded stream.

    The single epoch body shared by the workers and the in-process
    path — the reason results are bit-identical across worker counts.
    Returns the packed samples and the epoch's work counters
    (:func:`~repro.engine.base.sampler_work`).
    """
    sampler = PathSampler(graph, seed=seed)
    packed = sampler.sample_cohort(count)
    return packed, sampler_work(sampler)


def _epoch_worker(transport: str, payload: dict, tasks, results) -> None:
    """One persistent worker loop: attach the graph once, then sample
    epochs until the ``None`` sentinel arrives.

    Each ticket is ``(epoch_index, seed, size)``; each answer is
    ``(epoch_index, pid, PackedSamples | None, info)`` where ``info``
    is the work-counter tuple (:func:`~repro.engine.base.sampler_work`)
    on success and the formatted exception on failure (a failed epoch
    never kills the loop — the parent re-runs it in-process to surface
    the real traceback).
    """
    graph, handles = _materialize_graph(transport, payload)
    pid = os.getpid()
    try:
        while True:
            ticket = tasks.get()
            if ticket is None:
                break
            index, seed, size = ticket
            try:
                packed, work = _epoch_samples(graph, seed, size)
            except Exception as exc:
                results.put((index, pid, None, repr(exc)))
                continue
            results.put((index, pid, packed, work))
    finally:
        del graph
        for handle in handles:
            handle.close()


class EpochEngine(SampleEngine):
    """Continuous epoch sampling with persistent worker processes.

    Parameters
    ----------
    workers:
        Worker processes (default ``os.cpu_count()``).  ``0`` runs the
        identical epoch schedule in-process; results are bit-identical
        across all worker counts for a fixed ``(seed, epoch_size)``.
    epoch_size:
        Samples per epoch — the determinism granule *and* the stopping
        rules' evaluation granule: ``extend`` targets round up to the
        next epoch boundary.  Changing it changes the concrete samples;
        changing ``workers`` does not.
    lookahead:
        Speculative epochs kept in flight per worker beyond current
        demand.  ``0`` disables speculation (strict demand-driven
        dispatch); larger values hide more stopping-rule latency at
        the cost of more discarded work on the final iteration.
    """

    name = "epoch"

    def __init__(
        self,
        graph: CSRGraph,
        seed=None,
        include_endpoints: bool = True,
        workers: int | None = None,
        epoch_size: int = _DEFAULT_EPOCH,
        lookahead: int = 2,
    ):
        super().__init__(graph, seed=seed, include_endpoints=include_endpoints)
        if workers is not None and workers < 0:
            raise ParameterError(f"workers must be >= 0, got {workers}")
        if epoch_size < 1:
            raise ParameterError(f"epoch_size must be >= 1, got {epoch_size}")
        if lookahead < 0:
            raise ParameterError(f"lookahead must be >= 0, got {lookahead}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.epoch_size = int(epoch_size)
        self.lookahead = int(lookahead)
        #: Entropy word keying the indexed family of epoch streams
        #: (:func:`repro._rng.indexed_seed`); drawn once from the
        #: master stream so the whole schedule is fixed up front.
        self._entropy = stream_entropy(self._rng)
        self._ingested = 0  # epochs folded into the stream, in order
        self._dispatched = 0  # epoch tickets currently issued
        self._arrived: dict[int, tuple] = {}  # finished, not yet ingested
        self._failed: set[int] = set()  # epochs a worker reported failed
        self._carry = PackedSamples.empty()  # tail of a partially drawn epoch
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
                    target=_epoch_worker,
                    args=(transport, payload, self._tasks, self._results),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
        except (OSError, PermissionError, ValueError):
            # sandboxes without subprocess support: same epoch schedule,
            # in-process
            self._procs = procs
            self._shutdown_workers()
            self._broken = True
            self._release_segments()
            return False
        self._procs = procs
        self.stats.pool_startups += 1
        return True

    def _shutdown_workers(self) -> None:
        """Stop the worker loops, keeping any finished epochs that are
        still ahead of the stream position."""
        procs, self._procs = self._procs, []
        if procs and self._tasks is not None:
            # revoke unconsumed speculative tickets (racing workers may
            # still grab some — harmless, their results are discarded),
            # then send one exit sentinel per worker
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
                    self._store_arrival(self._results.get(timeout=_POLL_SECONDS))
                except Empty:
                    continue
            while True:
                try:
                    self._store_arrival(self._results.get_nowait())
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
        # issued tickets died with the queues; nothing is in flight now
        self._dispatched = self._ingested

    def _store_arrival(self, arrival: tuple) -> None:
        index, pid, packed, info = arrival
        if packed is None:
            self._failed.add(index)
        elif index >= self._ingested:
            self._arrived[index] = (packed, info, pid)

    # ------------------------------------------------------------------
    # the epoch stream
    # ------------------------------------------------------------------
    def _seed_for(self, index: int) -> int:
        return indexed_seed(self._entropy, index)

    def _dispatch_through(self, last_index: int) -> None:
        """Issue tickets so every epoch up to ``last_index`` is in
        flight (never re-issues; tickets are consumed exactly once)."""
        while self._dispatched <= last_index:
            index = self._dispatched
            self._tasks.put((index, self._seed_for(index), self.epoch_size))
            self._dispatched += 1
            self.stats.dispatches += 1
            self.telemetry.count("engine.epoch.dispatches", 1)

    def _compute_epoch(self, index: int) -> tuple:
        """The in-process epoch body — identical samples to a worker's,
        because both run :func:`_epoch_samples` on the same
        ``(seed, size)``."""
        seed = self._seed_for(index)
        self.stats.dispatches += 1
        self.telemetry.count("engine.epoch.dispatches", 1)
        try:
            packed, work = _epoch_samples(self.graph, seed, self.epoch_size)
        except Exception as exc:
            raise EngineError(
                f"epoch {index} (size={self.epoch_size}, seed={seed}) "
                f"failed: {exc}"
            ) from exc
        return packed, work, os.getpid()

    def _await(self, index: int):
        """Block until epoch ``index`` arrives from the workers,
        degrading to in-process computation if the pool dies."""
        while index not in self._arrived:
            if index in self._failed:
                return self._compute_epoch(index)  # re-raise for real
            try:
                self._store_arrival(self._results.get(timeout=_POLL_SECONDS))
            except Empty:
                if any(not proc.is_alive() for proc in self._procs):
                    # a worker died without reporting: salvage finished
                    # epochs, then compute the rest of the stream here
                    self._shutdown_workers()
                    self._broken = True
                    self.stats.workers = 0
                    if index in self._arrived:
                        break
                    return self._compute_epoch(index)
        return self._arrived.pop(index)

    def _next_epoch(self) -> tuple:
        """The next epoch of the stream, in index order — from the
        buffer, the workers, or computed here; always deterministic."""
        index = self._ingested
        if index in self._arrived:
            entry = self._arrived.pop(index)
        elif index in self._failed:
            entry = self._compute_epoch(index)  # deterministic re-raise
        elif self._ensure_workers():
            self._dispatch_through(index + self.lookahead * len(self._procs))
            entry = self._await(index)
        else:
            entry = self._compute_epoch(index)
        self._ingested += 1
        self.stats.epochs += 1
        self.stats.batches += 1
        self.telemetry.count("engine.epoch.epochs", 1)
        self._fold_info(entry)
        return entry

    def _fold_info(self, entry: tuple) -> None:
        packed, work, pid = entry
        self.stats.add_work(work)
        self.stats.worker_samples[pid] = self.stats.worker_samples.get(
            pid, 0
        ) + len(packed)

    def _update_worker_stat(self) -> None:
        self.stats.workers = (
            0 if (self._broken or self.workers == 0) else self.workers
        )

    @contextmanager
    def _reap_on_error(self):
        """Stop the persistent workers when an exception escapes a
        ``draw``/``extend`` body.

        Without this, an error raised between ``_ensure_workers`` and
        ``close`` (a coverage append failing, an invariant check, a
        ``KeyboardInterrupt``) leaves daemon children sampling forever
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
        """Exactly ``count`` samples off the epoch stream.

        Whole epochs are ingested; the unconsumed tail is carried into
        the next ``draw`` so the stream position (and hence every
        sample) is independent of how requests slice it.  A draw that
        fails part-way carries what it had already taken, so a retry
        continues the stream exactly.
        """
        self._check_count(count)
        parts = [self._carry[:count]]
        self._carry = self._carry[count:]
        drawn = len(parts[0])
        try:
            with self._reap_on_error():
                while drawn < count:
                    packed, _work, _pid = self._next_epoch()
                    need = count - drawn
                    parts.append(packed[:need])
                    self._carry = packed[need:]
                    drawn += len(parts[-1])
        except BaseException:
            self._carry = PackedSamples.concat([*parts, self._carry])
            raise
        self.stats.samples += count
        self.stats.draw_calls += 1
        self._update_worker_stat()
        return PackedSamples.concat(parts)

    def effective_target(self, upto: int, current: int) -> int:
        """Where an ``extend(instance, upto)`` will actually leave an
        instance currently holding ``current`` samples: any carried
        tail is flushed, then whole epochs until ``upto`` is reached."""
        missing = upto - current
        if missing <= 0:
            return current
        beyond_carry = max(0, missing - len(self._carry))
        epochs = -(-beyond_carry // self.epoch_size)
        return current + len(self._carry) + epochs * self.epoch_size

    def extend(self, instance: CoverageInstance, upto: int) -> None:
        """Grow ``instance`` to at least ``upto`` samples, landing on
        an epoch boundary.

        The carried tail plus whole epochs are drawn and ingested like
        any engine's draw (one vectorized append); telemetry adds one
        ``engine.epoch.barrier`` event per evaluation boundary.
        """
        self._flush_coverage(instance)
        if upto - instance.num_paths <= 0:
            return
        target = self.effective_target(upto, instance.num_paths)
        needed = target - instance.num_paths
        epochs = (needed - len(self._carry)) // self.epoch_size
        with self._reap_on_error():
            super().extend(instance, target)
        self.telemetry.event(
            "engine.epoch.barrier",
            epochs=epochs,
            samples=needed,
            requested=int(upto),
            reached=int(instance.num_paths),
        )
        self._update_worker_stat()

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def rng_state(self) -> dict:
        """The stream position as a composite, JSON-serializable state:
        the entropy word, the next epoch index, and the master
        generator's state.  Only defined at epoch boundaries."""
        if len(self._carry):
            raise CheckpointError(
                "cannot snapshot an epoch engine mid-epoch "
                f"({len(self._carry)} undelivered samples); snapshot at an "
                "epoch boundary — extend-driven sessions always sit on one"
            )
        return {
            "bit_generator": _STATE_TAG,
            "entropy": int(self._entropy),
            "next_epoch": int(self._ingested),
            "epoch_size": int(self.epoch_size),
            "master": super().rng_state(),
        }

    def set_rng_state(self, state: dict) -> None:
        """Reposition the stream at a state captured by
        :meth:`rng_state`; in-flight speculative work is discarded
        (it belongs to the old position)."""
        wanted = state.get("bit_generator") if isinstance(state, dict) else None
        if wanted != _STATE_TAG:
            raise CheckpointError(
                f"cannot restore RNG state of bit generator {wanted!r} "
                f"into {_STATE_TAG!r}"
            )
        recorded = int(state.get("epoch_size", self.epoch_size))
        if recorded != self.epoch_size:
            raise CheckpointError(
                f"checkpoint was taken with epoch_size={recorded}, cannot "
                f"resume with epoch_size={self.epoch_size} — the epoch size "
                "is part of the sample-stream identity"
            )
        super().set_rng_state(state["master"])
        self._discard_in_flight()
        self._carry = PackedSamples.empty()
        self._entropy = int(state["entropy"])
        self._ingested = int(state["next_epoch"])
        self._dispatched = self._ingested

    def _discard_in_flight(self) -> None:
        """Drop the speculative epochs past the stream position; the
        carried tail of the current epoch is part of the stream and
        stays."""
        discarded = self._dispatched - self._ingested
        self._shutdown_workers()
        self._arrived.clear()
        self._failed.clear()
        if discarded > 0:
            self.telemetry.count("engine.epoch.discarded", discarded)
        self._dispatched = self._ingested

    # ------------------------------------------------------------------
    def _release_segments(self) -> None:
        if self._segments is not None:
            self._segments.close()
            self._segments = None

    def close(self) -> None:
        """Stop the workers, discard speculative epochs, release the
        shared graph segments; idempotent — a later draw restarts the
        workers and continues the stream where it stopped."""
        self._discard_in_flight()
        self._release_segments()

    def __del__(self):  # pragma: no cover - belt-and-braces cleanup
        try:
            self.close()
        except Exception:
            pass
