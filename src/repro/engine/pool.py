"""Process-parallel sampling over a shared CSR graph.

Path sampling is embarrassingly parallel — samples are i.i.d. — so the
only design problems are *determinism* and *graph distribution*:

* **Determinism.**  Each ``draw`` request is split into fixed-size
  chunks, and every chunk receives its own child seed from the
  engine's master stream (:func:`repro._rng.spawn_seeds`) *in chunk
  order*.  Workers may finish chunks in any order, but results are
  reassembled by chunk index, so the sample sequence is a pure
  function of ``(seed, chunk_size, kernel)`` — bit-identical for 0
  (in-process), 1, 2, or 8 workers.  This is the "almost no
  synchronization" recipe of van der Grinten et al.: workers share
  nothing but the immutable graph and their pre-assigned sub-streams.
* **Graph distribution.**  The immutable CSR arrays are copied once
  into named :mod:`multiprocessing.shared_memory` segments
  (:mod:`repro.engine.shm`); workers attach by name and wrap the
  buffers zero-copy — the same cost under ``fork`` and ``spawn``,
  and independent of the worker count.  The parent owns the segments
  and unlinks them on :meth:`ProcessPoolEngine.close`, including
  after a worker crash.  Environments whose ``/dev/shm`` is
  unavailable fall back to pickling the arrays into each worker.

The executor is started lazily on the first draw and **reused** across
every subsequent ``draw`` / ``extend`` call; ``stats.pool_startups``
counts the launches (it stays at 1 for a healthy engine).  Environments
that forbid subprocesses entirely degrade gracefully: the engine runs
the same chunk schedule in-process, preserving results exactly and
reporting ``workers=0``.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, wait

from .._rng import spawn_seeds
from ..exceptions import EngineError, ParameterError
from ..graph.csr import CSRGraph
from ..graph.weighted import WeightedCSRGraph
from ..paths.sampler import PackedSamples, PathSampler
from .base import SampleEngine, draw_packed, resolve_kernel, sampler_work
from .shm import SharedGraphBlocks, attach_graph

__all__ = ["ProcessPoolEngine"]

_DEFAULT_CHUNK = 1024

#: Auto-sized chunks never split a draw into more than this many
#: dispatches: large draws get proportionally larger chunks, so the
#: per-dispatch overhead (one pickled result per chunk) stays a fixed
#: fraction of the draw instead of growing linearly with it.
_TARGET_DISPATCHES = 8

#: Per-worker state set once by the pool initializer: the rebuilt graph,
#: the shared-memory handles keeping its buffers alive, and the sampling
#: configuration every chunk reuses.
_WORKER_STATE: dict = {}


def _pickle_payload(graph: CSRGraph) -> dict:
    """Fallback graph description when shared memory is unavailable."""
    return {
        "arrays": {k: v for k, v in graph.export_arrays().items()},
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


def _init_worker(
    transport: str,
    payload: dict,
    method: str,
    kernel: str,
    cohort_size: int | None,
    delta: int | None,
    cache_sources: int,
) -> None:
    graph, handles = _materialize_graph(transport, payload)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        graph=graph,
        handles=handles,
        method=method,
        kernel=kernel,
        cohort_size=cohort_size,
        delta=delta,
        cache_sources=cache_sources,
    )


def _chunk_samples(
    graph: CSRGraph,
    method: str,
    kernel: str,
    cohort_size: int | None,
    delta: int | None,
    cache_sources: int,
    seed: int,
    count: int,
) -> tuple[PackedSamples, tuple[int, ...]]:
    """One chunk of samples from its own seeded stream.

    The single chunk body shared by pool workers, epoch workers, and
    the in-process fallback — the reason results are bit-identical
    across worker counts.  Returns the packed samples and the chunk's
    work counters (:func:`~repro.engine.base.sampler_work`).
    """
    sampler = PathSampler(
        graph, seed=seed, method=method, cache_sources=cache_sources
    )
    packed = draw_packed(sampler, kernel, count, cohort_size, delta)
    return packed, sampler_work(sampler)


def _draw_chunk(seed: int, count: int):
    """Executed in a worker: run the shared chunk body on its graph."""
    state = _WORKER_STATE
    result = _chunk_samples(
        state["graph"],
        state["method"],
        state["kernel"],
        state["cohort_size"],
        state["delta"],
        state["cache_sources"],
        seed,
        count,
    )
    return (os.getpid(), *result)


class ProcessPoolEngine(SampleEngine):
    """Fan sampling out to a pool of worker processes.

    Parameters
    ----------
    workers:
        Worker processes (default ``os.cpu_count()``).  ``0`` forces
        the in-process fallback (no subprocesses, no shared memory);
        results are bit-identical across all worker counts for a
        fixed seed.
    chunk_size:
        Samples per dispatched chunk.  Part of the determinism
        contract: changing it changes the sub-stream layout (and hence
        the concrete samples), while changing ``workers`` does not.
        The default ``None`` auto-sizes chunks as a pure function of
        the draw *count* — ``max(1024, ceil(count / 8))`` — which keeps
        small draws in one dispatch (identical layout to the historical
        fixed 1024) while capping the dispatch overhead of large draws
        at 8 result pickles; still worker-count independent.
    kernel:
        Per-chunk traversal kernel: ``"wavefront"`` (default),
        ``"scalar"``, or the legacy ``"grouped"`` — see
        :data:`repro.engine.base.KERNELS`.  Weighted graphs run the
        delta-stepping cohort kernel; only the unweighted
        ``"forward"`` method still falls back to ``"grouped"``.
    cohort_size:
        Wavefront cohort width forwarded to each chunk.
    delta:
        Weighted delta-stepping bucket width forwarded to each chunk
        (result-invariant; ``None`` auto-tunes).
    cache_sources:
        Per-worker forward-BFS tree cache size (``"grouped"`` kernel
        only; caches are per-chunk, so this mainly helps large chunks).
    """

    name = "process"

    def __init__(
        self,
        graph: CSRGraph,
        seed=None,
        method: str = "bidirectional",
        include_endpoints: bool = True,
        cache_sources: int = 0,
        workers: int | None = None,
        chunk_size: int | None = None,
        kernel: str = "wavefront",
        cohort_size: int | None = None,
        delta: int | None = None,
    ):
        super().__init__(
            graph,
            seed=seed,
            method=method,
            include_endpoints=include_endpoints,
            cache_sources=cache_sources,
        )
        if workers is not None and workers < 0:
            raise ParameterError(f"workers must be >= 0, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.requested_kernel = kernel
        self.kernel = resolve_kernel(kernel, graph, method)
        self.cohort_size = cohort_size
        self.delta = delta
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._segments: SharedGraphBlocks | None = None

    # ------------------------------------------------------------------
    def _worker_payload(self) -> tuple[str, dict]:
        """Graph transport for worker initializers: re-open the on-disk
        file for memory-mapped graphs, shared memory when the platform
        provides it, pickled arrays otherwise."""
        if self.graph.mmap_source is not None:
            return "mmap", {"path": self.graph.mmap_source}
        if self._segments is None:
            try:
                self._segments = SharedGraphBlocks(self.graph)
            except OSError:
                return "pickle", _pickle_payload(self.graph)
        return "shm", self._segments.spec

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        """The executor, started lazily and reused across draws;
        ``None`` if unavailable."""
        if self._pool_broken or self.workers == 0:
            return None
        if self._pool is None:
            transport, payload = self._worker_payload()
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(
                        transport,
                        payload,
                        self.method,
                        self.kernel,
                        self.cohort_size,
                        self.delta,
                        self.cache_sources,
                    ),
                )
                self.stats.pool_startups += 1
            except (OSError, PermissionError, ValueError):
                # sandboxes without subprocess support: run the same
                # chunk schedule in-process instead
                self._pool_broken = True
                self._release_segments()
                return None
        return self._pool

    def _chunk_sizes(self, count: int) -> list[int]:
        # depends on the request count only, never on worker state —
        # the chunk layout is what makes results worker-count invariant
        size = self.chunk_size
        if size is None:
            size = max(_DEFAULT_CHUNK, -(-count // _TARGET_DISPATCHES))
        full, rest = divmod(count, size)
        return [size] * full + ([rest] if rest else [])

    def draw(self, count: int) -> PackedSamples:
        self._check_count(count)
        if count == 0:
            self.stats.draw_calls += 1
            return PackedSamples.empty()
        sizes = self._chunk_sizes(count)
        seeds = spawn_seeds(self._rng, len(sizes))
        if self.kernel == "grouped" and self.requested_kernel != "grouped":
            self._note_kernel_fallback(self.requested_kernel)
        pool = self._ensure_pool()

        results = []
        if pool is not None:
            futures: list[Future] = []
            index = 0
            try:
                futures = [
                    pool.submit(_draw_chunk, seed, size)
                    for seed, size in zip(seeds, sizes)
                ]
                results = []
                for index, future in enumerate(futures):
                    results.append(future.result())
            except BrokenExecutor:
                # a worker died: tear everything down (the pool AND the
                # shared segments it was attached to) before falling back
                self._pool_broken = True
                self.close()
                results = []
            except Exception as exc:
                # a chunk body raised inside a healthy worker: cancel what
                # has not started, wait out what has (no orphaned in-flight
                # work), account the failed call, and surface the chunk —
                # the pool itself is fine, so later draws keep using it
                for pending in futures:
                    pending.cancel()
                wait(futures)
                self.stats.draw_calls += 1
                raise EngineError(
                    f"worker chunk {index + 1}/{len(sizes)} "
                    f"(size={sizes[index]}, seed={seeds[index]}) failed: {exc}"
                ) from exc
        if not results:
            # in-process fallback: identical chunk schedule and seeds
            results = []
            for index, (seed, size) in enumerate(zip(seeds, sizes)):
                try:
                    chunk = _chunk_samples(
                        self.graph,
                        self.method,
                        self.kernel,
                        self.cohort_size,
                        self.delta,
                        self.cache_sources,
                        seed,
                        size,
                    )
                except Exception as exc:
                    self.stats.draw_calls += 1
                    raise EngineError(
                        f"chunk {index + 1}/{len(sizes)} "
                        f"(size={size}, seed={seed}) failed: {exc}"
                    ) from exc
                results.append((os.getpid(), *chunk))

        for pid, chunk, work in results:
            self.stats.add_work(work)
            self.stats.worker_samples[pid] = (
                self.stats.worker_samples.get(pid, 0) + len(chunk)
            )
        self.stats.samples += count
        self.stats.draw_calls += 1
        self.stats.batches += len(sizes)
        self.stats.workers = (
            0 if (self._pool_broken or self.workers == 0) else self.workers
        )
        return PackedSamples.concat([chunk for _pid, chunk, _work in results])

    # ------------------------------------------------------------------
    def _release_segments(self) -> None:
        if self._segments is not None:
            self._segments.close()
            self._segments = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._release_segments()

    def __del__(self):  # pragma: no cover - belt-and-braces cleanup
        try:
            self.close()
        except Exception:
            pass
