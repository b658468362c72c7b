"""Execution engines for shortest-path sampling.

All sampling algorithms draw their paths through a
:class:`~repro.engine.base.SampleEngine`, selected by name:

``serial``
    The default: every draw is one packed cohort draw — pairs up
    front, wavefront searches in chunks, one vectorized walk per
    chunk — returned as a :class:`~repro.paths.packed.PackedSamples`
    record and ingested by ``extend`` in one vectorized append.
    Samples are bit-identical to ``batch`` with the ``wavefront`` or
    ``scalar`` kernel (seeded outputs changed once when the engine
    moved to this design; the sample law did not).
``batch``
    The same in-process draw with the traversal ``kernel`` selectable
    (``scalar`` is the per-sample oracle, ``grouped`` the legacy
    source-grouped sampler).
``process``
    Fan chunks of samples out to a pool of worker processes over a
    shared-memory graph; results are bit-identical across worker
    counts for a fixed seed.
``epoch``
    Persistent worker loops sampling fixed-size epochs continuously
    (:class:`~repro.engine.epoch.EpochEngine`): one pickle per epoch,
    speculative lookahead, bulk coverage ingestion — bit-identical
    across worker counts for a fixed ``(seed, epoch_size)``.

The ``kernel`` knob (``wavefront`` / ``scalar`` / ``grouped``, see
:data:`~repro.engine.base.KERNELS`) selects how the batch, process,
and epoch engines traverse; ``cache_sources`` sizes the forward-BFS
tree cache of the ``grouped`` kernel.

A draw holds its output, the sparse search state of one chunk (the
nodes its queries discovered short of their outermost levels) and the
cohort's two ``(cohort_size, n)`` sigma planes — never a length-``n``
row per sample.
"""

from __future__ import annotations

from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from ..obs import as_telemetry
from ..paths.packed import PackedSamples
from .base import (
    KERNELS,
    EngineStats,
    SampleEngine,
    coverage_nodes,
    draw_packed,
    resolve_kernel,
    sampler_work,
)
from .epoch import EpochEngine
from .pool import ProcessPoolEngine
from .serial import BatchEngine, SerialEngine
from .shm import SharedGraphBlocks, attach_graph

__all__ = [
    "EngineStats",
    "SampleEngine",
    "SerialEngine",
    "BatchEngine",
    "ProcessPoolEngine",
    "EpochEngine",
    "PackedSamples",
    "SharedGraphBlocks",
    "attach_graph",
    "ENGINES",
    "KERNELS",
    "create_engine",
    "coverage_nodes",
    "resolve_kernel",
    "draw_packed",
    "sampler_work",
]

#: Name -> engine class registry used by ``create_engine`` and the CLI.
ENGINES: dict[str, type[SampleEngine]] = {
    SerialEngine.name: SerialEngine,
    BatchEngine.name: BatchEngine,
    ProcessPoolEngine.name: ProcessPoolEngine,
    EpochEngine.name: EpochEngine,
}


def create_engine(
    name: str,
    graph: CSRGraph,
    *,
    seed=None,
    method: str = "bidirectional",
    include_endpoints: bool = True,
    workers: int | None = None,
    kernel: str = "wavefront",
    cache_sources: int = 0,
    epoch_size: int | None = None,
    delta: int | None = None,
    telemetry=None,
    debug: bool = False,
) -> SampleEngine:
    """Instantiate the engine registered under ``name``.

    ``workers`` only applies to the process/epoch engines, ``kernel``
    and ``delta`` (the weighted delta-stepping bucket width,
    result-invariant) to the batch/process/epoch engines, and
    ``epoch_size`` to the epoch engine (``None`` keeps its default);
    passing them with other engines is accepted (and ignored) so
    callers can thread a single set of knobs through unconditionally.
    ``cache_sources`` applies everywhere.  ``telemetry`` attaches a
    :class:`~repro.obs.Telemetry` hub the engine reports draws to, and
    ``debug`` turns on the per-draw invariant validators
    (:mod:`repro.obs.invariants`).
    """
    try:
        cls = ENGINES[name]
    except KeyError:
        known = ", ".join(sorted(ENGINES))
        raise ParameterError(f"unknown engine {name!r}; expected one of: {known}")
    from ..graph.delta import DeltaGraph  # local import avoids a cycle

    if isinstance(graph, DeltaGraph):
        # traversal kernels need contiguous CSR arrays: engines run on
        # the last compacted snapshot, and as_graph() refuses to hand
        # out a stale one while uncompacted ops are pending
        graph = graph.as_graph()
    resolve_kernel(kernel, graph, method)  # reject unknown names early
    if epoch_size is not None and epoch_size < 1:
        raise ParameterError(f"epoch_size must be >= 1, got {epoch_size}")
    if delta is not None and delta < 1:
        raise ParameterError(f"delta must be >= 1, got {delta}")
    kwargs = {
        "seed": seed,
        "method": method,
        "include_endpoints": include_endpoints,
        "cache_sources": cache_sources,
    }
    if issubclass(cls, (BatchEngine, ProcessPoolEngine, EpochEngine)):
        kwargs["kernel"] = kernel
        kwargs["delta"] = delta
    if issubclass(cls, (ProcessPoolEngine, EpochEngine)):
        kwargs["workers"] = workers
    if issubclass(cls, EpochEngine) and epoch_size is not None:
        kwargs["epoch_size"] = epoch_size
    engine = cls(graph, **kwargs)
    engine.telemetry = as_telemetry(telemetry)
    engine.debug = bool(debug)
    return engine
