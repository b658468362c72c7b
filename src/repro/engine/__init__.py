"""Execution engines for shortest-path sampling.

All sampling algorithms draw their paths through a
:class:`~repro.engine.base.SampleEngine`, selected by name.  Both
engines draw every sample through the same packed cohort draw
(:meth:`~repro.paths.sampler.PathSampler.sample_cohort`): pairs up
front, wavefront searches in chunks, one vectorized walk per chunk,
returned as a :class:`~repro.paths.packed.PackedSamples` record and
ingested by ``extend`` in one vectorized append.

``serial``
    The default: the cohort draw in process, one draw per ``extend``.
``epoch``
    Persistent worker loops sampling fixed-size epochs continuously
    (:class:`~repro.engine.epoch.EpochEngine`): one pickle per epoch,
    speculative lookahead, bulk coverage ingestion — bit-identical
    across worker counts for a fixed ``(seed, epoch_size)``.

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
from .base import EngineStats, SampleEngine, sampler_work
from .epoch import EpochEngine
from .serial import SerialEngine
from .shm import SharedGraphBlocks, attach_graph

__all__ = [
    "EngineStats",
    "SampleEngine",
    "SerialEngine",
    "EpochEngine",
    "PackedSamples",
    "SharedGraphBlocks",
    "attach_graph",
    "ENGINES",
    "create_engine",
    "sampler_work",
]

#: Name -> engine class registry used by ``create_engine`` and the CLI.
ENGINES: dict[str, type[SampleEngine]] = {
    SerialEngine.name: SerialEngine,
    EpochEngine.name: EpochEngine,
}


def create_engine(
    name: str,
    graph: CSRGraph,
    *,
    seed=None,
    include_endpoints: bool = True,
    workers: int | None = None,
    epoch_size: int | None = None,
    telemetry=None,
    debug: bool = False,
) -> SampleEngine:
    """Instantiate the engine registered under ``name``.

    ``workers`` and ``epoch_size`` only apply to the epoch engine
    (``None`` keeps its defaults); the serial engine accepts and
    ignores them so callers can thread one set of knobs through
    unconditionally.  ``telemetry`` attaches a
    :class:`~repro.obs.Telemetry` hub the engine reports draws to, and
    ``debug`` turns on the per-draw invariant validators
    (:mod:`repro.obs.invariants`).
    """
    try:
        cls = ENGINES[name]
    except KeyError:
        known = ", ".join(sorted(ENGINES))
        raise ParameterError(f"unknown engine {name!r}; expected one of: {known}")
    if epoch_size is not None and epoch_size < 1:
        raise ParameterError(f"epoch_size must be >= 1, got {epoch_size}")
    kwargs = {"seed": seed, "include_endpoints": include_endpoints}
    if cls is EpochEngine:
        kwargs["workers"] = workers
        if epoch_size is not None:
            kwargs["epoch_size"] = epoch_size
    engine = cls(graph, **kwargs)
    engine.telemetry = as_telemetry(telemetry)
    engine.debug = bool(debug)
    return engine
