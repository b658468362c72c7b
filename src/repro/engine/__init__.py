"""Execution engines for shortest-path sampling.

All sampling algorithms draw their paths through a
:class:`~repro.engine.base.SampleEngine`.  Both engines read the same
index-addressed stream — sample ``i`` is a pure function of
``(seed, i, graph)`` — through the same packed cohort draw
(:meth:`~repro.paths.sampler.PathSampler.sample_cohort`), returned as a
:class:`~repro.paths.packed.PackedSamples` record and ingested by
``extend`` in one vectorized append.  ``workers`` picks where the
samples are computed, never which:

``workers=0`` → :class:`~repro.engine.serial.SerialEngine`
    The default: the cohort draw in process.
``workers>=1`` → :class:`~repro.engine.epoch.EpochEngine`
    The same draw cut into index-range tickets for persistent worker
    processes.

A draw holds its output, the sparse search state of one chunk (the
nodes its queries discovered short of their outermost levels) and the
chunk's discovered marks, 128·n bytes for 512 samples — never a
length-``n`` row per sample.
"""

from __future__ import annotations

from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from ..obs import as_telemetry
from ..paths.packed import PackedSamples
from .base import (
    STREAM_TAG,
    EngineStats,
    SampleEngine,
    check_stream_state,
    sampler_work,
)
from .epoch import EpochEngine
from .serial import SerialEngine
from .shm import SharedGraphBlocks, attach_graph

__all__ = [
    "STREAM_TAG",
    "EngineStats",
    "SampleEngine",
    "SerialEngine",
    "EpochEngine",
    "PackedSamples",
    "SharedGraphBlocks",
    "attach_graph",
    "check_stream_state",
    "create_engine",
    "sampler_work",
]


def create_engine(
    graph: CSRGraph,
    *,
    seed=None,
    include_endpoints: bool = True,
    workers: int = 0,
    telemetry=None,
    debug: bool = False,
) -> SampleEngine:
    """The engine for ``workers``: in process for ``0``, else that many
    persistent worker processes.

    ``telemetry`` attaches a :class:`~repro.obs.Telemetry` hub the
    engine reports draws to, and ``debug`` turns on the per-draw
    invariant validators (:mod:`repro.obs.invariants`).
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
        raise ParameterError(f"workers must be an int >= 0, got {workers!r}")
    hub = as_telemetry(telemetry)
    if workers:
        engine: SampleEngine = EpochEngine(
            graph, seed=seed, include_endpoints=include_endpoints, workers=workers
        )
    else:
        engine = SerialEngine(graph, seed=seed, include_endpoints=include_endpoints)
    engine.telemetry = hub
    engine.debug = debug
    return engine
