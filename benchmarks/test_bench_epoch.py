"""Epoch-engine benchmark: persistent epoch loops vs in-process draws.

Times the *stopping-rule workload* — a geometric ``extend`` schedule
against a growing :class:`~repro.coverage.CoverageInstance`, the access
pattern of every sampling algorithm in the package — through:

* ``serial`` (in-process, the single-core floor);
* ``epoch`` at 1 and 4 workers — persistent workers, one packed-array
  pickle per epoch, vectorized coverage ingestion, speculative
  lookahead across the extend boundaries.

Every configuration draws the same number of samples (the epoch size
divides every target, so the round-up lands exactly).  The performance
assertion only runs on strict presets (bench+): at smoke scale every
configuration finishes in well under a second, so the ratios are pure
startup-and-scheduler noise — smoke checks mechanics, not speed.  Rows
with more workers than ``cpu_count`` (recorded in the meta) measure
oversubscription, not the engine.

Results land in ``benchmarks/results/bench_epoch.json``; the CI
regression gate (``benchmarks/check_regression.py``) compares a
fresh bench-preset run against the checked-in artifact and fails on a
>25% regression of the ``speedup_epoch_vs_serial_w4`` ratio.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.coverage import CoverageInstance
from repro.engine import create_engine
from repro.experiments import FigureResult
from repro.graph import barabasi_albert

#: preset -> (graph nodes, BA attachment m, geometric extend targets)
_SCALE = {
    "smoke": (2_000, 5, [400, 800, 1_600]),
    "bench": (20_000, 5, [2_000, 4_000, 8_000]),
    "reduced": (20_000, 5, [8_000, 16_000, 32_000]),
    "full": (50_000, 5, [10_000, 20_000, 40_000]),
}

_SEED = 20250807

#: Samples per epoch — divides every target above, so every extend
#: lands exactly on its requested size for all engines alike.
_EPOCH_SIZE = 400

#: (engine, workers); the serial engine never starts workers.
_CONFIGS = [
    ("serial", 0),
    ("epoch", 1),
    ("epoch", 4),
]


def _run_epoch_bench(preset_name):
    n, m, targets = _SCALE[preset_name]
    graph = barabasi_albert(n, m, seed=_SEED)
    rows = []
    seconds = {}
    for engine_name, workers in _CONFIGS:
        instance = CoverageInstance(graph.n)
        with create_engine(
            engine_name,
            graph,
            seed=_SEED,
            workers=workers,
            epoch_size=_EPOCH_SIZE,
        ) as engine:
            start = time.perf_counter()
            for target in targets:
                engine.extend(instance, target)
            elapsed = time.perf_counter() - start
            stats = engine.stats
        seconds[(engine_name, workers)] = elapsed
        rows.append(
            [
                engine_name,
                workers,
                stats.workers,
                instance.num_paths,
                stats.batches,
                stats.dispatches,
                stats.pool_startups,
                round(elapsed, 4),
            ]
        )
    return FigureResult(
        name="Bench: epoch",
        title=f"geometric extends to {targets[-1]} samples on BA(n={n}, m={m})",
        headers=[
            "engine",
            "workers",
            "live_workers",
            "paths",
            "batches",
            "dispatches",
            "pool_startups",
            "seconds",
        ],
        rows=rows,
        meta={
            "seed": _SEED,
            "cpu_count": os.cpu_count(),
            "n": n,
            "m": m,
            "targets": targets,
            "epoch_size": _EPOCH_SIZE,
            "speedup_epoch_vs_serial_w1": round(
                seconds[("serial", 0)] / seconds[("epoch", 1)], 4
            ),
            "speedup_epoch_vs_serial_w4": round(
                seconds[("serial", 0)] / seconds[("epoch", 4)], 4
            ),
        },
    )


def test_epoch_vs_serial(benchmark, preset_name, strict_shapes):
    figure = run_once(benchmark, _run_epoch_bench, preset_name)
    print()
    print(figure.render())

    by_config = {(row[0], row[1]): row for row in figure.rows}
    final = _SCALE[preset_name][2][-1]

    # identical workload everywhere: the epoch size divides every
    # target, so all three configurations hold exactly `final` paths
    for (name, workers), row in by_config.items():
        assert row[3] == final, f"{name}@{workers}: {row[3]} of {final} paths"

    # the persistent pool starts exactly once per run
    for workers in (1, 4):
        assert by_config[("epoch", workers)][6] <= 1
        # speculation dispatches at least one ticket per ingested epoch
        epoch_row = by_config[("epoch", workers)]
        if epoch_row[2] > 0:  # live workers (not a sandboxed fallback)
            assert epoch_row[5] >= epoch_row[4]

    # at scales where sampling (not startup noise) dominates, packed
    # epochs + vectorized ingestion must outrun the in-process draw
    if strict_shapes:
        serial = by_config[("serial", 0)][7]
        epoch = by_config[("epoch", 4)][7]
        assert epoch < serial, (
            f"epoch@4 ({epoch}s) not faster than serial ({serial}s)"
        )
