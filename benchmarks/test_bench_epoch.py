"""Worker fan-out benchmark: persistent worker loops vs in-process draws.

Times the *stopping-rule workload* — a geometric ``extend`` schedule
against a growing :class:`~repro.coverage.CoverageInstance`, the access
pattern of every sampling algorithm in the package — through:

* ``workers=0`` (the in-process serial engine, the single-core floor);
* ``workers=1`` and ``workers=2`` (the epoch engine) — persistent
  workers, one packed-array pickle per index-range ticket.

Every configuration draws exactly the same samples (sample ``i`` is a
pure function of the seed and ``i``).  Each configuration runs
``_REPEATS`` times from a cold engine (worker startup included),
interleaved with the others, and records its fastest run.  The
performance assertion only
runs on strict presets (bench+): at smoke scale every configuration
finishes in well under a second, so the ratios are pure
startup-and-scheduler noise — smoke checks mechanics, not speed.  The
gated row, ``workers=2``, uses no more workers than a 2-vCPU host has
cores; rows with more workers than ``cpu_count`` (recorded in the
meta) would measure oversubscription, not the engine.

Results land in ``benchmarks/results/bench_epoch.json``; the CI
regression gate (``benchmarks/check_regression.py``) compares a
fresh bench-preset run against the checked-in artifact and fails on a
>25% regression of the ``speedup_epoch_vs_serial_w2`` ratio.
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

#: (engine, workers); the serial engine never starts workers.
_CONFIGS = [
    ("serial", 0),
    ("epoch", 1),
    ("epoch", 2),
]


#: Cold runs per configuration, interleaved; the fastest is recorded.
#: On a shared 2-vCPU host a single cold run of a fresh worker pool
#: swings by +-40% (first-touch page faults in new processes, host
#: noise), which a single-run ratio cannot tell from a regression.
_REPEATS = 3


def _run_epoch_bench(preset_name):
    n, m, targets = _SCALE[preset_name]
    graph = barabasi_albert(n, m, seed=_SEED)
    seconds = {config: [] for config in _CONFIGS}
    last = {}
    for _ in range(_REPEATS):
        for engine_name, workers in _CONFIGS:
            instance = CoverageInstance(graph.n)
            with create_engine(graph, seed=_SEED, workers=workers) as engine:
                assert engine.name == engine_name
                start = time.perf_counter()
                for target in targets:
                    engine.extend(instance, target)
                seconds[(engine_name, workers)].append(time.perf_counter() - start)
                last[(engine_name, workers)] = (engine.stats, instance.num_paths)
    best = {config: min(times) for config, times in seconds.items()}
    rows = []
    for config in _CONFIGS:
        stats, paths = last[config]
        rows.append(
            [*config, stats.workers, paths, stats.batches, stats.pool_startups,
             round(best[config], 4)]
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
            "repeats": _REPEATS,
            "speedup_epoch_vs_serial_w1": round(
                best[("serial", 0)] / best[("epoch", 1)], 4
            ),
            "speedup_epoch_vs_serial_w2": round(
                best[("serial", 0)] / best[("epoch", 2)], 4
            ),
        },
    )


def test_epoch_vs_serial(benchmark, preset_name, strict_shapes):
    figure = run_once(benchmark, _run_epoch_bench, preset_name)
    print()
    print(figure.render())

    by_config = {(row[0], row[1]): row for row in figure.rows}
    final = _SCALE[preset_name][2][-1]

    # identical workload everywhere: every configuration holds
    # exactly `final` paths
    for (name, workers), row in by_config.items():
        assert row[3] == final, f"{name}@{workers}: {row[3]} of {final} paths"

    # the persistent pool starts exactly once per run
    for workers in (1, 2):
        assert by_config[("epoch", workers)][5] <= 1

    # at scales where sampling (not startup noise) dominates, two
    # workers must outrun the in-process draw
    if strict_shapes:
        serial = by_config[("serial", 0)][6]
        epoch = by_config[("epoch", 2)][6]
        assert epoch < serial, (
            f"epoch@2 ({epoch}s) not faster than serial ({serial}s)"
        )
