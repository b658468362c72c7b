"""Epoch-engine benchmark: persistent epoch loops vs pool fan-out.

Times the *stopping-rule workload* — a geometric ``extend`` schedule
against a growing :class:`~repro.coverage.CoverageInstance`, the access
pattern of every sampling algorithm in the package — through:

* ``batch`` (in-process, the single-core floor);
* ``process`` at 1 and 4 workers — per-draw chunk fan-out, one pickled
  ``list[PathSample]`` per chunk;
* ``epoch`` at 1 and 4 workers — persistent workers, one packed-array
  pickle per epoch, vectorized coverage ingestion, speculative
  lookahead across the extend boundaries.

Every configuration draws the same number of samples (the epoch size
divides every target, so the round-up lands exactly).  The claim under
test is the tentpole's: the epoch engine strips the pool's per-sample
serialization overhead, so at equal worker counts it must win by at
least 2x at bench scale and above.  The performance assertions only
run on strict presets (bench+): at smoke scale every configuration
finishes in well under a second, so the ratios are pure
startup-and-scheduler noise — smoke checks mechanics, not speed.

Results land in ``benchmarks/results/bench_epoch.json``; the CI
regression gate (``benchmarks/check_regression.py``) compares a
fresh bench-preset run against the checked-in artifact and fails on a
>25% regression.  The gate tracks the *batch/epoch* ratio rather than
the pool/epoch one: batch and epoch wall-clocks are stable run-to-run
(single deterministic compute path, vectorized ingestion), while the
pool's wall-clock swings several-fold with page-cache and scheduler
state, which would make any tolerance either flaky or meaningless.
"""

from __future__ import annotations

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

#: (engine, workers); workers=4 matches the acceptance comparison even
#: on smaller runners (oversubscription hurts both engines equally).
_CONFIGS = [
    ("batch", 0),
    ("process", 1),
    ("process", 4),
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
            "n": n,
            "m": m,
            "targets": targets,
            "epoch_size": _EPOCH_SIZE,
            "speedup_epoch_vs_process_w4": round(
                seconds[("process", 4)] / seconds[("epoch", 4)], 4
            ),
            "speedup_epoch_vs_process_w1": round(
                seconds[("process", 1)] / seconds[("epoch", 1)], 4
            ),
            "speedup_epoch_vs_batch_w4": round(
                seconds[("batch", 0)] / seconds[("epoch", 4)], 4
            ),
        },
    )


def test_epoch_vs_pool(benchmark, preset_name, strict_shapes):
    figure = run_once(benchmark, _run_epoch_bench, preset_name)
    print()
    print(figure.render())

    by_config = {(row[0], row[1]): row for row in figure.rows}
    final = _SCALE[preset_name][2][-1]

    # identical workload everywhere: the epoch size divides every
    # target, so all five configurations hold exactly `final` paths
    for (name, workers), row in by_config.items():
        assert row[3] == final, f"{name}@{workers}: {row[3]} of {final} paths"

    # the persistent pool starts exactly once per run
    for workers in (1, 4):
        assert by_config[("epoch", workers)][6] <= 1
        # speculation dispatches at least one ticket per ingested epoch
        epoch_row = by_config[("epoch", workers)]
        if epoch_row[2] > 0:  # live workers (not a sandboxed fallback)
            assert epoch_row[5] >= epoch_row[4]

    # the headline, at scales where serialization (not startup noise)
    # dominates: at equal worker counts the epoch engine beats the
    # request/response pool by >= 2x
    if strict_shapes:
        pool = by_config[("process", 4)][7]
        epoch = by_config[("epoch", 4)][7]
        speedup = pool / epoch
        assert speedup >= 2.0, (
            f"epoch@4 ({epoch}s) not >= 2x faster than process@4 ({pool}s): "
            f"{speedup:.2f}x"
        )
        # the stable counterpart the regression gate tracks: packed
        # wire + vectorized ingestion outrun even in-process batching
        batch = by_config[("batch", 0)][7]
        assert epoch < batch, (
            f"epoch@4 ({epoch}s) not faster than batch ({batch}s)"
        )
