"""Weighted wavefront benchmark: delta-stepping cohorts vs legacy paths.

Times drawing the same seeded sample pool on a weighted Barabási–Albert
graph (random integer weights in [1, 9]) through four configurations:

* ``batch`` engine, ``grouped`` kernel — the legacy source-grouped
  sampler every weighted draw used before the delta-stepping kernel
  (the baseline the wavefront must beat);
* ``batch`` engine, ``scalar`` kernel — one targeted Dijkstra per query
  on the pair-first cohort schedule;
* ``batch`` engine, ``wavefront`` kernel — the bucketed delta-stepping
  cohort, many queries per numpy call;
* ``process`` engine, ``wavefront`` kernel — the same kernel inside
  pool chunks over the shared-memory graph.

The scalar and wavefront batch rows are bit-identical sample-for-sample
(asserted here), so their ratio is pure execution efficiency.  At the
bench preset the weighted wavefront must be at least 3x faster than the
grouped baseline; every preset requires it not to lose.  (The ratio is
draw-count sensitive — the grouped sampler amortizes one Dijkstra per
*distinct* source, so very large pools on a fixed graph flatter it —
hence the hard multiple is pinned to the bench workload the CI gate
tracks.)

Results land in ``benchmarks/results/bench_wavefront_weighted.json``;
``benchmarks/check_regression.py`` gates CI on the exported
``speedup_wavefront_vs_grouped`` meta entry.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import run_once

from repro.engine import create_engine
from repro.experiments import FigureResult
from repro.graph import barabasi_albert, from_weighted_edges

#: preset -> (graph nodes, BA attachment m, samples drawn)
_SCALE = {
    "smoke": (800, 3, 120),
    "bench": (8_000, 4, 400),
    "reduced": (8_000, 4, 1_200),
    "full": (16_000, 4, 2_000),
}

_SEED = 20250808
_MAX_WEIGHT = 9
_CONFIGS = [
    ("batch", "grouped"),
    ("batch", "scalar"),
    ("batch", "wavefront"),
    ("process", "wavefront"),
]


def _weighted_ba(n, m, seed):
    """A BA topology with random integer weights in [1, _MAX_WEIGHT]."""
    topology = barabasi_albert(n, m, seed=seed)
    rng = np.random.default_rng(seed + 1)
    triples = [
        (u, v, int(rng.integers(1, _MAX_WEIGHT + 1)))
        for u, v in topology.edges()
    ]
    return from_weighted_edges(triples, n=n)


def _run_wavefront_weighted(preset_name):
    n, m, draws = _SCALE[preset_name]
    graph = _weighted_ba(n, m, _SEED)
    workers = os.cpu_count() or 1
    rows = []
    samples_by_config = {}
    for engine_name, kernel in _CONFIGS:
        with create_engine(
            engine_name, graph, seed=_SEED, kernel=kernel, workers=workers
        ) as engine:
            start = time.perf_counter()
            samples = engine.draw(draws)
            elapsed = time.perf_counter() - start
            stats = engine.stats
        samples_by_config[(engine_name, kernel)] = samples
        rows.append(
            [
                engine_name,
                kernel,
                draws,
                len(samples),
                stats.weighted_cohorts,
                stats.bucket_relaxations,
                stats.workers,
                round(elapsed, 4),
            ]
        )
    # the scalar and wavefront batch rows share one RNG schedule
    scalar = samples_by_config[("batch", "scalar")]
    vector = samples_by_config[("batch", "wavefront")]
    _run_wavefront_weighted.identical = all(
        a.source == b.source
        and a.target == b.target
        and a.distance == b.distance
        and a.sigma_st == b.sigma_st
        and list(a.nodes) == list(b.nodes)
        for a, b in zip(scalar, vector)
    )
    by_config = {(row[0], row[1]): row for row in rows}
    speedup = by_config[("batch", "grouped")][7] / max(
        by_config[("batch", "wavefront")][7], 1e-9
    )
    return FigureResult(
        name="Bench: wavefront weighted",
        title=f"{draws} weighted cohort samples on BA(n={n}, m={m})",
        headers=[
            "engine",
            "kernel",
            "draws",
            "paths",
            "weighted_cohorts",
            "bucket_relaxations",
            "workers",
            "seconds",
        ],
        rows=rows,
        meta={
            "seed": _SEED,
            "cpu_count": workers,
            "n": n,
            "m": m,
            "draws": draws,
            "max_weight": _MAX_WEIGHT,
            "speedup_wavefront_vs_grouped": round(speedup, 3),
        },
    )


def test_wavefront_weighted_speedup(benchmark, preset_name, strict_shapes):
    figure = run_once(benchmark, _run_wavefront_weighted, preset_name)
    print()
    print(figure.render())

    by_config = {(row[0], row[1]): row for row in figure.rows}
    grouped = by_config[("batch", "grouped")]
    scalar = by_config[("batch", "scalar")]
    vector = by_config[("batch", "wavefront")]
    pooled = by_config[("process", "wavefront")]
    draws = _SCALE[preset_name][2]

    # identical workload everywhere; identical samples on the cohort rows
    for row in figure.rows:
        assert row[3] == draws
    assert _run_wavefront_weighted.identical, (
        "scalar and wavefront cohorts produced different samples"
    )
    # the delta-stepping rows really ran through the weighted kernel
    assert vector[4] > 0 and vector[5] > 0
    assert grouped[4] == 0  # the legacy path never builds cohorts

    # the wavefront must never lose to the legacy grouped sampler...
    assert vector[7] < grouped[7], (
        f"weighted wavefront ({vector[7]}s) slower than grouped ({grouped[7]}s)"
    )
    if strict_shapes:
        assert vector[7] < scalar[7], (
            f"wavefront ({vector[7]}s) slower than scalar cohort ({scalar[7]}s)"
        )
    # ...and on the gated bench workload the win must be at least 3x
    if preset_name == "bench":
        speedup = figure.meta["speedup_wavefront_vs_grouped"]
        assert speedup >= 3.0, f"weighted wavefront speedup {speedup:.2f}x < 3x"
    # the pool must at least complete the same workload correctly
    assert pooled[3] == draws
