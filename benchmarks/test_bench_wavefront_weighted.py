"""Weighted wavefront benchmark: delta-stepping cohorts vs the oracle.

Times drawing the same seeded sample pool on a weighted Barabási–Albert
graph (random integer weights in [1, 9]) through the two draw paths of
:class:`~repro.paths.PathSampler`:

* ``sample_batch`` — the scalar oracle: one targeted Dijkstra and one
  walk per query (the baseline the cohort must beat);
* ``sample_cohort`` — the bucketed delta-stepping cohort every engine
  uses, many queries per numpy call.

Both draw bit-identical samples (asserted here), so their ratio is pure
execution efficiency.  On the bench preset the cohort must be at least
3x faster than the oracle; every preset requires it not to lose.

Results land in ``benchmarks/results/bench_wavefront_weighted.json``;
``benchmarks/check_regression.py`` gates CI on the exported
``speedup_wavefront_vs_scalar`` meta entry.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import run_once

from repro.experiments import FigureResult
from repro.graph import barabasi_albert, from_weighted_edges
from repro.paths import PathSampler

#: preset -> (graph nodes, BA attachment m, samples drawn)
_SCALE = {
    "smoke": (800, 3, 120),
    "bench": (8_000, 4, 400),
    "reduced": (8_000, 4, 1_200),
    "full": (16_000, 4, 2_000),
}

_SEED = 20250808
_MAX_WEIGHT = 9
_METHODS = ("sample_batch", "sample_cohort")
_COLUMNS = ("sources", "targets", "distances", "sigmas", "edges", "nodes", "offsets")


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
    rows = []
    drawn = {}
    for method in _METHODS:
        sampler = PathSampler(graph, seed=_SEED)
        start = time.perf_counter()
        drawn[method] = getattr(sampler, method)(np.arange(draws))
        elapsed = time.perf_counter() - start
        rows.append(
            [
                method,
                draws,
                len(drawn[method]),
                sampler.total_weighted_cohorts,
                sampler.total_bucket_relaxations,
                round(elapsed, 4),
            ]
        )
    oracle, cohort = (drawn[method] for method in _METHODS)
    _run_wavefront_weighted.identical = all(
        np.array_equal(getattr(oracle, name), getattr(cohort, name))
        for name in _COLUMNS
    )
    speedup = rows[0][5] / max(rows[1][5], 1e-9)
    return FigureResult(
        name="Bench: wavefront weighted",
        title=f"{draws} weighted cohort samples on BA(n={n}, m={m})",
        headers=[
            "method",
            "draws",
            "paths",
            "weighted_cohorts",
            "bucket_relaxations",
            "seconds",
        ],
        rows=rows,
        meta={
            "seed": _SEED,
            "cpu_count": os.cpu_count(),
            "n": n,
            "m": m,
            "draws": draws,
            "max_weight": _MAX_WEIGHT,
            "speedup_wavefront_vs_scalar": round(speedup, 3),
        },
    )


def test_wavefront_weighted_speedup(benchmark, preset_name, strict_shapes):
    figure = run_once(benchmark, _run_wavefront_weighted, preset_name)
    print()
    print(figure.render())

    scalar, vector = figure.rows
    draws = _SCALE[preset_name][2]

    # identical workload, identical samples
    assert scalar[2] == vector[2] == draws
    assert _run_wavefront_weighted.identical, (
        "weighted cohort differs from the scalar oracle"
    )
    # the cohort row really ran through the delta-stepping kernel
    assert vector[3] > 0 and vector[4] > 0
    assert scalar[3] == 0  # the oracle never builds cohorts

    # the cohort must never lose to the scalar oracle...
    assert vector[5] < scalar[5], (
        f"weighted cohort ({vector[5]}s) slower than scalar ({scalar[5]}s)"
    )
    # ...and on the gated bench workload the win must be at least 3x
    if preset_name == "bench":
        speedup = figure.meta["speedup_wavefront_vs_scalar"]
        assert speedup >= 3.0, f"weighted wavefront speedup {speedup:.2f}x < 3x"
