"""Wavefront-kernel benchmark: scalar oracle vs vectorized cohort draw.

Times drawing the same seeded sample pool on a Barabási–Albert graph
through the two draw paths of :class:`~repro.paths.PathSampler`:

* ``sample_batch`` — the scalar oracle: one bidirectional search and
  one walk per query (the per-query baseline the wavefront must beat);
* ``sample_cohort`` — the packed cohort draw every engine uses: many
  queries per numpy call, one vectorized walk per chunk.

Both draw bit-identical samples (asserted here), so the speedup is pure
execution efficiency.  Each path's time is the best of a few runs.  At
bench scale and above the cohort draw must be at least 3x faster than
the oracle, and CI gates the bench-scale speedup against the checked-in
export; the smoke preset only requires it not to lose.

Results land in ``benchmarks/results/bench_wavefront.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import run_once

from repro.experiments import FigureResult
from repro.graph import barabasi_albert
from repro.paths import PathSampler

#: preset -> (graph nodes, BA attachment m, samples drawn)
_SCALE = {
    "smoke": (2_000, 5, 400),
    "bench": (20_000, 5, 2_000),
    "reduced": (20_000, 5, 8_000),
    "full": (50_000, 5, 10_000),
}

_SEED = 20250806
#: each draw path is timed as the best of this many fresh-sampler runs,
#: so one slow run on a shared host does not move the ratio
_REPEATS = 3
_METHODS = ("sample_batch", "sample_cohort")
_COLUMNS = ("sources", "targets", "distances", "sigmas", "edges", "nodes", "offsets")


def _run_wavefront(preset_name):
    n, m, draws = _SCALE[preset_name]
    graph = barabasi_albert(n, m, seed=_SEED)
    rows = []
    drawn = {}
    for method in _METHODS:
        elapsed = float("inf")
        for _ in range(_REPEATS):
            sampler = PathSampler(graph, seed=_SEED)
            start = time.perf_counter()
            drawn[method] = getattr(sampler, method)(np.arange(draws))
            elapsed = min(elapsed, time.perf_counter() - start)
        rows.append(
            [method, draws, len(drawn[method]), sampler.total_edges_explored,
             round(elapsed, 4)]
        )
    oracle, cohort = (drawn[method] for method in _METHODS)
    _run_wavefront.identical = all(
        np.array_equal(getattr(oracle, name), getattr(cohort, name))
        for name in _COLUMNS
    )
    return FigureResult(
        name="Bench: wavefront",
        title=f"{draws} cohort samples on BA(n={n}, m={m})",
        headers=["method", "draws", "paths", "edges_explored", "seconds"],
        rows=rows,
        meta={
            "seed": _SEED,
            "cpu_count": os.cpu_count(),
            "n": n,
            "m": m,
            "draws": draws,
            "repeats": _REPEATS,
            "speedup_wavefront_vs_scalar": round(rows[0][4] / rows[1][4], 3),
        },
    )


def test_wavefront_speedup(benchmark, preset_name, strict_shapes):
    figure = run_once(benchmark, _run_wavefront, preset_name)
    print()
    print(figure.render())

    scalar, vector = figure.rows
    draws = _SCALE[preset_name][2]

    # identical workload, identical samples
    assert scalar[2] == vector[2] == draws
    assert scalar[3] == vector[3], "draw paths disagree on traversal work"
    assert _run_wavefront.identical, "cohort draw differs from the scalar oracle"

    # the vectorized draw must never lose to its scalar twin...
    assert vector[4] < scalar[4], (
        f"cohort ({vector[4]}s) slower than scalar ({scalar[4]}s)"
    )
    # ...and at bench scale the win must be at least 3x
    if strict_shapes:
        speedup = figure.meta["speedup_wavefront_vs_scalar"]
        assert speedup >= 3.0, f"wavefront speedup {speedup:.2f}x < 3x"
