"""Dynamic-graph benchmark: exact sample reuse under a 1% edge delta.

The dynamic-graph layer's claim is that a small edit should not cost a
cold recompute: after mutating 1% of a BA graph's edges, the session
tests every stored sample by its pair, keeps those whose pair's
shortest paths and distance did not change, and redraws the rest in
place for the same pair.  This benchmark measures that claim end to
end on one sampling lane:

* build a pool of ``P`` samples on BA(n, m);
* apply a 1% delta (half deletes of random existing edges, half
  inserts between random unconnected pairs) through
  ``SamplingSession.apply_update``;
* time the migration (the exact test plus the redraws) and the
  top-up back to ``P`` — nothing, since the pool keeps its size — and
  a from-scratch rebuild of ``P`` samples on the mutated graph for
  comparison.

The headline number is ``reuse_fraction`` — surviving / pool, the
samples kept as they were — which must stay at or above 80% (the
acceptance floor for this scenario; the exact test keeps ~91% of the
pool at bench scale).  Results land in
``benchmarks/results/bench_dynamic.json``; the CI gate
(``benchmarks/check_regression.py --floor 0.80``) re-checks the floor and
fails on a >25% relative drop against the checked-in baseline.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once

from repro.experiments import FigureResult
from repro.graph import GraphUpdate, barabasi_albert
from repro.session import SamplingSession

#: preset -> (graph nodes, BA attachment m, pool size)
_SCALE = {
    "smoke": (2_000, 3, 2_000),
    "bench": (20_000, 3, 8_000),
    "reduced": (20_000, 3, 16_000),
    "full": (50_000, 3, 32_000),
}

_SEED = 20250808

#: fraction of edges changed by the delta
_DELTA_FRACTION = 0.01

#: acceptance floor for the surviving fraction of the pool
_REUSE_FLOOR = 0.80


def _one_percent_update(graph, rng) -> GraphUpdate:
    """Delete ~0.5% of existing edges, insert as many fresh pairs."""
    edges = []
    for u in range(graph.n):
        for v in graph.neighbors(u):
            if u < v:
                edges.append((u, int(v)))
    changes = max(1, int(len(edges) * _DELTA_FRACTION / 2))
    picks = rng.choice(len(edges), size=changes, replace=False)
    deletes = [edges[i] for i in picks]
    present = set(edges)
    inserts = []
    while len(inserts) < changes:
        u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        present.add(key)
        inserts.append((key[0], key[1], 1))
    return GraphUpdate.from_ops(inserts, deletes, ())


def _run_dynamic_bench(preset_name):
    n, m, pool = _SCALE[preset_name]
    graph = barabasi_albert(n, m, seed=_SEED)
    rng = np.random.default_rng(_SEED)
    update = _one_percent_update(graph, rng)

    session = SamplingSession(graph, seed=_SEED)
    try:
        session.extend(pool)
        start = time.perf_counter()
        stats = session.apply_update(update)
        mutate_s = time.perf_counter() - start

        start = time.perf_counter()
        session.extend(pool)
        topup_s = time.perf_counter() - start
        mutated_graph = session.graph
    finally:
        session.close()

    start = time.perf_counter()
    with SamplingSession(mutated_graph, seed=_SEED + 1) as cold:
        cold.extend(pool)
    cold_s = time.perf_counter() - start

    reuse = stats["surviving"] / pool
    rows = [
        [
            pool,
            update.num_ops,
            stats["invalidated"],
            stats["surviving"],
            round(reuse, 4),
            round(mutate_s, 4),
            round(topup_s, 4),
            round(cold_s, 4),
        ]
    ]
    return FigureResult(
        name="Bench: dynamic",
        title=(
            f"1% edge delta on BA(n={n}, m={m}), {pool}-sample pool, "
            "exact per-pair invalidation"
        ),
        headers=[
            "pool",
            "delta_ops",
            "invalidated",
            "surviving",
            "reuse_fraction",
            "mutate_seconds",
            "topup_seconds",
            "cold_seconds",
        ],
        rows=rows,
        meta={
            "seed": _SEED,
            "n": n,
            "m": m,
            "pool": pool,
            "delta_fraction": _DELTA_FRACTION,
            "reuse_fraction": round(reuse, 4),
            "reuse_floor": _REUSE_FLOOR,
            "speedup_incremental_vs_cold": round(
                cold_s / max(mutate_s + topup_s, 1e-9), 4
            ),
        },
    )


def test_dynamic_sample_reuse(benchmark, preset_name, strict_shapes):
    figure = run_once(benchmark, _run_dynamic_bench, preset_name)
    print()
    print(figure.render())

    row = figure.rows[0]
    pool, invalidated, surviving = row[0], row[2], row[3]

    # the pool is conserved: every sample either survived or was redrawn
    assert invalidated + surviving == pool

    # the acceptance floor: a 1% delta changes under 20% of the pairs
    assert figure.meta["reuse_fraction"] >= _REUSE_FLOOR, (
        f"only {surviving}/{pool} samples survived the 1% delta "
        f"({figure.meta['reuse_fraction']:.0%} < {_REUSE_FLOOR:.0%})"
    )

    if strict_shapes:
        # reuse must translate into wall-clock: migrating and topping
        # up beats rebuilding the pool from scratch
        assert figure.meta["speedup_incremental_vs_cold"] > 1.0, (
            f"incremental path not faster than cold rebuild: "
            f"{figure.meta['speedup_incremental_vs_cold']:.2f}x"
        )
