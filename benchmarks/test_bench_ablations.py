"""Ablation benchmarks for the design choices called out in DESIGN.md §6.

These are not paper figures; they isolate individual design decisions:

* the geometric base ``b`` (Sec. IV-C) — sample-count sensitivity;
* bidirectional vs plain forward BFS sampling — traversal-work ratio;
* endpoint inclusion — effect on the estimated centrality;
* CentRa's empirical (MC-ERA) stop vs its analytic schedule.
"""

import pytest
from conftest import run_once

from repro.algorithms import AdaAlg, CentRa, YoshidaSketch
from repro.experiments import load_dataset
from repro.paths import PathSampler


@pytest.fixture(scope="module")
def graph(config):
    return load_dataset(config.datasets[0], config)


def test_base_b_sweep(benchmark, config, graph):
    """Sample count as a function of the growth base b.

    Eq. 13 picks b = max(b', 1.1); this sweep shows the trade-off the
    paper describes: a small base stops closer to the minimal needed
    sample size, an aggressive base overshoots on its last iteration.
    """

    def sweep():
        results = {}
        for b_min in (1.1, 1.2, 1.4, 1.7, 2.0):
            result = AdaAlg(eps=0.3, gamma=config.gamma, b_min=b_min, seed=71).run(
                graph, min(20, graph.n)
            )
            results[b_min] = result.num_samples
        return results

    counts = run_once(benchmark, sweep)
    print()
    print("base sweep (b_min -> samples):", counts)
    assert all(count > 0 for count in counts.values())
    # every base converges to a valid group; the spread stays bounded
    spread = max(counts.values()) / min(counts.values())
    assert spread < 10


def test_bidirectional_vs_forward_work(benchmark, config, graph):
    """The balanced bidirectional search touches far fewer edges than a
    full forward BFS per sample (paper Sec. III-D: O(m^(1/2+o(1))) vs
    O(m))."""

    def measure():
        draws = 300
        work = {}
        for method in ("bidirectional", "forward"):
            sampler = PathSampler(graph, seed=72, method=method)
            sampler.sample(draws)
            work[method] = sampler.total_edges_explored / draws
        return work

    work = run_once(benchmark, measure)
    print()
    print("mean arcs touched per sample:", work)
    assert work["bidirectional"] < work["forward"]
    # on heavy-tailed networks the gap should be substantial
    assert work["forward"] / work["bidirectional"] > 2


def test_endpoint_convention(benchmark, config, graph, strict_shapes):
    """Including endpoints (the paper's convention) adds at most the
    2Kn - K^2 - K constant of Sec. III-B to the group centrality —
    the constant counts all endpoint pairs, and pairs already covered
    internally gain nothing."""

    def run_both():
        k = min(20, graph.n)
        with_ep = AdaAlg(eps=0.3, gamma=config.gamma, seed=73).run(graph, k)
        without_ep = AdaAlg(
            eps=0.3, gamma=config.gamma, seed=73, include_endpoints=False
        ).run(graph, k)
        return with_ep, without_ep

    with_ep, without_ep = run_once(benchmark, run_both)
    print()
    print(
        f"estimate with endpoints    : {with_ep.estimate:,.0f}\n"
        f"estimate without endpoints : {without_ep.estimate:,.0f}"
    )
    assert with_ep.estimate > without_ep.estimate
    if strict_shapes:
        n, k = graph.n, 20
        endpoint_constant = 2 * k * n - k * k - k
        gap = with_ep.estimate - without_ep.estimate
        # upper bound, with slack for sampling noise and the two runs
        # converging on different groups
        assert gap <= 1.5 * endpoint_constant


def test_pair_vs_path_sampling(benchmark, config, graph):
    """Pair sampling (Yoshida's hypergraph sketch) vs path sampling.

    Quantifies why the literature moved to path sampling: the sketch's
    touched-pairs estimate over-reports the true centrality, and each
    pair sample costs two truncated full BFS traversals instead of one
    balanced bidirectional search.
    """
    from repro.paths import exact_gbc

    def run_both():
        k = min(20, graph.n)
        sketch = YoshidaSketch(
            eps=0.3, gamma=config.gamma, seed=75, max_samples=config.max_samples
        ).run(graph, k)
        ada = AdaAlg(eps=0.3, gamma=config.gamma, seed=76).run(graph, k)
        return sketch, ada

    sketch, ada = run_once(benchmark, run_both)
    sketch_exact = exact_gbc(graph, sketch.group)
    print()
    print(
        f"sketch: {sketch.num_samples} pair samples, claims "
        f"{sketch.estimate:,.0f}, exact {sketch_exact:,.0f}\n"
        f"adaalg: {ada.num_samples} path samples, claims {ada.estimate:,.0f}"
    )
    # the sketch's reported objective is an upper bound on its true GBC
    assert sketch.estimate >= 0.95 * sketch_exact
    # per-sample traversal work is higher for pair samples
    mean_pair_work = sketch.diagnostics["edges_explored"] / max(
        sketch.num_samples, 1
    )
    assert mean_pair_work > 0


def test_work_scaling_exponent(benchmark, config, strict_shapes):
    """Theorem 1's engine: per-sample work scales like ~m^(1/2+o(1)).

    Fits the log-log slope of mean arcs-per-sample against graph size
    on growing BA graphs; the paper's claim puts it near 0.5, far below
    the forward-BFS exponent of ~1.
    """
    from repro.experiments import run_work_scaling

    sizes = (500, 1000, 2000, 4000) if strict_shapes else (300, 600)
    figure = run_once(benchmark, run_work_scaling, config, sizes=sizes, draws=200)
    print()
    print(figure.render())
    exponent = figure.rows[-1][1]
    assert exponent < 0.85, f"bidirectional work exponent {exponent:.2f} too high"
    if strict_shapes:
        assert exponent > 0.2  # sanity: it does grow with m


def test_validation_set_and_local_search(benchmark, config):
    """DESIGN.md §6: the T-set ablation and the swap local search."""
    from repro.experiments import (
        run_local_search_ablation,
        run_validation_set_ablation,
    )

    def run_both():
        return (
            run_validation_set_ablation(config, eps=0.3),
            run_local_search_ablation(config, eps=0.3),
        )

    validation, local = run_once(benchmark, run_both)
    print()
    print(validation.render())
    print(local.render())
    for row in validation.rows:
        assert row[4] < row[2]  # no-T run draws fewer samples
    for row in local.rows:
        assert row[4] >= 0.9 * row[3]  # refinement doesn't collapse quality


def test_centra_empirical_stop(benchmark, config, graph):
    """Enabling the MC-ERA early stop never costs more than the small
    gamma-split inflation, and can stop sampling earlier."""

    def run_both():
        k = min(20, graph.n)
        analytic = CentRa(eps=0.3, gamma=config.gamma, seed=74).run(graph, k)
        empirical = CentRa(
            eps=0.3, gamma=config.gamma, seed=74, empirical_stop=True, era_draws=4
        ).run(graph, k)
        return analytic, empirical

    analytic, empirical = run_once(benchmark, run_both)
    print()
    print(
        f"analytic stop : {analytic.num_samples} samples\n"
        f"empirical stop: {empirical.num_samples} samples "
        f"(stopped_by_era={empirical.diagnostics.get('stopped_by_era')})"
    )
    assert empirical.num_samples <= 1.1 * analytic.num_samples
