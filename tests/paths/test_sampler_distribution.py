"""Statistical tests: the sampler is uniform over shortest paths.

On small graphs whose shortest paths can be enumerated, the empirical
path frequencies must pass a chi-square goodness-of-fit test against
the uniform law — for both sampling methods and for directed graphs.
"""

import numpy as np
import pytest
from scipy import stats

from repro.coverage import CoverageInstance
from repro.graph import from_edges, grid_graph
from repro.paths import PathSampler


def _empirical_path_counts(graph, s, t, n_draws, method, seed):
    sampler = PathSampler(graph, seed=seed, method=method)
    counts: dict[tuple, int] = {}
    for _ in range(n_draws):
        sample = sampler.sample_pair(s, t)
        key = tuple(sample.nodes.tolist())
        counts[key] = counts.get(key, 0) + 1
    return counts


def _all_shortest_paths(graph, s, t):
    nx = pytest.importorskip("networkx")
    if graph.directed:
        nxg = nx.DiGraph(list(graph.edges()))
    else:
        nxg = nx.Graph(list(graph.edges()))
    nxg.add_nodes_from(range(graph.n))
    return [tuple(p) for p in nx.all_shortest_paths(nxg, s, t)]


@pytest.mark.parametrize("method", ["bidirectional", "forward"])
def test_uniform_on_grid_corner_to_corner(method):
    """3x3 grid, corner to corner: 6 shortest paths, uniform 1/6 each."""
    g = grid_graph(3, 3)
    paths = _all_shortest_paths(g, 0, 8)
    assert len(paths) == 6
    n_draws = 6000
    counts = _empirical_path_counts(g, 0, 8, n_draws, method, seed=0)
    assert set(counts) == set(paths)
    observed = [counts[p] for p in paths]
    _, pvalue = stats.chisquare(observed)
    assert pvalue > 1e-3


@pytest.mark.parametrize("method", ["bidirectional", "forward"])
def test_uniform_on_asymmetric_dag(method):
    """A DAG with unbalanced path multiplicities through its middle.

    0 -> {1,2} -> 4 and 0 -> 3 -> 4: three paths, all length 2;
    uniformity means each path gets 1/3 despite the branching skew.
    """
    g = from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], n=5, directed=True
    )
    paths = _all_shortest_paths(g, 0, 4)
    assert len(paths) == 3
    counts = _empirical_path_counts(g, 0, 4, 4500, method, seed=1)
    observed = [counts.get(p, 0) for p in paths]
    _, pvalue = stats.chisquare(observed)
    assert pvalue > 1e-3


@pytest.mark.parametrize("method", ["bidirectional", "forward"])
def test_uniform_with_nested_multiplicity(method):
    """Two diamonds in series: 4 shortest paths of length 4."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)]
    g = from_edges(edges, n=7)
    paths = _all_shortest_paths(g, 0, 6)
    assert len(paths) == 4
    counts = _empirical_path_counts(g, 0, 6, 6000, method, seed=2)
    observed = [counts.get(p, 0) for p in paths]
    _, pvalue = stats.chisquare(observed)
    assert pvalue > 1e-3


def test_uniform_longer_range_grid():
    """2x4 grid end to end: C(4,1) = 4 shortest paths."""
    g = grid_graph(2, 4)
    paths = _all_shortest_paths(g, 0, 7)
    assert len(paths) == 4
    counts = _empirical_path_counts(g, 0, 7, 6000, "bidirectional", seed=3)
    observed = [counts.get(p, 0) for p in paths]
    _, pvalue = stats.chisquare(observed)
    assert pvalue > 1e-3


def test_estimator_unbiased_against_exact_gbc():
    """The L'/L estimator converges to the exact B(C) (Eq. 2 vs Eq. 8)."""
    from repro.graph import erdos_renyi
    from repro.paths import exact_gbc

    g = erdos_renyi(30, 0.15, seed=11)
    group = [0, 7, 13]
    exact = exact_gbc(g, group)
    n_draws = 20000
    instance = CoverageInstance(g.n)
    instance.add_samples(PathSampler(g, seed=5).sample(n_draws))
    estimate = instance.covered_count(group) / n_draws * g.num_ordered_pairs
    assert estimate == pytest.approx(exact, rel=0.05)
