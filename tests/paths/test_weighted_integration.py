"""Integration tests: the metric-agnostic machinery on weighted graphs.

Exact GBC, Brandes, the sampler, and the top-K algorithms all dispatch
to Dijkstra when handed a :class:`WeightedCSRGraph`; these tests verify
the whole weighted pipeline end to end.
"""

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.graph import from_weighted_edges
from repro.paths import (
    PathSampler,
    betweenness_centrality,
    dijkstra_sigma,
    exact_gbc,
)


def _random_weighted(n, p, seed, max_w=5, directed=False):
    rng = np.random.default_rng(seed)
    triples = []
    for u in range(n):
        candidates = range(n) if directed else range(u + 1, n)
        for v in candidates:
            if u != v and rng.random() < p:
                triples.append((u, v, int(rng.integers(1, max_w + 1))))
    return from_weighted_edges(triples, n=n, directed=directed)


class TestWeightedBrandes:
    def test_weighted_path(self):
        # weights don't change the topology of a path: same BC as hops
        g = from_weighted_edges([(0, 1, 3), (1, 2, 7), (2, 3, 2)])
        assert list(betweenness_centrality(g)) == [0.0, 4.0, 4.0, 0.0]

    def test_weight_reroutes_traffic(self):
        # triangle with one expensive edge: traffic detours through node 1
        g = from_weighted_edges([(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        bc = betweenness_centrality(g)
        assert bc[1] == 2.0  # both ordered 0<->2 pairs route through 1
        assert bc[0] == bc[2] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_networkx_weighted(self, seed):
        nx = pytest.importorskip("networkx")
        g = _random_weighted(20, 0.2, seed)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(20))
        nxg.add_weighted_edges_from(g.weighted_edges())
        ours = betweenness_centrality(g)
        ref = nx.betweenness_centrality(nxg, normalized=False, weight="weight")
        expected = np.array([2 * ref[i] for i in range(20)])
        assert np.allclose(ours, expected)


class TestWeightedDirected:
    @pytest.mark.parametrize("seed", range(2))
    def test_directed_brandes_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        g = _random_weighted(15, 0.2, seed=seed + 30, directed=True)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(15))
        nxg.add_weighted_edges_from(g.weighted_edges())
        ours = betweenness_centrality(g)
        ref = nx.betweenness_centrality(nxg, normalized=False, weight="weight")
        assert np.allclose(ours, [ref[i] for i in range(15)])

    def test_directed_sampler_valid(self):
        g = _random_weighted(20, 0.15, seed=33, directed=True)
        samples = PathSampler(g, seed=3).sample(30)
        for source, target, distance in zip(
            samples.sources, samples.targets, samples.distances
        ):
            if distance < 0:
                continue
            dist, _, _ = dijkstra_sigma(g, int(source))
            assert dist[target] == distance


class TestWeightedExactGBC:
    def test_detour_node_covers_everything(self):
        g = from_weighted_edges([(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        # node 1 is an endpoint or interior of every shortest path
        assert exact_gbc(g, [1]) == g.num_ordered_pairs

    def test_monotone(self):
        g = _random_weighted(15, 0.25, seed=1)
        small = exact_gbc(g, [0])
        large = exact_gbc(g, [0, 3])
        assert large >= small

    def test_full_cover(self):
        g = _random_weighted(12, 0.3, seed=2)
        from repro.paths import bfs_distances

        # count connected ordered pairs via weighted reachability
        reachable_pairs = 0
        for s in range(12):
            dist, _, _ = dijkstra_sigma(g, s)
            reachable_pairs += int(np.count_nonzero(dist > 0))
        assert exact_gbc(g, range(12)) == pytest.approx(reachable_pairs)


class TestWeightedSampler:
    def test_auto_dijkstra_method(self):
        g = _random_weighted(20, 0.2, seed=3)
        sampler = PathSampler(g, seed=0)
        assert sampler.method == "dijkstra"

    def test_forward_method_rejected(self):
        g = _random_weighted(20, 0.2, seed=3)
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError):
            PathSampler(g, seed=0, method="forward")

    def test_paths_are_weighted_shortest(self):
        g = _random_weighted(20, 0.25, seed=4)
        samples = PathSampler(g, seed=1).sample(40)
        for source, target, distance, nodes in zip(
            samples.sources, samples.targets, samples.distances,
            np.split(samples.nodes, samples.offsets[1:-1]),
        ):
            if distance < 0:
                continue
            dist, _, _ = dijkstra_sigma(g, int(source))
            assert dist[target] == distance
            # path length (sum of weights) equals the weighted distance
            total = 0
            for a, b in zip(nodes, nodes[1:]):
                nbrs = g.neighbors(int(a))
                ws = g.neighbor_weights(int(a))
                match = ws[nbrs == b]
                assert match.size == 1
                total += int(match[0])
            assert total == distance

    def test_uniform_over_weighted_ties(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        # two shortest 0->3 routes of cost 3 (via 1 and via 2)
        g = from_weighted_edges(
            [(0, 1, 1), (1, 3, 2), (0, 2, 2), (2, 3, 1)], directed=True
        )
        sampler = PathSampler(g, seed=2)
        counts = {}
        for _ in range(3000):
            s = sampler.sample_pair(0, 3)
            key = tuple(s.nodes.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) == {(0, 1, 3), (0, 2, 3)}
        _, p = scipy_stats.chisquare(list(counts.values()))
        assert p > 1e-3

    def test_estimator_unbiased_weighted(self):
        g = _random_weighted(18, 0.25, seed=5)
        group = [0, 5]
        exact = exact_gbc(g, group)
        draws = 15000
        instance = CoverageInstance(g.n)
        instance.add_samples(PathSampler(g, seed=6).sample(draws))
        estimate = instance.covered_count(group) / draws * g.num_ordered_pairs
        assert estimate == pytest.approx(exact, rel=0.07)


class TestWeightedTopK:
    def test_adaalg_on_weighted_graph(self):
        from repro import AdaAlg

        g = _random_weighted(40, 0.15, seed=7)
        result = AdaAlg(eps=0.4, gamma=0.01, seed=8).run(g, 4)
        assert len(result.group) == 4
        assert result.estimate > 0

    def test_weights_change_the_answer(self):
        """Making the hub's edges expensive moves the best group."""
        from repro.algorithms import PuzisGreedy
        from repro.paths import all_pairs_sigma

        # star + ring: with unit weights the hub wins; making hub edges
        # cost 10 pushes traffic onto the ring
        triples_cheap = [(0, i, 1) for i in range(1, 7)]
        ring = [(i, i % 6 + 1, 1) for i in range(1, 7)]
        cheap = from_weighted_edges(triples_cheap + ring)
        expensive = from_weighted_edges(
            [(0, i, 10) for i in range(1, 7)] + ring
        )
        assert exact_gbc(cheap, [0]) > exact_gbc(expensive, [0])
