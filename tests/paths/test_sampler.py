"""Unit tests for the uniform shortest-path sampler."""

import numpy as np
import pytest

from repro.exceptions import GraphError, ParameterError
from repro.graph import empty_graph, erdos_renyi, from_edges
from repro.paths import PathSampler, bfs_sigma


class TestConstruction:
    def test_tiny_graph_rejected(self):
        with pytest.raises(GraphError):
            PathSampler(empty_graph(1))

    def test_unknown_method_rejected(self, path5):
        with pytest.raises(ParameterError):
            PathSampler(path5, method="teleport")

    def test_negative_count_rejected(self, path5):
        with pytest.raises(ParameterError):
            PathSampler(path5, seed=0).sample_many(-1)


class TestSampleValidity:
    @pytest.mark.parametrize("method", ["bidirectional", "forward"])
    def test_paths_are_valid_shortest_paths(self, grid3x3, method):
        sampler = PathSampler(grid3x3, seed=0, method=method)
        for _ in range(50):
            s = sampler.sample()
            assert not s.is_null
            nodes = s.nodes
            assert nodes[0] == s.source
            assert nodes[-1] == s.target
            assert nodes.size == s.distance + 1
            # consecutive nodes adjacent
            for a, b in zip(nodes, nodes[1:]):
                assert grid3x3.has_edge(int(a), int(b))
            # length matches true distance
            dist, _ = bfs_sigma(grid3x3, s.source)
            assert dist[s.target] == s.distance

    def test_directed_paths_follow_arcs(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (0, 3)], n=4, directed=True)
        sampler = PathSampler(g, seed=1)
        for _ in range(40):
            s = sampler.sample()
            if s.is_null:
                continue
            for a, b in zip(s.nodes, s.nodes[1:]):
                assert g.has_edge(int(a), int(b))

    def test_null_samples_on_disconnected(self, two_triangles):
        sampler = PathSampler(two_triangles, seed=2)
        samples = sampler.sample_many(200)
        nulls = [s for s in samples if s.is_null]
        live = [s for s in samples if not s.is_null]
        # cross-component pairs: 2*9 of 30 ordered pairs => ~60% null
        assert len(nulls) > 60
        assert len(live) > 40
        for s in nulls:
            assert s.sigma_st == 0.0
            assert s.distance == -1

    def test_pair_marginals_uniform(self, k4):
        sampler = PathSampler(k4, seed=3)
        counts = {}
        n_draws = 3000
        for _ in range(n_draws):
            s = sampler.sample()
            counts[(s.source, s.target)] = counts.get((s.source, s.target), 0) + 1
        assert len(counts) == 12  # all ordered pairs
        expected = n_draws / 12
        for count in counts.values():
            assert abs(count - expected) < 5 * np.sqrt(expected)

    def test_sample_pair_fixed_endpoints(self, grid3x3):
        sampler = PathSampler(grid3x3, seed=4)
        s = sampler.sample_pair(0, 8)
        assert s.source == 0 and s.target == 8
        assert s.sigma_st == 6.0

    def test_reproducible_with_seed(self, grid3x3):
        a = PathSampler(grid3x3, seed=9).sample_many(20)
        b = PathSampler(grid3x3, seed=9).sample_many(20)
        for x, y in zip(a, b):
            assert np.array_equal(x.nodes, y.nodes)

    def test_bookkeeping_counters(self, grid3x3):
        sampler = PathSampler(grid3x3, seed=5)
        sampler.sample_many(10)
        assert sampler.total_samples == 10
        assert sampler.total_edges_explored > 0

    def test_forward_method_explores_more(self, barbell):
        bi = PathSampler(barbell, seed=6, method="bidirectional")
        fw = PathSampler(barbell, seed=6, method="forward")
        bi.sample_many(100)
        fw.sample_many(100)
        assert bi.total_edges_explored <= fw.total_edges_explored


class TestSampleBatch:
    def test_count_and_validity(self, grid3x3):
        sampler = PathSampler(grid3x3, seed=20)
        samples = sampler.sample_batch(np.arange(60))
        assert len(samples) == 60
        assert sampler.total_samples == 60
        for s in samples:
            assert not s.is_null
            assert s.nodes[0] == s.source
            assert s.nodes[-1] == s.target
            for a, b in zip(s.nodes, s.nodes[1:]):
                assert grid3x3.has_edge(int(a), int(b))

    def test_pair_marginals_uniform(self, k4):
        sampler = PathSampler(k4, seed=21)
        counts = {}
        draws = 3000
        for s in sampler.sample_batch(np.arange(draws)):
            counts[(s.source, s.target)] = counts.get((s.source, s.target), 0) + 1
        assert len(counts) == 12
        expected = draws / 12
        for count in counts.values():
            assert abs(count - expected) < 5 * np.sqrt(expected)

    def test_null_samples_preserved(self, two_triangles):
        sampler = PathSampler(two_triangles, seed=22)
        samples = sampler.sample_batch(np.arange(200))
        nulls = sum(1 for s in samples if s.is_null)
        assert 60 < nulls < 160  # ~60% of ordered pairs cross components

    def test_path_law_matches_per_sample(self, grid3x3):
        """Batch sampling draws paths from the same uniform law."""
        scipy_stats = pytest.importorskip("scipy.stats")
        sampler = PathSampler(grid3x3, seed=23)
        counts: dict[tuple, int] = {}
        draws = 0
        for s in sampler.sample_batch(np.arange(8000)):
            if s.source == 0 and s.target == 8:
                key = tuple(s.nodes.tolist())
                counts[key] = counts.get(key, 0) + 1
                draws += 1
        assert len(counts) == 6  # all six corner-to-corner paths appear
        _, pvalue = scipy_stats.chisquare(list(counts.values()))
        assert pvalue > 1e-3

    def test_negative_count_rejected(self, path5):
        with pytest.raises(ParameterError):
            PathSampler(path5, seed=0).sample_batch([3, -1])
        with pytest.raises(ParameterError):
            PathSampler(path5, seed=0).sample_cohort(5)  # not an index array

    def test_zero_count(self, path5):
        assert len(PathSampler(path5, seed=0).sample_batch([])) == 0

    def test_weighted_graph_falls_back(self):
        from repro.graph import from_weighted_edges

        g = from_weighted_edges([(0, 1, 2), (1, 2, 3)])
        sampler = PathSampler(g, seed=24)
        samples = sampler.sample_batch(np.arange(20))
        assert len(samples) == 20
        assert all(s.distance >= 0 for s in samples)


class TestMethodAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_same_pair_metadata(self, seed):
        """Distance and sigma for a fixed pair are method-independent."""
        g = erdos_renyi(30, 0.15, seed=seed)
        bi = PathSampler(g, seed=seed, method="bidirectional")
        fw = PathSampler(g, seed=seed, method="forward")
        rng = np.random.default_rng(seed)
        for _ in range(60):
            s, t = rng.choice(30, size=2, replace=False)
            a = bi.sample_pair(int(s), int(t))
            b = fw.sample_pair(int(s), int(t))
            assert a.distance == b.distance
            assert a.sigma_st == pytest.approx(b.sigma_st)
            assert a.is_null == b.is_null
