"""Unit tests for the uniform shortest-path sampler."""

import numpy as np
import pytest

from repro.exceptions import GraphError, ParameterError
from repro.graph import empty_graph, erdos_renyi, from_edges
from repro.paths import PathSampler, bfs_sigma


def _paths(samples):
    """The node array of every row of a record."""
    return np.split(samples.nodes, samples.offsets[1:-1])


class TestConstruction:
    def test_tiny_graph_rejected(self):
        with pytest.raises(GraphError):
            PathSampler(empty_graph(1))

    def test_unknown_method_rejected(self, path5):
        with pytest.raises(ParameterError):
            PathSampler(path5, method="teleport")

    def test_negative_count_rejected(self, path5):
        with pytest.raises(ParameterError):
            PathSampler(path5, seed=0).sample(-1)


class TestSampleValidity:
    @pytest.mark.parametrize("method", ["bidirectional", "forward"])
    def test_paths_are_valid_shortest_paths(self, grid3x3, method):
        samples = PathSampler(grid3x3, seed=0, method=method).sample(50)
        assert np.all(samples.distances >= 0)
        for source, target, distance, nodes in zip(
            samples.sources, samples.targets, samples.distances, _paths(samples)
        ):
            assert nodes[0] == source
            assert nodes[-1] == target
            assert nodes.size == distance + 1
            # consecutive nodes adjacent
            for a, b in zip(nodes, nodes[1:]):
                assert grid3x3.has_edge(int(a), int(b))
            # length matches true distance
            dist, _ = bfs_sigma(grid3x3, int(source))
            assert dist[target] == distance

    def test_directed_paths_follow_arcs(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (0, 3)], n=4, directed=True)
        for nodes in _paths(PathSampler(g, seed=1).sample(40)):
            for a, b in zip(nodes, nodes[1:]):
                assert g.has_edge(int(a), int(b))

    def test_null_samples_on_disconnected(self, two_triangles):
        sampler = PathSampler(two_triangles, seed=2)
        samples = sampler.sample(200)
        null = np.diff(samples.offsets) == 0
        # cross-component pairs: 2*9 of 30 ordered pairs => ~60% null
        assert np.count_nonzero(null) > 60
        assert np.count_nonzero(~null) > 40
        assert np.all(samples.sigmas[null] == 0.0)
        assert np.all(samples.distances[null] == -1)

    def test_pair_marginals_uniform(self, k4):
        n_draws = 3000
        samples = PathSampler(k4, seed=3).sample(n_draws)
        _, counts = np.unique(
            samples.sources * 4 + samples.targets, return_counts=True
        )
        assert counts.size == 12  # all ordered pairs
        expected = n_draws / 12
        for count in counts:
            assert abs(count - expected) < 5 * np.sqrt(expected)

    def test_sample_pair_fixed_endpoints(self, grid3x3):
        sampler = PathSampler(grid3x3, seed=4)
        s = sampler.sample_pair(0, 8)
        assert len(s) == 1
        assert s.sources[0] == 0 and s.targets[0] == 8
        assert s.sigmas[0] == 6.0
        assert sampler.cursor == 1

    def test_reproducible_with_seed(self, grid3x3):
        a = PathSampler(grid3x3, seed=9).sample(20)
        b = PathSampler(grid3x3, seed=9).sample(20)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.offsets, b.offsets)

    def test_bookkeeping_counters(self, grid3x3):
        sampler = PathSampler(grid3x3, seed=5)
        sampler.sample(10)
        assert sampler.total_samples == 10
        assert sampler.total_edges_explored > 0

    def test_forward_method_explores_more(self, barbell):
        bi = PathSampler(barbell, seed=6, method="bidirectional")
        fw = PathSampler(barbell, seed=6, method="forward")
        bi.sample(100)
        fw.sample(100)
        assert bi.total_edges_explored <= fw.total_edges_explored


class TestSampleBatch:
    def test_count_and_validity(self, grid3x3):
        sampler = PathSampler(grid3x3, seed=20)
        samples = sampler.sample_batch(np.arange(60))
        assert len(samples) == 60
        assert sampler.total_samples == 60
        for source, target, nodes in zip(
            samples.sources, samples.targets, _paths(samples)
        ):
            assert nodes.size
            assert nodes[0] == source
            assert nodes[-1] == target
            for a, b in zip(nodes, nodes[1:]):
                assert grid3x3.has_edge(int(a), int(b))

    def test_pair_marginals_uniform(self, k4):
        draws = 3000
        samples = PathSampler(k4, seed=21).sample_batch(np.arange(draws))
        _, counts = np.unique(
            samples.sources * 4 + samples.targets, return_counts=True
        )
        assert counts.size == 12
        expected = draws / 12
        for count in counts:
            assert abs(count - expected) < 5 * np.sqrt(expected)

    def test_null_samples_preserved(self, two_triangles):
        sampler = PathSampler(two_triangles, seed=22)
        samples = sampler.sample_batch(np.arange(200))
        nulls = np.count_nonzero(np.diff(samples.offsets) == 0)
        assert 60 < nulls < 160  # ~60% of ordered pairs cross components

    def test_path_law_matches_per_sample(self, grid3x3):
        """Batch sampling draws paths from the same uniform law."""
        scipy_stats = pytest.importorskip("scipy.stats")
        sampler = PathSampler(grid3x3, seed=23)
        counts: dict[tuple, int] = {}
        draws = 0
        samples = sampler.sample_batch(np.arange(8000))
        corner = (samples.sources == 0) & (samples.targets == 8)
        paths = _paths(samples)
        for row in np.flatnonzero(corner):
            key = tuple(paths[row].tolist())
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
        assert np.all(samples.distances >= 0)


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
            assert a.distances[0] == b.distances[0]
            assert a.sigmas[0] == pytest.approx(b.sigmas[0])
            assert (a.nodes.size == 0) == (b.nodes.size == 0)
