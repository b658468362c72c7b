"""Failure-injection and degenerate-input tests.

Sampling algorithms must behave sensibly on pathological graphs: near
or fully disconnected, trivial sizes, all-null sampling, K equal to n,
hub-free and hub-only topologies.
"""

import numpy as np
import pytest

from repro.algorithms import AdaAlg, CentRa, Hedge, PuzisGreedy, YoshidaSketch
from repro.coverage import CoverageInstance, greedy_max_cover
from repro.graph import empty_graph, from_edges, star_graph
from repro.paths import PathSampler, exact_gbc


class TestDegenerateGraphs:
    def test_single_edge_graph(self):
        g = from_edges([(0, 1)], n=2)
        result = AdaAlg(eps=0.4, seed=0).run(g, 1)
        assert result.group[0] in (0, 1)
        # either endpoint covers both ordered pairs
        assert exact_gbc(g, result.group) == 2.0

    def test_k_equals_n(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)], n=4)
        result = AdaAlg(eps=0.4, seed=1).run(g, 4)
        assert sorted(result.group) == [0, 1, 2, 3]
        assert exact_gbc(g, result.group) == g.num_ordered_pairs

    def test_mostly_isolated_nodes(self):
        """One edge among 50 nodes: almost every sample is null."""
        g = from_edges([(0, 1)], n=50)
        result = AdaAlg(eps=0.4, seed=2).run(g, 2)
        assert len(result.group) == 2
        # the only informative nodes are 0 and 1
        assert {0, 1}.issubset(set(result.group)) or result.estimate >= 0

    def test_fully_disconnected(self):
        """No edges at all: every sample is null, estimate is zero."""
        g = empty_graph(20)
        result = AdaAlg(eps=0.4, seed=3).run(g, 3)
        assert result.estimate == 0.0
        assert len(result.group) == 3  # padded to exactly K

    def test_two_cliques_no_bridge(self, two_triangles):
        result = Hedge(eps=0.5, seed=4).run(two_triangles, 2)
        assert len(result.group) == 2

    def test_directed_sink_world(self):
        """All arcs point into one sink."""
        g = from_edges([(i, 9) for i in range(9)], n=10, directed=True)
        result = AdaAlg(eps=0.4, seed=5).run(g, 1)
        assert result.group == [9]

    def test_directed_source_world(self):
        g = from_edges([(0, i) for i in range(1, 10)], n=10, directed=True)
        result = AdaAlg(eps=0.4, seed=6).run(g, 1)
        assert result.group == [0]


class TestSamplingEdgeCases:
    def test_two_node_graph_sampler(self):
        g = from_edges([(0, 1)], n=2)
        samples = PathSampler(g, seed=0).sample(10)
        assert np.all(np.diff(samples.offsets) == 2)
        assert np.all(np.sort(samples.nodes.reshape(-1, 2), axis=1) == [0, 1])

    def test_sampler_all_null(self):
        g = empty_graph(5)
        samples = PathSampler(g, seed=1).sample(20)
        assert samples.nodes.size == 0
        assert np.all(samples.distances == -1)

    def test_star_every_sample_hits_hub_or_is_short(self):
        g = star_graph(10)
        samples = PathSampler(g, seed=2).sample(30)
        for distance, nodes in zip(
            samples.distances, np.split(samples.nodes, samples.offsets[1:-1])
        ):
            assert 0 in nodes or distance == 1


class TestAlgorithmsAgreeOnObviousInstances:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AdaAlg(eps=0.4, seed=7),
            lambda: Hedge(eps=0.4, seed=7),
            lambda: CentRa(eps=0.4, seed=7),
            lambda: YoshidaSketch(eps=0.4, seed=7),
        ],
    )
    def test_all_find_the_star_hub(self, factory):
        g = star_graph(30)
        assert factory().run(g, 1).group == [0]

    def test_puzis_on_two_node_graph(self):
        g = from_edges([(0, 1)], n=2)
        result = PuzisGreedy().run(g, 1)
        assert result.estimate == 2.0


class TestCoverageStress:
    def test_many_null_paths(self):
        inst = CoverageInstance(10)
        inst.add_paths([[]] * 100 + [[3]])
        result = greedy_max_cover(inst, 1)
        assert result.group == [3]
        assert result.covered == 1

    def test_every_node_in_every_path(self):
        inst = CoverageInstance(5)
        inst.add_paths([range(5)] * 10)
        result = greedy_max_cover(inst, 2)
        assert result.covered == 10
        assert result.gains == [10, 0]

    def test_large_sparse_instance(self):
        rng = np.random.default_rng(0)
        inst = CoverageInstance(1000)
        inst.add_paths(
            rng.choice(1000, size=3, replace=False) for _ in range(2000)
        )
        result = greedy_max_cover(inst, 10)
        assert result.covered > 0
        assert len(result.group) == 10
