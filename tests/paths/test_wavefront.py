"""Tests for the wavefront kernel (:mod:`repro.paths.wavefront`).

The contract under test is *bit-identity*: for every query, the cohort
kernel must reproduce the per-query
:func:`~repro.paths.bidirectional.bidirectional_search` exactly —
distances, path counts, separator cut, and the edges-explored work
counter — under any cohort size.  Seeded property sweeps cover
directed/undirected, fragmented, scale-free, and small-world
topologies; edge cases cover degenerate cohorts and invalid queries.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro.paths.sampler as sampler_module
from repro.exceptions import ParameterError
from repro.graph import barabasi_albert, erdos_renyi, watts_strogatz
from repro.paths import DEFAULT_COHORT, PackedSamples, wavefront_search
from repro.paths.bidirectional import bidirectional_search


def _random_pairs(rng, n, count):
    sources = rng.integers(0, n, size=count)
    targets = rng.integers(0, n - 1, size=count)
    return sources, np.where(targets >= sources, targets + 1, targets)


def _assert_matches_scalar(graph, sources, targets, cohort_size):
    batched = wavefront_search(graph, sources, targets, cohort_size=cohort_size)
    assert len(batched) == len(sources)
    for s, t, (result, edges) in zip(sources, targets, batched):
        expected, expected_edges = bidirectional_search(graph, int(s), int(t))
        assert edges == expected_edges
        if expected is None:
            assert result is None
            continue
        assert result is not None
        assert result.source == expected.source
        assert result.target == expected.target
        assert result.distance == expected.distance
        assert result.sigma_st == expected.sigma_st
        assert result.cut_level == expected.cut_level
        assert np.array_equal(result.cut_nodes, expected.cut_nodes)
        assert np.array_equal(result.cut_weights, expected.cut_weights)
        assert np.array_equal(result.dist_forward, expected.dist_forward)
        assert np.array_equal(result.dist_backward, expected.dist_backward)
        assert np.array_equal(result.sigma_forward, expected.sigma_forward)
        assert np.array_equal(result.sigma_backward, expected.sigma_backward)
        assert result.edges_explored == expected.edges_explored


class TestBitIdentity:
    """Seeded property sweeps: wavefront == scalar, query by query."""

    def test_erdos_renyi_directed(self):
        graph = erdos_renyi(60, 0.06, seed=101, directed=True)
        rng = np.random.default_rng(7)
        sources, targets = _random_pairs(rng, graph.n, 150)
        _assert_matches_scalar(graph, sources, targets, cohort_size=8)

    def test_erdos_renyi_fragmented_undirected(self):
        # sparse enough to leave several components: exercises the
        # unreachable path (None results with exact work accounting)
        graph = erdos_renyi(80, 0.02, seed=5, directed=False)
        rng = np.random.default_rng(11)
        sources, targets = _random_pairs(rng, graph.n, 150)
        _assert_matches_scalar(graph, sources, targets, cohort_size=16)

    def test_barabasi_albert(self):
        graph = barabasi_albert(120, 3, seed=3)
        rng = np.random.default_rng(13)
        sources, targets = _random_pairs(rng, graph.n, 200)
        _assert_matches_scalar(graph, sources, targets, cohort_size=32)

    def test_watts_strogatz(self):
        graph = watts_strogatz(90, 6, 0.1, seed=17)
        rng = np.random.default_rng(19)
        sources, targets = _random_pairs(rng, graph.n, 150)
        _assert_matches_scalar(graph, sources, targets, cohort_size=DEFAULT_COHORT)

    def test_cohort_size_invariance(self):
        """The cohort width is a throughput knob; results don't move."""
        graph = barabasi_albert(70, 2, seed=23)
        rng = np.random.default_rng(29)
        sources, targets = _random_pairs(rng, graph.n, 60)
        for cohort_size in (1, 3, 60, 200):
            _assert_matches_scalar(graph, sources, targets, cohort_size)


class TestCohortEdgeCases:
    def test_single_query(self, grid3x3):
        _assert_matches_scalar(
            grid3x3, np.array([0]), np.array([8]), cohort_size=4
        )

    def test_all_unreachable_cohort(self, two_triangles):
        # every query straddles the two components
        sources = np.array([0, 1, 2, 0])
        targets = np.array([3, 4, 5, 5])
        results = wavefront_search(two_triangles, sources, targets)
        assert len(results) == 4
        for result, edges in results:
            assert result is None
            assert edges > 0  # proving unreachability is real work
        _assert_matches_scalar(two_triangles, sources, targets, cohort_size=2)

    def test_empty_query_set(self, grid3x3):
        results = wavefront_search(
            grid3x3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert len(results) == 0

    def test_source_equals_target_rejected(self, grid3x3):
        with pytest.raises(ParameterError):
            wavefront_search(grid3x3, np.array([0, 3]), np.array([5, 3]))

    def test_out_of_range_ids_rejected(self, grid3x3):
        with pytest.raises(ParameterError):
            wavefront_search(grid3x3, np.array([0]), np.array([9]))
        with pytest.raises(ParameterError):
            wavefront_search(grid3x3, np.array([-1]), np.array([5]))

    def test_mismatched_lengths_rejected(self, grid3x3):
        with pytest.raises(ParameterError):
            wavefront_search(grid3x3, np.array([0, 1]), np.array([5]))

    def test_bad_cohort_size_rejected(self, grid3x3):
        with pytest.raises(ParameterError):
            wavefront_search(
                grid3x3, np.array([0]), np.array([5]), cohort_size=0
            )

    def test_caller_planes_shared_and_left_clean(self):
        """Sigma planes passed in serve call after call: the results
        match fresh planes, and every search leaves them all-zero."""
        graph = barabasi_albert(80, 2, seed=5)
        rng = np.random.default_rng(6)
        planes = np.zeros((2, 12, graph.n))
        for cohort_size in (12, 5):
            sources, targets = _random_pairs(rng, graph.n, 40)
            shared = wavefront_search(
                graph, sources, targets, cohort_size=cohort_size, planes=planes
            )
            fresh = wavefront_search(graph, sources, targets, cohort_size=cohort_size)
            assert not planes.any()
            for name in ("distance", "sigma_st", "edges", "cut_nodes"):
                np.testing.assert_array_equal(
                    getattr(shared, name), getattr(fresh, name)
                )
        for bad in (np.zeros((2, 4, graph.n)), np.zeros((2, 12, graph.n + 1)),
                    np.zeros((2, graph.n, 12)).transpose(0, 2, 1)):
            with pytest.raises(ParameterError, match="planes"):
                wavefront_search(
                    graph, sources, targets, cohort_size=12, planes=bad
                )


class TestScalarRangeValidation:
    """Satellite: bad ids raise ParameterError, never IndexError."""

    def test_bidirectional_search_out_of_range(self, grid3x3):
        with pytest.raises(ParameterError):
            bidirectional_search(grid3x3, 0, 9)
        with pytest.raises(ParameterError):
            bidirectional_search(grid3x3, -2, 5)

    def test_bidirectional_sigma_out_of_range(self, grid3x3):
        from repro.paths import bidirectional_sigma

        with pytest.raises(ParameterError):
            bidirectional_sigma(grid3x3, 42, 0)


class TestSamplerCrossKernel:
    def test_sample_cohort_kernels_identical(self, monkeypatch):
        """The cohort draw reads the same per-index uniforms as the
        scalar oracle ``sample_batch``, so the sampled paths (not just
        the searches) are bit-identical at every cohort width of the
        search kernel the sampler calls."""
        from repro.paths import PathSampler

        graph = barabasi_albert(100, 2, seed=41)
        reference = PathSampler(graph, seed=77).sample_batch(np.arange(150))
        for cohort_size in (None, 13):
            monkeypatch.setattr(
                sampler_module,
                "wavefront_search",
                functools.partial(wavefront_search, cohort_size=cohort_size),
            )
            samples = PathSampler(graph, seed=77).sample_cohort(np.arange(150))
            for name in ("sources", "targets", "nodes", "offsets", "sigmas", "edges"):
                assert np.array_equal(getattr(reference, name), getattr(samples, name))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cohort_draw_is_split_invariant(self, weighted):
        """Sample ``i`` is a pure function of ``i``: any split or order
        of the indices gives the same samples — across chunk boundaries
        too."""
        from repro.graph import from_weighted_edges
        from repro.paths import PathSampler

        graph = barabasi_albert(150, 2, seed=8)
        if weighted:
            rng = np.random.default_rng(1)
            graph = from_weighted_edges(
                [(u, v, int(rng.integers(1, 4))) for u, v in graph.edges()],
                n=graph.n,
            )
        count = 80 if weighted else 600
        indices = np.arange(count)
        cohort = PathSampler(graph, seed=3).sample_cohort(indices)
        sampler = PathSampler(graph, seed=3)
        order = np.random.default_rng(2).permutation(count)
        cut = count // 3
        parts = PackedSamples.concat(
            [sampler.sample_cohort(order[:cut]), sampler.sample_cohort(order[cut:])]
        )
        back = np.argsort(order)
        for name in ("sources", "targets", "distances", "sigmas"):
            np.testing.assert_array_equal(
                getattr(parts, name)[back], getattr(cohort, name)
            )
        part_paths = np.split(parts.nodes, parts.offsets[1:-1])
        cohort_paths = np.split(cohort.nodes, cohort.offsets[1:-1])
        for i, j in enumerate(back.tolist()):
            np.testing.assert_array_equal(part_paths[j], cohort_paths[i])

    def test_cohort_requires_bidirectional(self, grid3x3):
        from repro.paths import PathSampler

        sampler = PathSampler(grid3x3, seed=0, method="forward")
        with pytest.raises(ParameterError):
            sampler.sample_cohort(np.arange(5))
