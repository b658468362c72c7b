"""Tests for the wavefront kernel (:mod:`repro.paths.wavefront`).

The contract under test is *bit-identity*: for every query, the
lock-step kernel must reproduce the per-query
:func:`~repro.paths.bidirectional.bidirectional_search` exactly —
distances, path counts, separator cut, and the edges-explored work
counter — however the queries are split across calls.  Seeded property
sweeps cover directed/undirected, fragmented, scale-free, and
small-world topologies; edge cases cover stragglers, one-way
reachability, duplicate pairs, degenerate calls and invalid queries.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.paths.sampler as sampler_module
from repro.exceptions import ParameterError
from repro.graph import (
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    from_edges,
    watts_strogatz,
)
from repro.paths import PackedSamples, wavefront_search
from repro.paths.bidirectional import bidirectional_search
from repro.paths.wavefront import _fold, _LockStep

_COLUMNS = ("sources", "targets", "distance", "cut_level", "sigma_st", "edges")


def _random_pairs(rng, n, count):
    sources = rng.integers(0, n, size=count)
    targets = rng.integers(0, n - 1, size=count)
    return sources, np.where(targets >= sources, targets + 1, targets)


def _assert_matches_scalar(graph, sources, targets):
    batched = wavefront_search(graph, sources, targets)
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
    return batched


def _joined(parts, n):
    """The fields of consecutive calls' results, joined as one call's:
    per-query columns and cuts concatenated, state keys rebased."""
    bases = np.cumsum([0] + [len(part) for part in parts])
    joined = {
        name: np.concatenate([getattr(part, name) for part in parts])
        for name in _COLUMNS + ("cut_nodes", "cut_weights")
    }
    cut_base = np.cumsum([0] + [part.cut_offsets[-1] for part in parts])
    joined["cut_offsets"] = np.concatenate(
        [[0]] + [part.cut_offsets[1:] + base for part, base in zip(parts, cut_base)]
    )
    for side in (0, 1):
        joined[f"keys{side}"] = np.concatenate(
            [part.keys[side] + base * n for part, base in zip(parts, bases)]
        )
        for name in ("dist", "sigma"):
            joined[f"{name}{side}"] = np.concatenate(
                [getattr(part, name)[side] for part in parts]
            )
    return joined


class TestBitIdentity:
    """Seeded property sweeps: wavefront == scalar, query by query."""

    def test_erdos_renyi_directed(self):
        graph = erdos_renyi(60, 0.06, seed=101, directed=True)
        rng = np.random.default_rng(7)
        sources, targets = _random_pairs(rng, graph.n, 150)
        _assert_matches_scalar(graph, sources, targets)

    def test_erdos_renyi_fragmented_undirected(self):
        # sparse enough to leave several components: exercises the
        # unreachable path (None results with exact work accounting)
        graph = erdos_renyi(80, 0.02, seed=5, directed=False)
        rng = np.random.default_rng(11)
        sources, targets = _random_pairs(rng, graph.n, 150)
        _assert_matches_scalar(graph, sources, targets)

    def test_barabasi_albert(self):
        graph = barabasi_albert(120, 3, seed=3)
        rng = np.random.default_rng(13)
        sources, targets = _random_pairs(rng, graph.n, 200)
        _assert_matches_scalar(graph, sources, targets)

    def test_watts_strogatz(self):
        graph = watts_strogatz(90, 6, 0.1, seed=17)
        rng = np.random.default_rng(19)
        sources, targets = _random_pairs(rng, graph.n, 150)
        _assert_matches_scalar(graph, sources, targets)

    def test_split_invariance(self):
        """One call over N pairs equals the concatenation of calls over
        any split of them: a query never sees the others of its call."""
        graph = erdos_renyi(70, 0.03, seed=23, directed=True)
        rng = np.random.default_rng(29)
        sources, targets = _random_pairs(rng, graph.n, 90)
        splits = ([1, 2, 40], [45], list(range(3, 90, 7)), [0, 89])
        for frontiers in (True, False):
            whole = wavefront_search(graph, sources, targets, frontiers=frontiers)
            assert (whole.distance < 0).any() and (whole.distance > 2).any()
            for cuts in splits:
                bounds = [0, *cuts, 90]
                joined = _joined(
                    [
                        wavefront_search(
                            graph, sources[lo:hi], targets[lo:hi],
                            frontiers=frontiers,
                        )
                        for lo, hi in zip(bounds[:-1], bounds[1:])
                    ],
                    graph.n,
                )
                for name in _COLUMNS + ("cut_nodes", "cut_weights", "cut_offsets"):
                    np.testing.assert_array_equal(joined[name], getattr(whole, name))
                for side, name in itertools.product((0, 1), ("keys", "dist", "sigma")):
                    np.testing.assert_array_equal(
                        joined[f"{name}{side}"], getattr(whole, name)[side]
                    )

    def test_rounds_follow_the_longest_search(self):
        """Every query of a call starts in round 0 and expands one
        level per round, so a call of 512 pairs on a connected graph
        ends within a small multiple of its largest distance."""
        graph = barabasi_albert(2_000, 3, seed=31)
        rng = np.random.default_rng(37)
        sources, targets = _random_pairs(rng, graph.n, 512)
        found = wavefront_search(graph, sources, targets, frontiers=False)
        largest = int(found.distance.max())
        assert (found.distance > 0).all()
        assert 1 <= found.rounds <= 2 * (largest + 1)


class TestFold:
    @pytest.mark.parametrize("bound", [64, 1 << 62], ids=["packed", "wide"])
    def test_sums_in_input_order(self, bound):
        """Both sort paths of the sigma fold — the packed (key, position)
        sort and, for key ranges too wide to pack, the stable argsort —
        add each key's weights in input order, as ``np.add.at`` does."""
        rng = np.random.default_rng(53)
        keys = rng.integers(0, 64, size=500)
        weights = rng.random(500) * 1e6
        distinct, sums = _fold(keys, weights, bound)
        expected = np.zeros(64)
        np.add.at(expected, keys, weights)
        np.testing.assert_array_equal(distinct, np.unique(keys))
        np.testing.assert_array_equal(sums, expected[distinct])


class TestCohortEdgeCases:
    def test_single_query(self, grid3x3):
        _assert_matches_scalar(grid3x3, np.array([0]), np.array([8]))

    def test_all_unreachable_cohort(self, two_triangles):
        # every query straddles the two components
        sources = np.array([0, 1, 2, 0])
        targets = np.array([3, 4, 5, 5])
        results = wavefront_search(two_triangles, sources, targets)
        assert len(results) == 4
        for result, edges in results:
            assert result is None
            assert edges > 0  # proving unreachability is real work
        _assert_matches_scalar(two_triangles, sources, targets)

    def test_unreachable_levels_released_when_the_query_fails(self):
        """A pair split across components drops what it explored from
        the call's sparse state the round it fails, while a long query
        of the same call is still running."""
        edges = [(v, v + 1) for v in range(39)] + [(40, 41), (41, 42), (40, 42)]
        graph = from_edges(edges, n=43)
        sources, targets = np.array([20, 0]), np.array([40, 39])
        search = _LockStep(graph, sources, targets, frontiers=True)
        while search.active[0]:
            search.step()
        assert search.active[1]
        assert search.rounds > 1  # the failed query expanded levels first
        for blocks in search.state:
            for keys, _, _ in blocks:
                assert not (keys // graph.n == 0).any()
        found = _assert_matches_scalar(graph, sources, targets)
        np.testing.assert_array_equal(found.distance, [-1, 39])

    def test_straggler_among_short_and_unreachable_queries(self):
        """A long path hung off a clique, plus an isolated pair: one
        query walks the whole path while the short ones and the
        unreachable ones finish early in the same call."""
        clique = complete_graph(6)
        edges = [tuple(edge) for edge in clique.edges()]
        edges += [(5, 6)] + [(v, v + 1) for v in range(6, 30)]
        edges += [(31, 32)]
        graph = from_edges(edges, n=33)
        sources = np.array([0, 1, 0, 2, 30, 0, 7, 3, 31])
        targets = np.array([30, 2, 4, 30, 0, 31, 20, 5, 32])
        found = _assert_matches_scalar(graph, sources, targets)
        assert found.distance[0] == 26
        assert found.distance[5] == -1
        assert found.distance[4] == 26  # back from the path's far end
        assert found.rounds >= 26

    def test_directed_one_way_reachability(self):
        """Arcs 0 -> 1 -> 2 -> 3 and a shortcut 0 -> 2: every pair is
        reachable forward only."""
        graph = from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 2), (4, 3)], n=5, directed=True
        )
        sources = np.array([0, 3, 1, 2, 0, 4, 3])
        targets = np.array([3, 0, 3, 1, 4, 3, 4])
        found = _assert_matches_scalar(graph, sources, targets)
        np.testing.assert_array_equal(found.distance, [2, -1, 2, -1, -1, 1, -1])

    def test_duplicate_pairs_in_one_call(self):
        graph = barabasi_albert(60, 2, seed=43)
        rng = np.random.default_rng(47)
        sources, targets = _random_pairs(rng, graph.n, 10)
        sources = np.concatenate([sources, sources[::-1], sources[:3]])
        targets = np.concatenate([targets, targets[::-1], targets[:3]])
        found = _assert_matches_scalar(graph, sources, targets)
        for name in ("distance", "sigma_st", "edges"):
            column = getattr(found, name)
            np.testing.assert_array_equal(column[:10], column[10:20][::-1])
            np.testing.assert_array_equal(column[:3], column[20:])

    def test_target_with_in_degree_zero(self):
        """Node 0 has arcs out but none in: the backward search from it
        finds nothing on its first expansion."""
        graph = from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 1)], n=4, directed=True
        )
        sources = np.array([1, 2, 3, 0, 3])
        targets = np.array([0, 0, 0, 3, 2])
        found = _assert_matches_scalar(graph, sources, targets)
        assert (found.distance[:3] == -1).all()
        assert (found.distance[3:] > 0).all()

    def test_empty_query_set(self, grid3x3):
        results = wavefront_search(
            grid3x3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert len(results) == 0
        assert results.rounds == 0

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
        the searches) are bit-identical at every chunk width the
        sampler hands the search kernel."""
        from repro.paths import PathSampler

        graph = barabasi_albert(100, 2, seed=41)
        reference = PathSampler(graph, seed=77).sample_batch(np.arange(150))
        for chunk in (512, 13):
            monkeypatch.setattr(sampler_module, "_CHUNK", chunk)
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
