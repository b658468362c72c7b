"""Dynamic-graph tests: exact sample invalidation and re-solve.

Covers the exact per-pair invalidation test, session migration across
both engines (stale samples redrawn in place), the checkpoint/resume
behaviour of a mutated pool, and the equivalence contract: mutate →
requery returns the same group as a cold run on the mutated graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AdaAlg, CentRa, Exhaust, Hedge
from repro.coverage import greedy_max_cover
from repro.exceptions import CheckpointError, ParameterError
from repro.graph import (
    DeltaGraph,
    GraphUpdate,
    barabasi_albert,
    from_edges,
)
from repro.paths.bfs import bfs_distances
from repro.session import ExactInvalidation, SampleStore, SamplingSession

from brute_force import path_length, random_graph, random_update, shortest_path_sets


def _first_edge(graph, u=0):
    return u, int(graph.neighbors(u)[0])


def _missing_edge(graph):
    for u in range(graph.n):
        row = set(int(v) for v in graph.neighbors(u))
        for v in range(graph.n - 1, u, -1):
            if v != u and v not in row:
                return u, v
    raise AssertionError("graph is complete")


def _one_percent_update(graph, rng):
    """Delete ~0.5% of edges and insert as many new ones."""
    count = max(1, graph.num_edges // 200)
    deletes, inserts = [], []
    present = set()
    for u in range(graph.n):
        for v in graph.neighbors(u):
            if u < int(v):
                present.add((u, int(v)))
    pool = sorted(present)
    for index in rng.choice(len(pool), size=count, replace=False):
        deletes.append(pool[index])
        present.discard(pool[index])
    while len(inserts) < count:
        u, v = sorted(rng.choice(graph.n, size=2, replace=False))
        if (int(u), int(v)) not in present:
            inserts.append((int(u), int(v), 1))
            present.add((int(u), int(v)))
    return GraphUpdate.from_ops(inserts, deletes)


def _stale(old, new, pairs):
    """``ExactInvalidation.stale`` over hand-written ``(s, t)`` pairs,
    with their distances on ``old``."""
    sources = np.array([s for s, _ in pairs], dtype=np.int64)
    targets = np.array([t for _, t in pairs], dtype=np.int64)
    distances = np.array(
        [bfs_distances(old, s)[t] for s, t in pairs], dtype=np.int64
    )
    return ExactInvalidation(old, new).stale(sources, targets, distances).tolist()


class TestStoreInvalidation:
    """The exact per-pair test, on hand-built changes."""

    def test_drops_exactly_intersecting_paths(self):
        """Deleting an edge stales exactly the pairs with a shortest
        path through it."""
        old = from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 3)], n=6)
        new = DeltaGraph(old).apply(GraphUpdate.from_ops(deletes=[(1, 2)]))
        pairs = [(0, 2), (1, 2), (1, 3), (2, 1), (0, 3), (0, 1), (2, 3), (3, 4)]
        # 0-1-2-3 (length 3) never was a shortest 0->3 path: 0-5-3 is
        assert _stale(old, new, pairs) == [
            True, True, True, True, False, False, False, False
        ]

    def test_untouched_frontier_drops_nothing(self):
        """A change on no pool pair's shortest paths stales nothing —
        not even a pair whose paths pass next to it."""
        # triangle 0-1-2 and a 4-cycle 3-4-5-6
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)]
        old = from_edges(edges, n=7)
        new = DeltaGraph(old).apply(GraphUpdate.from_ops(deletes=[(5, 6)]))
        untouched = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (3, 6)]
        assert _stale(old, new, untouched) == [False] * len(untouched)
        # and the pairs it does change are caught
        assert _stale(old, new, [(3, 5), (4, 6), (5, 6)]) == [True, True, True]

    def test_pairs_sharing_nodes_decided_by_pair(self):
        """Two samples through the same nodes are decided by their own
        pairs: on a 6-cycle, deleting 2-3 reroutes 1->3 but leaves
        0->2 (path 0-1-2, sharing nodes 1 and 2) alone."""
        old = from_edges([(i, (i + 1) % 6) for i in range(6)], n=6)
        new = DeltaGraph(old).apply(GraphUpdate.from_ops(deletes=[(2, 3)]))
        assert _stale(old, new, [(0, 2), (1, 3)]) == [False, True]

    def test_out_of_range_pair_columns_rejected(self):
        store = SampleStore(10)
        store.add_paths([[0, 1]])
        arrays = store.export_arrays()
        for bad in ({"sources": np.asarray([10])}, {"targets": np.asarray([-2])},
                    {"distances": np.asarray([1, 1])}):
            with pytest.raises(CheckpointError):
                SampleStore.from_arrays(10, {**arrays, **bad})

    def test_migrate_keeps_pool_size_ids_and_schedule(self):
        """A migration rewrites stale samples at their own ids: the pool
        size, the draw schedule and every kept sample stay put."""
        graph = barabasi_albert(60, 2, seed=3)
        with SamplingSession(graph, seed=5) as sess:
            sess.extend(200)
            store = sess.store(0)
            before = [store.path(i).tolist() for i in range(store.num_paths)]
            pairs_before = store.pairs()
            schedule = list(store.draw_schedule)
            u, v = _first_edge(graph)
            update = GraphUpdate.from_ops(deletes=[(u, v)])
            stale = ExactInvalidation(
                graph, DeltaGraph(graph).apply(update)
            ).stale(*pairs_before)
            stats = sess.apply_update(update)
            assert stats["invalidated"] == int(stale.sum()) > 0
            assert store.num_paths == 200
            assert store.draw_schedule == schedule
            for i in np.flatnonzero(~stale):
                assert store.path(int(i)).tolist() == before[i]
            np.testing.assert_array_equal(store.pairs()[0], pairs_before[0])
            np.testing.assert_array_equal(store.pairs()[1], pairs_before[1])

    def test_random_invalidation_matches_reference(self):
        """On random small graphs and mixed deltas, the test stales
        exactly the pairs whose brute-force shortest-path set or
        distance changed — directed, undirected and weighted."""
        for seed, (directed, weighted) in enumerate(
            [(False, False), (True, False), (False, True), (True, True)]
        ):
            rng = np.random.default_rng(seed)
            old = random_graph(rng, 11, 20, directed, weighted)
            new = DeltaGraph(old).apply(random_update(rng, old, 4))
            before, after = shortest_path_sets(old), shortest_path_sets(new)
            pairs = sorted(before)
            sources = np.array([s for s, _ in pairs])
            targets = np.array([t for _, t in pairs])
            distances = np.array([path_length(old, before[p]) for p in pairs])
            stale = ExactInvalidation(old, new).stale(sources, targets, distances)
            expected = [
                (before[p], distances[i]) != (after[p], path_length(new, after[p]))
                for i, p in enumerate(pairs)
            ]
            assert stale.tolist() == expected
            assert any(expected) and not all(expected)

    def test_legacy_provenance_columns_ignored(self):
        """Snapshots that still carry the per-path ``versions`` and
        ``fingerprints`` columns load, and the columns are dropped."""
        store = SampleStore(10)
        store.add_paths([[0, 1], [2, 3]])
        arrays = store.export_arrays()
        assert sorted(arrays) == [
            "degrees", "distances", "flat", "offsets", "schedule", "sources",
            "targets",
        ]
        legacy = dict(
            arrays,
            versions=np.asarray([0, 3], dtype=np.int64),
            fingerprints=np.asarray([3, 12], dtype=np.uint64),
        )
        clone = SampleStore.from_arrays(10, legacy)
        assert clone.num_paths == 2
        for key, value in clone.export_arrays().items():
            np.testing.assert_array_equal(value, arrays[key])


class TestSessionMigration:
    def test_migrate_drops_the_greedy_memo(self):
        """Greedy on a migrated lane equals greedy on a fresh copy of
        its store, though each lane ran greedy before the update."""
        graph = barabasi_albert(60, 2, seed=3)
        with SamplingSession(graph, lanes=2, seed=5) as sess:
            for lane in (0, 1):
                sess.extend(300, lane=lane)
                greedy_max_cover(sess.store(lane), 20)
            deletes = [_first_edge(graph, u) for u in range(0, 12, 3)]
            stats = sess.apply_update(GraphUpdate.from_ops(deletes=deletes))
            assert stats["redrawn"] > 0
            for lane in (0, 1):
                store = sess.store(lane)
                copy = SampleStore.from_arrays(store.num_nodes, store.export_arrays())
                for k in (20, 5):
                    kept, fresh = greedy_max_cover(store, k), greedy_max_cover(copy, k)
                    assert kept.group == fresh.group
                    assert kept.gains == fresh.gains

    def test_migrate_rejects_node_universe_change(self):
        with SamplingSession(barabasi_albert(30, 2, seed=0), seed=1) as sess:
            with pytest.raises(ParameterError, match="node universes"):
                sess.migrate(barabasi_albert(31, 2, seed=0))

    def test_apply_update_invalidates_and_bumps_version(self):
        graph = barabasi_albert(60, 2, seed=3)
        with SamplingSession(graph, lanes=2, seed=5) as sess:
            sess.extend(40, lane=0)
            sess.extend(40, lane=1)
            u, v = _first_edge(graph)
            stats = sess.apply_update(GraphUpdate.from_ops(deletes=[(u, v)]))
            assert stats["version"] == 1 == sess.graph_version
            assert stats["invalidated"] == stats["redrawn"] > 0
            assert stats["tested"] == sess.total_samples == 80
            assert stats["invalidated"] + stats["surviving"] == 80
            assert sess.graph is not graph
            assert sess.graph.num_edges == graph.num_edges - 1

    @pytest.mark.parametrize(
        "engine_kwargs",
        [
            {"workers": 0},
            {"workers": 2},
        ],
        ids=["serial", "epoch"],
    )
    def test_migrated_stream_matches_checkpoint_resume(
        self, engine_kwargs, tmp_path
    ):
        """After a migration, the surviving pool plus the continued
        stream stay bit-identically checkpointable: extending the live
        migrated session equals resuming its checkpoint and extending
        that — for every engine."""
        graph = barabasi_albert(60, 2, seed=3)
        update = GraphUpdate.from_ops(deletes=[_first_edge(graph)])
        path = str(tmp_path / "mutated.npz")

        live = SamplingSession(graph, seed=5, **engine_kwargs)
        try:
            live.extend(100)
            live.apply_update(update)
            live.checkpoint(path)
            thawed, state = SamplingSession.resume(path, live.graph)
            try:
                assert state is None
                assert thawed.graph_version == 1
                live.extend(200)
                thawed.extend(200)
                ours = live.store(0).export_arrays()
                theirs = thawed.store(0).export_arrays()
                assert sorted(ours) == sorted(theirs)
                for key in ours:
                    np.testing.assert_array_equal(ours[key], theirs[key])
            finally:
                thawed.close()
        finally:
            live.close()


def _equivalence_case(
    algorithm_cls, engine_kwargs, samples_tolerance=None, **params
):
    """Mutate → requery equals a cold run on the compacted graph.

    The group (and convergence verdict) must match; a
    ``samples_tolerance`` additionally pins the sample count to within
    that slack — structural for EXHAUST's fixed budget.  The adaptive
    stopping rules may legitimately halt at a different schedule entry
    on a different pool.
    """
    graph = barabasi_albert(60, 2, seed=3)
    rng = np.random.default_rng(11)
    update = _one_percent_update(graph, rng)

    warm_algorithm = algorithm_cls(seed=7, **params, **engine_kwargs)
    session = warm_algorithm.build_session(graph)
    try:
        warm_algorithm.session = session
        warm_algorithm.run(graph, 2)
        session.apply_update(update)
        assert session.total_samples > 0, "mutation wiped the whole pool"
        requery = algorithm_cls(seed=7, **params, **engine_kwargs)
        requery.session = session
        warm = requery.run(session.graph, 2)
    finally:
        session.close()

    cold = algorithm_cls(seed=7, **params, **engine_kwargs).run(
        session.graph, 2
    )
    assert sorted(warm.group) == sorted(cold.group)
    assert warm.converged == cold.converged
    if samples_tolerance is not None:
        assert abs(warm.num_samples - cold.num_samples) <= samples_tolerance


class TestEquivalenceContract:
    """The PR's acceptance bar, across algorithms and engines."""

    @pytest.mark.parametrize(
        "engine_kwargs",
        [
            {"workers": 0},
            {"workers": 2},
        ],
        ids=["serial", "epoch"],
    )
    def test_adaalg_requery_matches_cold_run(self, engine_kwargs):
        _equivalence_case(AdaAlg, engine_kwargs, eps=0.6, gamma=0.1)

    def test_hedge_requery_matches_cold_run(self):
        _equivalence_case(Hedge, {}, eps=0.6, gamma=0.1)

    def test_centra_requery_matches_cold_run(self):
        _equivalence_case(CentRa, {}, eps=0.6, gamma=0.1)

    @pytest.mark.parametrize(
        "engine_kwargs, tolerance",
        [
            ({"workers": 0}, 0),
            ({"workers": 2}, 0),
        ],
        ids=["serial", "epoch"],
    )
    def test_exhaust_requery_matches_cold_at_equal_samples(
        self, engine_kwargs, tolerance
    ):
        """EXHAUST's fixed budget makes the sample counts structurally
        equal, pinning the strictest form of the contract."""
        _equivalence_case(
            Exhaust, engine_kwargs, samples_tolerance=tolerance
        )

    def test_post_mutate_checkpoint_resumes_cleanly(self, tmp_path):
        """An interrupted checkpointed run, mutated mid-flight, resumes
        into the same answer as the straight-through warm requery."""
        graph = barabasi_albert(60, 2, seed=3)
        update = GraphUpdate.from_ops(deletes=[_first_edge(graph)])
        path = str(tmp_path / "run.npz")

        algorithm = AdaAlg(eps=0.6, gamma=0.1, seed=7)
        session = algorithm.build_session(graph)
        try:
            algorithm.session = session
            algorithm.run(graph, 2)
            session.apply_update(update)
            new_graph = session.graph
            # freeze the mutated pool with NO loop state: the resumed
            # algorithm re-enters its stopping rule over the warm pool
            session.checkpoint(
                path,
                state={
                    "algorithm": "AdaAlg",
                    "k": 2,
                    "params": {"eps": 0.6, "gamma": 0.1},
                    "algorithm_rng": None,
                    "loop": None,
                    "meta": {},
                },
            )
            requery = AdaAlg(eps=0.6, gamma=0.1, seed=7)
            requery.session = session
            warm = requery.run(new_graph, 2)
        finally:
            session.close()

        resumed_algorithm = AdaAlg(
            eps=0.6, gamma=0.1, seed=7, resume_from=path
        )
        resumed = resumed_algorithm.run(new_graph, 2)
        assert sorted(resumed.group) == sorted(warm.group)
        assert resumed.num_samples == warm.num_samples

    def test_reuse_fraction_is_substantial(self):
        """A 1%-edge delta leaves the pairs of well over 80% of the pool
        untouched, and exactly those samples are kept."""
        graph = barabasi_albert(200, 2, seed=3)
        rng = np.random.default_rng(5)
        update = _one_percent_update(graph, rng)
        with SamplingSession(graph, seed=7) as sess:
            sess.extend(500)
            stats = sess.apply_update(update)
        assert stats["tested"] == 500
        assert stats["surviving"] / 500 >= 0.8
