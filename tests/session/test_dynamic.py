"""Dynamic-graph tests: sample invalidation and incremental re-solve.

Covers the store's exact invalidation semantics, session migration
across all four engines, the checkpoint/resume behaviour of a mutated
pool, and the headline equivalence contract: mutate → requery returns
the same group as a cold run on the compacted graph at equal sample
count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AdaAlg, CentRa, Exhaust, Hedge
from repro.exceptions import ParameterError
from repro.graph import DeltaGraph, GraphUpdate, barabasi_albert
from repro.session import SampleStore, SamplingSession


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


class TestStoreInvalidation:
    def test_drops_exactly_intersecting_paths(self):
        store = SampleStore(10)
        paths = [(0, 1, 2), (3, 4), (5, 6, 7), (2, 8)]
        for path in paths:
            store.add_path(np.asarray(path, dtype=np.int64))
        dropped = store.invalidate([2])
        assert dropped == 2
        assert store.num_paths == 2
        # survivors are exactly the paths avoiding node 2, order kept
        assert store.covered_count([3]) == 1
        assert store.covered_count([5]) == 1
        assert store.covered_count([0]) == 0

    def test_untouched_frontier_drops_nothing(self):
        store = SampleStore(10)
        store.add_path(np.asarray([0, 1], dtype=np.int64))
        assert store.invalidate([9]) == 0
        assert store.invalidate([]) == 0
        assert store.num_paths == 1

    def test_bloom_collisions_stay_exact(self):
        # nodes 3 and 67 share fingerprint bit 3 (mod 64): the packed
        # word alone cannot separate them, the exact pass must
        store = SampleStore(128)
        store.add_path(np.asarray([3, 10], dtype=np.int64))
        store.add_path(np.asarray([67, 20], dtype=np.int64))
        assert store.invalidate([3]) == 1
        assert store.num_paths == 1
        assert store.covered_count([67]) == 1

    def test_out_of_range_frontier_rejected(self):
        store = SampleStore(10)
        store.add_path(np.asarray([0, 1], dtype=np.int64))
        with pytest.raises(ParameterError):
            store.invalidate([10])
        with pytest.raises(ParameterError):
            store.invalidate([-1])

    def test_schedule_reset_to_surviving_pool(self):
        store = SampleStore(10)
        for path in ((0, 1), (2, 3), (4, 5)):
            store.add_path(np.asarray(path, dtype=np.int64))
        store.record_extend(3)
        store.invalidate([0])
        assert store.draw_schedule == [2]
        store.invalidate([2, 4])
        assert store.draw_schedule == []

    def test_random_invalidation_matches_reference(self):
        rng = np.random.default_rng(7)
        store = SampleStore(200)
        paths = []
        for _ in range(300):
            length = int(rng.integers(1, 8))
            path = rng.choice(200, size=length, replace=False)
            paths.append(set(int(v) for v in path))
            store.add_path(np.sort(path).astype(np.int64))
        touched = rng.choice(200, size=11, replace=False)
        frontier = set(int(v) for v in touched)
        expected_survivors = [p for p in paths if not (p & frontier)]
        dropped = store.invalidate(touched)
        assert dropped == len(paths) - len(expected_survivors)
        assert store.num_paths == len(expected_survivors)
        # surviving incidence matches the reference sets exactly
        for node in range(200):
            expected = sum(1 for p in expected_survivors if node in p)
            assert store.covered_count([node]) == expected

    def test_legacy_provenance_columns_ignored(self):
        """Snapshots that still carry the per-path ``versions`` and
        ``fingerprints`` columns load, and the columns are dropped."""
        store = SampleStore(10)
        store.add_path(np.asarray([0, 1], dtype=np.int64))
        store.add_path(np.asarray([2, 3], dtype=np.int64))
        arrays = store.export_arrays()
        assert sorted(arrays) == ["degrees", "flat", "offsets", "schedule"]
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
    def test_migrate_rejects_node_universe_change(self):
        with SamplingSession(barabasi_albert(30, 2, seed=0), seed=1) as sess:
            with pytest.raises(ParameterError, match="node universes"):
                sess.migrate(barabasi_albert(31, 2, seed=0), [0])

    def test_apply_update_invalidates_and_bumps_version(self):
        graph = barabasi_albert(60, 2, seed=3)
        with SamplingSession(graph, lanes=2, seed=5) as sess:
            sess.extend(40, lane=0)
            sess.extend(40, lane=1)
            u, v = _first_edge(graph)
            stats = sess.apply_update(GraphUpdate.from_ops(deletes=[(u, v)]))
            assert stats["version"] == 1 == sess.graph_version
            assert stats["invalidated"] > 0
            assert stats["surviving"] == sess.total_samples
            assert stats["invalidated"] + stats["surviving"] == 80
            assert sess.graph is not graph
            assert sess.graph.num_edges == graph.num_edges - 1

    @pytest.mark.parametrize(
        "engine_kwargs",
        [
            {"engine": "serial"},
            {"engine": "epoch", "workers": 2, "epoch_size": 64},
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
    that slack — structural for EXHAUST's fixed budget (0 exactly,
    except the epoch engine's round-up-to-epoch-boundary, where one
    epoch of slack is inherent: the surviving pool size is not an
    epoch multiple).  The adaptive stopping rules may legitimately
    halt at a different schedule entry on a different stream.
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
            {"engine": "serial"},
            {"engine": "epoch", "workers": 2, "epoch_size": 128},
        ],
        ids=["serial", "epoch"],
    )
    def test_adaalg_requery_matches_cold_run(self, engine_kwargs):
        _equivalence_case(AdaAlg, engine_kwargs, eps=0.6, gamma=0.1)

    def test_hedge_requery_matches_cold_run(self):
        _equivalence_case(Hedge, {"engine": "serial"}, eps=0.6, gamma=0.1)

    def test_centra_requery_matches_cold_run(self):
        _equivalence_case(CentRa, {"engine": "serial"}, eps=0.6, gamma=0.1)

    @pytest.mark.parametrize(
        "engine_kwargs, tolerance",
        [
            ({"engine": "serial"}, 0),
            ({"engine": "epoch", "workers": 2, "epoch_size": 128}, 128),
        ],
        ids=["serial", "epoch"],
    )
    def test_exhaust_requery_matches_cold_at_equal_samples(
        self, engine_kwargs, tolerance
    ):
        """EXHAUST's fixed budget makes the sample counts structurally
        equal, pinning the strictest form of the contract (the epoch
        engine gets one epoch of round-up slack)."""
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
        """A 1%-edge delta keeps well over 40% of the pool warm at
        touch radius 0 (endpoint-only invalidation)."""
        graph = barabasi_albert(200, 2, seed=3)
        rng = np.random.default_rng(5)
        update = _one_percent_update(graph, rng)
        with SamplingSession(graph, seed=7) as sess:
            sess.extend(500)
            delta = DeltaGraph(graph, touch_radius=0)
            touched = delta.apply(update)
            stats = sess.migrate(delta.compact(), touched)
        assert stats["surviving"] / 500 >= 0.4
