"""Exact sample reuse under mutation, checked by brute force.

A migrated pool must be an i.i.d. pool of the *mutated* graph's law:
every sample a uniform ordered pair, then a uniform shortest path of
that pair.  These tests enumerate every shortest path of small graphs
before and after a random mixed delta and check

* soundness: a kept sample's pair has the same shortest paths and
  distance as before, a redrawn one is a shortest path of the new
  graph for the same pair, and exactly the changed pairs are redrawn;
* the law: the post-mutate pool's (pair, path) frequencies pass a
  chi-square test against the new graph's law and against a cold pool;
* cold equality: a redrawn sample ``i`` is exactly the cold sample
  ``i`` of the mutated graph, and every kept sample has its pair;
* null pairs: a pair that becomes connected never keeps its stale
  "unreachable" sample;
* checkpoints: checkpoint → mutate → resume is bit-identical, and a
  checkpoint without the pair columns resumes and redraws its pool.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.graph import GraphUpdate, from_edges
from repro.paths import PathSampler
from repro.session import ExactInvalidation, SamplingSession

from brute_force import path_length, random_graph, random_update, shortest_path_sets

_KINDS = {
    "undirected": (False, False),
    "directed": (True, False),
    "weighted": (False, True),
    "weighted-directed": (True, True),
}


def _pool(store):
    """``[(s, t, distance, node set)]`` of every stored sample."""
    sources, targets, distances = store.pairs()
    return [
        (int(s), int(t), int(d), tuple(store.path(i).tolist()))
        for i, (s, t, d) in enumerate(zip(sources, targets, distances))
    ]


def _node_sets(paths):
    return {tuple(sorted(path)) for path in paths}


class TestSoundness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_kept_unchanged_redrawn_shortest(self, kind, seed):
        directed, weighted = _KINDS[kind]
        rng = np.random.default_rng([seed, 7])
        old = random_graph(rng, 10, 18, directed, weighted)
        update = random_update(rng, old, 3)
        with SamplingSession(old, lanes=2, seed=seed) as session:
            session.extend(300, lane=0)
            session.extend(150, lane=1)
            before = [_pool(store) for store in session.stores]
            result = session.apply_update(update)
            new = session.graph
            after = [_pool(store) for store in session.stores]
        old_sets, new_sets = shortest_path_sets(old), shortest_path_sets(new)
        changed = 0
        for lane_before, lane_after in zip(before, after):
            assert len(lane_before) == len(lane_after)
            for (s, t, d, nodes), (s2, t2, d2, nodes2) in zip(
                lane_before, lane_after
            ):
                assert (s, t) == (s2, t2)
                d_new = path_length(new, new_sets[(s, t)])
                if (old_sets[(s, t)], d) == (new_sets[(s, t)], d_new):
                    assert (d2, nodes2) == (d, nodes)
                    continue
                changed += 1
                assert d2 == d_new
                if new_sets[(s, t)]:
                    assert nodes2 in _node_sets(new_sets[(s, t)])
                else:
                    assert nodes2 == ()
        assert result["invalidated"] == result["redrawn"] == changed
        assert result["tested"] == 450
        assert result["surviving"] == 450 - changed


class TestColdEquality:
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_redrawn_samples_are_the_cold_samples(self, kind):
        """Every redrawn sample ``i`` equals ``sample_cohort([i])`` of
        its lane's stream on the mutated graph; a kept sample keeps the
        pair of the cold sample ``i`` (its path may differ only where
        the search's cut level moved)."""
        directed, weighted = _KINDS[kind]
        rng = np.random.default_rng([3, 7])
        old = random_graph(rng, 12, 22, directed, weighted)
        update = random_update(rng, old, 4)
        with SamplingSession(old, lanes=2, seed=8) as session:
            session.extend(200, lane=0)
            session.extend(120, lane=1)
            before = [_pool(store) for store in session.stores]
            result = session.apply_update(update)
            redrawn = 0
            for lane, (engine, store) in enumerate(
                zip(session.engines, session.stores)
            ):
                cold = PathSampler(session.graph, seed=engine.key)
                for i, (sample, kept) in enumerate(
                    zip(_pool(store), before[lane])
                ):
                    want = cold.sample_cohort([i])
                    assert sample[:2] == (want.sources[0], want.targets[0])
                    if sample != kept:
                        redrawn += 1
                        assert sample[2] == want.distances[0]
                        assert sample[3] == tuple(np.unique(want.nodes).tolist())
        assert redrawn > 0
        assert redrawn <= result["redrawn"]


class TestLaw:
    def test_post_mutate_pool_follows_new_law(self):
        """Chi-square over (pair, path) cells: the migrated pool against
        the mutated graph's exact law, and against a cold pool."""
        # a 7-node graph with several multi-path pairs; the delta
        # removes a chord and adds another, changing many pairs
        old = from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3),
             (1, 5)],
            n=7,
        )
        update = GraphUpdate.from_ops(inserts=[(2, 6, 1)], deletes=[(0, 3)])
        draws = 14_000
        with SamplingSession(old, seed=11) as session:
            session.extend(draws)
            result = session.apply_update(update)
            new = session.graph
            migrated = _pool(session.store(0))
        assert 0.2 < result["invalidated"] / draws < 0.8
        with SamplingSession(new, seed=12) as cold_session:
            cold_session.extend(draws)
            cold = _pool(cold_session.store(0))

        sets = shortest_path_sets(new)
        pairs = new.n * (new.n - 1)
        cells = {
            (s, t, nodes): 1.0 / (pairs * len(paths))
            for (s, t), paths in sets.items()
            for nodes in _node_sets(paths)
        }

        def counts(pool):
            tally = dict.fromkeys(cells, 0)
            for s, t, _, nodes in pool:
                tally[(s, t, nodes)] += 1  # a KeyError is a wrong path
            return np.array([tally[cell] for cell in cells])

        observed = counts(migrated)
        expected = draws * np.array(list(cells.values()))
        assert stats.chisquare(observed, expected).pvalue > 1e-3
        table = np.vstack([observed, counts(cold)])
        assert stats.chi2_contingency(table).pvalue > 1e-3


class TestNullPairs:
    def test_connecting_insert_redraws_unreachable_samples(self):
        """Two components joined by one insert: every stale "unreachable"
        sample is redrawn as a real path, and nothing else moves."""
        old = from_edges([(0, 1), (1, 2), (3, 4), (4, 5)], n=6)
        with SamplingSession(old, seed=3) as session:
            session.extend(400)
            nulls = int((session.store(0).pairs()[2] < 0).sum())
            assert nulls > 100
            result = session.apply_update(GraphUpdate.from_ops(inserts=[(2, 3, 1)]))
            pool = _pool(session.store(0))
        assert result["invalidated"] == nulls
        assert all(d >= 0 and len(nodes) == d + 1 for _, _, d, nodes in pool)

    def test_unknown_pairs_always_stale(self):
        old = from_edges([(0, 1), (1, 2)], n=3)
        test = ExactInvalidation(old, old)
        stale = test.stale([-1, 0, 1], [-1, 2, 0], [-1, 2, 1])
        assert stale.tolist() == [True, False, False]


_ENGINES = [{"workers": 0}, {"workers": 1}]


def _update_for(graph):
    rng = np.random.default_rng(4)
    return random_update(rng, graph, 3)


class TestCheckpoints:
    @pytest.mark.parametrize("engine", _ENGINES, ids=["serial", "epoch"])
    def test_checkpoint_mutate_resume_bit_identical(self, engine, tmp_path):
        """A checkpoint taken before a mutation, resumed and mutated the
        same way, continues bit-identically to the live session — the
        redraws and the stream after them included."""
        graph = random_graph(np.random.default_rng(9), 40, 90, False, False)
        update = _update_for(graph)
        path = str(tmp_path / "before.npz")
        with SamplingSession(graph, lanes=2, seed=5, **engine) as live:
            live.extend(256, lane=0)
            live.extend(128, lane=1)
            live.checkpoint(path)
            live_stats = live.apply_update(update)
            live.extend(512, lane=0)
            ours = [store.export_arrays() for store in live.stores]
            ours_state = [e.rng_state() for e in live.engines]
        thawed, _ = SamplingSession.resume(path, graph)
        with thawed:
            assert thawed.apply_update(update) == live_stats
            thawed.extend(512, lane=0)
            theirs = [store.export_arrays() for store in thawed.stores]
            assert [e.rng_state() for e in thawed.engines] == ours_state
        assert live_stats["invalidated"] > 0
        for mine, other in zip(ours, theirs):
            assert sorted(mine) == sorted(other)
            for key in mine:
                np.testing.assert_array_equal(mine[key], other[key])

    @pytest.mark.parametrize("engine", _ENGINES, ids=["serial", "epoch"])
    def test_checkpoint_without_pair_columns(self, engine, tmp_path):
        """A checkpoint from before the pair columns resumes, continues
        its stream unchanged, and a mutation on it redraws the whole
        pool (each sample ``i`` as the cold sample ``i``) into a valid
        new pool."""
        graph = random_graph(np.random.default_rng(9), 40, 90, False, False)
        path = str(tmp_path / "full.npz")
        legacy = str(tmp_path / "legacy.npz")
        with SamplingSession(graph, seed=5, **engine) as session:
            session.extend(192)
            session.checkpoint(path)
        with np.load(path) as payload:
            arrays = {
                key: payload[key]
                for key in payload.files
                if not key.endswith(("_sources", "_targets", "_distances"))
            }
        np.savez_compressed(legacy, **arrays)

        full, _ = SamplingSession.resume(path, graph)
        old, _ = SamplingSession.resume(legacy, graph)
        with full, old:
            assert (old.store(0).pairs()[0] == -1).all()
            full.extend(320)
            old.extend(320)
            np.testing.assert_array_equal(
                old.store(0).export_arrays()["flat"],
                full.store(0).export_arrays()["flat"],
            )
            result = old.apply_update(_update_for(graph))
            assert result["invalidated"] == 192 + int(
                ExactInvalidation(graph, old.graph)
                .stale(*(column[192:] for column in full.store(0).pairs()))
                .sum()
            )
            sets = shortest_path_sets(old.graph)
            for s, t, d, nodes in _pool(old.store(0)):
                assert s >= 0 and d == path_length(old.graph, sets[(s, t)])
                assert (nodes in _node_sets(sets[(s, t)])) if d >= 0 else nodes == ()


class TestRedrawStream:
    _IDS = np.array([0, 5, 17, 3, 199, 64])

    @pytest.mark.parametrize("engine", _ENGINES, ids=["serial", "epoch"])
    def test_deterministic_and_checkpointable(self, engine):
        """A redraw is the cold draw of its indices: the same for equal
        keys, not counted, and leaving the stream state untouched."""
        from repro.engine import create_engine

        graph = random_graph(np.random.default_rng(9), 40, 90, False, False)
        with create_engine(graph, seed=1, **engine) as first:
            state = first.rng_state()
            a = first.redraw(self._IDS)
            assert first.rng_state() == state  # checkpoints see no change
            assert first.stats.samples == 0  # redraws are not draws
            b = first.redraw(self._IDS)
        cold = PathSampler(graph, seed=1).sample_cohort(self._IDS)
        for got in (a, b):
            np.testing.assert_array_equal(got.sources, cold.sources)
            np.testing.assert_array_equal(got.nodes, cold.nodes)

    def test_epoch_cursor_untouched(self):
        """Redraws never move the cursor: the stream after a redraw is
        the one a fresh engine draws."""
        from repro.engine import EpochEngine

        graph = random_graph(np.random.default_rng(9), 40, 90, False, False)
        redrawn = EpochEngine(graph, seed=4, workers=0)
        fresh = EpochEngine(graph, seed=4, workers=0)
        redrawn.redraw(self._IDS)
        assert redrawn.rng_state()["cursor"] == 0
        np.testing.assert_array_equal(redrawn.draw(96).nodes, fresh.draw(96).nodes)

    def test_lanes_redraw_independently(self):
        graph = random_graph(np.random.default_rng(9), 40, 90, False, False)
        with SamplingSession(graph, lanes=2, seed=6) as session:
            a, b = (engine.redraw(np.arange(200)) for engine in session.engines)
        assert not np.array_equal(a.sources, b.sources)
