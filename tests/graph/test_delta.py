"""Tests for the dynamic-graph tier (:mod:`repro.graph.delta`).

The load-bearing properties: after any sequence of inserts, deletes,
and reweights, the snapshot ``compact()`` returns is bit-identical to
a from-scratch build of the same edge set, the arc changes
``arc_changes()`` reports between two snapshots match ones computed
independently from their edge sets, and a rejected batch changes
nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import (
    DeltaGraph,
    GraphUpdate,
    arc_changes,
    barabasi_albert,
    from_edges,
    from_weighted_edges,
    read_delta_file,
)
from repro.obs import Telemetry


def _edge_set(graph) -> set[tuple[int, int]]:
    """Undirected edge set ``{(u, v): u < v}`` of a CSR graph."""
    edges = set()
    for u in range(graph.n):
        for v in graph.neighbors(u):
            edges.add((min(u, int(v)), max(u, int(v))))
    return edges


def _assert_csr_identical(graph, reference):
    assert graph.num_edges == reference.num_edges
    np.testing.assert_array_equal(graph.indptr, reference.indptr)
    np.testing.assert_array_equal(graph.indices, reference.indices)
    assert graph.indices.dtype == reference.indices.dtype
    if getattr(reference, "weights", None) is not None:
        np.testing.assert_array_equal(graph.weights, reference.weights)


def _reference_changes(old, new):
    """``(removed, added)`` as sorted ``(u, v, w)`` lists, from Python
    dicts of both graphs' arcs — written independently of the module's
    vectorized diff."""

    def arcs(graph):
        weights = getattr(graph, "weights", None)
        return {
            (u, int(v)): int(weights[graph.indptr[u] + i]) if weights is not None else 1
            for u in range(graph.n)
            for i, v in enumerate(graph.neighbors(u))
        }

    before, after = arcs(old), arcs(new)
    removed = sorted(
        (u, v, w) for (u, v), w in before.items() if after.get((u, v), w + 1) > w
    )
    added = sorted(
        (u, v, w) for (u, v), w in after.items() if before.get((u, v), w + 1) > w
    )
    return removed, added


def _assert_changes_match(old, new):
    removed, added = arc_changes(old, new)
    assert (removed.tolist(), added.tolist()) == tuple(
        [list(row) for row in rows] for rows in _reference_changes(old, new)
    )


class TestGraphUpdate:
    def test_from_ops_and_counts(self):
        update = GraphUpdate.from_ops(
            inserts=[(0, 1, 1)], deletes=[(2, 3)], reweights=[(4, 5, 9)]
        )
        assert update.num_ops == 3
        assert not update.is_empty
        np.testing.assert_array_equal(
            update.endpoints(), np.arange(6, dtype=np.int64)
        )

    def test_empty_update(self):
        assert GraphUpdate.from_ops().is_empty

    def test_bad_shapes_rejected(self):
        with pytest.raises(GraphError):
            GraphUpdate.from_ops(inserts=[(0, 1)])  # missing weight column
        with pytest.raises(GraphError):
            GraphUpdate.from_ops(deletes=[(0, 1, 2)])

    def test_non_integer_rejected(self):
        with pytest.raises(GraphError):
            GraphUpdate.from_ops(deletes=np.array([[0.5, 1.0]]))


class TestDeltaFileParser:
    def test_parses_all_op_kinds(self, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text(
            "# comment line\n"
            "+ 0 1\n"
            "+ 2 3 7   # weighted insert\n"
            "\n"
            "- 4 5\n"
            "= 6 7 9\n"
        )
        update = read_delta_file(str(path))
        np.testing.assert_array_equal(
            update.inserts, np.array([[0, 1, 1], [2, 3, 7]], dtype=np.int64)
        )
        np.testing.assert_array_equal(
            update.deletes, np.array([[4, 5]], dtype=np.int64)
        )
        np.testing.assert_array_equal(
            update.reweights, np.array([[6, 7, 9]], dtype=np.int64)
        )

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text("+ 0 1\n* 2 3\n")
        with pytest.raises(GraphError, match=r":2:"):
            read_delta_file(str(path))

    def test_non_integer_field_rejected(self, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text("+ 0 x\n")
        with pytest.raises(GraphError, match="non-integer"):
            read_delta_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="cannot read"):
            read_delta_file(str(tmp_path / "nope.txt"))


class TestOverlaySemantics:
    def test_insert_merges_sorted(self):
        base = from_edges([(0, 1), (0, 3)], n=5)
        delta = DeltaGraph(base)
        delta.apply(GraphUpdate.from_ops(inserts=[(0, 2, 1), (2, 4, 1)]))
        graph = delta.compact()
        np.testing.assert_array_equal(graph.neighbors(0), [1, 2, 3])
        np.testing.assert_array_equal(graph.neighbors(2), [0, 4])
        assert graph.has_edge(0, 2) and graph.has_edge(2, 0)
        assert delta.version == 1 and delta.base is not base

    def test_delete_masks_base_row(self):
        base = from_edges([(0, 1), (0, 2), (0, 3)], n=4)
        delta = DeltaGraph(base)
        delta.apply(GraphUpdate.from_ops(deletes=[(0, 2)]))
        graph = delta.compact()
        np.testing.assert_array_equal(graph.neighbors(0), [1, 3])
        assert not graph.has_edge(2, 0)
        assert delta.num_edges == 2

    def test_reinsert_after_delete(self):
        base = from_edges([(0, 1), (1, 2)], n=3)
        delta = DeltaGraph(base)
        delta.apply(GraphUpdate.from_ops(deletes=[(0, 1)]))
        delta.apply(GraphUpdate.from_ops(inserts=[(0, 1, 1)]))
        _assert_csr_identical(delta.compact(), base)
        # the same round trip inside one batch: inserts run first
        delta.apply(GraphUpdate.from_ops(inserts=[(0, 2, 1)], deletes=[(0, 2)]))
        _assert_csr_identical(delta.compact(), base)

    def test_delete_of_inserted_edge(self):
        base = from_edges([(0, 1)], n=3)
        delta = DeltaGraph(base)
        delta.apply(GraphUpdate.from_ops(inserts=[(1, 2, 1)]))
        delta.apply(GraphUpdate.from_ops(deletes=[(1, 2)]))
        _assert_csr_identical(delta.compact(), base)

    def test_invalid_ops_rejected(self):
        base = from_edges([(0, 1)], n=3)
        delta = DeltaGraph(base)
        with pytest.raises(GraphError, match="already present"):
            delta.apply(GraphUpdate.from_ops(inserts=[(1, 0, 1)]))
        with pytest.raises(GraphError, match="not present"):
            delta.apply(GraphUpdate.from_ops(deletes=[(0, 2)]))
        with pytest.raises(GraphError, match="unweighted"):
            delta.apply(GraphUpdate.from_ops(reweights=[(0, 1, 5)]))
        with pytest.raises(GraphError, match="node universe"):
            delta.apply(GraphUpdate.from_ops(inserts=[(0, 9, 1)]))
        with pytest.raises(GraphError, match="self-loop"):
            delta.apply(GraphUpdate.from_ops(inserts=[(2, 2, 1)]))
        # a rejected batch must not have bumped the version
        assert delta.version == 0 and delta.compact() is base

    def test_stacking_overlays_rejected(self):
        delta = DeltaGraph(from_edges([(0, 1)], n=2))
        with pytest.raises(GraphError, match="stack"):
            DeltaGraph(delta)


class TestSnapshots:
    def test_clean_overlay_hands_out_base(self):
        base = from_edges([(0, 1)], n=2)
        delta = DeltaGraph(base)
        assert delta.compact() is base
        assert delta.apply(GraphUpdate.from_ops()) is base
        assert delta.compact() is base and delta.version == 0

    def test_rejected_batch_leaves_snapshot_unchanged(self):
        """A valid op followed by an invalid one in the same batch: the
        valid op must not leak into the snapshot."""
        base = from_edges([(0, 1), (1, 2)], n=4)
        delta = DeltaGraph(base)
        with pytest.raises(GraphError, match="not present"):
            delta.apply(
                GraphUpdate.from_ops(inserts=[(0, 3, 1)], deletes=[(2, 3)])
            )
        assert delta.compact() is base
        assert delta.num_edges == 2
        assert delta.version == 0

    def test_apply_swaps_snapshot_and_bumps_version(self):
        delta = DeltaGraph(from_edges([(0, 1), (1, 2)], n=3))
        first = delta.compact()
        delta.apply(GraphUpdate.from_ops(inserts=[(0, 2, 1)]))
        second = delta.compact()
        delta.apply(GraphUpdate.from_ops(deletes=[(1, 2)]))
        assert delta.version == 2
        assert first.num_edges == 2 and second.num_edges == 3
        _assert_csr_identical(delta.compact(), from_edges([(0, 1), (0, 2)], n=3))


class TestArcChanges:
    def test_delete_and_insert_split_by_kind(self):
        """A delete is a removed arc and an insert an added one — both
        orientations on an undirected graph — and ``apply`` returns the
        new snapshot."""
        old = from_edges([(0, 1), (1, 2), (2, 3)], n=4)
        new = DeltaGraph(old).apply(
            GraphUpdate.from_ops(inserts=[(0, 3, 1)], deletes=[(1, 2)])
        )
        removed, added = arc_changes(old, new)
        assert removed.tolist() == [[1, 2, 1], [2, 1, 1]]
        assert added.tolist() == [[0, 3, 1], [3, 0, 1]]

    def test_reweights_split_by_direction(self):
        """A heavier arc is removed at its old weight, a lighter one
        added at its new weight; an unchanged weight is no change."""
        old = from_weighted_edges([(0, 1, 3), (1, 2, 3), (2, 3, 3)], n=4)
        new = DeltaGraph(old).apply(
            GraphUpdate.from_ops(reweights=[(0, 1, 5), (1, 2, 1), (2, 3, 3)])
        )
        removed, added = arc_changes(old, new)
        assert removed.tolist() == [[0, 1, 3], [1, 0, 3]]
        assert added.tolist() == [[1, 2, 1], [2, 1, 1]]
        assert [rows.size for rows in arc_changes(old, old)] == [0, 0]

    def test_directed_changes_keep_orientation(self):
        graph = from_edges([(0, 1), (1, 2), (3, 1)], n=5, directed=True)
        new = DeltaGraph(graph).apply(
            GraphUpdate.from_ops(inserts=[(1, 4, 1)], deletes=[(3, 1)])
        )
        removed, added = arc_changes(graph, new)
        assert removed.tolist() == [[3, 1, 1]]
        assert added.tolist() == [[1, 4, 1]]
        _assert_changes_match(graph, new)
        with pytest.raises(GraphError, match="node universes"):
            arc_changes(graph, from_edges([(0, 1)], n=4, directed=True))


class TestRandomSequencesMatchFromScratch:
    """The property: after every ``apply``, the snapshot equals a
    from-scratch rebuild and the arc changes equal the reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unweighted_random_sequence(self, seed):
        for repeat in range(3):
            rng = np.random.default_rng([seed, repeat])
            base = barabasi_albert(40, 2, seed=seed)
            delta = DeltaGraph(base, telemetry=Telemetry())
            edges = _edge_set(base)
            for _round in range(6):
                inserts, deletes = [], []
                for _ in range(rng.integers(1, 4)):
                    if edges and rng.random() < 0.5:
                        u, v = sorted(edges)[rng.integers(len(edges))]
                        edges.discard((u, v))
                        deletes.append((u, v))
                    else:
                        while True:
                            u, v = sorted(rng.choice(40, size=2, replace=False))
                            if (u, v) not in edges:
                                break
                        edges.add((int(u), int(v)))
                        inserts.append((int(u), int(v), 1))
                update = GraphUpdate.from_ops(inserts, deletes)
                old = delta.compact()
                new = delta.apply(update)
                assert new is delta.compact()
                _assert_csr_identical(new, from_edges(sorted(edges), n=40))
                _assert_changes_match(old, new)
            assert delta.version == 6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weighted_random_sequence(self, seed):
        for repeat in range(3):
            rng = np.random.default_rng([100 + seed, repeat])
            weights = {}
            for _ in range(60):
                u, v = sorted(rng.choice(25, size=2, replace=False))
                weights[(int(u), int(v))] = int(rng.integers(1, 10))
            base = from_weighted_edges(
                [(u, v, w) for (u, v), w in sorted(weights.items())], n=25
            )
            delta = DeltaGraph(base)
            for _round in range(5):
                inserts, deletes, reweights = [], [], []
                for _ in range(rng.integers(1, 4)):
                    roll = rng.random()
                    if weights and roll < 0.35:
                        u, v = sorted(weights)[rng.integers(len(weights))]
                        del weights[(u, v)]
                        deletes.append((u, v))
                    elif weights and roll < 0.7:
                        u, v = sorted(weights)[rng.integers(len(weights))]
                        weights[(u, v)] = int(rng.integers(1, 10))
                        reweights.append((u, v, weights[(u, v)]))
                    else:
                        while True:
                            u, v = sorted(rng.choice(25, size=2, replace=False))
                            if (u, v) not in weights:
                                break
                        weights[(int(u), int(v))] = int(rng.integers(1, 10))
                        inserts.append((int(u), int(v), weights[(u, v)]))
                update = GraphUpdate.from_ops(inserts, deletes, reweights)
                old = delta.compact()
                new = delta.apply(update)
                reference = from_weighted_edges(
                    [(u, v, w) for (u, v), w in sorted(weights.items())], n=25
                )
                _assert_csr_identical(new, reference)
                _assert_changes_match(old, new)

    def test_weighted_reweight_guards(self):
        base = from_weighted_edges([(0, 1, 3)], n=3)
        delta = DeltaGraph(base)
        with pytest.raises(GraphError, match="not present"):
            delta.apply(GraphUpdate.from_ops(reweights=[(0, 2, 5)]))
        with pytest.raises(GraphError, match="positive"):
            delta.apply(GraphUpdate.from_ops(reweights=[(0, 1, 0)]))
        delta.apply(GraphUpdate.from_ops(reweights=[(0, 1, 7)]))
        np.testing.assert_array_equal(delta.compact().neighbor_weights(0), [7])
        np.testing.assert_array_equal(delta.compact().neighbor_weights(1), [7])


class TestTelemetry:
    def test_counters_emitted(self):
        hub = Telemetry()
        delta = DeltaGraph(from_edges([(0, 1), (1, 2)], n=4), telemetry=hub)
        delta.apply(GraphUpdate.from_ops(inserts=[(0, 3, 1)]))
        delta.compact()
        assert hub.counters["graph.delta.updates"] == 1
        assert hub.counters["graph.delta.edges_changed"] == 1
