"""Tests for the dynamic-graph tier (:mod:`repro.graph.delta`).

The load-bearing properties: after any sequence of inserts, deletes,
and reweights, the snapshot ``compact()`` returns is bit-identical to
a from-scratch build of the same edge set, the frontier ``apply()``
returns matches one computed independently from the old and new CSRs,
and a rejected batch changes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import (
    DeltaGraph,
    GraphUpdate,
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


def _reference_frontier(old, new, update, radius):
    """Breadth-first expansion over Python sets of the old and new
    adjacency — written independently of the module's vectorized one."""
    adjacency = {
        v: {int(x) for x in old.neighbors(v)} | {int(x) for x in new.neighbors(v)}
        for v in range(old.n)
    }
    touched = {int(x) for x in update.inserts[:, :2].ravel()}
    touched |= {int(x) for x in update.deletes.ravel()}
    touched |= {int(x) for x in update.reweights[:, :2].ravel()}
    layer = set(touched)
    for _ in range(radius):
        layer = {x for v in layer for x in adjacency[v]} - touched
        touched |= layer
    return sorted(touched)


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
        assert delta.apply(GraphUpdate.from_ops()).size == 0
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


class TestTouchedFrontier:
    def test_radius_zero_is_endpoints_only(self):
        delta = DeltaGraph(
            from_edges([(0, 1), (1, 2), (2, 3)], n=4), touch_radius=0
        )
        touched = delta.apply(GraphUpdate.from_ops(deletes=[(1, 2)]))
        np.testing.assert_array_equal(touched, [1, 2])

    def test_radius_one_covers_pre_and_post_neighborhoods(self):
        # deleting (1, 2) must still reach 2's old neighbor 3 AND the
        # endpoints' surviving neighbors
        delta = DeltaGraph(from_edges([(0, 1), (1, 2), (2, 3)], n=5))
        touched = delta.apply(GraphUpdate.from_ops(deletes=[(1, 2)]))
        np.testing.assert_array_equal(touched, [0, 1, 2, 3])

    def test_directed_frontier_follows_out_rows(self):
        graph = from_edges([(0, 1), (1, 2), (3, 1)], n=5, directed=True)
        delta = DeltaGraph(graph, touch_radius=2)
        update = GraphUpdate.from_ops(inserts=[(1, 4, 1)])
        touched = delta.apply(update)
        assert touched.tolist() == _reference_frontier(
            graph, delta.compact(), update, 2
        )
        assert touched.tolist() == [1, 2, 4]


class TestRandomSequencesMatchFromScratch:
    """The property: after every ``apply``, the snapshot equals a
    from-scratch rebuild and the frontier equals the reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unweighted_random_sequence(self, seed):
        for radius in (0, 1, 2):
            rng = np.random.default_rng(seed)
            base = barabasi_albert(40, 2, seed=seed)
            delta = DeltaGraph(base, touch_radius=radius, telemetry=Telemetry())
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
                touched = delta.apply(update)
                new = delta.compact()
                _assert_csr_identical(new, from_edges(sorted(edges), n=40))
                assert touched.tolist() == _reference_frontier(
                    old, new, update, radius
                )
            assert delta.version == 6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_weighted_random_sequence(self, seed):
        for radius in (0, 1, 2):
            rng = np.random.default_rng(100 + seed)
            weights = {}
            for _ in range(60):
                u, v = sorted(rng.choice(25, size=2, replace=False))
                weights[(int(u), int(v))] = int(rng.integers(1, 10))
            base = from_weighted_edges(
                [(u, v, w) for (u, v), w in sorted(weights.items())], n=25
            )
            delta = DeltaGraph(base, touch_radius=radius)
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
                touched = delta.apply(update)
                new = delta.compact()
                reference = from_weighted_edges(
                    [(u, v, w) for (u, v), w in sorted(weights.items())], n=25
                )
                _assert_csr_identical(new, reference)
                assert touched.tolist() == _reference_frontier(
                    old, new, update, radius
                )

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
        assert hub.counters["graph.delta.touched_nodes"] > 0
