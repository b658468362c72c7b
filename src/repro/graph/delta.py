"""Dynamic graphs: validated edge-delta batches over the immutable CSR tier.

The package substrate (:class:`~repro.graph.csr.CSRGraph`) is
deliberately immutable — engines share it across processes, memory-map
it from disk, and traverse it millions of times.  This module adds the
mutable tier on top:

* :class:`GraphUpdate` — one batch of edge inserts / deletes / weight
  changes, parseable from a text delta file (:func:`read_delta_file`).
* :class:`DeltaGraph` — the current CSR snapshot plus a version
  counter.  :meth:`DeltaGraph.apply` validates a batch op by op,
  rebuilds the CSR once, and only then swaps the snapshot in, so a
  rejected batch changes nothing; :meth:`DeltaGraph.compact` returns
  the snapshot.
* :func:`arc_changes` — the arcs two snapshots disagree on, which the
  exact per-pair invalidation test of a sample pool
  (:mod:`repro.session.invalidation`) reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import GraphError
from .csr import CSRGraph
from .weighted import WeightedCSRGraph, from_weighted_edges

__all__ = ["DeltaGraph", "GraphUpdate", "read_delta_file"]


def _edge_array(edges, width: int, what: str) -> np.ndarray:
    arr = np.asarray(
        list(edges) if not isinstance(edges, np.ndarray) else edges
    )
    if arr.size == 0:
        return np.empty((0, width), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise GraphError(
            f"{what} must be an (k, {width}) integer array, got shape "
            f"{arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise GraphError(f"{what} must hold integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class GraphUpdate:
    """One batch of edge mutations applied atomically to a
    :class:`DeltaGraph`.

    Attributes
    ----------
    inserts:
        ``(k, 3)`` array of ``(u, v, w)`` rows; ``w`` is ignored on
        unweighted graphs (pass 1).
    deletes:
        ``(k, 2)`` array of ``(u, v)`` rows.
    reweights:
        ``(k, 3)`` array of ``(u, v, w)`` rows; weighted graphs only.
    """

    inserts: np.ndarray
    deletes: np.ndarray
    reweights: np.ndarray

    @classmethod
    def from_ops(cls, inserts=(), deletes=(), reweights=()) -> "GraphUpdate":
        """Build an update from any iterables of edge rows."""
        return cls(
            inserts=_edge_array(inserts, 3, "inserts"),
            deletes=_edge_array(deletes, 2, "deletes"),
            reweights=_edge_array(reweights, 3, "reweights"),
        )

    @property
    def num_ops(self) -> int:
        """Total number of edge mutations in the batch."""
        return (
            self.inserts.shape[0]
            + self.deletes.shape[0]
            + self.reweights.shape[0]
        )

    @property
    def is_empty(self) -> bool:
        return self.num_ops == 0

    def endpoints(self) -> np.ndarray:
        """Sorted unique node ids named by any op in the batch."""
        parts = [
            self.inserts[:, :2].ravel(),
            self.deletes.ravel(),
            self.reweights[:, :2].ravel(),
        ]
        return np.unique(np.concatenate(parts))


def read_delta_file(path: str) -> GraphUpdate:
    """Parse an edge-delta file into a :class:`GraphUpdate`.

    One op per line; ``#`` starts a comment, blank lines are skipped::

        + u v [w]   insert edge u-v (weight w, default 1)
        - u v       delete edge u-v
        = u v w     change the weight of edge u-v to w

    Raises :class:`~repro.exceptions.GraphError` on malformed lines,
    naming the line number.
    """
    inserts, deletes, reweights = [], [], []
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise GraphError(f"cannot read delta file {path!r}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        op, args = fields[0], fields[1:]
        try:
            ids = [int(a) for a in args]
        except ValueError:
            raise GraphError(
                f"{path}:{lineno}: non-integer field in {line!r}"
            )
        if op == "+" and len(ids) in (2, 3):
            inserts.append((ids[0], ids[1], ids[2] if len(ids) == 3 else 1))
        elif op == "-" and len(ids) == 2:
            deletes.append((ids[0], ids[1]))
        elif op == "=" and len(ids) == 3:
            reweights.append(tuple(ids))
        else:
            raise GraphError(
                f"{path}:{lineno}: expected '+ u v [w]', '- u v' or "
                f"'= u v w', got {line!r}"
            )
    return GraphUpdate.from_ops(inserts, deletes, reweights)


def _arc_position(graph: CSRGraph, u: int, v: int) -> int:
    """Index of arc ``u -> v`` in ``graph.indices``, or -1."""
    row = graph.neighbors(u)
    pos = int(np.searchsorted(row, v))
    if pos < row.size and int(row[pos]) == v:
        return int(graph.indptr[u]) + pos
    return -1


def _arcs(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Every arc of ``graph`` as a ``u * n + v`` key, with its weight
    (1 on unweighted graphs)."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.out_degrees())
    keys = src * graph.n + graph.indices.astype(np.int64)
    if isinstance(graph, WeightedCSRGraph):
        return keys, graph.weights.astype(np.int64)
    return keys, np.ones(keys.size, dtype=np.int64)


def arc_changes(old: CSRGraph, new: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """The arcs two graphs on one node universe disagree on.

    Returns ``(removed, added)``, each a ``(k, 3)`` array of
    ``(u, v, w)`` rows sorted by arc: ``removed`` holds the arcs deleted
    or made heavier, with their *old* weight; ``added`` the arcs
    inserted or made lighter, with their *new* weight.  Undirected
    graphs list each changed edge in both orientations, as their CSR
    stores it.
    """
    if old.n != new.n:
        raise GraphError(
            f"cannot compare graphs on different node universes "
            f"({old.n} vs {new.n})"
        )
    old_keys, old_w = _arcs(old)
    new_keys, new_w = _arcs(new)
    _, at_old, at_new = np.intersect1d(
        old_keys, new_keys, assume_unique=True, return_indices=True
    )
    gone = np.ones(old_keys.size, dtype=bool)
    gone[at_old] = False
    fresh = np.ones(new_keys.size, dtype=bool)
    fresh[at_new] = False
    gone[at_old[new_w[at_new] > old_w[at_old]]] = True
    fresh[at_new[new_w[at_new] < old_w[at_old]]] = True

    def rows(keys, weights, pick):
        keys, weights = keys[pick], weights[pick]
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
        return np.column_stack([keys // old.n, keys % old.n, weights])

    return rows(old_keys, old_w, gone), rows(new_keys, new_w, fresh)


class DeltaGraph:
    """A mutable graph: validated edge-delta batches over an immutable
    CSR snapshot.

    Parameters
    ----------
    base:
        The starting :class:`~repro.graph.csr.CSRGraph` or
        :class:`~repro.graph.weighted.WeightedCSRGraph` — the first
        snapshot.  The node universe is fixed; updates mutate edges
        only.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` hub; applied updates
        emit ``graph.delta.updates`` / ``graph.delta.edges_changed``.
    """

    def __init__(self, base: CSRGraph, *, telemetry=None):
        if isinstance(base, DeltaGraph):
            raise GraphError("cannot stack a DeltaGraph on a DeltaGraph")
        if not isinstance(base, CSRGraph):
            raise GraphError(
                f"DeltaGraph needs a CSRGraph base, got {type(base).__name__}"
            )
        self.base = base
        self._hub = None
        if telemetry is not None:
            from ..obs import as_telemetry  # local import avoids a cycle

            self._hub = as_telemetry(telemetry)
        #: Bumped once per applied update; never reset.
        self.version = 0

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def directed(self) -> bool:
        return self.base.directed

    @property
    def weighted(self) -> bool:
        return isinstance(self.base, WeightedCSRGraph)

    @property
    def num_edges(self) -> int:
        """Edge count of the current snapshot (undirected edges once)."""
        return self.base.num_edges

    # ------------------------------------------------------------------
    def _validated_changes(self, update: GraphUpdate) -> dict:
        """The batch as ``{arc: new weight, or None when deleted}``,
        checking each op against the snapshot plus the batch's earlier
        ops (both orientations are recorded for undirected graphs,
        mirroring the CSR layout)."""
        changes: dict[tuple[int, int], int | None] = {}

        def present(u: int, v: int) -> bool:
            if (u, v) in changes:
                return changes[(u, v)] is not None
            return _arc_position(self.base, u, v) >= 0

        def record(u: int, v: int, w: int | None) -> None:
            changes[(u, v)] = w
            if not self.directed:
                changes[(v, u)] = w

        def check(kind: str, u: int, v: int, w: int | None, exists: bool):
            if u == v:
                raise GraphError(f"self-loop ({u}, {u}) is not a valid edge")
            if w is not None and self.weighted and w < 1:
                raise GraphError(
                    f"edge weights must be positive integers, got {w} "
                    f"for ({u}, {v})"
                )
            if present(u, v) != exists:
                state = "already present" if not exists else "not present"
                raise GraphError(f"cannot {kind} edge ({u}, {v}): {state}")

        for u, v, w in update.inserts.tolist():
            check("insert", u, v, w, exists=False)
            record(u, v, w)
        for u, v in update.deletes.tolist():
            check("delete", u, v, None, exists=True)
            record(u, v, None)
        for u, v, w in update.reweights.tolist():
            if not self.weighted:
                raise GraphError(
                    f"cannot reweight edge ({u}, {v}): the base graph is "
                    "unweighted"
                )
            check("reweight", u, v, w, exists=True)
            record(u, v, w)
        return changes

    def _rebuild(self, changes: dict) -> CSRGraph:
        """A fresh CSR: the snapshot's arcs with ``changes`` applied."""
        base = self.base
        src = np.repeat(np.arange(base.n, dtype=np.int64), base.out_degrees())
        dst = base.indices.astype(np.int64)
        keep = np.ones(dst.size, dtype=bool)
        for u, v in changes:
            pos = _arc_position(base, u, v)
            if pos >= 0:
                keep[pos] = False
        added = np.array(
            [(u, v, w) for (u, v), w in changes.items() if w is not None],
            dtype=np.int64,
        ).reshape(-1, 3)
        if self.weighted:
            triples = np.column_stack([src[keep], dst[keep], base.weights[keep]])
            return from_weighted_edges(
                np.vstack([triples, added]), n=base.n, directed=base.directed
            )
        from .build import from_edges  # local import avoids a cycle

        pairs = np.column_stack([src[keep], dst[keep]])
        return from_edges(
            np.vstack([pairs, added[:, :2]]), n=base.n, directed=base.directed
        )

    def apply(self, update: GraphUpdate) -> CSRGraph:
        """Apply one update batch; returns the new snapshot.

        The batch is validated op by op against the snapshot plus its
        own earlier ops (inserting an existing edge, deleting or
        reweighting a missing one, out-of-range ids and self-loops all
        raise :class:`~repro.exceptions.GraphError`), then rebuilt into
        a fresh CSR.  Only a fully valid batch replaces the snapshot
        and bumps :attr:`version`; a rejected one changes nothing.  An
        empty batch returns the snapshot unchanged.
        """
        if update.is_empty:
            return self.base
        endpoints = update.endpoints()
        if endpoints[0] < 0 or endpoints[-1] >= self.n:
            bad = int(endpoints[0]) if endpoints[0] < 0 else int(endpoints[-1])
            raise GraphError(
                f"update names node {bad} outside the 0..{self.n - 1} "
                "node universe — updates mutate edges, never nodes"
            )
        self.base = self._rebuild(self._validated_changes(update))
        self.version += 1
        if self._hub is not None:
            self._hub.count("graph.delta.updates", 1)
            self._hub.count("graph.delta.edges_changed", update.num_ops)
        return self.base

    def compact(self) -> CSRGraph:
        """The current snapshot — every applied update is already in
        it."""
        return self.base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (
            f"DeltaGraph(n={self.n}, m={self.num_edges}, {kind}, "
            f"version={self.version})"
        )
