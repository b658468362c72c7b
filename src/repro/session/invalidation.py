"""The exact per-pair test: which stored samples a graph change stales.

A pool reused across a graph update must stay i.i.d. under the *new*
graph's law (a uniform ordered pair, then a uniform shortest path of
that pair).  A stored sample is still such a draw — with its stored
distance still right — exactly when neither its pair's set of shortest
paths nor its distance changed; every other sample is redrawn for the
same pair (:meth:`SamplingSession.migrate
<repro.session.SamplingSession.migrate>`).  With ``d_old``/``d_new``
the distances before and after, the set or distance of ``(s, t)``
changed iff

* a *removed* arc ``(u, v, w)`` — deleted, or made heavier, with its
  old weight ``w`` — lay on an old shortest path:
  ``d_old(s, u) + w + d_old(v, t) == d_old(s, t)``; or
* an *added* arc ``(u, v, w)`` — inserted, or made lighter, with its
  new weight — lies on a new path no longer than the old shortest:
  ``d_new(s, u) + w + d_new(v, t) <= d_old(s, t)``.

(If neither holds, every old shortest path survives intact, and any new
path of length ``<= d_old(s, t)`` uses only unchanged arcs, so it was
an old shortest path.  If one holds, a shortest path was lost or
lengthened, or a path through the added arc is at least as short as
the old ones — a new shortest path or a shorter distance.)  A null
sample has ``d_old = inf``: it is stale exactly when ``t`` becomes
reachable.  Undirected graphs list each changed edge in both
orientations, as their CSR does.

The distances come from one search per changed endpoint and graph —
into ``u`` (a reverse search) and out of ``v`` (a forward one) — read
only at the pool's sources and targets.  Hop distances use a
bit-parallel BFS that advances every root of a chunk one level per
step; weighted graphs run one Dijkstra per root.  Endpoints are taken
in chunks so a distance table stays within :data:`_TABLE_ENTRIES`, and
the test itself is vectorized across the pool.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.delta import arc_changes
from ..paths._dispatch import is_weighted
from ..paths.dijkstra import weighted_distances

__all__ = ["ExactInvalidation"]

#: Entries of one pool-node × endpoint distance table.
_TABLE_ENTRIES = 1 << 22

#: Entries of one sample × arc block of the vectorized test.
_BLOCK_ENTRIES = 1 << 16


def _hop_table(
    graph: CSRGraph,
    roots: np.ndarray,
    cols: np.ndarray,
    reverse: bool,
    depth: int | None,
) -> np.ndarray:
    """Hop distances ``d(root, col)`` — ``d(col, root)`` when
    ``reverse`` — as a ``(cols, roots)`` int32 table; ``-1`` where the
    col lies farther than ``depth`` (``None``: unreachable).

    Every node carries one bit per root; a level pulls the frontier
    bits of all roots across every arc at once (one gather and one
    OR-reduction per CSR row), so the cost is levels × arcs × roots/64
    words.
    """
    # a forward search reaches v from its in-neighbors, a reverse one
    # from its out-neighbors
    if reverse:
        indptr, indices = graph.indptr, graph.indices
    else:
        indptr, indices = graph.rev_indptr, graph.rev_indices
    k = roots.size
    frontier = np.zeros((graph.n, (k + 63) // 64), dtype=np.uint64)
    lanes = np.arange(k)
    np.bitwise_or.at(
        frontier,
        (roots, lanes // 64),
        np.left_shift(np.uint64(1), (lanes % 64).astype(np.uint64)),
    )
    seen = frontier.copy()
    rows = np.flatnonzero(np.diff(indptr) > 0)
    # a distance is the number of levels a col spends unreached
    table = np.zeros((cols.size, k), dtype=np.int32)
    level = 0
    while True:
        unseen = np.unpackbits(
            (~seen[cols]).astype("<u8").view(np.uint8),
            axis=1,
            count=k,
            bitorder="little",
        )
        if level == depth or not frontier.any():
            table[unseen.astype(bool)] = -1
            return table
        table += unseen
        level += 1
        reached = np.zeros_like(frontier)
        if rows.size:
            reached[rows] = np.bitwise_or.reduceat(
                frontier[indices], indptr[rows], axis=0
            )
        frontier = reached & ~seen
        seen |= frontier


def _distance_table(
    graph: CSRGraph,
    roots: np.ndarray,
    cols: np.ndarray,
    reverse: bool,
    depth: int | None,
) -> np.ndarray:
    """:func:`_hop_table` on any graph: weighted ones run one Dijkstra
    per root, to full depth."""
    if not is_weighted(graph):
        return _hop_table(graph, roots, cols, reverse, depth)
    return np.stack(
        [weighted_distances(graph, int(root), reverse=reverse)[cols] for root in roots],
        axis=1,
    ).reshape(cols.size, roots.size)


class ExactInvalidation:
    """The exact per-pair test for one change ``old -> new`` of a graph
    on a fixed node universe (see the module docstring).

    Attributes
    ----------
    removed, added:
        The changed arcs as ``(k, 3)`` ``(u, v, w)`` rows
        (:func:`~repro.graph.delta.arc_changes`).
    """

    def __init__(self, old: CSRGraph, new: CSRGraph):
        self.old = old
        self.new = new
        self.removed, self.added = arc_changes(old, new)

    def stale(self, sources, targets, distances) -> np.ndarray:
        """Boolean mask over the given samples: whose pair's shortest
        paths or distance changed.  ``distances`` are the old ones
        (``-1`` for a null sample); a sample with source ``-1`` (unknown
        pair) is always stale."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.int64)
        stale = sources < 0
        known = np.flatnonzero(~stale)
        if known.size == 0:
            return stale
        pool = (sources[known], targets[known], distances[known])
        hit = np.zeros(known.size, dtype=bool)
        for graph, arcs, on_old_graph in (
            (self.old, self.removed, True),
            (self.new, self.added, False),
        ):
            if arcs.shape[0]:
                hit |= self._test(graph, arcs, pool, on_old_graph)
        stale[known[hit]] = True
        return stale

    def _test(self, graph, arcs, pool, on_old_graph: bool) -> np.ndarray:
        sources, targets, distances = pool
        directed = graph.directed
        # the pool nodes the tables are read at: sources for d(s, u),
        # targets for d(v, t) (one set for both when undirected)
        if directed:
            into_cols, s_col = np.unique(sources, return_inverse=True)
            out_cols, t_col = np.unique(targets, return_inverse=True)
        else:
            into_cols, inverse = np.unique(
                np.concatenate([sources, targets]), return_inverse=True
            )
            out_cols = into_cols
            s_col, t_col = inverse[: sources.size], inverse[sources.size :]
            # one root set serves both orientations of an edge
            arcs = arcs[arcs[:, 0] < arcs[:, 1]]
        # d(s, u) + w + d(v, t) can only reach a finite d(s, t) when
        # d(s, u) < d(s, t): nothing farther matters, unless a null
        # sample may become reachable
        depth = None
        if on_old_graph or not (distances < 0).any():
            depth = max(int(distances.max()) - 1, 0)
        step = max(1, _TABLE_ENTRIES // ((1 if directed else 2) * into_cols.size))
        block = max(1, _BLOCK_ENTRIES // sources.size)
        hit = np.zeros(sources.size, dtype=bool)
        for lo in range(0, arcs.shape[0], step):
            u, v, w = arcs[lo : lo + step].T
            if directed:
                tails, u_row = np.unique(u, return_inverse=True)
                heads, v_row = np.unique(v, return_inverse=True)
                into = _distance_table(graph, tails, into_cols, True, depth)
                out = _distance_table(graph, heads, out_cols, False, depth)
            else:
                ends, inverse = np.unique(np.concatenate([u, v]), return_inverse=True)
                u_row = np.concatenate([inverse[: u.size], inverse[u.size :]])
                v_row = np.concatenate([inverse[u.size :], inverse[: u.size]])
                w = np.concatenate([w, w])
                into = out = _distance_table(graph, ends, into_cols, False, depth)
            # hop tables are int32: keep the sums in the table's width
            w = w.astype(into.dtype)
            bound = distances.astype(into.dtype)[:, None]
            for b in range(0, u_row.size, block):
                d_su = into[:, u_row[b : b + block]][s_col]
                d_vt = out[:, v_row[b : b + block]][t_col]
                via = d_su + w[b : b + block] + d_vt
                if on_old_graph:
                    changed = via == bound
                else:
                    changed = (via <= bound) | (bound < 0)
                hit |= (changed & (d_su >= 0) & (d_vt >= 0)).any(axis=1)
        return hit
