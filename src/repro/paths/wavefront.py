"""Vectorized multi-query bidirectional BFS — the wavefront kernel.

:func:`repro.paths.bidirectional.bidirectional_search` answers one
(s, t) query per call, and on sparse graphs its per-level frontiers are
tiny — often a handful of nodes — so the fixed cost of every numpy call
(and the Python loop around it) dominates the actual traversal work.
This module amortizes those constants across a whole *cohort* of
independent queries: the per-query frontiers are stacked into flat
``(query, node)`` arrays, one ``indptr``/``indices`` gather expands
every forward (resp. backward) frontier of the cohort at once, and a
single ``bincount`` folds the sigma contributions of all queries per
round.  This is the batching idea behind KADABRA's multi-sample
traversals and the near-zero-synchronization MPI engines of van der
Grinten & Meyerhenke, applied to the balanced bidirectional search of
Sec. III-D of the paper.

Bit-identity contract
---------------------

The kernel is a drop-in replacement for the scalar search; for every
query it reproduces :func:`bidirectional_search` exactly:

* the same balanced-side choice each round — every active query
  compares its two frontiers' pending arc counts, precisely the scalar
  loop's ``pending_work`` test, and expands exactly one side per round;
* bit-identical float64 ``sigma`` values — a node's count is folded in
  the round it is discovered, starting from exactly ``0.0``, with arc
  contributions consumed in the same (frontier-node, CSR-position)
  order as the scalar ``np.add.at``, so the floating-point sums agree
  to the last bit;
* the same ``distance``, separator ``cut_level``/``cut_nodes``/
  ``cut_weights``, ``sigma_st`` and per-query ``edges_explored`` (the
  work of proving unreachability included).

Memory
------

Only the queries in flight hold dense state: two ``(cohort_size, n)``
float64 sigma planes, where ``0.0`` marks an undiscovered node.  A
caller that searches repeatedly can pass the planes in (``planes=``)
and keep them across calls: every search leaves them all-zero again.  Each
slot remembers the nodes it discovered, level by level, so a retiring
query hands its discovered nodes (with their distance and sigma) to
the result as *sparse* state and resets exactly those plane entries —
no length-``n`` row is copied or refilled per query.  The result keeps
``O(nodes discovered)`` per reachable query, and the sampler resolves
its draws in bounded chunks, so a draw's memory follows the samples
drawn, not ``n``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from .bfs import cohort_neighbors
from .bidirectional import BidirectionalResult

__all__ = ["DEFAULT_COHORT", "WavefrontResults", "wavefront_search"]

#: Queries sharing the stacked sigma planes at any moment.  32 slots
#: (two length-``n`` float64 rows each) resolve draws as fast as 64 on
#: graphs in the 10^3..10^4-node range at half the plane memory.
DEFAULT_COHORT = 32

_FORWARD, _BACKWARD = 0, 1


class WavefrontResults(Sequence):
    """The outcome of one :func:`wavefront_search` call, query-indexed.

    Per-query columns (``distance == -1`` marks an unreachable pair):
    ``sources``, ``targets``, ``distance``, ``cut_level``, ``sigma_st``,
    ``edges``.  The separators are packed: query ``i``'s cut is
    ``cut_nodes[cut_offsets[i]:cut_offsets[i + 1]]`` (ascending) with
    ``cut_weights`` alongside.

    The search state of reachable queries is sparse: for each side
    (``0`` forward from the source, ``1`` backward to the target),
    ``keys[side]`` holds ``i * n + v`` for every node ``v`` query ``i``
    discovered, sorted, with ``dist[side]`` and ``sigma[side]``
    aligned — exactly the entries of the scalar search's dense rows
    that are not ``-1`` / ``0.0``.  Without ``frontiers`` each side's
    outermost level is left out: a path walk never steps onto it, and
    it holds most of the discovered nodes.

    Indexing yields what :func:`~repro.paths.bidirectional.bidirectional_search`
    returns for the query — ``(result, edges_explored)``, ``result``
    ``None`` when unreachable — with the dense rows rebuilt on demand
    (only when the ``frontiers`` were kept).
    """

    def __init__(self, n, sources, targets, distance, cut_level, sigma_st,
                 edges, cut_offsets, cut_nodes, cut_weights, keys, dist, sigma,
                 frontiers):
        self.n = n
        self.sources = sources
        self.targets = targets
        self.distance = distance
        self.cut_level = cut_level
        self.sigma_st = sigma_st
        self.edges = edges
        self.cut_offsets = cut_offsets
        self.cut_nodes = cut_nodes
        self.cut_weights = cut_weights
        self.keys = keys
        self.dist = dist
        self.sigma = sigma
        self.frontiers = frontiers

    def __len__(self) -> int:
        return self.sources.size

    def __getitem__(self, index: int):
        i = index + len(self) if index < 0 else index
        if not 0 <= i < len(self):
            raise IndexError(f"query index {index} out of range")
        edges = int(self.edges[i])
        if self.distance[i] < 0:
            return None, edges
        if not self.frontiers:
            raise ParameterError(
                "dense rows need the search state of the outermost levels; "
                "search with frontiers=True"
            )
        rows = []
        for side in (_FORWARD, _BACKWARD):
            keys = self.keys[side]
            lo, hi = np.searchsorted(keys, [i * self.n, (i + 1) * self.n])
            nodes = keys[lo:hi] - i * self.n
            dist = np.full(self.n, -1, dtype=np.int64)
            dist[nodes] = self.dist[side][lo:hi]
            sigma = np.zeros(self.n)
            sigma[nodes] = self.sigma[side][lo:hi]
            rows.append((dist, sigma))
        lo, hi = self.cut_offsets[i], self.cut_offsets[i + 1]
        result = BidirectionalResult(
            source=int(self.sources[i]),
            target=int(self.targets[i]),
            distance=int(self.distance[i]),
            sigma_st=float(self.sigma_st[i]),
            dist_forward=rows[_FORWARD][0],
            sigma_forward=rows[_FORWARD][1],
            dist_backward=rows[_BACKWARD][0],
            sigma_backward=rows[_BACKWARD][1],
            cut_level=int(self.cut_level[i]),
            cut_nodes=self.cut_nodes[lo:hi],
            cut_weights=self.cut_weights[lo:hi],
            edges_explored=edges,
        )
        return result, edges


class _Collector:
    """Accumulates retiring queries' outcomes, in whatever order they
    finish, into the arrays of one :class:`WavefrontResults`."""

    def __init__(
        self, n: int, sources: np.ndarray, targets: np.ndarray, frontiers: bool
    ):
        total = sources.size
        self.n = n
        self.frontiers = frontiers
        self.sources = sources
        self.targets = targets
        self.distance = np.full(total, -1, dtype=np.int64)
        self.cut_level = np.zeros(total, dtype=np.int64)
        self.edges = np.zeros(total, dtype=np.int64)
        self.cuts: list[tuple] = []
        self.state: tuple[list, list] = ([], [])

    def results(self) -> WavefrontResults:
        n, total = self.n, self.sources.size
        cut_keys, cut_weights = _sorted_blocks(self.cuts, (np.int64, np.float64))
        cut_query = cut_keys // n
        cut_offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(np.bincount(cut_query, minlength=total), out=cut_offsets[1:])
        sizes = np.diff(cut_offsets)
        # sigma_st is cut_weights.sum() per query, as the scalar search
        # computes it: one- and two-term sums are exact elementwise,
        # longer ones go through the same np.sum
        sigma_st = np.zeros(total)
        lo = cut_offsets[:-1]
        single = sizes >= 1
        sigma_st[single] = cut_weights[lo[single]]
        pair = sizes == 2
        sigma_st[pair] += cut_weights[lo[pair] + 1]
        for i in np.flatnonzero(sizes > 2).tolist():
            sigma_st[i] = cut_weights[cut_offsets[i] : cut_offsets[i + 1]].sum()
        keys, dist, sigma = zip(
            *(
                _sorted_blocks(blocks, (np.int64, np.int32, np.float64))
                for blocks in self.state
            )
        )
        return WavefrontResults(
            n, self.sources, self.targets, self.distance, self.cut_level,
            sigma_st, self.edges, cut_offsets, cut_keys - cut_query * n,
            cut_weights, keys, dist, sigma, self.frontiers,
        )


def _sorted_blocks(blocks: list[tuple], dtypes: tuple) -> tuple:
    """Concatenate ``(keys, *columns)`` blocks and sort them by key."""
    if not blocks:
        return tuple(np.empty(0, dtype=dtype) for dtype in dtypes)
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    order = np.argsort(columns[0])
    return tuple(column[order] for column in columns)


class _Cohort:
    """The stacked per-slot search state of up to ``capacity`` queries.

    Slot ``i`` owns row ``i`` of the two ``(capacity, n)`` sigma
    planes plus the lists of nodes it discovered per level on each
    side (``levels[side][i][k]`` = the nodes at distance ``k``,
    ascending).  Retiring a query copies its discovered entries out and
    zeroes exactly those, leaving the row clean for the next query.
    """

    def __init__(
        self, graph: CSRGraph, capacity: int, out: _Collector, planes: np.ndarray
    ):
        self.n = graph.n
        self.capacity = capacity
        self.out = out
        self.adj = (
            (graph.indptr, graph.indices),
            (graph.rev_indptr, graph.rev_indices),
        )
        self.degrees = (np.diff(graph.indptr), np.diff(graph.rev_indptr))
        self.sigma = planes
        self.edges = np.zeros((2, capacity), dtype=np.int64)
        self.levels: tuple[list, list] = ([None] * capacity, [None] * capacity)
        #: original query index per slot; -1 marks a free slot
        self.query = np.full(capacity, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    def admit(self, slot: int, query: int, source: int, target: int) -> None:
        """Start a new (source, target) query in the (clean) ``slot``."""
        for side, root in ((_FORWARD, source), (_BACKWARD, target)):
            self.sigma[side, slot, root] = 1.0
            self.levels[side][slot] = [np.array([root], dtype=np.int64)]
        self.edges[:, slot] = 0
        self.query[slot] = query

    def step(self) -> list[int]:
        """One round: every active query expands its cheaper side.

        Returns the slots whose queries finished (and were retired)
        this round.
        """
        active = np.flatnonzero(self.query >= 0)
        flat = []
        pending = np.empty((2, active.size))
        for side in (_FORWARD, _BACKWARD):
            owners, nodes = self._flatten(side, active)
            flat.append((owners, nodes))
            pending[side] = np.bincount(
                owners, weights=self.degrees[side][nodes], minlength=self.capacity
            )[active]
        # the scalar loop's tie-break: forward expands on equal work
        forward_first = pending[_FORWARD] <= pending[_BACKWARD]

        reached: list[int] = []
        unreachable: list[int] = []
        for side, chosen in (
            (_FORWARD, active[forward_first]),
            (_BACKWARD, active[~forward_first]),
        ):
            owners, nodes = flat[side]
            pick = np.zeros(self.capacity, dtype=bool)
            pick[chosen] = True
            selected = pick[owners]
            self._expand(
                side, chosen, owners[selected], nodes[selected], reached, unreachable
            )
        # the two sides expanded disjoint slots, so retiring after both
        # reads the same plane rows as retiring in between
        self._retire(reached, unreachable)
        return reached + unreachable

    # ------------------------------------------------------------------
    def _flatten(
        self, side: int, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack the per-slot frontiers into flat (owner, node) arrays."""
        levels = self.levels[side]
        parts = [levels[s][-1] for s in slots.tolist()]
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        lengths = np.fromiter((p.size for p in parts), np.int64, count=len(parts))
        return np.repeat(slots, lengths), np.concatenate(parts)

    def _expand(
        self,
        side: int,
        slots: np.ndarray,
        owners: np.ndarray,
        nodes: np.ndarray,
        reached: list[int],
        unreachable: list[int],
    ) -> None:
        """Grow one level of ``side`` for every query in ``slots``;
        append the slots whose query finished to ``reached`` (the
        frontiers met) or ``unreachable``."""
        if slots.size == 0:
            return
        n = self.n
        indptr, indices = self.adj[side]
        heads, tails, edge_owner = cohort_neighbors(indptr, indices, nodes, owners)
        self.edges[side] += np.bincount(edge_owner, minlength=self.capacity)

        sigma = self.sigma[side].reshape(-1)
        key = edge_owner * n + heads
        # a node is discovered exactly when its count is non-zero, and
        # this round's arcs into undiscovered nodes are exactly the arcs
        # the scalar search folds on the new level
        fresh = sigma[key] == 0.0
        fresh_keys = key[fresh]
        new_keys = _distinct(fresh_keys)
        # fold sigma contributions in arc order; every target key was
        # exactly 0.0 before this round, so the partial sums match the
        # scalar np.add.at bit-for-bit
        sigma[new_keys] = np.bincount(
            np.searchsorted(new_keys, fresh_keys),
            weights=sigma[(edge_owner * n + tails)[fresh]],
            minlength=new_keys.size,
        )
        new_owner = new_keys // n
        new_node = new_keys - new_owner * n
        met = np.zeros(self.capacity, dtype=bool)
        met[new_owner[self.sigma[1 - side].reshape(-1)[new_keys] != 0.0]] = True
        lows = np.searchsorted(new_owner, slots, side="left").tolist()
        highs = np.searchsorted(new_owner, slots, side="right").tolist()

        levels = self.levels[side]
        met = met.tolist()
        for slot, low, high in zip(slots.tolist(), lows, highs):
            if low == high:
                # nothing newly discovered: this side exhausted its
                # closure without meeting the other — unreachable pair
                unreachable.append(slot)
                continue
            levels[slot].append(new_node[low:high])
            if met[slot]:
                reached.append(slot)

    def _retire(self, reached: list[int], unreachable: list[int]) -> None:
        """Record the finished queries' scalar-identical outcomes —
        distance, separator, work and, for reached ones, the sparse
        search state — then zero the plane entries they touched and
        free their slots."""
        slots = reached + unreachable
        if not slots:
            return
        n, out = self.n, self.out
        slot_arr = np.asarray(slots, dtype=np.int64)
        query = self.query[slot_arr]
        out.edges[query] = self.edges[:, slot_arr].sum(axis=0)
        if reached:
            forward, backward = self.levels
            done = query[: len(reached)]
            rf = np.array([len(forward[s]) - 1 for s in reached], dtype=np.int64)
            rb = np.array([len(backward[s]) - 1 for s in reached], dtype=np.int64)
            out.distance[done] = rf + rb
            out.cut_level[done] = rf
            # the separator: forward nodes at the cut level that the
            # backward side discovered (necessarily at distance rb)
            fronts = [forward[s][-1] for s in reached]
            cand = np.concatenate(fronts)
            cand_slot = np.repeat(slot_arr[: len(reached)], [f.size for f in fronts])
            sigma_b = self.sigma[_BACKWARD][cand_slot, cand]
            on_cut = sigma_b != 0.0
            cut_slot, cut_node = cand_slot[on_cut], cand[on_cut]
            weights = self.sigma[_FORWARD][cut_slot, cut_node] * sigma_b[on_cut]
            out.cuts.append((self.query[cut_slot] * n + cut_node, weights))
        keep_slot = np.zeros(self.capacity, dtype=bool)
        keep_slot[slot_arr[: len(reached)]] = True
        for side in (_FORWARD, _BACKWARD):
            owner, node, depth, outer = self._discovered(side, slots)
            plane = self.sigma[side]
            sigma = plane[owner, node]
            plane[owner, node] = 0.0
            keep = keep_slot[owner]
            if not out.frontiers:
                keep &= ~outer
            out.state[side].append(
                (self.query[owner[keep]] * n + node[keep], depth[keep], sigma[keep])
            )
            for s in slots:
                self.levels[side][s] = None
        self.query[slot_arr] = -1

    def _discovered(self, side: int, slots: list[int]):
        """``(slot, node, distance, outermost)`` of every node ``slots``
        discovered on ``side``; ``outermost`` flags each slot's last
        level."""
        per_slot = [self.levels[side][s] for s in slots]
        parts = [level for levels in per_slot for level in levels]
        sizes = [level.size for level in parts]
        slot_of = [s for s, levels in zip(slots, per_slot) for _ in levels]
        depth = [k for levels in per_slot for k in range(len(levels))]
        outer = [
            k == len(levels) - 1 for levels in per_slot for k in range(len(levels))
        ]
        return (
            np.repeat(np.asarray(slot_of, dtype=np.int64), sizes),
            np.concatenate(parts),
            np.repeat(np.asarray(depth, dtype=np.int32), sizes),
            np.repeat(np.asarray(outer, dtype=bool), sizes),
        )


def _distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a small int64 array (sorting beats hashing
    at the sizes one round produces)."""
    ordered = np.sort(keys)
    if ordered.size > 1:
        ordered = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return ordered


def wavefront_search(
    graph: CSRGraph,
    sources,
    targets,
    cohort_size: int | None = None,
    frontiers: bool = True,
    planes: np.ndarray | None = None,
) -> WavefrontResults:
    """Run many balanced bidirectional (s, t) searches, batched.

    Parameters
    ----------
    graph:
        The network (hop metric — callers route weighted graphs to
        Dijkstra before reaching this kernel).
    sources, targets:
        Equal-length integer arrays of query endpoints, ``s != t``
        pairwise (a pair sample always has distinct endpoints).
    cohort_size:
        Queries sharing the stacked state at any moment
        (:data:`DEFAULT_COHORT` when ``None``).  Any value >= 1 returns
        identical results; it only trades memory against batching.
    frontiers:
        Keep each side's outermost level in the sparse state.  The
        sampler's path walk never reads it, and it is most of what a
        search discovers, so the sampler passes ``False``.
    planes:
        An all-zero float64 array of shape ``(2, c, n)`` with ``c`` at
        least the cohort capacity, used as the sigma planes instead of a
        fresh allocation.  The search leaves it all-zero again unless it
        raises.

    Returns
    -------
    A :class:`WavefrontResults` in query order whose entry ``i`` is
    exactly what :func:`~repro.paths.bidirectional.bidirectional_search`
    returns for pair ``i`` (``result is None`` for unreachable pairs).
    """
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if sources.ndim != 1 or sources.shape != targets.shape:
        raise ParameterError(
            "sources and targets must be 1-D arrays of equal length"
        )
    total = sources.size
    n = graph.n
    out = _Collector(n, sources, targets, frontiers)
    if total == 0:
        return out.results()
    lo = min(int(sources.min()), int(targets.min()))
    hi = max(int(sources.max()), int(targets.max()))
    if lo < 0 or hi >= n:
        raise ParameterError(f"query node ids outside [0, n={n})")
    if np.any(sources == targets):
        raise ParameterError("bidirectional search requires source != target")
    if cohort_size is None:
        cohort_size = DEFAULT_COHORT
    if cohort_size < 1:
        raise ParameterError(f"cohort_size must be >= 1, got {cohort_size}")

    capacity = min(int(cohort_size), total)
    if planes is None:
        planes = np.zeros((2, capacity, n))
    elif (
        planes.shape[0] != 2
        or planes.shape[1] < capacity
        or planes.shape[2] != n
        or not planes.flags.c_contiguous
    ):
        raise ParameterError(
            f"planes must be a C-contiguous (2, >={capacity}, {n}) array, "
            f"got shape {planes.shape}"
        )
    # the leading rows of each C-contiguous plane stay contiguous, so the
    # kernel's flat views write through to the caller's buffer
    cohort = _Cohort(graph, capacity, out, planes[:, :capacity])
    free = list(range(cohort.capacity - 1, -1, -1))
    admitted = 0
    done = 0
    while done < total:
        while free and admitted < total:
            cohort.admit(
                free.pop(), admitted, int(sources[admitted]), int(targets[admitted])
            )
            admitted += 1
        retired = cohort.step()
        free.extend(retired)
        done += len(retired)
    return out.results()
