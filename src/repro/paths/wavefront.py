"""Lock-step multi-query bidirectional BFS — the wavefront kernel.

:func:`repro.paths.bidirectional.bidirectional_search` answers one
(s, t) query per call, and on sparse graphs its per-level frontiers are
tiny — often a handful of nodes — so the fixed cost of every numpy call
(and the Python loop around it) dominates the actual traversal work.
This module runs every query of a call in lock step.  All of them start
in round 0, and each round every unfinished query expands the cheaper
side of its search by one level.  One side's frontiers are one flat
sorted array of ``query * n + node`` keys with sigma alongside, so one
``indptr``/``indices`` gather expands all of them and one ``bincount``
folds the sigma contributions of every query.  A call ends after as
many rounds as its longest search — about the largest distance among
its pairs — and a round costs numpy calls over the arcs it touches,
never Python per query.  This is the batching idea behind KADABRA's
multi-sample traversals and the near-zero-synchronization MPI engines
of van der Grinten & Meyerhenke, applied to the balanced bidirectional
search of Sec. III-D of the paper.

Bit-identity contract
---------------------

The kernel is a drop-in replacement for the scalar search; for every
query it reproduces :func:`bidirectional_search` exactly:

* the same balanced-side choice each round — every unfinished query
  compares its two frontiers' pending arc counts, precisely the scalar
  loop's ``pending_work`` test (forward on a tie), and expands exactly
  one side per round;
* bit-identical float64 ``sigma`` values — a node's count is folded in
  the round it is discovered, starting from exactly ``0.0``, with arc
  contributions consumed in the same (frontier-node, CSR-position)
  order as the scalar ``np.add.at``, so the floating-point sums agree
  to the last bit;
* the same ``distance``, separator ``cut_level``/``cut_nodes``/
  ``cut_weights``, ``sigma_st`` and per-query ``edges_explored`` (the
  work of proving unreachability included).

The separator needs no dense reads.  The two sides' discovered sets
stay disjoint until they meet, and a node the expanding side discovers
that the other side has already seen lies on the other side's frontier
(had the other side expanded it, it would have seen the expanding
side's frontier node that reached it).  So those nodes are exactly the
scalar search's cut, and each cut weight is the new sigma times the
other frontier's sigma, found by one ``searchsorted``.

Memory
------

"Discovered" is one bitset per side of ``len(call) * n`` bits: 128·n
bytes of marks for a call of 512 queries.  Everything else is sparse.
A level enters the result's sparse state when it is expanded, with its
distance and sigma; the outermost level of each side enters only with
``frontiers=True``.  The levels of a query found unreachable leave it
the round the query fails.  So a call keeps ``O(nodes discovered by
reachable queries)`` besides the marks and the live frontiers, and the
sampler resolves its draws in bounded chunks, so a draw's memory
follows the samples drawn, not ``n``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from .bidirectional import BidirectionalResult

__all__ = ["WavefrontResults", "wavefront_search"]

_FORWARD, _BACKWARD = 0, 1


class WavefrontResults(Sequence):
    """The outcome of one :func:`wavefront_search` call, query-indexed.

    Per-query columns (``distance == -1`` marks an unreachable pair):
    ``sources``, ``targets``, ``distance``, ``cut_level``, ``sigma_st``,
    ``edges``.  The separators are packed: query ``i``'s cut is
    ``cut_nodes[cut_offsets[i]:cut_offsets[i + 1]]`` (ascending) with
    ``cut_weights`` alongside.  ``rounds`` is the number of lock-step
    rounds the call ran.

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
                 frontiers, rounds):
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
        self.rounds = rounds

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


def _sorted_blocks(blocks: list[tuple], dtypes: tuple) -> tuple:
    """Concatenate ``(keys, *columns)`` blocks and sort them by key."""
    if not blocks:
        return tuple(np.empty(0, dtype=dtype) for dtype in dtypes)
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    order = np.argsort(columns[0])
    return tuple(column[order] for column in columns)


def _fold(keys: np.ndarray, weights: np.ndarray, bound: int) -> tuple:
    """The distinct ``keys`` (all below ``bound``), ascending, and each
    one's sum of ``weights`` taken in input order from exactly ``0.0``
    — the sums the scalar search's ``np.add.at`` computes, to the bit."""
    shift = max(keys.size - 1, 1).bit_length()
    if bound.bit_length() + shift < 63:
        # a plain sort of (key, position) pairs is a stable argsort
        order = np.sort(keys << shift | np.arange(keys.size)) & ((1 << shift) - 1)
    else:
        order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    sums = np.bincount(np.cumsum(first) - 1, weights=weights[order])
    return ordered[first], sums


def _marked(marks: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key's bit is set in the bitset ``marks``."""
    return (marks[keys >> 3] >> (keys & 7)) & 1 != 0


def _mark(marks: np.ndarray, keys: np.ndarray) -> None:
    """Set the bits of ``keys`` (distinct) in the bitset ``marks``."""
    np.bitwise_or.at(marks, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8))


class _LockStep:
    """The search state of one call, every query in lock step.

    Per side: the frontier keys ``query * n + node`` of the unfinished
    queries, sorted, with their sigma; the discovered bitset; and each
    query's radius.  Levels leave for the result's sparse state as they
    are expanded (and, with ``frontiers``, as their query finishes); an
    unreachable query's levels are dropped from it the round it fails.
    """

    def __init__(self, graph: CSRGraph, sources, targets, frontiers: bool):
        n, total = graph.n, sources.size
        self.n = n
        self.total = total
        self.frontiers = frontiers
        self.adj = (
            (graph.indptr, graph.indices),
            (graph.rev_indptr, graph.rev_indices),
        )
        self.degrees = (np.diff(graph.indptr), np.diff(graph.rev_indptr))
        base = np.arange(total, dtype=np.int64) * n
        self.keys = [base + sources, base + targets]
        self.sigma = [np.ones(total), np.ones(total)]
        self.marks = [np.zeros((total * n + 7) // 8, dtype=np.uint8) for _ in (0, 1)]
        for side in (_FORWARD, _BACKWARD):
            _mark(self.marks[side], self.keys[side])
        self.radius = np.zeros((2, total), dtype=np.int64)
        self.edges = np.zeros(total, dtype=np.int64)
        self.distance = np.full(total, -1, dtype=np.int64)
        self.active = np.ones(total, dtype=bool)
        self.cuts: list[tuple] = []
        self.state: tuple[list, list] = ([], [])
        self.rounds = 0

    def run(self) -> None:
        while self.active.any():
            self.step()

    def step(self) -> None:
        """One round: every unfinished query expands its cheaper side."""
        n, total = self.n, self.total
        owners = [keys // n for keys in self.keys]
        pending = [
            np.bincount(
                owner,
                weights=self.degrees[side][self.keys[side] - owner * n],
                minlength=total,
            )
            for side, owner in enumerate(owners)
        ]
        # the scalar loop's tie-break: forward expands on equal work
        forward = pending[_FORWARD] <= pending[_BACKWARD]
        reached = np.zeros(total, dtype=bool)
        failed = np.zeros(total, dtype=bool)
        for side, pick in (
            (_FORWARD, self.active & forward),
            (_BACKWARD, self.active & ~forward),
        ):
            self._expand(side, pick, owners[side], reached, failed)
        done = reached | failed
        for side in (_FORWARD, _BACKWARD):
            keys, sigma = self.keys[side], self.sigma[side]
            owner = keys // n
            drop = done[owner]
            if self.frontiers:
                keep = drop & reached[owner]
                self.state[side].append((
                    keys[keep],
                    self.radius[side][owner[keep]].astype(np.int32),
                    sigma[keep],
                ))
            self.keys[side], self.sigma[side] = keys[~drop], sigma[~drop]
        if failed.any():
            self._release(failed)
        self.distance[reached] = self.radius[:, reached].sum(axis=0)
        self.active &= ~done
        self.rounds += 1

    def _release(self, failed) -> None:
        """Drop the expanded levels of the ``failed`` queries from the
        sparse state: an unreachable pair's levels are no result, and
        holding them to the end of the call would keep everything it
        explored."""
        for blocks in self.state:
            if blocks:
                keys, dist, sigma = (np.concatenate(parts) for parts in zip(*blocks))
                keep = ~failed[keys // self.n]
                blocks[:] = [(keys[keep], dist[keep], sigma[keep])]

    def _expand(self, side, pick, owner, reached, failed) -> None:
        """Grow one level of ``side`` for every query in ``pick``;
        flag the queries whose frontiers met in ``reached`` and those
        that found nothing new (an unreachable pair) in ``failed``."""
        keys, sigma = self.keys[side], self.sigma[side]
        grow = pick[owner]
        if not grow.any():
            return
        n = self.n
        grow_keys, grow_sigma, grow_owner = keys[grow], sigma[grow], owner[grow]
        self.state[side].append((
            grow_keys, self.radius[side][grow_owner].astype(np.int32), grow_sigma
        ))
        keys, sigma = keys[~grow], sigma[~grow]
        self.radius[side][pick] += 1

        indptr, indices = self.adj[side]
        nodes = grow_keys - grow_owner * n
        counts = self.degrees[side][nodes]
        ends = np.cumsum(counts)
        # arcs in (frontier key, CSR position) order: per query, the
        # scalar gather's order
        heads = indices[
            np.repeat(indptr[nodes] - ends + counts, counts) + np.arange(ends[-1])
        ]
        arc_owner = np.repeat(grow_owner, counts)
        self.edges += np.bincount(arc_owner, minlength=self.total)
        arc_keys = arc_owner * n + heads
        # arcs into undiscovered nodes are exactly the arcs the scalar
        # search folds on the new level
        fresh = ~_marked(self.marks[side], arc_keys)
        new_keys, new_sigma = _fold(
            arc_keys[fresh], np.repeat(grow_sigma, counts)[fresh], self.total * n
        )
        _mark(self.marks[side], new_keys)
        new_owner = new_keys // n
        found = np.zeros(self.total, dtype=bool)
        found[new_owner] = True
        # nothing newly discovered: this side exhausted its closure
        # without meeting the other — an unreachable pair
        failed |= pick & ~found
        met = _marked(self.marks[1 - side], new_keys)
        if met.any():
            cut_keys = new_keys[met]
            other = self.sigma[1 - side][
                np.searchsorted(self.keys[1 - side], cut_keys)
            ]
            self.cuts.append((cut_keys, new_sigma[met] * other))
            reached[new_owner[met]] = True

        # two sorted runs: the stable sort (timsort) merges them in one pass
        merged = np.concatenate((keys, new_keys))
        order = np.argsort(merged, kind="stable")
        self.keys[side] = merged[order]
        self.sigma[side] = np.concatenate((sigma, new_sigma))[order]

    def results(self, sources, targets) -> WavefrontResults:
        n, total = self.n, self.total
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
        reached = self.distance >= 0
        keys, dist, sigma = zip(*(
            _sorted_blocks(blocks, (np.int64, np.int32, np.float64))
            for blocks in self.state
        ))
        return WavefrontResults(
            n, sources, targets, self.distance,
            np.where(reached, self.radius[_FORWARD], 0), sigma_st, self.edges,
            cut_offsets, cut_keys - cut_query * n, cut_weights, keys, dist,
            sigma, self.frontiers, self.rounds,
        )


def wavefront_search(
    graph: CSRGraph, sources, targets, frontiers: bool = True
) -> WavefrontResults:
    """Run many balanced bidirectional (s, t) searches in lock step.

    Parameters
    ----------
    graph:
        The network (hop metric — callers route weighted graphs to
        Dijkstra before reaching this kernel).
    sources, targets:
        Equal-length integer arrays of query endpoints, ``s != t``
        pairwise (a pair sample always has distinct endpoints).  The
        discovered marks take ``len(sources) * n / 4`` bytes, so callers
        search in bounded chunks.
    frontiers:
        Keep each side's outermost level in the sparse state.  The
        sampler's path walk never reads it, and it is most of what a
        search discovers, so the sampler passes ``False``.

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
    n = graph.n
    if sources.size:
        lo = min(int(sources.min()), int(targets.min()))
        hi = max(int(sources.max()), int(targets.max()))
        if lo < 0 or hi >= n:
            raise ParameterError(f"query node ids outside [0, n={n})")
        if np.any(sources == targets):
            raise ParameterError("bidirectional search requires source != target")
    search = _LockStep(graph, sources, targets, frontiers)
    search.run()
    return search.results(sources, targets)
