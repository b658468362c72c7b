"""Vectorized multi-query weighted SSSP — the delta-stepping wavefront.

:func:`repro.paths.dijkstra.dijkstra_sigma` answers one weighted
(s, t) query per call with a pure-Python heap loop, so on weighted
graphs the sampler's hot path used to be two orders of magnitude
slower than the unweighted wavefront kernel.  This module closes that
gap: a whole *cohort* of independent queries shares stacked
``(query, node)`` tentative-distance, sigma, and settled planes, and
each round every active query settles its next exact distance level
while the edge relaxations of all those frontiers run through **one**
CSR gather / ``np.minimum.at`` / ``np.add.at`` sequence.  The bucket
structure is Meyer & Sanders' delta-stepping specialized to the
package's positive-integer weights: pending nodes are binned by
``tentative // delta``, so finding the next exact level only scans the
current bucket's workset instead of the whole tentative array — light
(within-bucket) relaxations re-enter the bucket being drained, heavy
ones land in later buckets.  This mirrors the weighted SSSP cohorts of
the MPI-based adaptive-sampling engines of van der Grinten &
Meyerhenke, executed here through numpy instead of message passing.

Bit-identity contract
---------------------

For every query the kernel reproduces
``dijkstra_sigma(graph, s, target=t)`` exactly:

* the same finalized set — every node ``v`` with
  ``(dist[v], v) <= (dist[t], t)`` lexicographically, which is
  precisely the set the reference heap pops before its early stop
  (for unreachable targets: the source's whole closure);
* bit-identical float64 ``sigma`` — levels are settled in ascending
  exact-distance order with frontiers sorted by node id, matching the
  reference's ``(distance, node)`` heap-pop order, and within a
  relaxation the improved keys are reset to exactly ``0.0`` before the
  in-order ``np.add.at`` fold, so the floating-point partial sums
  agree with the scalar assign-then-add sequence to the last bit;
* the same ``edges_explored`` accounting — the sum of out-degrees over
  the finalized set, including the final level's nodes even though
  (like the reference) the kernel never relaxes them;
* ``delta`` is *result-invariant*: any value >= 1 yields bit-identical
  outputs, because buckets only organize the pending workset — levels
  are always settled at exact distances.  The knob trades scan work
  (small delta: many near-empty buckets) against workset size (large
  delta: the bucket scan approaches a full tentative scan).

Queries retire the moment their target settles (or their closure is
exhausted) and pending queries are admitted into the freed slots, so
state stays ``O(cohort_size * n)`` for arbitrarily many queries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import GraphError, ParameterError
from ..graph.weighted import WeightedCSRGraph

__all__ = [
    "DEFAULT_COHORT",
    "WeightedSearchResult",
    "auto_delta",
    "wavefront_weighted_search",
]

#: Queries sharing the stacked planes at any moment (three length-``n``
#: rows per slot).
DEFAULT_COHORT = 64

#: "Unreached" tentative distance.  Half the int64 range so a candidate
#: ``level + weight`` computed against it can never overflow.
_INF = np.int64(2**62)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a small int64 array (sorting beats hashing
    at the sizes one round produces)."""
    ordered = np.sort(keys)
    if ordered.size > 1:
        ordered = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return ordered


def auto_delta(graph: WeightedCSRGraph) -> int:
    """The bucket width used when the caller passes ``delta=None``.

    The classic delta-stepping heuristic: a bucket should hold roughly
    one edge relaxation's worth of distance, so the mean edge weight
    (rounded, floored at 1) keeps light and heavy relaxations balanced
    without tuning.  Any value >= 1 is result-invariant; this only
    picks a sensible work split.
    """
    if graph.weights.size == 0:
        return 1
    return max(1, int(round(float(graph.weights.mean()))))


@dataclass(frozen=True)
class WeightedSearchResult:
    """One completed weighted (s, t) search, reference-identical.

    ``dist``/``sigma`` are the full length-``n`` arrays
    :func:`~repro.paths.dijkstra.dijkstra_sigma` returns for the same
    query (``-1`` / ``0.0`` outside the finalized set), which is what
    the sampler's backward reconstruction walk consumes.  A
    ``distance`` of ``-1`` marks an unreachable pair; its
    ``edges_explored`` still carries the work of proving it.
    """

    source: int
    target: int
    distance: int
    sigma_st: float
    dist: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    edges_explored: int

    @property
    def reachable(self) -> bool:
        return self.distance >= 0


class _WeightedCohort:
    """Stacked delta-stepping state of up to ``capacity`` queries.

    Slot ``i`` owns row ``i`` of the ``(capacity, n)`` tentative /
    sigma / settled planes plus its own bucket table: a dict from
    bucket index (``tentative // delta``) to appended node-id arrays,
    with a min-heap over the indices present.  Entries are filtered
    lazily — a node counts as pending in bucket ``b`` only while it is
    unsettled and its *current* tentative still maps to ``b`` — so
    improvements simply append to the right bucket and the stale copy
    evaporates on its next scan.
    """

    def __init__(self, graph: WeightedCSRGraph, capacity: int, delta: int):
        n = graph.n
        self.n = n
        self.capacity = capacity
        self.delta = int(delta)
        self.indptr = graph.indptr
        self.indices = graph.indices
        self.weights = graph.weights
        self.degrees = np.diff(graph.indptr)
        shape = (capacity, n)
        self.tentative = np.full(shape, _INF, dtype=np.int64)
        self.sigma = np.zeros(shape, dtype=np.float64)
        self.settled = np.zeros(shape, dtype=bool)
        self.edges = np.zeros(capacity, dtype=np.int64)
        self.buckets: list[dict[int, list[np.ndarray]]] = [
            {} for _ in range(capacity)
        ]
        self.heaps: list[list[int]] = [[] for _ in range(capacity)]
        self.queued: list[set[int]] = [set() for _ in range(capacity)]
        self.roots = np.zeros((2, capacity), dtype=np.int64)
        #: original query index per slot; -1 marks a free slot
        self.query = np.full(capacity, -1, dtype=np.int64)
        #: per-query level relaxation rounds, summed across the run —
        #: the work counter surfaced as ``paths.bucket_relaxations``
        self.relaxations = 0

    # ------------------------------------------------------------------
    def admit(self, slot: int, query: int, source: int, target: int) -> None:
        """Re-initialize ``slot`` for a new (source, target) query."""
        self.tentative[slot].fill(_INF)
        self.sigma[slot].fill(0.0)
        self.settled[slot].fill(False)
        self.tentative[slot, source] = 0
        self.sigma[slot, source] = 1.0
        self.edges[slot] = 0
        self.buckets[slot] = {0: [np.array([source], dtype=np.int64)]}
        self.heaps[slot] = [0]
        self.queued[slot] = {0}
        self.roots[0, slot] = source
        self.roots[1, slot] = target
        self.query[slot] = query

    # ------------------------------------------------------------------
    def step(self) -> list[tuple[int, int, WeightedSearchResult]]:
        """One round: every active query settles its next exact level,
        then all the settled frontiers relax together.

        Returns ``(slot, query, result)`` for each query that finished
        this round; the caller frees the slots.
        """
        active = np.flatnonzero(self.query >= 0)
        finished = []
        slots: list[int] = []
        fronts: list[np.ndarray] = []
        for slot in active:
            slot = int(slot)
            frontier = self._settle_next_level(slot)
            if frontier is None:
                finished.append((slot, int(self.query[slot]), self._finalize(slot)))
                self.query[slot] = -1
            else:
                slots.append(slot)
                fronts.append(frontier)
        if slots:
            self._relax(slots, fronts)
        return finished

    # ------------------------------------------------------------------
    def _settle_next_level(self, slot: int) -> np.ndarray | None:
        """Settle the slot's next exact distance level.

        Returns the frontier to relax, or ``None`` when the query just
        finished — either its target settled on this level (the level
        is then *not* relaxed, exactly like the reference's early
        stop), or every bucket drained without reaching the target.
        """
        tentative = self.tentative[slot]
        settled = self.settled[slot]
        heap = self.heaps[slot]
        buckets = self.buckets[slot]
        queued = self.queued[slot]
        delta = self.delta
        while heap:
            bucket = heap[0]
            parts = buckets[bucket]
            merged = _distinct(np.concatenate(parts))
            valid = ~settled[merged] & (tentative[merged] // delta == bucket)
            nodes = merged[valid]
            if nodes.size == 0:
                heapq.heappop(heap)
                queued.discard(bucket)
                del buckets[bucket]
                continue
            buckets[bucket] = [nodes]  # compacted: stale copies dropped
            levels = tentative[nodes]
            level = levels.min()
            frontier = nodes[levels == level]  # ascending ids (_distinct)
            target = int(self.roots[1, slot])
            if tentative[target] == level and not settled[target]:
                # final level: finalized ids are exactly those the
                # reference pops before its early stop — frontier ids
                # up to and including the target; never relaxed, but
                # their out-degrees count toward edges_explored
                final = frontier[frontier <= target]
                settled[final] = True
                self.edges[slot] += int(self.degrees[final].sum())
                return None
            settled[frontier] = True
            self.edges[slot] += int(self.degrees[frontier].sum())
            return frontier
        return None  # every bucket drained: target unreachable

    # ------------------------------------------------------------------
    def _relax(self, slots: list[int], fronts: list[np.ndarray]) -> None:
        """Relax all the freshly settled frontiers in one numpy pass."""
        n = self.n
        owners = np.repeat(
            np.asarray(slots, dtype=np.int64),
            np.fromiter((f.size for f in fronts), np.int64, count=len(fronts)),
        )
        nodes = np.concatenate(fronts)
        self.relaxations += len(slots)
        counts = self.indptr[nodes + 1] - self.indptr[nodes]
        total = int(counts.sum())
        if total == 0:
            return
        offsets = np.repeat(self.indptr[nodes], counts)
        shifts = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        positions = offsets + shifts
        heads = self.indices[positions].astype(np.int64)
        lengths = self.weights[positions]
        arc_owner = np.repeat(owners, counts)
        tail_key = (arc_owner * n) + np.repeat(nodes, counts)
        head_key = (arc_owner * n) + heads

        tentative = self.tentative.ravel()
        sigma = self.sigma.ravel()
        settled = self.settled.ravel()
        # arcs into settled nodes can neither improve nor tie (their
        # candidate strictly exceeds the settled distance) — drop them
        keep = ~settled[head_key]
        if not keep.all():
            head_key = head_key[keep]
            tail_key = tail_key[keep]
            lengths = lengths[keep]
        if head_key.size == 0:
            return
        candidates = tentative[tail_key] + lengths

        unique_keys = _distinct(head_key)
        before = tentative[unique_keys].copy()
        np.minimum.at(tentative, head_key, candidates)
        after = tentative[unique_keys]
        improved = after < before
        # reference semantics: an improvement *overwrites* sigma; the
        # reset to exactly 0.0 plus the in-order add below reproduces
        # the scalar assign-then-accumulate bit-for-bit (0.0 + x == x)
        sigma[unique_keys[improved]] = 0.0
        on_path = candidates == tentative[head_key]
        # arc order is (slot, frontier node ascending, CSR position) —
        # the reference's heap-pop order within a level, so the float
        # accumulation into every head matches it exactly
        np.add.at(sigma, head_key[on_path], sigma[tail_key[on_path]])

        # file the improved keys into their (possibly new) buckets;
        # ties keep their bucket, stale copies filter out on scan
        improved_keys = unique_keys[improved]
        if improved_keys.size == 0:
            return
        improved_owner = improved_keys // n
        improved_node = improved_keys % n
        bucket_of = tentative[improved_keys] // self.delta
        slot_arr = np.asarray(slots, dtype=np.int64)
        lows = np.searchsorted(improved_owner, slot_arr, side="left")
        highs = np.searchsorted(improved_owner, slot_arr, side="right")
        for slot, low, high in zip(slots, lows, highs):
            if low == high:
                continue
            slot_nodes = improved_node[low:high]
            slot_buckets = bucket_of[low:high]
            heap = self.heaps[slot]
            queued = self.queued[slot]
            table = self.buckets[slot]
            for bucket in _distinct(slot_buckets):
                bucket = int(bucket)
                table.setdefault(bucket, []).append(
                    slot_nodes[slot_buckets == bucket]
                )
                if bucket not in queued:
                    queued.add(bucket)
                    heapq.heappush(heap, bucket)

    # ------------------------------------------------------------------
    def _finalize(self, slot: int) -> WeightedSearchResult:
        """Copy the slot's rows out, trimmed to the finalized set."""
        settled = self.settled[slot]
        dist = np.where(settled, self.tentative[slot], np.int64(-1))
        sigma = np.where(settled, self.sigma[slot], 0.0)
        target = int(self.roots[1, slot])
        return WeightedSearchResult(
            source=int(self.roots[0, slot]),
            target=target,
            distance=int(dist[target]),
            sigma_st=float(sigma[target]),
            dist=dist,
            sigma=sigma,
            edges_explored=int(self.edges[slot]),
        )


def wavefront_weighted_search(
    graph: WeightedCSRGraph,
    sources,
    targets,
    delta: int | None = None,
    cohort_size: int | None = None,
    counters: dict | None = None,
) -> list[WeightedSearchResult]:
    """Run many weighted (s, t) searches, batched via delta-stepping.

    Parameters
    ----------
    graph:
        An integer-weighted network
        (:class:`~repro.graph.weighted.WeightedCSRGraph`).
    sources, targets:
        Equal-length integer arrays of query endpoints, ``s != t``
        pairwise (a pair sample always has distinct endpoints).
    delta:
        Bucket width of the delta-stepping pending structure;
        ``None`` auto-tunes from the mean edge weight
        (:func:`auto_delta`).  Any value >= 1 returns bit-identical
        results — the knob only trades bucket-scan work against
        workset size.
    cohort_size:
        Queries sharing the stacked planes at any moment
        (:data:`DEFAULT_COHORT` when ``None``); result-invariant.
    counters:
        Optional dict the kernel adds its work counters to
        (``"bucket_relaxations"``: per-query level relaxation rounds).

    Returns
    -------
    list of :class:`WeightedSearchResult` in query order, each exactly
    what :func:`~repro.paths.dijkstra.dijkstra_sigma` produces for
    that pair (``distance == -1`` for unreachable ones).
    """
    if not isinstance(graph, WeightedCSRGraph):
        raise GraphError("wavefront_weighted_search requires a WeightedCSRGraph")
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if sources.ndim != 1 or sources.shape != targets.shape:
        raise ParameterError(
            "sources and targets must be 1-D arrays of equal length"
        )
    total = sources.size
    results: list = [None] * total
    if total == 0:
        return results
    n = graph.n
    lo = min(int(sources.min()), int(targets.min()))
    hi = max(int(sources.max()), int(targets.max()))
    if lo < 0 or hi >= n:
        raise ParameterError(f"query node ids outside [0, n={n})")
    if np.any(sources == targets):
        raise ParameterError("weighted search requires source != target")
    if delta is None:
        delta = auto_delta(graph)
    if delta < 1:
        raise ParameterError(f"delta must be >= 1, got {delta}")
    if cohort_size is None:
        cohort_size = DEFAULT_COHORT
    if cohort_size < 1:
        raise ParameterError(f"cohort_size must be >= 1, got {cohort_size}")

    cohort = _WeightedCohort(graph, min(int(cohort_size), total), int(delta))
    free = list(range(cohort.capacity - 1, -1, -1))
    admitted = 0
    done = 0
    while done < total:
        while free and admitted < total:
            cohort.admit(
                free.pop(), admitted, int(sources[admitted]), int(targets[admitted])
            )
            admitted += 1
        for slot, query, outcome in cohort.step():
            results[query] = outcome
            free.append(slot)
            done += 1
    if counters is not None:
        counters["bucket_relaxations"] = (
            counters.get("bucket_relaxations", 0) + cohort.relaxations
        )
    return results
