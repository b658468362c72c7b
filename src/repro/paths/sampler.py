"""Uniform random shortest-path sampling.

One *sample* is produced by the procedure of Sec. III-D of the paper:

1. draw an ordered pair ``(s, t)`` uniformly at random with ``s != t``;
2. find **all** shortest s→t paths with a balanced bidirectional BFS;
3. return one of them uniformly at random.

If ``t`` is unreachable from ``s``, the sample is *null*: it is covered
by no group but still counts toward the sample size ``L``, which keeps
the estimator ``L'/L * n(n-1)`` exactly unbiased for ``B(C)`` under the
paper's ``n(n-1)`` normalization.

Every sample has an *index*, and sample ``i`` is a pure function of
``(key, i, graph)``: its pair comes from
:func:`~repro._rng.counter_pairs` and walk step ``k`` uses the uniform
``counter_uniforms(key, i, k)`` (step 0 picks the separator, the next
steps walk toward the source, then toward the target).  So drawing
indices in one call, in many, in another process or after a restart
gives the same samples, and the cohort draw equals the scalar oracle.

The uniform choice in step 3 never materializes the (potentially
exponential) path set.  A separator node ``v`` is drawn with probability
``sigma_f(v) * sigma_b(v) / sigma_st``, then the two half-paths are
completed by weighted random walks along the BFS DAGs; the telescoping
products leave every concrete path with probability ``1 / sigma_st``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .._rng import counter_pairs, counter_uniforms, stream_key
from ..exceptions import GraphError, ParameterError
from ..graph.csr import CSRGraph
from ._dispatch import is_weighted
from .bfs import bfs_sigma, cohort_neighbors
from .bidirectional import BidirectionalResult, bidirectional_search
from .dijkstra import dijkstra_sigma
from .packed import PackedSamples
from .wavefront import WavefrontResults, wavefront_search
from .wavefront_weighted import wavefront_weighted_search

__all__ = ["PackedSamples", "PathSampler"]

#: Samples resolved per search call of a cohort draw.  The unweighted
#: kernel searches a chunk in lock step — about as many rounds as its
#: largest distance, so a narrower chunk pays more rounds per sample —
#: with 128·n bytes of discovered marks per 512 samples, and hands back
#: sparse state (the nodes each query discovered); the weighted one two
#: dense length-``n`` rows per query.  So what a draw holds besides its
#: output is bounded by these, not by ``count``.
_CHUNK = 512
_WEIGHTED_CHUNK = 64

#: The node array of a null sample.
_NO_PATH = np.empty(0, dtype=np.int64)

#: Arcs a walk step gathers at once.  Hubs sit on many shortest paths,
#: so the walks of one chunk can meet at a few high-degree nodes; the
#: step then runs over slices of walks so its temporaries stay bounded.
_WALK_ARCS = 1 << 14


def _spans(weights: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Split ``range(len(weights))`` into contiguous spans whose weight
    sums stay near ``budget`` (a single heavier item gets its own)."""
    ends = np.cumsum(weights)
    marks = np.searchsorted(ends, np.arange(budget, ends[-1], budget), side="right")
    bounds = np.unique(np.concatenate(([0], marks, [weights.size]))).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _segmented_pick(
    counts: np.ndarray, weights: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`_weighted_pick` over segments.

    ``weights`` concatenates one non-empty candidate segment per row
    (``counts[i]`` entries each); row ``i`` draws with ``draws[i]``.
    Returns each row's chosen position within its segment.  The
    cumulative weights come from a zero-padded 2-D ``np.cumsum`` along
    the rows, which adds left to right exactly like the 1-D cumsum of
    each segment, so the choices are bit-identical to the scalar pick.
    """
    picks = np.zeros(counts.size, dtype=np.int64)
    multi = np.flatnonzero(counts > 1)  # a single candidate is always chosen
    if multi.size == 0:
        return picks
    starts = np.cumsum(counts) - counts
    sizes = counts[multi]
    # pad rows of similar length together so one long segment cannot
    # blow every row up to its width
    groups = [multi]
    if multi.size * int(sizes.max()) > 4 * int(sizes.sum()) + 4096:
        bits = np.ceil(np.log2(sizes)).astype(np.int64)
        groups = [multi[bits == b] for b in np.unique(bits)]
    for rows in groups:
        size = counts[rows]
        total = int(size.sum())
        line = np.repeat(np.arange(rows.size), size)
        col = np.arange(total) - np.repeat(np.cumsum(size) - size, size)
        grid = np.zeros((rows.size, int(size.max())))
        grid[line, col] = weights[np.repeat(starts[rows], size) + col]
        cumulative = np.cumsum(grid, axis=1)
        # padding repeats the row total, which only ever matters when
        # the draw reaches the total — and then the clip below applies
        bound = draws[rows] * cumulative[np.arange(rows.size), size - 1]
        chosen = np.count_nonzero(cumulative <= bound[:, None], axis=1)
        picks[rows] = np.minimum(chosen, size - 1)
    return picks


class PathSampler:
    """Draws uniform shortest-path samples from a graph, addressed by
    sample index.

    Parameters
    ----------
    graph:
        The network to sample from (``n >= 2``).
    seed:
        The stream key, or anything :func:`repro._rng.stream_key`
        turns into one.
    method:
        ``"bidirectional"`` (default, the paper's procedure) or
        ``"forward"`` (plain early-stopping BFS from the source; same
        distribution, more traversal work — kept for the ablation and
        for cross-validation).  Integer-weighted graphs
        (:class:`~repro.graph.weighted.WeightedCSRGraph`) always use
        ``"dijkstra"``, which is selected automatically.

    Notes
    -----
    Every entry point returns one
    :class:`~repro.paths.packed.PackedSamples` record.
    :meth:`sample_cohort` and :meth:`sample_batch` draw the samples of
    the given indices and keep no state.  :meth:`sample` and
    :meth:`sample_pair` take the next indices from the sampler's own
    :attr:`cursor`, so successive calls produce independent samples.
    """

    def __init__(self, graph: CSRGraph, seed=None, method: str = "bidirectional"):
        if graph.n < 2:
            raise GraphError("sampling requires a graph with at least 2 nodes")
        if is_weighted(graph):
            if method == "bidirectional":
                method = "dijkstra"  # the weighted engine
            if method != "dijkstra":
                raise ParameterError(
                    "weighted graphs support only the 'dijkstra' method"
                )
        elif method not in ("bidirectional", "forward"):
            raise ParameterError(f"unknown sampling method {method!r}")
        self.graph = graph
        self.method = method
        self.key = stream_key(seed)
        #: The next index :meth:`sample` and :meth:`sample_pair` draw.
        self.cursor = 0
        self.total_edges_explored = 0
        self.total_samples = 0
        self.total_traversals = 0
        self.total_search_rounds = 0
        self.total_weighted_cohorts = 0
        self.total_bucket_relaxations = 0

    # ------------------------------------------------------------------
    def sample(self, count: int = 1) -> PackedSamples:
        """Draw the next ``count`` samples (random pair, then uniform
        shortest path) — through :meth:`sample_cohort`, or the scalar
        oracle for the ``"forward"`` method, which has no cohort."""
        if count < 0:
            raise ParameterError("sample count must be non-negative")
        indices = np.arange(self.cursor, self.cursor + count)
        self.cursor += count
        if self.method == "forward":
            return self.sample_batch(indices)
        return self.sample_cohort(indices)

    @staticmethod
    def _indices(indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ParameterError("sample indices must be a 1-D array")
        if indices.size and indices.min() < 0:
            raise ParameterError("sample indices must be non-negative")
        return indices

    def sample_batch(self, indices) -> PackedSamples:
        """The samples of ``indices``, one scalar search and walk at a
        time — the reference oracle of :meth:`sample_cohort`.

        With the ``"bidirectional"`` method (``"dijkstra"`` on weighted
        graphs) the samples are bit-identical to the cohort draw's; the
        ``"forward"`` method draws the same law through a plain BFS
        per pair, for the sampler ablation.
        """
        indices = self._indices(indices)
        sources, targets = counter_pairs(self.key, indices, self.graph.n)
        return self._scalar(sources, targets, indices)

    def sample_cohort(self, indices) -> PackedSamples:
        """The samples of ``indices``, drawn as one batch.

        The pairs of all the indices are drawn up front, then resolved
        in chunks — each chunk's searches first, then its uniform path
        walks.  The searches execute through a vectorized multi-query
        kernel — the lock-step bidirectional BFS
        (:func:`~repro.paths.wavefront.wavefront_search`) on unweighted
        graphs, the bucketed delta-stepping cohort
        (:func:`~repro.paths.wavefront_weighted.wavefront_weighted_search`)
        on weighted ones — and on unweighted graphs one vectorized walk
        draws every path of the chunk.  Sample ``i`` reads the same
        per-index uniforms as the scalar oracle :meth:`sample_batch`,
        so the two yield bit-identical samples.  The ``"forward"``
        method has no cohort schedule.
        """
        if self.method not in ("bidirectional", "dijkstra"):
            raise ParameterError(
                "cohort sampling requires the 'bidirectional' or "
                "'dijkstra' method"
            )
        indices = self._indices(indices)
        sources, targets = counter_pairs(self.key, indices, self.graph.n)
        count = indices.size
        if self.method == "dijkstra":
            packed = self._weighted_cohort(indices, sources, targets)
        else:
            parts = []
            for lo in range(0, count, _CHUNK):
                found = wavefront_search(
                    self.graph,
                    sources[lo:lo + _CHUNK],
                    targets[lo:lo + _CHUNK],
                    frontiers=False,
                )
                self.total_search_rounds += found.rounds
                parts.append(self._walk_cohort(indices[lo:lo + _CHUNK], found))
            packed = PackedSamples.concat(parts)
        self.total_samples += count
        self.total_traversals += count
        self.total_edges_explored += int(packed.edges.sum())
        return packed

    def _walk_cohort(
        self, indices: np.ndarray, found: WavefrontResults
    ) -> PackedSamples:
        """Draw one uniform path per reachable query of ``found``, all
        at once.

        Sample ``i`` at distance ``d`` reads its ``d + 1`` walk
        uniforms into its own path offset of one block, in the order
        :meth:`_path_nodes` consumes them: the separator pick, the
        ``cut_level`` steps toward the source, then the steps toward
        the target.  Every step advances all the walks still under way
        with one neighbor gather and one segmented pick.
        """
        distance = found.distance
        reach = np.flatnonzero(distance >= 0)
        lengths = np.where(distance >= 0, distance + 1, 0)
        offsets = np.zeros(len(found) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        nodes = np.empty(int(offsets[-1]), dtype=np.int64)
        uniforms = counter_uniforms(
            self.key,
            np.repeat(indices, lengths),
            np.arange(nodes.size) - np.repeat(offsets[:-1], lengths),
        )

        start = offsets[reach]
        cut_level = found.cut_level[reach]
        cut_lo = found.cut_offsets[reach]
        # unreachable queries have empty separators, so the reachable
        # ones' segments are the whole cut array
        pick = _segmented_pick(
            found.cut_offsets[reach + 1] - cut_lo, found.cut_weights, uniforms[start]
        )
        pivot = found.cut_nodes[cut_lo + pick]
        nodes[start + cut_level] = pivot
        graph = self.graph
        for side, (indptr, indices), depth, step, base in (
            (0, (graph.rev_indptr, graph.rev_indices), cut_level, -1, start),
            (1, (graph.indptr, graph.indices), distance[reach] - cut_level, 1,
             start + cut_level),
        ):
            self._walk_side(
                found, side, indptr, indices, reach, pivot, depth,
                start + cut_level, step, base, uniforms, nodes,
            )
        return PackedSamples(
            found.sources,
            found.targets,
            distance,
            found.sigma_st,
            found.edges,
            nodes,
            offsets,
        )

    def _walk_side(
        self, found, side, indptr, indices, query, node, depth, position,
        step, base, uniforms, nodes,
    ) -> None:
        """Advance every walk of one side ``depth`` levels from the
        separator toward that side's root, writing the path nodes at
        ``position + step * k`` and drawing step ``k`` with
        ``uniforms[base + k]``."""
        n = self.graph.n
        keys, dist, sigma = found.keys[side], found.dist[side], found.sigma[side]
        live = depth > 0
        query, node, depth = query[live], node[live], depth[live]
        position, base = position[live], base[live]
        k = 0
        while node.size:
            k += 1
            level = depth - k
            draws = uniforms[base + k]
            for lo, hi in _spans(indptr[node + 1] - indptr[node], _WALK_ARCS):
                heads, _, owner = cohort_neighbors(
                    indptr, indices, node[lo:hi], np.arange(hi - lo)
                )
                # the candidates a scalar walk keeps: neighbors this side
                # discovered exactly one level closer to its root
                probe = query[lo:hi][owner] * n + heads
                at = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
                on_level = (keys[at] == probe) & (dist[at] == level[lo:hi][owner])
                counts = np.bincount(owner[on_level], minlength=hi - lo)
                pick = _segmented_pick(counts, sigma[at[on_level]], draws[lo:hi])
                node[lo:hi] = heads[on_level][np.cumsum(counts) - counts + pick]
            nodes[position + step * k] = node
            live = depth > k
            if not live.all():
                query, node, depth = query[live], node[live], depth[live]
                position, base = position[live], base[live]

    def _weighted_cohort(
        self, indices: np.ndarray, sources: np.ndarray, targets: np.ndarray
    ) -> PackedSamples:
        """The weighted half of :meth:`sample_cohort`: per chunk,
        resolve every (s, t) query, then run the backward walks in
        sample order.  The search consumes no randomness, so the
        samples match :meth:`sample_batch`'s per-pair Dijkstra and walk
        bit for bit."""
        paths, distances, sigmas, edges = [], [], [], []
        for lo in range(0, sources.size, _WEIGHTED_CHUNK):
            counters: dict = {}
            searched = wavefront_weighted_search(
                self.graph,
                sources[lo:lo + _WEIGHTED_CHUNK],
                targets[lo:lo + _WEIGHTED_CHUNK],
                counters=counters,
            )
            self.total_bucket_relaxations += counters.get("bucket_relaxations", 0)
            for index, result in zip(
                indices[lo:lo + _WEIGHTED_CHUNK].tolist(), searched
            ):
                edges.append(result.edges_explored)
                distances.append(result.distance)
                sigmas.append(result.sigma_st)
                paths.append(
                    self._walk_weighted(
                        result.source, result.target, result.dist,
                        result.sigma, self._draws(index),
                    )
                    if result.reachable
                    else _NO_PATH
                )
        self.total_weighted_cohorts += 1
        return PackedSamples.from_paths(
            sources, targets, distances, sigmas, edges, paths
        )

    def _draws(self, index: int):
        """Sample ``index``'s walk uniforms in step order, computed
        32 at a time — the scalar walks' source of randomness."""
        for step in itertools.count(0, 32):
            yield from counter_uniforms(
                self.key, index, np.arange(step, step + 32)
            ).tolist()

    def sample_pair(self, source: int, target: int) -> PackedSamples:
        """A one-row record: a uniform shortest path for a *given*
        ordered pair, with the walk uniforms of the index at the
        cursor."""
        self.cursor += 1
        return self._scalar([source], [target], [self.cursor - 1])

    def _scalar(self, sources, targets, indices) -> PackedSamples:
        """The scalar search and walk of every ``(source, target)``
        pair, with the walk uniforms of the matching index."""
        draw = {
            "bidirectional": self._sample_bidirectional,
            "dijkstra": self._sample_dijkstra,
            "forward": self._sample_forward,
        }[self.method]
        rows = [
            draw(source, target, index)
            for source, target, index in zip(
                np.asarray(sources).tolist(),
                np.asarray(targets).tolist(),
                np.asarray(indices).tolist(),
            )
        ]
        paths, distances, sigmas, edges = zip(*rows) if rows else ((),) * 4
        self.total_samples += len(rows)
        self.total_traversals += len(rows)
        self.total_edges_explored += sum(edges)
        return PackedSamples.from_paths(
            sources, targets, distances, sigmas, edges, paths
        )

    # ------------------------------------------------------------------
    # One pair each: ``(nodes, distance, sigma_st, edges_explored)``,
    # with empty nodes, distance -1 and sigma 0 for an unreachable pair.
    def _sample_bidirectional(self, source: int, target: int, index: int):
        result, explored = bidirectional_search(self.graph, source, target)
        if result is None:
            # unreachable: both searches exhausted their closure — that
            # work is real, so the ablation must see it
            return _NO_PATH, -1, 0.0, explored
        nodes = self._path_nodes(result, self._draws(index))
        return nodes, result.distance, result.sigma_st, result.edges_explored

    def _path_nodes(self, result: BidirectionalResult, draws) -> np.ndarray:
        """Draw one uniform path from a completed bidirectional search."""
        pivot = _weighted_pick(result.cut_nodes, result.cut_weights, next(draws))
        head = self._walk(
            self.graph.predecessors, pivot, result.dist_forward,
            result.sigma_forward, draws,
        )
        tail = self._walk(
            self.graph.neighbors, pivot, result.dist_backward,
            result.sigma_backward, draws,
        )
        return np.asarray(head[::-1] + tail[1:], dtype=np.int64)

    def _sample_forward(self, source: int, target: int, index: int):
        dist, sigma = bfs_sigma(self.graph, source, target=target)
        # plain BFS explores every arc out of the levels it expanded —
        # for an unreachable target that is the source's whole closure
        explored = int(
            sum(self.graph.out_degree(v) for v in np.flatnonzero(dist >= 0))
        )
        if dist[target] == -1:
            return _NO_PATH, -1, 0.0, explored
        head = self._walk(
            self.graph.predecessors, target, dist, sigma, self._draws(index)
        )
        nodes = np.asarray(head[::-1], dtype=np.int64)
        return nodes, int(dist[target]), float(sigma[target]), explored

    def _sample_dijkstra(self, source: int, target: int, index: int):
        """Weighted sampling: forward Dijkstra, then a weighted backward
        walk along shortest-path predecessors."""
        dist, sigma, order = dijkstra_sigma(self.graph, source, target=target)
        explored = int(sum(self.graph.out_degree(int(v)) for v in order))
        if dist[target] == -1:
            return _NO_PATH, -1, 0.0, explored
        nodes = self._walk_weighted(
            source, target, dist, sigma, self._draws(index)
        )
        return nodes, int(dist[target]), float(sigma[target]), explored

    def _walk_weighted(
        self, source: int, target: int, dist: np.ndarray, sigma: np.ndarray,
        draws,
    ) -> np.ndarray:
        """Weighted backward walk from ``target`` to ``source`` along
        shortest-path predecessors, each weighted by its path count;
        returns the sampled path in source→target order."""
        path = [target]
        node = target
        while node != source:
            preds = self.graph.predecessors(node)
            lengths = self.graph.predecessor_weights(node)
            on_path = (dist[preds] >= 0) & (dist[preds] + lengths == dist[node])
            level = preds[on_path]
            node = _weighted_pick(level, sigma[level], next(draws))
            path.append(node)
        return np.asarray(path[::-1], dtype=np.int64)

    @staticmethod
    def _walk(
        adjacent, start: int, dist: np.ndarray, sigma: np.ndarray, draws
    ) -> list[int]:
        """Walk from ``start`` to the root of the search that labelled
        ``dist``, one level per step, weighting each ``adjacent``
        candidate by its path count (yields the nodes in walk order)."""
        path = [start]
        node = start
        depth = int(dist[start])
        while depth > 0:
            candidates = adjacent(node)
            level = candidates[dist[candidates] == depth - 1]
            node = _weighted_pick(level, sigma[level], next(draws))
            path.append(node)
            depth -= 1
        return path


def _weighted_pick(candidates: np.ndarray, weights: np.ndarray, draw: float) -> int:
    """The candidate a uniform ``draw`` picks with probability
    proportional to its weight (inverse CDF)."""
    cumulative = np.cumsum(weights)
    index = int(np.searchsorted(cumulative, draw * cumulative[-1], side="right"))
    return int(candidates[min(index, candidates.size - 1)])
