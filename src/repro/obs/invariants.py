"""Debug-mode invariant validators for the sampling substrate.

The ``debug=True`` knob of the engines (and of the sampling
algorithms, which forward it) turns on two classes of checks that
would have caught the historical bookkeeping bugs immediately:

* :func:`check_samples` — every row of a drawn
  :class:`~repro.paths.packed.PackedSamples` record is a *genuine*
  shortest path: it starts at the source, ends at the
  target, every consecutive hop is an existing arc, its hop count is
  ``dist(s, t) + 1`` nodes (weight sum equals the reported distance on
  weighted graphs), and the reported distance matches an independent
  re-computation.
* :func:`check_instance` / :func:`check_coverage` —
  :class:`~repro.coverage.CoverageInstance` bookkeeping stays
  consistent: degree counters match a recount of the stored paths, the
  lazy incidence CSR agrees with the flat arrays, and the vectorized
  ``covered_count`` matches a brute-force per-path recount.
* :func:`check_greedy` — a :func:`~repro.coverage.greedy_max_cover`
  result is the plain-greedy pick sequence of the instance it was
  asked on, so a memoized CELF run that outlived a change to its pool
  fails loudly.

All validators raise :class:`~repro.exceptions.InvariantViolation` on
the first inconsistency.  They re-run traversals and full recounts, so
the mode costs roughly one extra search per sample — see
``docs/observability.md`` for the cost discussion.
"""

from __future__ import annotations

import numpy as np

from ..coverage.hypergraph import CoverageInstance
from ..exceptions import InvariantViolation
from ..graph.csr import CSRGraph
from ..paths._dispatch import is_weighted
from ..paths.bidirectional import bidirectional_search
from ..paths.dijkstra import dijkstra_sigma
from ..paths.packed import PackedSamples

__all__ = ["check_samples", "check_instance", "check_coverage", "check_greedy"]


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def _independent_distance(graph: CSRGraph, source: int, target: int) -> int:
    """Re-derive ``dist(source, target)`` with a fresh search
    (``-1`` when unreachable)."""
    if is_weighted(graph):
        dist, _, _ = dijkstra_sigma(graph, source, target=target)
        return int(dist[target])
    result, _ = bidirectional_search(graph, source, target)
    return -1 if result is None else int(result.distance)


def check_samples(graph: CSRGraph, samples: PackedSamples) -> None:
    """Validate that every row of ``samples`` is a genuine shortest
    path of ``graph``."""
    weighted = is_weighted(graph)
    for row in range(len(samples)):
        s, t = int(samples.sources[row]), int(samples.targets[row])
        distance = int(samples.distances[row])
        nodes = samples.nodes[samples.offsets[row] : samples.offsets[row + 1]]
        if nodes.size == 0:
            if distance != -1:
                _fail(
                    f"null sample {row} ({s}->{t}) carries distance "
                    f"{distance}, expected -1"
                )
            if _independent_distance(graph, s, t) != -1:
                _fail(f"null sample {row} for reachable pair ({s}->{t})")
            continue

        if int(nodes[0]) != s or int(nodes[-1]) != t:
            _fail(
                f"sample {row}: path endpoints ({int(nodes[0])}, "
                f"{int(nodes[-1])}) do not match the sampled pair ({s}, {t})"
            )
        weight = 0
        for u, v in zip(nodes[:-1].tolist(), nodes[1:].tolist()):
            if not graph.has_edge(u, v):
                _fail(
                    f"sample {row}: path ({s}->{t}) uses a non-existent "
                    f"arc ({u}, {v})"
                )
            if weighted:
                hop = graph.neighbor_weights(u)[graph.neighbors(u) == v]
                weight += int(hop.min())
        if weighted:
            if weight != distance:
                _fail(
                    f"sample {row}: path ({s}->{t}) weight {weight} does "
                    f"not match the reported distance {distance}"
                )
        elif nodes.size != distance + 1:
            _fail(
                f"sample {row}: path ({s}->{t}) has {nodes.size} nodes but "
                f"reports distance {distance} (expected dist+1 nodes)"
            )
        true_distance = _independent_distance(graph, s, t)
        if true_distance != distance:
            _fail(
                f"sample {row}: path ({s}->{t}) reports distance {distance} "
                f"but an independent search finds {true_distance} — not a "
                "shortest path"
            )


def check_instance(instance: CoverageInstance) -> None:
    """Validate the :class:`CoverageInstance` internal bookkeeping.

    Recounts node degrees from the stored paths and cross-checks the
    lazy node→path incidence CSR against both the recount and the flat
    path storage.
    """
    recount = np.zeros(instance.num_nodes, dtype=np.int64)
    for pid in range(instance.num_paths):
        nodes = instance.path(pid)
        if nodes.size:
            if nodes[0] < 0 or nodes[-1] >= instance.num_nodes:
                _fail(f"path {pid} mentions node ids outside the universe")
            if np.unique(nodes).size != nodes.size:
                _fail(f"path {pid} stores duplicate node ids")
        recount[nodes] += 1
    degrees = instance.degrees()
    if not np.array_equal(recount, degrees):
        bad = int(np.flatnonzero(recount != degrees)[0])
        _fail(
            f"degree counter of node {bad} is {int(degrees[bad])} but a "
            f"recount of the stored paths gives {int(recount[bad])}"
        )
    for node in np.flatnonzero(recount):
        pids = instance.paths_through_array(int(node))
        if pids.size != recount[node]:
            _fail(
                f"incidence CSR lists {pids.size} paths through node "
                f"{int(node)}, recount gives {int(recount[node])}"
            )


def check_coverage(instance: CoverageInstance, group) -> int:
    """Validate ``covered_count(group)`` against a brute-force recount;
    returns the (verified) count."""
    members = {int(v) for v in group}
    brute = 0
    for pid in range(instance.num_paths):
        if not members.isdisjoint(instance.path(pid).tolist()):
            brute += 1
    fast = instance.covered_count(group)
    if fast != brute:
        _fail(
            f"covered_count reports {fast} paths covered by {sorted(members)} "
            f"but a per-path recount gives {brute}"
        )
    return fast


def check_greedy(instance: CoverageInstance, k: int, result) -> None:
    """Validate a :func:`~repro.coverage.greedy_max_cover` result for
    ``k`` against plain greedy on ``instance``.

    Plain greedy prices every node with
    :meth:`~CoverageInstance.marginal_gains`, takes the largest gain
    (ties to the smallest id) and stops at gain 0 — exactly the
    sequence CELF with ``(-gain, node)`` heap keys picks.  Members past
    the recomputed picks must be padding with gain 0.
    """
    nodes = np.arange(instance.num_nodes, dtype=np.int64)
    covered = np.zeros(instance.num_paths, dtype=bool)
    picks: list[int] = []
    gains: list[int] = []
    while len(picks) < k:
        marginal = instance.marginal_gains(nodes, covered)
        best = int(np.argmax(marginal))
        if marginal[best] <= 0:
            break
        picks.append(best)
        gains.append(int(marginal[best]))
        instance.mark_covered(best, covered)
    count = len(picks)
    group, result_gains = list(result.group), list(result.gains)
    if group[:count] != picks or result_gains[:count] != gains:
        _fail(
            f"greedy for k={k} returned group {group[:count]} with gains "
            f"{result_gains[:count]} but plain greedy on the instance picks "
            f"{picks} with gains {gains}"
        )
    if any(result_gains[count:]) or result.covered != sum(gains):
        _fail(
            f"greedy for k={k} reports {result.covered} paths covered and "
            f"padding gains {result_gains[count:]}; plain greedy covers "
            f"{sum(gains)} with {count} picks"
        )
