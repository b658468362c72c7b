"""Sampling-based approximation of *node* betweenness centrality.

The paper's related work (Sec. II) builds on a line of node-BC
approximation algorithms — Riondato–Kornaropoulos (RK), ABRA, KADABRA,
SILVAN — that share one estimator: sample L uniform shortest paths and
count, for every node, the fraction of paths it sits strictly inside:

    bc_hat(v) = |{l : v interior of path_l}| / L * n(n-1).

This module provides that estimator with two stopping rules:

* :func:`approx_betweenness` — **fixed** sample size from the
  RK bound: with ``L >= (c/eps^2)(floor(log2(VD - 2)) + 1 + ln(1/delta))``
  every node's estimate is within ``eps * n(n-1)`` of its true value
  with probability ``1 - delta``, where ``VD`` is the vertex diameter
  (an upper bound obtained by double-sweep BFS).
* :func:`adaptive_betweenness` — **progressive** sampling in the
  spirit of KADABRA: geometric batches, a per-node empirical-Bernstein
  confidence radius with a union bound over nodes, stopping when the
  widest radius certifies the requested absolute accuracy.

Both reuse the exact same :class:`~repro.paths.sampler.PathSampler`
substrate as the GBC algorithms, so a single sampling implementation
backs the entire package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._rng import as_generator
from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from ..paths.bfs import bfs_distances
from ..paths.sampler import PathSampler

__all__ = [
    "BCEstimate",
    "vertex_diameter_upper_bound",
    "rk_sample_size",
    "approx_betweenness",
    "adaptive_betweenness",
    "top_k_nodes",
]

_RK_CONSTANT = 0.5  # the universal constant of the RK/VC bound


@dataclass
class BCEstimate:
    """Result of a node-BC approximation run.

    Attributes
    ----------
    values:
        Estimated betweenness per node, in the package's raw
        ordered-pair scale (divide by ``n(n-1)`` to normalize).
    num_samples:
        Shortest paths drawn.
    radius:
        Certified absolute accuracy: every ``values[v]`` is within
        ``radius`` of the true betweenness with probability
        ``1 - delta``.
    iterations:
        Sampling batches used (1 for the fixed-size estimator).
    """

    values: np.ndarray
    num_samples: int
    radius: float
    iterations: int

    def normalized(self, graph: CSRGraph) -> np.ndarray:
        """Estimates divided by ``n(n-1)``."""
        pairs = graph.num_ordered_pairs
        return self.values / pairs if pairs else self.values

    def top_k(self, k: int) -> list[int]:
        """The ``k`` nodes with the largest estimated betweenness."""
        order = np.argsort(self.values)[::-1]
        return order[:k].tolist()


def vertex_diameter_upper_bound(graph: CSRGraph, tries: int = 4, seed=None) -> int:
    """Upper bound on the number of nodes on any shortest path.

    Uses the double-sweep heuristic: BFS from a random node, then BFS
    from the farthest node found; the farthest distance seen, doubled
    (directed graphs need the slack), plus one, bounds the vertex
    diameter of the reachable structure.  Always at least 2.
    """
    if graph.n == 0:
        return 2
    rng = as_generator(seed)
    best = 1
    for _ in range(tries):
        start = int(rng.integers(graph.n))
        dist = bfs_distances(graph, start)
        if dist.max() <= 0:
            continue
        far = int(np.argmax(dist))
        second = bfs_distances(graph, far, reverse=graph.directed)
        best = max(best, int(dist.max()), int(second.max()))
    # hop diameter d => at most d + 1 nodes on a path; double-sweep can
    # underestimate the true diameter by up to 2x on directed graphs
    factor = 2 if graph.directed else 1
    return max(2, factor * best + 1)


def rk_sample_size(vertex_diameter: int, eps: float, delta: float) -> int:
    """The Riondato–Kornaropoulos sample size for accuracy ``eps``.

    ``eps`` is relative to the ``n(n-1)`` normalization (an absolute
    accuracy on the normalized centrality).
    """
    if vertex_diameter < 2:
        raise ParameterError("vertex diameter must be >= 2")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1); got {eps}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1); got {delta}")
    vc_term = math.floor(math.log2(max(vertex_diameter - 2, 1))) + 1
    return math.ceil(
        (_RK_CONSTANT / (eps * eps)) * (vc_term + math.log(1.0 / delta))
    )


def _count_interior(
    graph: CSRGraph, sampler: PathSampler, counts: np.ndarray, draws: int
) -> None:
    """Draw ``draws`` paths, incrementing per-node interior-hit counts."""
    interior, _ = sampler.sample(draws).coverage(include_endpoints=False)
    counts += np.bincount(interior, minlength=graph.n)


def approx_betweenness(
    graph: CSRGraph, eps: float = 0.01, delta: float = 0.1, seed=None
) -> BCEstimate:
    """Fixed-size RK approximation of every node's betweenness.

    Guarantees ``|bc_hat(v) - bc(v)| <= eps * n(n-1)`` for **all** nodes
    simultaneously with probability ``1 - delta``.
    """
    if graph.n < 2:
        raise ParameterError("betweenness needs at least two nodes")
    rng = as_generator(seed)
    diameter = vertex_diameter_upper_bound(graph, seed=rng)
    num_samples = rk_sample_size(diameter, eps, delta)
    sampler = PathSampler(graph, seed=rng)
    counts = np.zeros(graph.n, dtype=np.float64)
    _count_interior(graph, sampler, counts, num_samples)
    pairs = graph.num_ordered_pairs
    return BCEstimate(
        values=counts / num_samples * pairs,
        num_samples=num_samples,
        radius=eps * pairs,
        iterations=1,
    )


def adaptive_betweenness(
    graph: CSRGraph,
    eps: float = 0.01,
    delta: float = 0.1,
    batch: int = 1000,
    growth: float = 1.5,
    max_samples: int = 10_000_000,
    seed=None,
) -> BCEstimate:
    """Progressive (KADABRA-style) approximation.

    Samples in geometrically growing batches; after each batch the
    per-node empirical-Bernstein radius

        r(v) = sqrt(2 p_hat(v) (1 - p_hat(v)) ln(3 S / delta') / L)
               + 3 ln(3 S / delta') / L

    (with ``delta'`` split across a generous schedule bound ``S`` of
    stages and the ``n`` nodes) is evaluated, and the run stops once
    ``max_v r(v) <= eps``.

    Compared to the fixed RK count, the adaptive rule trades the
    vertex-diameter (VC) term for a ``ln n`` union bound plus a
    variance term: it wins on long-diameter / low-variance graphs
    (paths, grids, road-like networks) and certifies its achieved
    accuracy from the data either way, but on small dense graphs with
    a large maximum interior probability the RK count can be smaller.
    """
    if graph.n < 2:
        raise ParameterError("betweenness needs at least two nodes")
    if batch < 1 or growth <= 1.0:
        raise ParameterError("batch must be >= 1 and growth > 1")
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ParameterError("eps and delta must lie in (0, 1)")

    rng = as_generator(seed)
    sampler = PathSampler(graph, seed=rng)
    counts = np.zeros(graph.n, dtype=np.float64)
    pairs = graph.num_ordered_pairs

    stages_bound = 64  # generous upper bound on the number of batches
    log_term = math.log(3.0 * stages_bound * graph.n / delta)

    drawn = 0
    target = batch
    iterations = 0
    radius = float("inf")
    while drawn < max_samples:
        _count_interior(graph, sampler, counts, target - drawn)
        drawn = target
        iterations += 1
        p_hat = counts / drawn
        bernstein = (
            np.sqrt(2.0 * p_hat * (1.0 - p_hat) * log_term / drawn)
            + 3.0 * log_term / drawn
        )
        radius = float(bernstein.max())
        if radius <= eps or iterations >= stages_bound:
            break
        target = min(max_samples, math.ceil(target * growth))

    return BCEstimate(
        values=counts / drawn * pairs,
        num_samples=drawn,
        radius=radius * pairs,
        iterations=iterations,
    )


def top_k_nodes(
    graph: CSRGraph, k: int, eps: float = 0.005, delta: float = 0.1, seed=None
) -> list[int]:
    """Convenience: the ``k`` nodes with the largest (approximate)
    betweenness, via the adaptive estimator."""
    if not 1 <= k <= graph.n:
        raise ParameterError(f"need 1 <= k <= n={graph.n}, got {k}")
    estimate = adaptive_betweenness(graph, eps=eps, delta=delta, seed=seed)
    return estimate.top_k(k)
