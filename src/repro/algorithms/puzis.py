"""Exact (1 - 1/e) greedy for top-K GBC [Puzis et al., Phys. Rev. E 2007].

The classic polynomial-time reference the paper cites: precompute the
all-pairs distance and path-count matrices, then greedily add the node
with the largest exact marginal gain, maintaining the matrix

    sigmaC[u, w] = number of shortest u→w paths avoiding the chosen
                   group C entirely (endpoints included),

via the successive update

    sigmaC'[u, w] = sigmaC[u, w] - sigmaC[u, v] * sigmaC[v, w]
                                        if d(u,v) + d(v,w) = d(u,w),

which telescopes inclusion–exclusion exactly: after selecting ``v``,
``sigmaC[v, ·]`` and ``sigmaC[·, v]`` become 0, so later selections
never double-subtract paths.  The marginal gain of a candidate ``v`` is

    gain(v) = sum over valid pairs of sigmaC[s, v] sigmaC[v, t] / sigma[s, t],

covering endpoint pairs automatically because ``d(v, v) = 0`` and
``sigmaC[v, v] = 1`` until ``v`` is chosen.

Complexity is O(n·m) preprocessing plus O(n^2) per candidate per round
(numpy-vectorized), i.e. O(K n^3) total — the paper's reason for
needing sampling algorithms at all.  Use only on small graphs; the
endpoint-included convention is the only one supported (the avoid-set
matrix cannot express per-pair avoid sets).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from ..paths.allpairs import all_pairs_sigma
from .base import GBCAlgorithm, GBCResult

__all__ = ["PuzisGreedy"]


class PuzisGreedy(GBCAlgorithm):
    """Exact greedy top-K GBC (endpoints included).

    Parameters
    ----------
    max_nodes:
        Refuse graphs larger than this (the dense matrices are O(n^2)).
    """

    name = "PuzisGreedy"

    def __init__(self, max_nodes: int = 2000):
        self.max_nodes = max_nodes

    def run(self, graph: CSRGraph, k: int) -> GBCResult:
        self._validate(graph, k)
        if graph.n > self.max_nodes:
            raise ParameterError(
                f"PuzisGreedy is O(K n^3); n={graph.n} exceeds "
                f"max_nodes={self.max_nodes}"
            )
        start = self._timer()

        dist, sigma = all_pairs_sigma(graph, max_nodes=self.max_nodes)
        n = graph.n
        connected = dist >= 0
        np.fill_diagonal(connected, False)
        # sigma[s, s] = 1 by convention; guard division on disconnected pairs
        safe_sigma = np.where(connected, sigma, 1.0)

        sigma_c = sigma.copy()
        group: list[int] = []
        gains: list[float] = []
        total = 0.0

        for _ in range(k):
            best_node, best_gain = -1, -1.0
            for v in range(n):
                if v in group:
                    continue
                gain = self._gain(v, dist, sigma_c, safe_sigma, connected)
                if gain > best_gain:
                    best_node, best_gain = v, gain
            group.append(best_node)
            gains.append(best_gain)
            total += best_gain
            self._select(best_node, dist, sigma_c)

        return GBCResult(
            algorithm=self.name,
            group=group,
            estimate=total,
            num_samples=0,
            iterations=k,
            converged=True,
            elapsed_seconds=self._timer() - start,
            diagnostics={"gains": gains},
        )

    @staticmethod
    def _on_path_mask(v: int, dist: np.ndarray) -> np.ndarray:
        """Pairs (s, t) for which ``v`` lies on some shortest s→t path."""
        to_v = dist[:, v]
        from_v = dist[v, :]
        reach = (to_v[:, None] >= 0) & (from_v[None, :] >= 0) & (dist >= 0)
        return reach & (to_v[:, None] + from_v[None, :] == dist)

    def _gain(
        self,
        v: int,
        dist: np.ndarray,
        sigma_c: np.ndarray,
        safe_sigma: np.ndarray,
        connected: np.ndarray,
    ) -> float:
        """Exact marginal gain of adding ``v`` to the current group."""
        mask = self._on_path_mask(v, dist) & connected
        if not mask.any():
            return 0.0
        through = sigma_c[:, v][:, None] * sigma_c[v, :][None, :]
        return float((through[mask] / safe_sigma[mask]).sum())

    def _select(self, v: int, dist: np.ndarray, sigma_c: np.ndarray) -> None:
        """Apply the successive update after choosing ``v``."""
        mask = self._on_path_mask(v, dist)
        through = sigma_c[:, v][:, None] * sigma_c[v, :][None, :]
        sigma_c -= np.where(mask, through, 0.0)
