"""Exact group betweenness centrality, independent of the program.

This module imports nothing from ``repro``: it is the benchmark's own
yardstick for the answers the program returns.  Conventions follow the
paper:

* the sum runs over **ordered** pairs ``(s, t)`` with ``s != t``;
* a path "passes through" the group ``C`` when any of its nodes,
  **endpoints included**, lies in ``C``;
* a pair with no path (``sigma_st == 0``) contributes nothing.

So ``B(C) = sum over reachable s != t of 1 - sigma_st(avoid C) / sigma_st``,
where ``sigma_st(avoid C)`` counts the shortest ``s``-``t`` paths of the
graph that touch no node of ``C``.

All sources are handled at once, a block of them per pass, with a
level-synchronous breadth-first sweep written as sparse-by-dense
products: with ``G[v, j]`` the number of (admissible) shortest paths
from source ``j`` to node ``v`` at the current level, the next level is
``A^T @ G`` masked to the nodes at that distance.  The same sweep with
the group's rows zeroed counts the avoiding paths, and a backward sweep
over the shortest-path DAG gives every node's marginal gain at once
(used by the reference greedy in ``refs.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["ExactGBC"]

_BLOCK = 512


class ExactGBC:
    """Exact ``B(C)`` and marginal gains on one unweighted graph.

    Parameters
    ----------
    n:
        Number of nodes, ids ``0 .. n-1``.
    edges:
        ``(m, 2)`` integer array of node pairs.  For an undirected
        graph each pair stands for both arcs.  Self-loops and repeated
        pairs are dropped.
    directed:
        Whether the pairs are arcs.

    ``value`` results are memoized by group, since seeded answers
    repeat.
    """

    def __init__(self, n: int, edges, directed: bool):
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoints must lie in [0, n)")
        arr = arr[arr[:, 0] != arr[:, 1]]
        if not directed:
            arr = np.concatenate([arr, arr[:, ::-1]])
        arr = np.unique(arr, axis=0)
        ones = np.ones(len(arr))
        adj = sp.csr_matrix((ones, (arr[:, 0], arr[:, 1])), shape=(n, n))
        self.n = int(n)
        self.directed = bool(directed)
        # adj[u, v] = 1 for arc u -> v; fwd = adj^T pushes path counts
        # from a node to its out-neighbours, adj itself pulls them back.
        # The group sweeps run in float32: they only feed ratios.
        self._fwd = adj.T.tocsr().astype(np.float32)
        self._bwd = adj
        self._dist: np.ndarray | None = None  # [v, s], -1 = unreachable
        self._sigma: np.ndarray | None = None  # [v, s] shortest-path counts
        self._memo: dict[frozenset, float] = {}
        self.reachable_pairs = 0

    # ------------------------------------------------------------------
    def _blocks(self):
        for start in range(0, self.n, _BLOCK):
            yield start, min(start + _BLOCK, self.n)

    def _base(self) -> None:
        """All-pairs distances and shortest-path counts (once)."""
        if self._dist is not None:
            return
        n = self.n
        push = self._fwd.astype(np.float64)
        dist = np.full((n, n), -1, dtype=np.int16)
        sigma = np.zeros((n, n), dtype=np.float64)
        for lo, hi in self._blocks():
            cols = np.arange(lo, hi)
            frontier = np.zeros((n, hi - lo))
            frontier[cols, cols - lo] = 1.0
            block_dist = dist[:, lo:hi]
            block_sigma = sigma[:, lo:hi]
            block_dist[cols, cols - lo] = 0
            block_sigma[cols, cols - lo] = 1.0
            for level in range(1, np.iinfo(np.int16).max + 1):
                counts = push @ frontier
                counts *= block_dist < 0
                fresh = counts > 0
                if not fresh.any():
                    break
                block_dist[fresh] = level
                block_sigma += counts
                frontier = counts
            else:
                raise ValueError("graph diameter exceeds int16 levels")
        self._dist = dist
        self._sigma = sigma
        self.reachable_pairs = int((dist > 0).sum())

    def _avoid_sweep(self, lo: int, hi: int, keep: np.ndarray):
        """Yield, level by level, the counts of shortest paths that avoid
        the group, for sources ``lo..hi-1`` (``[v, j]`` layout, zero off
        the level).  ``keep[v]`` is 0 for group members, whose rows of
        the push operator are zeroed so no counted path enters them."""
        n = self.n
        dist = self._dist[:, lo:hi]
        push = (sp.diags(keep.astype(np.float32)) @ self._fwd).tocsr()
        cols = np.arange(lo, hi)
        frontier = np.zeros((n, hi - lo), dtype=np.float32)
        frontier[cols, cols - lo] = keep[cols]
        yield frontier
        for level in range(1, int(dist.max()) + 1):
            frontier = push @ frontier
            frontier *= dist == level
            yield frontier

    @staticmethod
    def _members(group, n: int) -> np.ndarray:
        members = np.unique(np.asarray(list(group), dtype=np.int64))
        if members.size and (members[0] < 0 or members[-1] >= n):
            raise ValueError("group mentions node ids outside [0, n)")
        return members

    def _keep(self, members: np.ndarray) -> np.ndarray:
        keep = np.ones(self.n)
        keep[members] = 0.0
        return keep

    # ------------------------------------------------------------------
    def value(self, group) -> float:
        """Exact ``B(group)`` under the conventions above."""
        members = self._members(group, self.n)
        key = frozenset(members.tolist())
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._base()
        keep = self._keep(members)
        avoided = 0.0
        for lo, hi in self._blocks():
            sweep = self._avoid_sweep(lo, hi, keep)
            next(sweep)  # level 0: the pair (s, s) is not counted
            total = np.zeros((self.n, hi - lo), dtype=np.float32)
            for counts in sweep:
                total += counts
            ratio = np.divide(total, self._sigma[:, lo:hi], where=total > 0,
                              out=np.zeros(total.shape))
            avoided += float(ratio.sum())
        result = self.reachable_pairs - avoided
        self._memo[key] = result
        return result

    def gains(self, group) -> np.ndarray:
        """``B(group + {v}) - B(group)`` for every node ``v`` (0 for
        members), from one forward and one backward sweep."""
        members = self._members(group, self.n)
        self._base()
        n = self.n
        keep = self._keep(members)
        gain = np.zeros(n)
        for lo, hi in self._blocks():
            dist = self._dist[:, lo:hi]
            inv_sigma = np.divide(1.0, self._sigma[:, lo:hi], where=dist > 0,
                                  out=np.zeros(dist.shape))
            levels = list(self._avoid_sweep(lo, hi, keep))
            # tail[v, j]: sum over targets t reached from v inside source
            # j's DAG without touching the group, of 1 / sigma_jt
            tail = np.zeros((n, hi - lo))
            for level in range(len(levels) - 1, -1, -1):
                at_level = dist == level
                tail = (
                    np.where(at_level, inv_sigma + (self._bwd @ tail), 0.0)
                    * keep[:, None]
                )
                gain += (levels[level] * tail).sum(axis=1)
        gain[members] = 0.0
        return gain
