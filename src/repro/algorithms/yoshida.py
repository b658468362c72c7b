"""YoshidaSketch — the pair-sampling baseline [Yoshida, KDD'14].

The earliest sampling approach to centrality maximization the paper
reviews (Sec. II): each sample is the **whole shortest-path DAG** of a
random pair (a "hypergraph sketch"), and greedy max coverage picks the
K nodes hitting the most sketches.

Two caveats, both quantified by the pair-vs-path ablation benchmark:

* the objective optimized — the fraction of pairs whose DAG is touched
  — **upper-bounds** the true group betweenness (touching one shortest
  path of a pair is counted as covering the pair entirely), so the
  reported estimate is optimistic;
* the stated sample bound ``L_1 = O((log(1/gamma) + log n^2) /
  (eps^2 mu^2))`` carries a ``1/mu^2`` (Mahmoody et al. showed it is
  also insufficient for a ``(1-1/e-eps)`` guarantee on B(C)), and each
  sample costs two full truncated BFS traversals instead of a balanced
  bidirectional one.

The implementation wraps the bound in the same guess-and-halve outer
loop as HEDGE so the sample-count comparison is like-for-like.
"""

from __future__ import annotations

import math

from .._rng import as_generator
from ..bounds.sample_size import guess_schedule
from ..coverage import CoverageInstance, greedy_max_cover
from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from ..paths.pair_sampler import PairSampler
from .base import GBCAlgorithm, GBCResult

__all__ = ["YoshidaSketch", "yoshida_sample_size"]


def yoshida_sample_size(n: int, eps: float, gamma: float, mu: float) -> int:
    """``L_1(mu)`` with an explicit constant (module docstring)."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 0.0 < eps < 1.0 or not 0.0 < gamma < 1.0:
        raise ParameterError("eps and gamma must lie in (0, 1)")
    if not 0.0 < mu <= 1.0:
        raise ParameterError(f"mu must lie in (0, 1], got {mu}")
    complexity = math.log(2.0 / gamma) + 2.0 * math.log(n)
    return math.ceil(2.0 * (2.0 + eps / 3.0) * complexity / (eps * eps * mu * mu))


class YoshidaSketch(GBCAlgorithm):
    """Pair-sampling (hypergraph sketch) centrality maximization.

    It draws through its own :class:`~repro.paths.pair_sampler.PairSampler`
    in process, with no session, workers or checkpoints.  Note the
    endpoint convention: DAG node sets include the pair's endpoints,
    matching the package default; ``include_endpoints=False`` strips
    them.  ``max_samples`` caps the sample count: a guess that needs
    more ends the run with ``converged=False``.
    """

    name = "YoshidaSketch"

    def __init__(
        self,
        eps: float = 0.3,
        gamma: float = 0.01,
        guess_base: float = 2.0,
        include_endpoints: bool = True,
        seed=None,
        max_samples: int | None = None,
    ):
        if not 0.0 < eps < 1.0:
            raise ParameterError(f"eps must lie in (0, 1), got {eps}")
        if not 0.0 < gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {gamma}")
        if guess_base <= 1.0:
            raise ParameterError(f"guess_base must exceed 1, got {guess_base}")
        if max_samples is not None and max_samples < 1:
            raise ParameterError(f"max_samples must be >= 1, got {max_samples}")
        self.eps = eps
        self.gamma = gamma
        self.guess_base = guess_base
        self.include_endpoints = include_endpoints
        self.max_samples = max_samples
        self._rng = as_generator(seed)

    def run(self, graph: CSRGraph, k: int) -> GBCResult:
        self._validate(graph, k)
        start = self._timer()

        n = graph.n
        pairs = graph.num_ordered_pairs
        sampler = PairSampler(graph, seed=self._rng)
        instance = CoverageInstance(n)

        group: list[int] = []
        estimate = 0.0
        iterations = 0
        converged = False
        capped = False

        for _, guess, mu in guess_schedule(n, base=self.guess_base):
            target = yoshida_sample_size(n, self.eps, self.gamma, mu)
            if self.max_samples is not None and target > self.max_samples:
                capped = True
                break
            iterations += 1
            instance.add_paths(
                self._hyperedge(sampler.sample())
                for _ in range(target - instance.num_paths)
            )
            cover = greedy_max_cover(instance, k)
            group = cover.group
            estimate = cover.covered / instance.num_paths * pairs
            if estimate >= guess:
                converged = True
                break

        return GBCResult(
            algorithm=self.name,
            group=group,
            estimate=estimate,
            num_samples=instance.num_paths,
            iterations=iterations,
            converged=converged,
            elapsed_seconds=self._timer() - start,
            diagnostics={
                "capped": capped,
                "edges_explored": sampler.total_edges_explored,
                "objective": "touched-pairs (upper bound on B(C))",
            },
        )

    def _hyperedge(self, sample):
        """The DAG node set a pair sample covers, under the endpoint
        convention."""
        nodes = sample.nodes
        if not self.include_endpoints and nodes.size:
            nodes = nodes[(nodes != sample.source) & (nodes != sample.target)]
        return nodes
