"""HEDGE — the union-bound sampling baseline [Mahmoody et al., KDD'16].

HEDGE guarantees that the estimate of **every** group with at most K
nodes stays within ``(eps/2)·opt`` of its expectation, which costs a
``K ln n`` union-bound factor in the sample size
(:func:`repro.bounds.sample_size.hedge_sample_size`).

Because the bound depends on the unknown ``mu_opt = opt/n(n-1)``, the
implementation wraps it in the standard guess-and-halve outer loop: try
``guess = n(n-1)/base^q`` for growing ``q``; draw the samples the bound
demands for that guess; run greedy max coverage; accept once the
estimated centrality of the found group reaches the guess (at that
point the deviation guarantee certifies the guess was at most
~``opt``, so enough samples were drawn).  The failure budget ``gamma``
is split evenly across the possible guesses.
"""

from __future__ import annotations

import math

from ..bounds.sample_size import guess_schedule, hedge_sample_size
from ..coverage import greedy_max_cover
from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from ..obs import check_greedy
from .base import SamplingAlgorithm, scaled_share

__all__ = ["Hedge"]


class Hedge(SamplingAlgorithm):
    """The HEDGE baseline.

    Parameters
    ----------
    guess_base:
        Geometric factor between successive guesses of ``opt``
        (2.0 — halving — is the conventional choice).
    **options:
        The shared keywords of
        :class:`~repro.algorithms.base.SamplingAlgorithm` (``seed``,
        ``workers``, ``max_samples``, checkpointing, ...).
    """

    name = "HEDGE"

    def __init__(
        self,
        eps: float = 0.3,
        gamma: float = 0.01,
        guess_base: float = 2.0,
        **options,
    ):
        super().__init__(eps=eps, gamma=gamma, **options)
        if guess_base <= 1.0:
            raise ParameterError(f"guess_base must exceed 1, got {guess_base}")
        self.guess_base = guess_base

    def _sample_bound(self, n: int, k: int, gamma_each: float, mu: float) -> int:
        """The per-guess sample requirement (overridden by CentRa)."""
        return hedge_sample_size(n, k, self.eps, gamma_each, mu)

    def _bounds_per_guess(self) -> int:
        """Tail bounds sharing each guess's slice of ``gamma`` (CentRa's
        empirical certificate adds a second)."""
        return 1

    def _checkpoint_params(self) -> dict:
        return {**super()._checkpoint_params(), "guess_base": self.guess_base}

    # ------------------------------------------------------------------
    def _start(self, graph: CSRGraph, k: int, loop: dict | None):
        """The guess-and-halve schedule: one union-bound sample target
        per guess; every completed iteration consumed exactly one
        entry, so the iteration count doubles as the resume cursor."""
        n = graph.n
        self._num_guesses = max(
            1, math.ceil(math.log(graph.num_ordered_pairs) / math.log(self.guess_base))
        )
        self._gamma_each = self.gamma / (self._bounds_per_guess() * self._num_guesses)
        if loop is not None:
            self._iterations = int(loop["iterations"])
            self._group = [int(v) for v in loop["group"]]
            self._estimate = float(loop["estimate"])
        return (
            (self._sample_bound(n, k, self._gamma_each, mu), guess)
            for _, guess, mu in guess_schedule(n, base=self.guess_base)
        )

    def _measure(self, session, k: int) -> None:
        pool = session.store(0)
        with self.telemetry.span("greedy"):
            cover = greedy_max_cover(pool, k, telemetry=self.telemetry)
        if self.debug:
            check_greedy(pool, k, cover)
        self._group = cover.group
        self._estimate = scaled_share(
            cover.covered, pool, session.graph.num_ordered_pairs
        )

    def _stop(self, session, k: int, guess: float) -> tuple[bool, dict]:
        # the deviation guarantee certifies a guess the estimate reaches
        return self._estimate >= guess, {"estimate": self._estimate}

    def _loop_state(self) -> dict:
        return {
            "iterations": self._iterations,
            "group": [int(v) for v in self._group],
            "estimate": float(self._estimate),
        }

    def _diagnostics(self) -> dict:
        return {"num_guesses": self._num_guesses}
