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
from .base import GBCResult, SamplingAlgorithm

__all__ = ["Hedge"]


class Hedge(SamplingAlgorithm):
    """The HEDGE baseline.

    Parameters
    ----------
    guess_base:
        Geometric factor between successive guesses of ``opt``
        (2.0 — halving — is the conventional choice).
    max_samples:
        Safety cap on the sample-set size; when the bound demands more,
        the run stops and returns its best group with
        ``converged=False``.
    """

    name = "HEDGE"

    def __init__(
        self,
        eps: float = 0.3,
        gamma: float = 0.01,
        guess_base: float = 2.0,
        include_endpoints: bool = True,
        seed=None,
        workers: int = 0,
        max_samples: int | None = None,
        telemetry=None,
        debug: bool = False,
        session=None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        resume_from: str | None = None,
        stop_after_checkpoints: int | None = None,
    ):
        super().__init__(
            eps=eps,
            gamma=gamma,
            include_endpoints=include_endpoints,
            seed=seed,
            workers=workers,
            telemetry=telemetry,
            debug=debug,
            session=session,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            stop_after_checkpoints=stop_after_checkpoints,
        )
        if guess_base <= 1.0:
            raise ParameterError(f"guess_base must exceed 1, got {guess_base}")
        self.guess_base = guess_base
        self.max_samples = max_samples

    def _sample_bound(self, n: int, k: int, gamma_each: float, mu: float) -> int:
        """The per-guess sample requirement (overridden by CentRa)."""
        return hedge_sample_size(n, k, self.eps, gamma_each, mu)

    def _checkpoint_params(self) -> dict:
        return {
            **super()._checkpoint_params(),
            "guess_base": self.guess_base,
            "max_samples": self.max_samples,
        }

    # ------------------------------------------------------------------
    def run(self, graph: CSRGraph, k: int) -> GBCResult:
        """Guess-and-halve outer loop around the union-bound sampler."""
        self._validate(graph, k)
        start = self._timer()
        self._begin_run()

        n = graph.n
        pairs = graph.num_ordered_pairs
        num_guesses = max(1, math.ceil(math.log(pairs) / math.log(self.guess_base)))
        gamma_each = self.gamma / num_guesses

        session, state, owns = self._open_session(graph, k, self.session_lanes)

        group: list[int] = []
        estimate = 0.0
        iterations = 0
        converged = False
        capped = False
        skip = 0
        telemetry = self.telemetry

        try:
            # state parsing happens inside the try so a malformed
            # checkpoint cannot leak the session's worker processes
            instance = session.store(0)
            # every completed iteration consumed exactly one schedule
            # entry, so the iteration count doubles as the resume
            # cursor; a checkpoint without loop state (written by
            # `mutate` after a graph update) restarts the schedule over
            # the warm pool — extends are monotone, so only the
            # shortfall is resampled
            loop = state.get("loop") if state is not None else None
            if loop is not None:
                iterations = skip = int(loop["iterations"])
                group = [int(v) for v in loop["group"]]
                estimate = float(loop["estimate"])
            with telemetry.span(self.name.lower(), k=k, n=n):
                for index, (_, guess, mu) in enumerate(
                    guess_schedule(n, base=self.guess_base)
                ):
                    if index < skip:
                        continue
                    target = self._sample_bound(n, k, gamma_each, mu)
                    if self.max_samples is not None and target > self.max_samples:
                        capped = True
                        telemetry.event(
                            "capped",
                            algorithm=self.name,
                            target=target,
                            max_samples=self.max_samples,
                            samples=instance.num_paths,
                        )
                        break
                    iterations += 1
                    with telemetry.span("sample", target=target):
                        session.extend(target, lane=0)
                    with telemetry.span("greedy"):
                        cover = greedy_max_cover(instance, k, telemetry=telemetry)
                    group = cover.group
                    estimate = cover.covered / instance.num_paths * pairs
                    if estimate >= guess:
                        converged = True
                    telemetry.event(
                        "iteration",
                        algorithm=self.name,
                        q=iterations,
                        guess=guess,
                        target=target,
                        samples=instance.num_paths,
                        estimate=estimate,
                        converged=converged,
                    )
                    if converged:
                        break
                    self._checkpoint(
                        session,
                        k,
                        {
                            "iterations": iterations,
                            "group": [int(v) for v in group],
                            "estimate": float(estimate),
                        },
                    )
        finally:
            if owns:
                session.close()

        return GBCResult(
            algorithm=self.name,
            group=group,
            estimate=estimate,
            num_samples=instance.num_paths,
            iterations=iterations,
            converged=converged,
            elapsed_seconds=self._timer() - start,
            diagnostics={
                "num_guesses": num_guesses,
                "capped": capped,
                **self._session_diagnostics(session, owns),
            },
        )
