"""CentRa — the Rademacher-average baseline [Pellegrina, KDD'23].

CentRa is the state of the art the paper compares against.  Its sample
size replaces HEDGE's crude ``K ln n`` union bound with the Rademacher
complexity of the group-coverage family,
``K (ln K)(ln ln n)(ln 1/mu)``, and its variance-aware tail bounds
sharpen the leading constant
(:func:`repro.bounds.sample_size.centra_sample_size`).

The outer structure is the same guess-and-halve loop as
:class:`~repro.algorithms.hedge.Hedge`.  Optionally
(``empirical_stop=True``) the run also evaluates a Monte-Carlo
empirical Rademacher average on the drawn samples at each guess and
stops as soon as the resulting uniform-deviation bound certifies a
``(eps/2)·guess`` accuracy — mirroring how the original exploits
empirical (rather than worst-case) complexity.  The MC-ERA inner
supremum is a greedy approximation (see
:mod:`repro.bounds.rademacher`), so the empirical mode is offered for
the ablation study and is off by default.
"""

from __future__ import annotations

import math

from ..bounds.rademacher import era_deviation_bound, monte_carlo_era
from ..bounds.sample_size import centra_sample_size, guess_schedule
from ..coverage import greedy_max_cover
from ..graph.csr import CSRGraph
from .base import GBCResult
from .hedge import Hedge

__all__ = ["CentRa"]


class CentRa(Hedge):
    """The CentRa baseline (state of the art before AdaAlg)."""

    name = "CentRa"

    def __init__(
        self,
        eps: float = 0.3,
        gamma: float = 0.01,
        guess_base: float = 2.0,
        include_endpoints: bool = True,
        seed=None,
        workers: int = 0,
        max_samples: int | None = None,
        empirical_stop: bool = False,
        era_draws: int = 8,
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
            guess_base=guess_base,
            include_endpoints=include_endpoints,
            seed=seed,
            workers=workers,
            max_samples=max_samples,
            telemetry=telemetry,
            debug=debug,
            session=session,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            stop_after_checkpoints=stop_after_checkpoints,
        )
        self.empirical_stop = empirical_stop
        self.era_draws = era_draws

    def _sample_bound(self, n: int, k: int, gamma_each: float, mu: float) -> int:
        return centra_sample_size(n, k, self.eps, gamma_each, mu)

    def _checkpoint_params(self) -> dict:
        return {
            **super()._checkpoint_params(),
            "empirical_stop": self.empirical_stop,
            "era_draws": self.era_draws,
        }

    # ------------------------------------------------------------------
    def run(self, graph: CSRGraph, k: int) -> GBCResult:
        if not self.empirical_stop:
            return super().run(graph, k)
        return self._run_empirical(graph, k)

    def _run_empirical(self, graph: CSRGraph, k: int) -> GBCResult:
        """Guess-and-halve with the MC-ERA early stop layered on top."""
        self._validate(graph, k)
        start = self._timer()
        self._begin_run()

        n = graph.n
        pairs = graph.num_ordered_pairs
        num_guesses = max(1, math.ceil(math.log(pairs) / math.log(self.guess_base)))
        gamma_each = self.gamma / (2 * num_guesses)

        session, state, owns = self._open_session(graph, k, self.session_lanes)

        group: list[int] = []
        estimate = 0.0
        iterations = 0
        converged = False
        stopped_by_era = False
        skip = 0
        telemetry = self.telemetry

        try:
            # state parsing happens inside the try so a malformed
            # checkpoint cannot leak the session's worker processes
            instance = session.store(0)
            # the MC-ERA draws consumed self._rng, whose state the
            # checkpoint restored alongside the engine streams; a
            # checkpoint without loop state (post-mutate) restarts the
            # schedule over the warm pool
            loop = state.get("loop") if state is not None else None
            if loop is not None:
                iterations = skip = int(loop["iterations"])
                group = [int(v) for v in loop["group"]]
                estimate = float(loop["estimate"])
            with telemetry.span("centra", k=k, n=n, empirical=True):
                for index, (_, guess, mu) in enumerate(
                    guess_schedule(n, base=self.guess_base)
                ):
                    if index < skip:
                        continue
                    target = self._sample_bound(n, k, gamma_each, mu)
                    if self.max_samples is not None and target > self.max_samples:
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

                    deviation = None
                    if estimate >= guess:
                        converged = True
                    else:
                        # empirical early stop: does the observed complexity
                        # already certify an (eps/2)-accurate estimate at
                        # this guess level?
                        with telemetry.span("era"):
                            era = monte_carlo_era(
                                instance, k, num_draws=self.era_draws,
                                seed=self._rng,
                            )
                            deviation = era_deviation_bound(
                                era, instance.num_paths, gamma_each
                            )
                        if (
                            deviation * pairs <= 0.5 * self.eps * guess
                            and estimate > 0.0
                        ):
                            converged = True
                            stopped_by_era = True
                    telemetry.event(
                        "iteration",
                        algorithm=self.name,
                        q=iterations,
                        guess=guess,
                        target=target,
                        samples=instance.num_paths,
                        estimate=estimate,
                        era_deviation=deviation,
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
                "empirical_stop": True,
                "stopped_by_era": stopped_by_era,
                **self._session_diagnostics(session, owns),
            },
        )
