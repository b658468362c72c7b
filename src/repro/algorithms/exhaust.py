"""EXHAUST — the quality yardstick of the paper's evaluation.

EXHAUST is simply HEDGE run with a very small error ratio and error
probability (the paper uses ``eps = 0.03`` and ``gamma = 0.01%``), so
its output is essentially a ``(1 - 1/e)``-approximation; the other
algorithms' normalized GBCs are reported as fractions of EXHAUST's
(Figs. 2–3).

The theoretically mandated sample count at ``eps = 0.03`` is enormous
(tens of millions of paths); the original C++ implementation absorbed
that on a workstation, a pure-Python reproduction cannot.  EXHAUST
therefore accepts a ``num_samples`` override: draw exactly that many
paths once and run greedy max coverage on them.  The default (200k) is
far past the empirical convergence of the estimates on the scaled-down
datasets (see the Fig. 1 bench: the relative error halves with every
doubling of L and is well under 1% at this size), so the yardstick
property is preserved.  Pass ``num_samples=None`` to run the faithful
(slow) schedule.
"""

from __future__ import annotations

from ..coverage import greedy_max_cover
from ..graph.csr import CSRGraph
from .base import GBCResult
from .hedge import Hedge

__all__ = ["Exhaust"]

_DEFAULT_SAMPLES = 200_000


class Exhaust(Hedge):
    """HEDGE with tiny (eps, gamma); a near-``(1 - 1/e) opt`` reference."""

    name = "EXHAUST"

    def __init__(
        self,
        eps: float = 0.03,
        gamma: float = 1e-4,
        num_samples: int | None = _DEFAULT_SAMPLES,
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
            max_samples=max_samples,
            telemetry=telemetry,
            debug=debug,
            session=session,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            stop_after_checkpoints=stop_after_checkpoints,
        )
        self.num_samples = num_samples

    def _checkpoint_params(self) -> dict:
        return {
            **super()._checkpoint_params(),
            "num_samples": self.num_samples,
        }

    def run(self, graph: CSRGraph, k: int) -> GBCResult:
        if self.num_samples is None:
            return super().run(graph, k)
        self._validate(graph, k)
        start = self._timer()
        self._begin_run()
        telemetry = self.telemetry

        session, state, owns = self._open_session(graph, k, self.session_lanes)
        try:
            instance = session.store(0)
            with telemetry.span("exhaust", k=k, n=graph.n):
                with telemetry.span("sample", target=self.num_samples):
                    # idempotent on resume: a store already holding the
                    # budget draws nothing more
                    session.extend(self.num_samples, lane=0)
                self._checkpoint(session, k, {"drawn": True})
                with telemetry.span("greedy"):
                    cover = greedy_max_cover(instance, k, telemetry=telemetry)
        finally:
            if owns:
                session.close()
        estimate = cover.covered / instance.num_paths * graph.num_ordered_pairs
        telemetry.event(
            "iteration",
            algorithm=self.name,
            q=1,
            samples=instance.num_paths,
            estimate=estimate,
            converged=True,
        )

        return GBCResult(
            algorithm=self.name,
            group=cover.group,
            estimate=estimate,
            num_samples=instance.num_paths,
            iterations=1,
            converged=True,
            elapsed_seconds=self._timer() - start,
            diagnostics={
                "fixed_budget": True,
                **self._session_diagnostics(session, owns),
            },
        )
