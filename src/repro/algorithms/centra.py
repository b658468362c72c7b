"""CentRa — the Rademacher-average baseline [Pellegrina, KDD'23].

CentRa is the state of the art the paper compares against.  Its sample
size replaces HEDGE's crude ``K ln n`` union bound with the Rademacher
complexity of the group-coverage family,
``K (ln K)(ln ln n)(ln 1/mu)``, and its variance-aware tail bounds
sharpen the leading constant
(:func:`repro.bounds.sample_size.centra_sample_size`).

The outer structure is the same guess-and-halve loop as
:class:`~repro.algorithms.hedge.Hedge`.  Optionally
(``empirical_stop=True``) HEDGE's stopping rule gains a second
certificate: when the estimate misses the guess, the run evaluates a
Monte-Carlo empirical Rademacher average on the drawn samples and
stops as soon as the resulting uniform-deviation bound certifies a
``(eps/2)·guess`` accuracy — mirroring how the original exploits
empirical (rather than worst-case) complexity.  The MC-ERA inner
supremum is a greedy approximation (see
:mod:`repro.bounds.rademacher`), so the empirical mode is offered for
the ablation study and is off by default.
"""

from __future__ import annotations

from ..bounds.rademacher import era_deviation_bound, monte_carlo_era
from ..bounds.sample_size import centra_sample_size
from .hedge import Hedge

__all__ = ["CentRa"]


class CentRa(Hedge):
    """The CentRa baseline (state of the art before AdaAlg).

    Parameters
    ----------
    empirical_stop:
        Also accept a guess once the Monte-Carlo empirical Rademacher
        average of the drawn samples certifies an ``(eps/2)·guess``
        accuracy (module docstring); off by default.
    era_draws:
        Rademacher sign vectors per empirical certificate.
    *args, **options:
        As for :class:`~repro.algorithms.hedge.Hedge`.
    """

    name = "CentRa"

    def __init__(
        self,
        *args,
        empirical_stop: bool = False,
        era_draws: int = 8,
        **options,
    ):
        super().__init__(*args, **options)
        self.empirical_stop = empirical_stop
        self.era_draws = era_draws

    def _sample_bound(self, n: int, k: int, gamma_each: float, mu: float) -> int:
        return centra_sample_size(n, k, self.eps, gamma_each, mu)

    def _bounds_per_guess(self) -> int:
        return 2 if self.empirical_stop else 1

    def _checkpoint_params(self) -> dict:
        return {
            **super()._checkpoint_params(),
            "empirical_stop": self.empirical_stop,
            "era_draws": self.era_draws,
        }

    # ------------------------------------------------------------------
    def _start(self, graph, k: int, loop: dict | None):
        self._stopped_by_era = False
        return super()._start(graph, k, loop)

    def _stop(self, session, k: int, guess: float) -> tuple[bool, dict]:
        converged, fields = super()._stop(session, k, guess)
        if not self.empirical_stop:
            return converged, fields
        deviation = None
        if not converged:
            # empirical certificate: does the observed complexity
            # already certify an (eps/2)-accurate estimate at this
            # guess level?  The MC-ERA draws consume self._rng, whose
            # state checkpoints carry alongside the sample streams.
            instance = session.store(0)
            with self.telemetry.span("era"):
                era = monte_carlo_era(
                    instance, k, num_draws=self.era_draws, seed=self._rng
                )
                deviation = era_deviation_bound(
                    era, instance.num_paths, self._gamma_each
                )
            pairs = session.graph.num_ordered_pairs
            converged = self._stopped_by_era = (
                deviation * pairs <= 0.5 * self.eps * guess
                and self._estimate > 0.0
            )
        return converged, {**fields, "era_deviation": deviation}

    def _diagnostics(self) -> dict:
        if not self.empirical_stop:
            return super()._diagnostics()
        return {
            **super()._diagnostics(),
            "empirical_stop": True,
            "stopped_by_era": self._stopped_by_era,
        }
