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

from .hedge import Hedge

__all__ = ["Exhaust"]

_DEFAULT_SAMPLES = 200_000


class Exhaust(Hedge):
    """HEDGE with tiny (eps, gamma); a near-``(1 - 1/e) opt`` reference.

    Parameters
    ----------
    num_samples:
        The fixed budget: a one-entry schedule whose guess of 0 every
        estimate meets, so the run draws exactly this many paths and
        runs greedy once.  ``None`` runs HEDGE's faithful schedule.
    **options:
        The shared keywords of
        :class:`~repro.algorithms.base.SamplingAlgorithm`.
    """

    name = "EXHAUST"

    def __init__(
        self,
        eps: float = 0.03,
        gamma: float = 1e-4,
        num_samples: int | None = _DEFAULT_SAMPLES,
        **options,
    ):
        # HEDGE's conventional halving; not an EXHAUST option
        super().__init__(eps=eps, gamma=gamma, guess_base=2.0, **options)
        self.num_samples = num_samples

    def _checkpoint_params(self) -> dict:
        return {
            **super()._checkpoint_params(),
            "num_samples": self.num_samples,
        }

    def _start(self, graph, k: int, loop: dict | None):
        if self.num_samples is None:
            return super()._start(graph, k, loop)
        # the fixed budget's checkpoint holds no loop position: resuming
        # re-enters the one entry, whose extend finds the budget drawn
        return [(self.num_samples, 0.0)]

    def _measure(self, session, k: int) -> None:
        if self.num_samples is not None:
            # the draw is the whole cost of a fixed budget: snapshot it
            # before the greedy pass
            self._checkpoint(session, k)
        super()._measure(session, k)

    def _loop_state(self) -> dict:
        if self.num_samples is None:
            return super()._loop_state()
        return {"drawn": True}

    def _diagnostics(self) -> dict:
        if self.num_samples is None:
            return super()._diagnostics()
        return {"fixed_budget": True}
