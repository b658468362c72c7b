"""AdaAlg — the paper's adaptive sampling algorithm (Algorithm 1).

The algorithm maintains two growing sample sets of shortest paths:

* ``S`` — used to *find* a tentative group ``C_q`` (greedy max
  coverage) and its **biased** estimate ``Bhat`` (Eq. 4; biased
  because the group was optimized on these very samples);
* ``T`` — an independent set used to compute the **unbiased** estimate
  ``Bbar`` of the same group (Eq. 8).

At iteration ``q`` the guess of the optimum is ``g_q = n(n-1)/b^q``
and both sets are grown to ``L_q = theta * b^q`` samples (Eq. 6–7).
A counter ``cnt`` tracks how often the event ``Bbar >= g_q`` has
occurred; once it has occurred twice, the guess is provably below
``opt / b^(cnt-2)`` with high probability (Lemma 3), which certifies a
sample count large enough to bound the estimation error ``eps_1``
(Eq. 10, Lemmas 4–5).  The run stops when the accumulated error

    eps_sum = beta (1 - 1/e)(1 - eps_1) + (2 - 1/e) eps_1

drops below the requested ``eps`` (Ineq. 11), where
``beta = 1 - Bbar/Bhat`` is the observed relative bias.  The returned
group is then a ``(1 - 1/e - eps)``-approximation with probability at
least ``1 - gamma`` (Lemma 6 / Theorem 1).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ..bounds.martingale import epsilon_one
from ..bounds.sample_size import adaalg_schedule
from ..coverage import greedy_max_cover
from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from ..obs import check_coverage, check_greedy
from .base import SamplingAlgorithm, scaled_share

__all__ = ["AdaAlg", "AdaAlgIteration"]

_EULER = 1.0 - 1.0 / math.e


@dataclass(frozen=True)
class AdaAlgIteration:
    """Per-iteration trace record (kept in ``diagnostics['trace']``)."""

    q: int
    guess: float
    samples: int
    biased: float
    unbiased: float
    cnt: int
    beta: float | None
    eps1: float | None
    eps_sum: float | None


class AdaAlg(SamplingAlgorithm):
    """The adaptive top-K GBC algorithm of the paper.

    Parameters
    ----------
    eps:
        Error ratio in ``(0, 1 - 1/e)``; the output is a
        ``(1 - 1/e - eps)``-approximation w.h.p.
    gamma:
        Error probability (success probability is ``1 - gamma``).
    b_min:
        Floor for the geometric base ``b`` (Eq. 13; paper uses 1.1).
    validation_set:
        The paper's design keeps an independent sample set ``T`` for
        the unbiased estimate (default).  ``False`` is the ablation:
        the biased estimate doubles as the "unbiased" one (so
        ``beta = 0`` identically and the stop test degenerates to
        ``(2 - 1/e) eps_1 <= eps``), halving the samples but
        forfeiting the bias correction the guarantee rests on.
    **options:
        The shared keywords of
        :class:`~repro.algorithms.base.SamplingAlgorithm` (``seed``,
        ``workers``, ``max_samples`` — a cap on *each* sample set —,
        checkpointing, ...).
    """

    name = "AdaAlg"
    session_lanes = 2

    def __init__(
        self,
        eps: float = 0.3,
        gamma: float = 0.01,
        b_min: float = 1.1,
        *,
        validation_set: bool = True,
        **options,
    ):
        super().__init__(eps=eps, gamma=gamma, **options)
        if not 0.0 < eps < _EULER:
            # stricter than the base class: the approximation target
            # (1 - 1/e - eps) must stay positive
            raise ParameterError(f"AdaAlg needs eps in (0, 1 - 1/e); got {eps}")
        self.b_min = b_min
        self.validation_set = validation_set
        if not validation_set:
            # the ablation draws S only; lane 0's stream does not depend
            # on the lane count, so S is the same pool either way
            self.session_lanes = 1

    def _checkpoint_params(self) -> dict:
        return {
            **super()._checkpoint_params(),
            "b_min": self.b_min,
            "validation_set": self.validation_set,
        }

    # ------------------------------------------------------------------
    def _start(self, graph: CSRGraph, k: int, loop: dict | None):
        """Iteration ``q`` guesses ``g_q = n(n-1)/b^q`` and grows S and T
        to ``L_q = theta b^q`` samples (Eq. 6-7)."""
        b, q_max, theta = adaalg_schedule(
            graph.n, self.eps, self.gamma, b_min=self.b_min
        )
        self._b, self._q_max, self._theta = b, q_max, theta
        self._cnt = 0
        self._unbiased = 0.0
        self._trace: list[AdaAlgIteration] = []
        if loop is not None:
            self._iterations = int(loop["q"])
            self._cnt = int(loop["cnt"])
            self._group = [int(v) for v in loop["group"]]
            self._estimate = float(loop["biased"])
            self._unbiased = float(loop["unbiased"])
            self._trace = [AdaAlgIteration(**entry) for entry in loop["trace"]]
        pairs = graph.num_ordered_pairs
        return (
            (math.ceil(theta * b**q), pairs / b**q) for q in range(1, q_max + 1)
        )

    def _measure(self, session, k: int) -> None:
        pairs = session.graph.num_ordered_pairs
        # line 10: greedy on S, biased estimate (Eq. 4)
        selection = session.store(0)
        with self.telemetry.span("greedy"):
            cover = greedy_max_cover(selection, k, telemetry=self.telemetry)
        if self.debug:
            check_greedy(selection, k, cover)
        self._group = cover.group
        self._estimate = scaled_share(cover.covered, selection, pairs)
        if not self.validation_set:
            self._unbiased = self._estimate  # ablation: no independent T set
            return
        # line 11: the same group on the independent T, unbiased (Eq. 8)
        validation = session.store(1)
        covered = (
            check_coverage(validation, self._group)
            if self.debug
            else validation.covered_count(self._group)
        )
        self._unbiased = scaled_share(covered, validation, pairs)

    def _stop(self, session, k: int, guess: float) -> tuple[bool, dict]:
        biased, unbiased = self._estimate, self._unbiased
        beta = eps1 = eps_sum = None
        if unbiased >= guess:
            self._cnt += 1  # line 13
        if self._cnt >= 2:
            # lines 17-27: error accounting and the stop test
            c1 = math.log(4.0 / self.gamma) / (
                self._theta * self._b ** (self._cnt - 2)
            )
            eps1 = epsilon_one(c1)
            if biased > 0.0 and eps1 < 1.0:
                beta = 1.0 - unbiased / biased
                eps_sum = (
                    beta * _EULER * (1.0 - eps1) + (2.0 - 1.0 / math.e) * eps1
                )
        self._trace.append(
            AdaAlgIteration(
                q=self._iterations,
                guess=guess,
                samples=self._samples(session),
                biased=biased,
                unbiased=unbiased,
                cnt=self._cnt,
                beta=beta,
                eps1=eps1,
                eps_sum=eps_sum,
            )
        )
        fields = {
            "biased": biased,
            "unbiased": unbiased,
            "cnt": self._cnt,
            "eps1": eps1,
            "eps_sum": eps_sum,
        }
        return eps_sum is not None and eps_sum <= self.eps, fields  # line 24

    def _loop_state(self) -> dict:
        return {
            "q": self._iterations,
            "cnt": self._cnt,
            "group": [int(v) for v in self._group],
            "biased": float(self._estimate),
            "unbiased": float(self._unbiased),
            "trace": [asdict(entry) for entry in self._trace],
        }

    def _diagnostics(self) -> dict:
        return {
            "base": self._b,
            "q_max": self._q_max,
            "theta": self._theta,
            "cnt": self._cnt,
            "trace": self._trace,
        }
