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
from ..obs import check_coverage
from .base import GBCResult, SamplingAlgorithm

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
    include_endpoints, seed:
        See :class:`~repro.algorithms.base.SamplingAlgorithm`.
    max_samples:
        Optional safety cap on the size of *each* sample set; when hit,
        the run returns its current tentative group with
        ``converged=False`` instead of sampling further.  If the cap
        preempts even the first scheduled iteration, the run still
        spends the full ``max_samples`` budget once and returns the
        exactly-``K`` greedy group it supports (never an empty group).
    validation_set:
        The paper's design keeps an independent sample set ``T`` for
        the unbiased estimate (default).  ``False`` is the ablation:
        the biased estimate doubles as the "unbiased" one (so
        ``beta = 0`` identically and the stop test degenerates to
        ``(2 - 1/e) eps_1 <= eps``), halving the samples but
        forfeiting the bias correction the guarantee rests on.
    """

    name = "AdaAlg"
    session_lanes = 2

    def __init__(
        self,
        eps: float = 0.3,
        gamma: float = 0.01,
        b_min: float = 1.1,
        include_endpoints: bool = True,
        seed=None,
        workers: int = 0,
        max_samples: int | None = None,
        validation_set: bool = True,
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
        if not 0.0 < eps < _EULER:
            # stricter than the base class: the approximation target
            # (1 - 1/e - eps) must stay positive
            raise ParameterError(f"AdaAlg needs eps in (0, 1 - 1/e); got {eps}")
        self.b_min = b_min
        self.max_samples = max_samples
        self.validation_set = validation_set

    def _checkpoint_params(self) -> dict:
        return {
            **super()._checkpoint_params(),
            "b_min": self.b_min,
            "max_samples": self.max_samples,
            "validation_set": self.validation_set,
        }

    # ------------------------------------------------------------------
    def run(self, graph: CSRGraph, k: int) -> GBCResult:
        """Execute Algorithm 1 on ``graph`` for group size ``k``."""
        self._validate(graph, k)
        start = self._timer()
        self._begin_run()

        n = graph.n
        pairs = graph.num_ordered_pairs
        b, q_max, theta = adaalg_schedule(n, self.eps, self.gamma, b_min=self.b_min)
        session, state, owns = self._open_session(graph, k, self.session_lanes)

        cnt = 0
        trace: list[AdaAlgIteration] = []
        group: list[int] = []
        biased = 0.0
        unbiased = 0.0
        converged = False
        capped = False
        start_q = 1
        telemetry = self.telemetry

        try:
            # everything after _open_session sits inside the try: a
            # malformed checkpoint state must not leak the session (and
            # its engines' worker processes)
            selection = session.store(0)  # S — selection set
            validation = session.store(1)  # T — independent validation set
            # continue the outer loop exactly where the checkpoint froze
            # it; a checkpoint without loop state (written by `mutate`
            # after a graph update invalidated part of the pool) instead
            # re-enters the stopping rule from iteration 1 over the
            # warm pool — extends are monotone, so only the shortfall
            # is resampled
            loop = state.get("loop") if state is not None else None
            if loop is not None:
                start_q = int(loop["q"]) + 1
                cnt = int(loop["cnt"])
                group = [int(v) for v in loop["group"]]
                biased = float(loop["biased"])
                unbiased = float(loop["unbiased"])
                trace = [AdaAlgIteration(**entry) for entry in loop["trace"]]
            with telemetry.span("adaalg", k=k, n=n):
                for q in range(start_q, q_max + 1):
                    guess = pairs / b**q
                    target = math.ceil(theta * b**q)
                    if self.max_samples is not None and target > self.max_samples:
                        capped = True
                        if not group:
                            # the cap preempted even the first iteration:
                            # spend the whole budget once so the result
                            # still satisfies |C| = K (converged stays
                            # False — no guarantee was certified)
                            group, biased, unbiased = self._capped_run(
                                session, k, pairs
                            )
                            telemetry.event(
                                "capped",
                                algorithm=self.name,
                                q=q,
                                target=target,
                                max_samples=self.max_samples,
                                samples=selection.num_paths
                                + validation.num_paths,
                            )
                        break

                    # line 10: grow S, re-run greedy, biased estimate (Eq. 4)
                    with telemetry.span("sample", set="S", target=target):
                        session.extend(target, lane=0)
                    with telemetry.span("greedy"):
                        cover = greedy_max_cover(selection, k, telemetry=telemetry)
                    group = cover.group
                    biased = cover.covered / selection.num_paths * pairs

                    # line 11: grow T independently, unbiased estimate (Eq. 8)
                    if self.validation_set:
                        with telemetry.span("sample", set="T", target=target):
                            session.extend(target, lane=1)
                        covered_t = (
                            check_coverage(validation, group)
                            if self.debug
                            else validation.covered_count(group)
                        )
                        unbiased = covered_t / validation.num_paths * pairs
                    else:
                        unbiased = biased  # ablation: no independent T set

                    beta = eps1 = eps_sum = None
                    if unbiased >= guess:
                        cnt += 1  # line 13
                    if cnt >= 2:
                        # lines 17-27: error accounting and the stop test
                        c1 = math.log(4.0 / self.gamma) / (theta * b ** (cnt - 2))
                        eps1 = epsilon_one(c1)
                        if biased > 0.0 and eps1 < 1.0:
                            beta = 1.0 - unbiased / biased
                            eps_sum = (
                                beta * _EULER * (1.0 - eps1)
                                + (2.0 - 1.0 / math.e) * eps1
                            )
                    trace.append(
                        AdaAlgIteration(
                            q=q,
                            guess=guess,
                            samples=selection.num_paths + validation.num_paths,
                            biased=biased,
                            unbiased=unbiased,
                            cnt=cnt,
                            beta=beta,
                            eps1=eps1,
                            eps_sum=eps_sum,
                        )
                    )
                    telemetry.event(
                        "iteration",
                        algorithm=self.name,
                        q=q,
                        guess=guess,
                        samples=selection.num_paths + validation.num_paths,
                        biased=biased,
                        unbiased=unbiased,
                        cnt=cnt,
                        eps1=eps1,
                        eps_sum=eps_sum,
                    )
                    if eps_sum is not None and eps_sum <= self.eps:
                        converged = True  # line 24
                        break
                    # iteration boundary: the sample stream is untouched
                    # here, so checkpoints never perturb the run
                    self._checkpoint(
                        session,
                        k,
                        {
                            "q": q,
                            "cnt": cnt,
                            "group": [int(v) for v in group],
                            "biased": float(biased),
                            "unbiased": float(unbiased),
                            "trace": [asdict(entry) for entry in trace],
                        },
                    )
        finally:
            if owns:
                session.close()

        return GBCResult(
            algorithm=self.name,
            group=group,
            estimate=biased,
            estimate_unbiased=unbiased,
            num_samples=selection.num_paths + validation.num_paths,
            iterations=len(trace),
            converged=converged,
            elapsed_seconds=self._timer() - start,
            diagnostics={
                "base": b,
                "q_max": q_max,
                "theta": theta,
                "cnt": cnt,
                "capped": capped,
                "trace": trace,
                **self._session_diagnostics(session, owns),
            },
        )

    def _capped_run(
        self, session, k: int, pairs: int
    ) -> tuple[list[int], float, float]:
        """One greedy pass on ``max_samples`` paths when the schedule's
        very first target already exceeds the cap.

        Historically this path returned an *empty* group (violating the
        ``|C| = K`` contract); instead, spend the allowed budget once
        and return the exactly-``K`` greedy group it supports.
        """
        selection = session.store(0)
        validation = session.store(1)
        with self.telemetry.span("sample", set="S", target=self.max_samples):
            session.extend(self.max_samples, lane=0)
        with self.telemetry.span("greedy"):
            cover = greedy_max_cover(selection, k, telemetry=self.telemetry)
        biased = (
            cover.covered / selection.num_paths * pairs
            if selection.num_paths
            else 0.0
        )
        if self.validation_set:
            with self.telemetry.span("sample", set="T", target=self.max_samples):
                session.extend(self.max_samples, lane=1)
            unbiased = (
                validation.covered_count(cover.group)
                / validation.num_paths
                * pairs
                if validation.num_paths
                else 0.0
            )
        else:
            unbiased = biased
        return cover.group, biased, unbiased
