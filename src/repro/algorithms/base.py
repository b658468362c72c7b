"""Common interface and result type for the top-K GBC algorithms.

Every algorithm consumes a :class:`~repro.graph.csr.CSRGraph` and a
group size ``K`` and produces a :class:`GBCResult`.  Sampling
algorithms additionally report how many shortest paths they drew —
the paper's headline comparison metric (Figs. 4–5).
"""

from __future__ import annotations

import abc
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

from .._rng import as_generator
from ..exceptions import CheckpointError, ParameterError, SessionInterrupted
from ..graph.csr import CSRGraph
from ..obs import as_telemetry, monotonic
from ..session import SamplingSession

__all__ = ["GBCResult", "GBCAlgorithm", "SamplingAlgorithm", "scaled_share"]


@dataclass
class GBCResult:
    """Outcome of one top-K GBC computation.

    Attributes
    ----------
    algorithm:
        The producing algorithm's name (``"AdaAlg"``, ``"HEDGE"``, ...).
    group:
        Selected node ids (exactly ``K`` of them).
    estimate:
        The algorithm's estimate of ``B(group)`` — for sampling
        algorithms the *biased* estimate from the selection samples
        (Eq. 4); for exact algorithms the exact value.
    estimate_unbiased:
        The unbiased estimate from an independent sample set (Eq. 8),
        where the algorithm maintains one (AdaAlg); ``None`` otherwise.
    num_samples:
        Total shortest paths drawn, across **all** sample sets — the
        quantity plotted in the paper's Figs. 4–5.
    iterations:
        Outer-loop iterations executed (guesses tried / rounds run).
    converged:
        Whether the algorithm's own stopping rule fired (``False``
        means it exhausted its iteration budget and returned its best
        tentative group).
    elapsed_seconds:
        Wall-clock time of the run.
    diagnostics:
        Free-form per-algorithm extras (e.g. AdaAlg's per-iteration
        trace).
    """

    algorithm: str
    group: list[int]
    estimate: float
    estimate_unbiased: float | None = None
    num_samples: int = 0
    iterations: int = 0
    converged: bool = True
    elapsed_seconds: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        """Group size."""
        return len(self.group)

    def normalized_estimate(self, graph: CSRGraph) -> float:
        """``estimate / (n(n-1))`` — the paper's normalized GBC."""
        pairs = graph.num_ordered_pairs
        return self.estimate / pairs if pairs else 0.0


class GBCAlgorithm(abc.ABC):
    """Abstract base: ``run(graph, k) -> GBCResult``."""

    #: Human-readable algorithm name, set by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def run(self, graph: CSRGraph, k: int) -> GBCResult:
        """Compute a top-``k`` group for ``graph``."""

    @staticmethod
    def _timer() -> float:
        # elapsed-time reporting goes through the repro.obs clock seam
        # (determinism rule RPR101) — never algorithm control flow
        return monotonic()

    @staticmethod
    def _validate(graph: CSRGraph, k: int) -> None:
        if graph.n < 2:
            raise ParameterError("top-K GBC needs a graph with at least 2 nodes")
        if not 1 <= k <= graph.n:
            raise ParameterError(f"need 1 <= K <= n={graph.n}, got K={k}")


def scaled_share(count: int, store, pairs: int) -> float:
    """``count`` of the store's paths as a share, scaled to ``pairs``
    (0 for an empty store)."""
    return count / store.num_paths * pairs if store.num_paths else 0.0


class SamplingAlgorithm(GBCAlgorithm):
    """The adaptive-sampling loop every path-sampling algorithm runs.

    :meth:`run` walks a schedule of ``(target, guess)`` entries: grow
    the sample pool to ``target``, re-run greedy max cover, and ask the
    stopping rule whether the evidence certifies the group.  It owns
    everything around that decision: opening (or resuming) the
    :class:`~repro.session.SamplingSession` (one entropy word of the
    algorithm's RNG keys the lanes' sample streams), restoring the loop
    state of a checkpoint, the ``max_samples`` cap, extending the
    lanes, the ``iteration``/``capped`` events, checkpoint cadence,
    closing the session, and building the :class:`GBCResult`.

    A subclass supplies only the policy, as four hooks over its own
    loop-state fields: :meth:`_start` (restore the fields, return the
    schedule), :meth:`_measure` (greedy group and estimates on the
    grown pool), :meth:`_stop` (the stopping rule) and
    :meth:`_loop_state` (the fields as a checkpoint payload), plus
    optional :meth:`_diagnostics`.  The loop fields every algorithm
    shares are ``_group``, ``_estimate``, ``_unbiased`` and
    ``_iterations`` (completed schedule entries, the resume cursor).

    Parameters
    ----------
    eps, gamma:
        Error ratio and error probability, both in ``(0, 1)``.
    include_endpoints:
        Whether a path's endpoints count as covered by it (the paper's
        convention, default).
    seed:
        Seed or :class:`numpy.random.Generator` of the run.
    workers:
        Worker processes every sample set is drawn through
        (:func:`~repro.engine.create_engine`): ``0`` (default) draws
        in process, more fan the same draws out to persistent worker
        processes.  Results are a pure function of the seed, never of
        the worker count.
    max_samples:
        Optional safety cap on the size of *each* sample set; when the
        schedule demands more, the run returns its current group with
        ``converged=False`` instead of sampling further.  If the cap
        preempts even the first entry, the run still spends the full
        ``max_samples`` budget once and returns the exactly-``K``
        greedy group it supports (never an empty group).
    telemetry:
        An optional :class:`~repro.obs.Telemetry` hub the run reports
        to: timed spans around sampling/greedy phases, per-iteration
        events, and the engines' work counters.  When set, a snapshot
        lands in ``GBCResult.diagnostics["telemetry"]``; the default
        ``None`` keeps everything disabled at negligible cost.
    debug:
        Opt-in invariant mode (:mod:`repro.obs.invariants`): every
        drawn path is re-verified to be a genuine shortest path and
        the coverage bookkeeping is recounted per draw.  Expensive —
        for debugging, not production runs.
    session:
        An externally owned :class:`~repro.session.SamplingSession` to
        draw through instead of creating one — the warm-start seam the
        experiments harness and the serve daemon use to reuse one
        growing sample pool across runs.  The session must target the
        same graph ``run`` receives and provide at least as many lanes
        as the algorithm needs; it is *not* closed by the run.
        Mutually exclusive with ``resume_from``.
    checkpoint_path:
        When set, the run freezes its session (stores + stream
        cursors) and loop state to this path at iteration boundaries,
        ready for ``resume_from``.  Checkpoints never alter the sample
        stream — a run with checkpointing on is bit-identical to one
        without.
    checkpoint_every:
        Outer-loop iterations between checkpoints (default 1).
    resume_from:
        Path of a checkpoint written by an earlier run of the *same*
        algorithm/K on the *same* graph; the run continues from the
        recorded iteration and its final result is bit-identical to an
        uninterrupted run's.
    stop_after_checkpoints:
        Deliberately interrupt the run by raising
        :class:`~repro.exceptions.SessionInterrupted` once this many
        checkpoints have been written (fault-injection hook for tests
        and the CI resume exercise).  Requires ``checkpoint_path``.
    """

    #: Independent ``(engine, store)`` lanes the algorithm draws
    #: through — 1 for the single-pool algorithms, 2 for AdaAlg
    #: (selection set S + validation set T).  :meth:`run` extends
    #: every one of them to each scheduled target.
    session_lanes: int = 1

    def __init__(
        self,
        eps: float = 0.3,
        gamma: float = 0.01,
        include_endpoints: bool = True,
        seed=None,
        workers: int = 0,
        max_samples: int | None = None,
        telemetry=None,
        debug: bool = False,
        session: SamplingSession | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        resume_from: str | None = None,
        stop_after_checkpoints: int | None = None,
    ):
        if not 0.0 < eps < 1.0:
            raise ParameterError(f"eps must lie in (0, 1), got {eps}")
        if not 0.0 < gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {gamma}")
        if workers < 0:
            raise ParameterError(f"workers must be >= 0, got {workers}")
        if checkpoint_every < 1:
            raise ParameterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if stop_after_checkpoints is not None:
            if checkpoint_path is None:
                raise ParameterError(
                    "stop_after_checkpoints requires checkpoint_path"
                )
            if stop_after_checkpoints < 1:
                raise ParameterError(
                    "stop_after_checkpoints must be >= 1, got "
                    f"{stop_after_checkpoints}"
                )
        if session is not None and resume_from is not None:
            raise ParameterError(
                "session and resume_from are mutually exclusive: an external "
                "session is live state, a checkpoint is frozen state"
            )
        self.eps = eps
        self.gamma = gamma
        self.include_endpoints = include_endpoints
        self.workers = workers
        self.max_samples = max_samples
        self.telemetry = as_telemetry(telemetry)
        self.debug = debug
        self.session = session
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        self.resume_from = resume_from
        self.stop_after_checkpoints = stop_after_checkpoints
        #: Free-form provenance the CLI folds into checkpoints (graph
        #: source, dataset name, ...); round-tripped via ``state["meta"]``.
        self.checkpoint_meta: dict = {}
        self._rng = as_generator(seed)
        self._samples_reused = 0
        self._iters_since_ckpt = 0
        self._checkpoints_this_run = 0

    # ------------------------------------------------------------------
    # The loop.
    def run(self, graph: CSRGraph, k: int) -> GBCResult:
        """Walk the schedule on ``graph`` until the stopping rule
        certifies a group of size ``k``, the cap preempts it, or the
        schedule runs out."""
        self._validate(graph, k)
        start = self._timer()
        self._iters_since_ckpt = 0
        self._checkpoints_this_run = 0
        self._group: list[int] = []
        self._estimate = 0.0
        self._unbiased: float | None = None
        self._iterations = 0
        telemetry = self.telemetry
        converged = capped = False

        session, state, owns = self._open_session(graph, k)
        try:
            # everything after _open_session sits inside the try: a
            # malformed checkpoint state must not leak the session (and
            # its engines' worker processes).  A checkpoint without
            # loop state (written by `mutate` after a graph update)
            # re-enters the schedule from its start over the warm pool:
            # extends are monotone, so only the shortfall is drawn.
            loop = state.get("loop") if state is not None else None
            schedule = self._start(graph, k, loop)
            with telemetry.span(self.name.lower(), k=k, n=graph.n):
                for target, guess in islice(schedule, self._iterations, None):
                    if self.max_samples is not None and target > self.max_samples:
                        capped = True
                        if not self._group:
                            # the cap preempted even the first entry:
                            # spend the whole budget once so the result
                            # still holds K nodes (converged stays False
                            # — no guarantee was certified)
                            self._extend(session, self.max_samples)
                            self._measure(session, k)
                        telemetry.event(
                            "capped",
                            algorithm=self.name,
                            q=self._iterations + 1,
                            target=target,
                            max_samples=self.max_samples,
                            samples=self._samples(session),
                        )
                        break
                    self._extend(session, target)
                    self._measure(session, k)
                    self._iterations += 1
                    converged, fields = self._stop(session, k, guess)
                    telemetry.event(
                        "iteration",
                        algorithm=self.name,
                        q=self._iterations,
                        guess=guess,
                        target=target,
                        samples=self._samples(session),
                        converged=converged,
                        **fields,
                    )
                    if converged:
                        break
                    # iteration boundary: the sample stream is untouched
                    # here, so checkpoints never perturb the run
                    self._checkpoint(session, k)
        finally:
            if owns:
                session.close()

        return GBCResult(
            algorithm=self.name,
            group=self._group,
            estimate=self._estimate,
            estimate_unbiased=self._unbiased,
            num_samples=self._samples(session),
            iterations=self._iterations,
            converged=converged,
            elapsed_seconds=self._timer() - start,
            diagnostics={
                "capped": capped,
                **self._diagnostics(),
                **self._session_diagnostics(session, owns),
            },
        )

    # ------------------------------------------------------------------
    # The policy hooks.
    def _start(self, graph: CSRGraph, k: int, loop: dict | None) -> Iterable:
        """Restore the loop-state fields from a checkpoint's ``loop``
        payload (``None``: a fresh start, keep the defaults) and return
        the schedule, an iterable of ``(target, guess)``.  The loop
        skips the first ``_iterations`` entries."""
        raise NotImplementedError

    def _measure(self, session: SamplingSession, k: int) -> None:
        """Set ``_group`` and the estimates from the grown pool."""
        raise NotImplementedError

    def _stop(
        self, session: SamplingSession, k: int, guess: float
    ) -> tuple[bool, dict]:
        """The stopping rule after iteration ``_iterations``: whether the
        group is certified, and the rule's fields for the
        ``iteration`` event."""
        raise NotImplementedError

    def _loop_state(self) -> dict:
        """The loop-state fields as a JSON-serializable checkpoint
        payload, read back by :meth:`_start`."""
        raise NotImplementedError

    def _diagnostics(self) -> dict:
        """Algorithm-specific ``GBCResult.diagnostics`` entries."""
        return {}

    # ------------------------------------------------------------------
    # Session plumbing.
    def build_session(self, graph: CSRGraph) -> SamplingSession:
        """A fresh session this algorithm instance would run through.

        Consumes the algorithm's RNG exactly as a fresh ``run`` does
        when it creates its own session, so attaching the returned
        session (``session=`` / ``self.session``) and running yields
        results bit-identical to a plain seeded run.  This is the
        warm-lane seam of the serve daemon
        (:mod:`repro.serve`): build once, keep the session hot, let
        later queries reuse the grown stores.  The caller owns the
        session and must close it.
        """
        return SamplingSession(
            graph,
            lanes=self.session_lanes,
            seed=self._rng,
            include_endpoints=self.include_endpoints,
            workers=self.workers,
            telemetry=self.telemetry,
            debug=self.debug,
        )

    def _open_session(
        self, graph: CSRGraph, k: int
    ) -> tuple[SamplingSession, dict | None, bool]:
        """The session this run draws through.

        Returns ``(session, state, owns)``: ``state`` is the payload of
        a resumed checkpoint (``None`` for fresh runs) and ``owns``
        says whether the run must close the session when done
        (externally attached sessions stay open for their owner).
        """
        if self.session is not None:
            sess = self.session
            if sess.graph is not graph:
                raise ParameterError(
                    "the attached session was built for a different graph "
                    "object; sessions and runs must target the same graph"
                )
            if sess.lanes < self.session_lanes:
                raise ParameterError(
                    f"{self.name} needs {self.session_lanes} session "
                    f"lane(s), the attached session has {sess.lanes}"
                )
            self._samples_reused = sess.total_samples
            return sess, None, False
        if self.resume_from is not None:
            sess, state = SamplingSession.resume(
                self.resume_from,
                graph,
                telemetry=self.telemetry,
                debug=self.debug,
            )
            # the session owns live worker processes from here on: any
            # validation failure (including a corrupt rng state blob)
            # must close it before propagating
            try:
                if state is None or state.get("algorithm") != self.name:
                    found = None if state is None else state.get("algorithm")
                    raise CheckpointError(
                        f"checkpoint {self.resume_from!r} belongs to "
                        f"algorithm {found!r}, cannot resume it with "
                        f"{self.name}"
                    )
                if state.get("k") != k:
                    raise CheckpointError(
                        f"checkpoint {self.resume_from!r} was taken for "
                        f"K={state.get('k')}, cannot resume with K={k}"
                    )
                if state.get("algorithm_rng") is not None:
                    self._rng.bit_generator.state = state["algorithm_rng"]
                self.checkpoint_meta = dict(state.get("meta") or {})
            except BaseException:
                sess.close()
                raise
            self._samples_reused = sess.total_samples
            return sess, state, True
        self._samples_reused = 0
        return self.build_session(graph), None, True

    def _extend(self, session: SamplingSession, target: int) -> None:
        """Grow every lane the algorithm draws through to ``target``."""
        for lane in range(self.session_lanes):
            with self.telemetry.span("sample", lane=lane, target=target):
                session.extend(target, lane=lane)

    def _samples(self, session: SamplingSession) -> int:
        """Paths held across the algorithm's lanes."""
        return sum(
            session.store(lane).num_paths for lane in range(self.session_lanes)
        )

    def _checkpoint_params(self) -> dict:
        """The parameter block frozen into checkpoints (subclasses add
        their own knobs); informational, not validated on resume."""
        return {
            "eps": self.eps,
            "gamma": self.gamma,
            "include_endpoints": self.include_endpoints,
            "max_samples": self.max_samples,
        }

    def _checkpoint(self, session: SamplingSession, k: int) -> None:
        """Maybe write a checkpoint after one outer-loop iteration.

        A snapshot of the session and :meth:`_loop_state` lands on
        ``checkpoint_path`` every ``checkpoint_every`` iterations.
        Raises :class:`~repro.exceptions.SessionInterrupted` once
        ``stop_after_checkpoints`` snapshots were written this run.
        """
        if self.checkpoint_path is None:
            return
        self._iters_since_ckpt += 1
        if self._iters_since_ckpt < self.checkpoint_every:
            return
        state = {
            "algorithm": self.name,
            "k": int(k),
            "params": self._checkpoint_params(),
            "algorithm_rng": self._rng.bit_generator.state,
            "loop": self._loop_state(),
            "meta": self.checkpoint_meta,
        }
        session.checkpoint(self.checkpoint_path, state=state)
        self._iters_since_ckpt = 0
        self._checkpoints_this_run += 1
        if (
            self.stop_after_checkpoints is not None
            and self._checkpoints_this_run >= self.stop_after_checkpoints
        ):
            raise SessionInterrupted(
                self.checkpoint_path, self._checkpoints_this_run
            )

    def _session_diagnostics(self, session: SamplingSession, owns: bool) -> dict:
        """The session, engine and telemetry entries of
        ``GBCResult.diagnostics``.

        The engines stream their :class:`~repro.engine.EngineStats`
        deltas into the shared hub as ``engine.*`` counters on every
        draw, so the telemetry snapshot taken here already carries the
        full work breakdown alongside the spans and per-iteration
        events.
        """
        session.flush_coverage()
        stats = [eng.stats.as_dict() for eng in session.engines]
        diagnostics = {
            "resumed": session.resumed,
            "checkpoints": self._checkpoints_this_run,
            "session": {
                "lanes": session.lanes,
                "samples_drawn": session.samples_drawn,
                "samples_reused": self._samples_reused,
                "external": not owns,
            },
            "edges_explored": sum(s["edges_explored"] for s in stats),
            "engine": {"name": session.engines[0].name, "stats": stats},
        }
        if self.telemetry.enabled:
            diagnostics["telemetry"] = self.telemetry.snapshot()
        return diagnostics
