"""Common interface and result type for the top-K GBC algorithms.

Every algorithm consumes a :class:`~repro.graph.csr.CSRGraph` and a
group size ``K`` and produces a :class:`GBCResult`.  Sampling
algorithms additionally report how many shortest paths they drew —
the paper's headline comparison metric (Figs. 4–5).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from .._rng import as_generator
from ..engine import SampleEngine
from ..exceptions import CheckpointError, ParameterError, SessionInterrupted
from ..graph.csr import CSRGraph
from ..obs import as_telemetry, monotonic
from ..session import SamplingSession

__all__ = ["GBCResult", "GBCAlgorithm", "SamplingAlgorithm"]


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
    def _validate(graph: CSRGraph, k: int) -> None:
        if graph.n < 2:
            raise ParameterError("top-K GBC needs a graph with at least 2 nodes")
        if not 1 <= k <= graph.n:
            raise ParameterError(f"need 1 <= K <= n={graph.n}, got K={k}")


class SamplingAlgorithm(GBCAlgorithm):
    """Shared plumbing for the path-sampling algorithms.

    All sample acquisition goes through a
    :class:`~repro.session.SamplingSession`: the algorithm is a
    *stopping-rule policy* that decides how far to extend the session's
    sample stores and when the accumulated evidence suffices, while the
    session owns the engines, the growing stores, and their
    persistence.  This class handles session construction (one entropy
    word of the algorithm's RNG keys the lanes' sample streams),
    checkpoint cadence, resume, endpoint-convention slicing, and
    timing.

    Parameters
    ----------
    workers:
        Worker processes every sample set is drawn through
        (:func:`~repro.engine.create_engine`): ``0`` (default) draws
        in process, more fan the same draws out to persistent worker
        processes.  Results are a pure function of the seed, never of
        the worker count.
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
        experiments harness uses to reuse one growing sample pool
        across sweep cells.  The session must target the same graph
        ``run`` receives and provide at least as many lanes as the
        algorithm needs; it is *not* closed by the run.  Mutually
        exclusive with ``resume_from``.
    checkpoint_path:
        When set, the run freezes its session (stores + RNG states)
        and loop state to this path at iteration boundaries, ready for
        :meth:`~repro.session.SamplingSession.resume` /
        ``resume_from``.  Checkpoints never alter the sample stream —
        a run with checkpointing on is bit-identical to one without.
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

    def __init__(
        self,
        eps: float = 0.3,
        gamma: float = 0.01,
        include_endpoints: bool = True,
        seed=None,
        workers: int = 0,
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

    #: Independent ``(engine, store)`` lanes the algorithm's ``run``
    #: draws through — 1 for the single-pool algorithms, 2 for AdaAlg
    #: (selection set S + validation set T).
    session_lanes: int = 1

    # ------------------------------------------------------------------
    # Session plumbing — shared by every concrete run() implementation.
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
        return self._fresh_session(graph, self.session_lanes)

    def _fresh_session(self, graph: CSRGraph, lanes: int) -> SamplingSession:
        return SamplingSession(
            graph,
            lanes=lanes,
            seed=self._rng,
            include_endpoints=self.include_endpoints,
            workers=self.workers,
            telemetry=self.telemetry,
            debug=self.debug,
        )

    def _open_session(
        self, graph: CSRGraph, k: int, lanes: int
    ) -> tuple[SamplingSession, dict | None, bool]:
        """The session this run draws through.

        Returns ``(session, state, owns)``: ``state`` is the loop
        payload of a resumed checkpoint (``None`` for fresh runs) and
        ``owns`` says whether the run must close the session when done
        (externally attached sessions stay open for their owner).
        """
        if self.session is not None:
            sess = self.session
            if sess.graph is not graph:
                raise ParameterError(
                    "the attached session was built for a different graph "
                    "object; sessions and runs must target the same graph"
                )
            if sess.lanes < lanes:
                raise ParameterError(
                    f"{self.name} needs {lanes} session lane(s), the "
                    f"attached session has {sess.lanes}"
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
        sess = self._fresh_session(graph, lanes)
        self._samples_reused = 0
        return sess, None, True

    def _begin_run(self) -> None:
        """Reset per-run checkpoint cadence state."""
        self._iters_since_ckpt = 0
        self._checkpoints_this_run = 0

    def _checkpoint_params(self) -> dict:
        """The parameter block frozen into checkpoints (subclasses add
        their own knobs); informational, not validated on resume."""
        return {
            "eps": self.eps,
            "gamma": self.gamma,
            "include_endpoints": self.include_endpoints,
        }

    def _checkpoint(
        self,
        session: SamplingSession,
        k: int,
        loop: dict,
        force: bool = False,
    ) -> None:
        """Maybe write a checkpoint after one outer-loop iteration.

        ``loop`` is the algorithm's loop state (JSON-serializable); a
        snapshot lands on ``checkpoint_path`` every ``checkpoint_every``
        iterations (or immediately when ``force``).  Raises
        :class:`~repro.exceptions.SessionInterrupted` once
        ``stop_after_checkpoints`` snapshots were written this run.
        """
        if self.checkpoint_path is None:
            return
        if not force:
            self._iters_since_ckpt += 1
            if self._iters_since_ckpt < self.checkpoint_every:
                return
        elif self._iters_since_ckpt == 0:
            return  # final boundary already snapshotted by cadence
        state = {
            "algorithm": self.name,
            "k": int(k),
            "params": self._checkpoint_params(),
            "algorithm_rng": self._rng.bit_generator.state,
            "loop": loop,
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
        """The session/engine entries of ``GBCResult.diagnostics``."""
        session.flush_coverage()
        return {
            "resumed": session.resumed,
            "checkpoints": self._checkpoints_this_run,
            "session": {
                "lanes": session.lanes,
                "samples_drawn": session.samples_drawn,
                "samples_reused": self._samples_reused,
                "external": not owns,
            },
            **self._engine_diagnostics(session.engines),
        }

    # ------------------------------------------------------------------
    def _engine_diagnostics(self, engines: list[SampleEngine]) -> dict:
        """The engine-related entries of ``GBCResult.diagnostics``."""
        stats = [eng.stats.as_dict() for eng in engines]
        return {
            "edges_explored": sum(s["edges_explored"] for s in stats),
            "engine": {"name": engines[0].name, "stats": stats},
            **self._telemetry_diagnostics(),
        }

    def _telemetry_diagnostics(self) -> dict:
        """The ``telemetry`` diagnostics entry (empty when disabled).

        The engines stream their :class:`~repro.engine.EngineStats`
        deltas into the shared hub as ``engine.*`` counters on every
        draw, so the snapshot taken here already carries the full work
        breakdown alongside the spans and per-iteration events.
        """
        if not self.telemetry.enabled:
            return {}
        return {"telemetry": self.telemetry.snapshot()}

    @staticmethod
    def _timer() -> float:
        # elapsed-time reporting goes through the repro.obs clock seam
        # (determinism rule RPR101) — never algorithm control flow
        return monotonic()
