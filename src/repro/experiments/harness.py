"""Shared experiment plumbing: configs, per-dataset context, aggregation.

Two design choices keep the full figure grid tractable in pure Python
without changing what is being measured:

* **Holdout quality grading.**  Every returned group is graded on a
  single large *holdout* sample set drawn once per dataset
  (:class:`DatasetContext`), independent of every algorithm's internal
  samples — an unbiased estimate of ``B(C)`` whose noise (well under
  1% at the default 30k+ paths) is shared by all algorithms in a
  figure, so ratios are clean.  ``quality_mode="exact"`` switches to
  the exact avoid-set computation instead.
* **Shared EXHAUST pool.**  EXHAUST (the quality yardstick) depends on
  the dataset and K but not on eps or the repetition index, and its
  sample set can be drawn once per dataset; the per-K greedy runs on
  that shared pool.

Scaling note: the paper runs each point 20 times (100 for Fig. 1) on a
C++ implementation; the presets here default to fewer repetitions and
a safety cap on the baselines' sample demands.  Both are plain config
fields — raise them (or use ``FULL``) for a full-fidelity run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from .._rng import as_generator, spawn_seeds
from ..algorithms import ALGORITHMS, create_algorithm
from ..coverage import CoverageInstance, greedy_max_cover
from ..datasets import load
from ..engine import create_engine
from ..exceptions import ParameterError
from ..graph.csr import CSRGraph
from ..obs import Telemetry
from ..paths.exact_gbc import exact_gbc
from ..session import SamplingSession

__all__ = [
    "ExperimentConfig",
    "SMOKE",
    "BENCH",
    "REDUCED",
    "FULL",
    "DatasetContext",
    "SessionBank",
    "build_sampling_algorithm",
    "load_dataset",
    "aggregate",
    "SAMPLING_ALGORITHMS",
]

SAMPLING_ALGORITHMS = ("HEDGE", "CentRa", "AdaAlg")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment.

    Attributes
    ----------
    datasets:
        Registry names to run on.
    ks:
        Group sizes (paper: 20..100).
    eps_values:
        Error ratios (paper: 0.1..0.5; the quick presets start at 0.2
        because HEDGE's 1/eps^2 sample demand dominates the runtime).
    gamma:
        Error probability (paper: 0.01 throughout).
    repetitions:
        Independent runs per cell (paper: 20; Fig. 1 uses
        ``fig1_simulations``).
    fig1_simulations, fig1_lengths:
        Fig. 1's simulation count (paper: 100) and L checkpoints
        (paper: 500..16000).
    exhaust_samples:
        Size of the shared EXHAUST reference pool.
    eval_samples:
        Size of the holdout set used to grade group quality.
    max_samples:
        Safety cap on HEDGE/CentRa sample demands (None = faithful).
    quality_mode:
        ``"holdout"`` (default) or ``"exact"``.
    workers:
        Worker processes every sample — the algorithms' own and the
        harness's holdout/reference pools — is computed by (``0`` = in
        process); never changes a sample.
    telemetry:
        When true, every sampling algorithm gets its own in-memory
        :class:`repro.obs.Telemetry` hub, so per-run span timings,
        engine counters, and per-iteration events land in
        ``GBCResult.diagnostics["telemetry"]`` (and the fact is
        recorded in each figure's provenance metadata).
    reuse_sessions:
        Warm-start the sweep: every (dataset, algorithm) pair draws
        through one persistent :class:`~repro.session.SamplingSession`
        (a :class:`SessionBank`), so the sample pool grows monotonically
        across eps/K cells — the sampler distribution is independent of
        eps and K, so a later cell *extends* the earlier cells' store
        instead of re-drawing it.  Figures record the saved volume as
        ``samples_reused`` in their ``meta``.  Off by default: reused
        cells are statistically valid but no longer independent across
        cells/repetitions, which matters when quoting per-cell variance.
    seed:
        Master seed; every cell derives its own stream from it.
    """

    datasets: tuple[str, ...] = ("GrQc",)
    ks: tuple[int, ...] = (20, 40, 60, 80, 100)
    eps_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    gamma: float = 0.01
    repetitions: int = 3
    fig1_simulations: int = 10
    fig1_lengths: tuple[int, ...] = (500, 1000, 2000, 4000, 8000, 16000)
    exhaust_samples: int = 100_000
    eval_samples: int = 100_000
    max_samples: int | None = 500_000
    quality_mode: str = "holdout"
    workers: int = 0
    telemetry: bool = False
    reuse_sessions: bool = False
    seed: int = 20250704

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Minimal config for tests and benchmark smoke runs (seconds).
SMOKE = ExperimentConfig(
    datasets=("GrQc",),
    ks=(10, 20),
    eps_values=(0.3, 0.5),
    repetitions=1,
    fig1_simulations=2,
    fig1_lengths=(500, 1000, 2000),
    exhaust_samples=8_000,
    eval_samples=8_000,
    max_samples=40_000,
)

#: Default benchmark config: every claim's shape in ~15 minutes total.
BENCH = ExperimentConfig(
    datasets=("GrQc",),
    ks=(20, 60, 100),
    eps_values=(0.2, 0.3, 0.5),
    repetitions=1,
    fig1_simulations=5,
    fig1_lengths=(500, 1000, 2000, 4000, 8000),
    exhaust_samples=30_000,
    eval_samples=30_000,
    max_samples=500_000,
)

#: Wider grid over several datasets (about an hour).
REDUCED = ExperimentConfig(
    datasets=("GrQc", "Coauthor", "Twitter", "SyntheticNetwork-WS"),
    ks=(20, 40, 60, 80, 100),
    eps_values=(0.1, 0.2, 0.3, 0.4, 0.5),
    repetitions=3,
    fig1_simulations=20,
    exhaust_samples=60_000,
    eval_samples=60_000,
    max_samples=1_000_000,
)

#: Faithful grid (all datasets, paper's repetitions, no caps) — many hours.
FULL = ExperimentConfig(
    datasets=(
        "GrQc",
        "Facebook",
        "Coauthor",
        "DBLP-2011",
        "Epinions",
        "Twitter",
        "Email-euAll",
        "LiveJournal",
        "SyntheticNetwork-BA",
        "SyntheticNetwork-WS",
    ),
    repetitions=20,
    fig1_simulations=100,
    exhaust_samples=300_000,
    eval_samples=300_000,
    max_samples=None,
)


class SessionBank:
    """A warm-start pool of sampling sessions for one dataset.

    One persistent :class:`~repro.session.SamplingSession` per
    algorithm, created lazily on first request and handed to every
    subsequent run of that algorithm in the sweep.  Because the sampler
    distribution does not depend on eps, K, or the repetition index,
    the pool only ever *grows* (monotone reuse): a cell whose schedule
    is already covered draws nothing at all.

    The bank tracks ``samples_reused`` — the pool volume that later
    runs found already present — which the figure drivers surface in
    ``FigureResult.meta``.
    """

    def __init__(self, graph: CSRGraph, config: ExperimentConfig, seed=None):
        self.graph = graph
        self.config = config
        self._rng = as_generator(config.seed + 9 if seed is None else seed)
        self._sessions: dict[str, SamplingSession] = {}
        #: Samples already present in a session at hand-out time,
        #: accumulated over every reuse (first hand-outs contribute 0).
        self.samples_reused = 0

    def session_for(self, name: str) -> SamplingSession:
        """The persistent session of one algorithm (created on demand)."""
        if name not in self._sessions:
            self._sessions[name] = SamplingSession(
                self.graph,
                lanes=ALGORITHMS[name.lower()].session_lanes,
                seed=self._rng,
                workers=self.config.workers,
            )
        else:
            self.samples_reused += self._sessions[name].total_samples
        return self._sessions[name]

    @property
    def samples_drawn(self) -> int:
        """Total samples drawn through the bank's sessions so far."""
        return sum(s.samples_drawn for s in self._sessions.values())

    def close(self) -> None:
        """Release every session's engines; idempotent."""
        for session in self._sessions.values():
            session.close()

    def __enter__(self) -> "SessionBank":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def build_sampling_algorithm(
    name: str, eps: float, config: ExperimentConfig, seed, session=None
):
    """Construct one of the paper's sampling algorithms from a config.

    With ``config.telemetry`` set, each algorithm gets a private
    in-memory :class:`repro.obs.Telemetry` hub, so its run records
    land in ``GBCResult.diagnostics["telemetry"]``.  ``session``
    attaches an external (bank-owned) session for warm-started sweeps.
    EXHAUST is not among them: the harness runs its greedy on the shared
    reference pool (:meth:`DatasetContext.exhaust_group`).
    """
    if name not in SAMPLING_ALGORITHMS:
        raise ParameterError(f"unknown sampling algorithm {name!r}")
    return create_algorithm(
        name.lower(),
        eps=eps,
        gamma=config.gamma,
        seed=seed,
        # the cap bounds the baselines' worst-case demands; AdaAlg runs
        # uncapped
        max_samples=None if name == "AdaAlg" else config.max_samples,
        workers=config.workers,
        telemetry=Telemetry() if config.telemetry else None,
        session=session,
    )


def load_dataset(name: str, config: ExperimentConfig) -> CSRGraph:
    """Materialize a dataset with the config's master seed."""
    return load(name, seed=config.seed, giant_only=True)


class DatasetContext:
    """Per-dataset shared state for the quality experiments.

    Holds two sample pools drawn once:

    * the **holdout** set, used only to grade groups
      (:meth:`evaluate`) — never seen by any algorithm;
    * the **reference pool**, on which :meth:`exhaust_group` runs the
      greedy to produce the EXHAUST yardstick group for each K.
    """

    def __init__(self, graph: CSRGraph, config: ExperimentConfig, seed=None):
        self.graph = graph
        self.config = config
        rng = as_generator(config.seed if seed is None else seed)
        rng_eval, rng_pool = spawn_seeds(rng, 2)
        self._holdout = self._draw(graph, rng_eval, config.eval_samples)
        self._pool = self._draw(graph, rng_pool, config.exhaust_samples)

    def _draw(self, graph: CSRGraph, rng, count: int) -> CoverageInstance:
        instance = CoverageInstance(graph.n)
        with create_engine(
            graph,
            seed=rng,
            include_endpoints=True,
            workers=self.config.workers,
        ) as engine:
            engine.extend(instance, count)
        return instance

    # ------------------------------------------------------------------
    def exhaust_group(self, k: int) -> list[int]:
        """The EXHAUST yardstick group for size ``k``: a prefix read of
        the greedy order memoized on the fixed reference pool."""
        return greedy_max_cover(self._pool, k).group

    def evaluate(self, group) -> float:
        """Estimate (or exactly compute) ``B(group)``."""
        if self.config.quality_mode == "exact":
            return exact_gbc(self.graph, group)
        fraction = self._holdout.coverage_fraction(group)
        return fraction * self.graph.num_ordered_pairs

    def evaluate_normalized(self, group) -> float:
        """``B(group) / n(n-1)`` on the holdout (or exactly)."""
        pairs = self.graph.num_ordered_pairs
        return self.evaluate(group) / pairs if pairs else 0.0


def aggregate(values: list[float]) -> tuple[float, float]:
    """``(mean, max)`` of a non-empty list."""
    if not values:
        raise ParameterError("cannot aggregate an empty list")
    return statistics.fmean(values), max(values)
