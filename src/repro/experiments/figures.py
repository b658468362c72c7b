"""The paper's Figures 1–5 as runnable experiments.

Every ``run_figN`` function executes the corresponding experiment grid
and returns a :class:`FigureResult` whose rows are exactly the series
the paper plots; ``FigureResult.render()`` prints them as a table.
Absolute values differ from the paper (scaled datasets, Python
substrate) but the *shapes* under test are listed in DESIGN.md §5 and
asserted by the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from .._rng import as_generator, spawn_seeds
from ..coverage import CoverageInstance, greedy_max_cover
from ..engine import create_engine
from .harness import (
    SAMPLING_ALGORITHMS,
    DatasetContext,
    ExperimentConfig,
    SessionBank,
    build_sampling_algorithm,
    load_dataset,
)
from .report import render_series

__all__ = [
    "FigureResult",
    "engine_meta",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_eps_sweep",
]


def engine_meta(config: ExperimentConfig) -> dict:
    """Provenance entries recording which engine produced a figure."""
    return {
        "workers": config.workers,
        "telemetry": config.telemetry,
        "reuse_sessions": config.reuse_sessions,
    }


@dataclass
class FigureResult:
    """Rows of one reproduced figure (see the module docstring)."""

    name: str
    title: str
    headers: list[str]
    rows: list[list]
    #: Run provenance (execution engine, workers, ...); carried through
    #: the JSON exporter so artifacts record how they were produced.
    meta: dict = field(default_factory=dict)

    def render(self) -> str:
        """The figure as a printable table."""
        return render_series(f"{self.name}: {self.title}", self.headers, self.rows)

    def column(self, header: str) -> list:
        """All values of one column, in row order."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def filtered(self, **criteria) -> list[list]:
        """Rows whose named columns equal the given values."""
        idxs = {self.headers.index(h): v for h, v in criteria.items()}
        return [
            row for row in self.rows if all(row[i] == v for i, v in idxs.items())
        ]


# ----------------------------------------------------------------------
# Figure 1 — convergence of the relative error beta
# ----------------------------------------------------------------------
def run_fig1(config: ExperimentConfig, ks: Sequence[int] = (50, 100)) -> FigureResult:
    """Average/maximum relative error ``beta`` vs sample count ``L``.

    For each simulation, two independent sample sets S and T grow to
    each checkpoint ``L``; the greedy group found on S gives the biased
    estimate, T the unbiased one, and ``beta = 1 - unbiased/biased``
    (paper Sec. VI-B, Fig. 1).
    """
    rows: list[list] = []
    for dataset in config.datasets:
        graph = load_dataset(dataset, config)
        pairs = graph.num_ordered_pairs
        master = as_generator(config.seed + 1)
        for k in ks:
            if k > graph.n:
                continue
            betas: dict[int, list[float]] = {
                length: [] for length in config.fig1_lengths
            }
            for _ in range(config.fig1_simulations):
                rng_s, rng_t = spawn_seeds(master, 2)
                # with-managed so neither engine's workers leak if the
                # other's construction or an extend raises mid-figure
                with create_engine(
                    graph,
                    seed=rng_s,
                    workers=config.workers,
                ) as engine_s, create_engine(
                    graph,
                    seed=rng_t,
                    workers=config.workers,
                ) as engine_t:
                    selection = CoverageInstance(graph.n)
                    validation = CoverageInstance(graph.n)
                    for length in sorted(config.fig1_lengths):
                        engine_s.extend(selection, length)
                        engine_t.extend(validation, length)
                        cover = greedy_max_cover(selection, k)
                        biased = cover.covered / selection.num_paths * pairs
                        unbiased = (
                            validation.covered_count(cover.group)
                            / validation.num_paths
                            * pairs
                        )
                        if biased > 0:
                            betas[length].append(1.0 - unbiased / biased)
            for length in sorted(config.fig1_lengths):
                values = betas[length]
                if not values:
                    continue
                avg = sum(values) / len(values)
                rows.append([dataset, k, length, avg, max(values)])
    return FigureResult(
        name="Figure 1",
        title="relative error beta between biased and unbiased estimates vs L",
        headers=["dataset", "K", "L", "beta_avg", "beta_max"],
        rows=rows,
        meta=engine_meta(config),
    )


# ----------------------------------------------------------------------
# Figures 2 & 3 — solution quality (normalized GBC)
# ----------------------------------------------------------------------
def _quality_rows(config: ExperimentConfig, cells):
    """Shared driver for the quality figures: per cell, the holdout-graded
    normalized GBC of EXHAUST (shared pool) and each sampling algorithm
    (averaged over repetitions), plus AdaAlg's ratio to EXHAUST."""
    rows = []
    samples_reused = 0
    for dataset in config.datasets:
        graph = load_dataset(dataset, config)
        context = DatasetContext(graph, config)
        master = as_generator(config.seed + 2)
        bank = SessionBank(graph, config) if config.reuse_sessions else None
        try:
            for k, eps in cells:
                if k > graph.n:
                    continue
                exhaust_norm = context.evaluate_normalized(context.exhaust_group(k))
                means = {}
                for name in SAMPLING_ALGORITHMS:
                    total = 0.0
                    for _ in range(config.repetitions):
                        algorithm = build_sampling_algorithm(
                            name, eps, config, master,
                            session=bank.session_for(name) if bank else None,
                        )
                        result = algorithm.run(graph, k)
                        total += context.evaluate_normalized(result.group)
                    means[name] = total / config.repetitions
                ratio = means["AdaAlg"] / exhaust_norm if exhaust_norm else 0.0
                rows.append(
                    [
                        dataset,
                        k,
                        eps,
                        exhaust_norm,
                        *(means[name] for name in SAMPLING_ALGORITHMS),
                        ratio,
                    ]
                )
        finally:
            if bank is not None:
                samples_reused += bank.samples_reused
                bank.close()
    headers = [
        "dataset",
        "K",
        "eps",
        "norm_EXHAUST",
        *(f"norm_{name}" for name in SAMPLING_ALGORITHMS),
        "ada_vs_exhaust",
    ]
    return headers, rows, samples_reused


def run_fig2(config: ExperimentConfig, eps: float = 0.3) -> FigureResult:
    """Normalized GBC of all four algorithms vs group size K (Fig. 2)."""
    cells = [(k, eps) for k in config.ks]
    headers, rows, reused = _quality_rows(config, cells)
    return FigureResult(
        name="Figure 2",
        title=f"normalized GBC vs K (eps={eps}, gamma={config.gamma})",
        headers=headers,
        rows=rows,
        meta={**engine_meta(config), "samples_reused": reused},
    )


def run_fig3(config: ExperimentConfig, k: int | None = None) -> FigureResult:
    """Normalized GBC of all four algorithms vs error ratio eps (Fig. 3)."""
    k = max(config.ks) if k is None else k
    cells = [(k, eps) for eps in config.eps_values]
    headers, rows, reused = _quality_rows(config, cells)
    return FigureResult(
        name="Figure 3",
        title=f"normalized GBC vs eps (K={k}, gamma={config.gamma})",
        headers=headers,
        rows=rows,
        meta={**engine_meta(config), "samples_reused": reused},
    )


# ----------------------------------------------------------------------
# Figures 4 & 5 — sample counts
# ----------------------------------------------------------------------
def _sample_rows(config: ExperimentConfig, cells):
    """Shared driver for the sample-count figures (no quality grading)."""
    rows = []
    samples_reused = 0
    for dataset in config.datasets:
        graph = load_dataset(dataset, config)
        master = as_generator(config.seed + 3)
        bank = SessionBank(graph, config) if config.reuse_sessions else None
        try:
            for k, eps in cells:
                if k > graph.n:
                    continue
                means = {}
                for name in SAMPLING_ALGORITHMS:
                    total = 0
                    for _ in range(config.repetitions):
                        algorithm = build_sampling_algorithm(
                            name, eps, config, master,
                            session=bank.session_for(name) if bank else None,
                        )
                        total += algorithm.run(graph, k).num_samples
                    means[name] = total / config.repetitions
                ratio = means["CentRa"] / means["AdaAlg"] if means["AdaAlg"] else 0.0
                rows.append(
                    [
                        dataset,
                        k,
                        eps,
                        *(means[name] for name in SAMPLING_ALGORITHMS),
                        ratio,
                    ]
                )
        finally:
            if bank is not None:
                samples_reused += bank.samples_reused
                bank.close()
    headers = [
        "dataset",
        "K",
        "eps",
        *(f"samples_{name}" for name in SAMPLING_ALGORITHMS),
        "centra_over_ada",
    ]
    return headers, rows, samples_reused


def run_fig4(config: ExperimentConfig, eps: float = 0.3) -> FigureResult:
    """Sample counts of the three sampling algorithms vs K (Fig. 4)."""
    cells = [(k, eps) for k in config.ks]
    headers, rows, reused = _sample_rows(config, cells)
    return FigureResult(
        name="Figure 4",
        title=f"number of samples vs K (eps={eps}, gamma={config.gamma})",
        headers=headers,
        rows=rows,
        meta={**engine_meta(config), "samples_reused": reused},
    )


def run_fig5(config: ExperimentConfig, ks: Sequence[int] | None = None) -> FigureResult:
    """Sample counts vs eps at the smallest/largest K (Fig. 5)."""
    if ks is None:
        ks = (min(config.ks), max(config.ks))
    cells = [(k, eps) for k in ks for eps in config.eps_values]
    headers, rows, reused = _sample_rows(config, cells)
    return FigureResult(
        name="Figure 5",
        title=f"number of samples vs eps (K in {tuple(ks)}, gamma={config.gamma})",
        headers=headers,
        rows=rows,
        meta={**engine_meta(config), "samples_reused": reused},
    )


# ----------------------------------------------------------------------
# Warm-start eps sweep — the session layer's headline saving
# ----------------------------------------------------------------------
def run_eps_sweep(
    config: ExperimentConfig,
    k: int | None = None,
    algorithm: str = "AdaAlg",
) -> FigureResult:
    """Samples drawn across an eps sweep, cold vs warm-started.

    Runs the same descending-eps sweep twice from the same master seed:
    once with a fresh session per cell (cold — the historical behavior)
    and once through one persistent :class:`SessionBank` session (warm —
    each cell extends the pool the previous cells grew).  The sampler
    distribution is eps-independent, so the warm pool is monotone and
    the warm sweep draws strictly fewer paths; the per-cell split and
    the aggregate saving land in the rows and ``meta``.
    """
    k = min(config.ks) if k is None else k
    eps_sweep = sorted(config.eps_values, reverse=True)
    rows: list[list] = []
    cold_total = 0
    warm_total = 0
    reused_total = 0
    for dataset in config.datasets:
        graph = load_dataset(dataset, config)
        if k > graph.n:
            continue
        cold_drawn: dict[float, int] = {}
        master = as_generator(config.seed + 5)
        for eps in eps_sweep:
            alg = build_sampling_algorithm(algorithm, eps, config, master)
            result = alg.run(graph, k)
            cold_drawn[eps] = result.diagnostics["session"]["samples_drawn"]
        master = as_generator(config.seed + 5)
        with SessionBank(graph, config, seed=master) as bank:
            for eps in eps_sweep:
                session = bank.session_for(algorithm)
                before = session.samples_drawn
                alg = build_sampling_algorithm(
                    algorithm, eps, config, master, session=session
                )
                alg.run(graph, k)
                warm_drawn = session.samples_drawn - before
                rows.append([dataset, k, eps, cold_drawn[eps], warm_drawn])
                cold_total += cold_drawn[eps]
                warm_total += warm_drawn
            reused_total += bank.samples_reused
    saved = cold_total - warm_total
    return FigureResult(
        name="Eps sweep",
        title=f"samples drawn per eps cell, cold vs warm ({algorithm}, K={k})",
        headers=["dataset", "K", "eps", "samples_cold", "samples_warm"],
        rows=rows,
        meta={
            **engine_meta(config),
            "algorithm": algorithm,
            "samples_cold": cold_total,
            "samples_warm": warm_total,
            "samples_saved": saved,
            "samples_reused": reused_total,
            "saving_fraction": saved / cold_total if cold_total else 0.0,
        },
    )
