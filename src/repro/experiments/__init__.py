"""Experiment harness regenerating the paper's tables and figures."""

from .ablations import (
    run_base_sweep,
    run_endpoint_ablation,
    run_local_search_ablation,
    run_pair_vs_path,
    run_sampler_work,
    run_strategy_comparison,
    run_validation_set_ablation,
    run_work_scaling,
)
from .export import read_json, to_csv, to_json, write_result
from .figures import (
    FigureResult,
    run_eps_sweep,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
)
from .harness import (
    BENCH,
    FULL,
    REDUCED,
    SAMPLING_ALGORITHMS,
    SMOKE,
    DatasetContext,
    ExperimentConfig,
    SessionBank,
    aggregate,
    build_sampling_algorithm,
    load_dataset,
)
from .report import format_number, format_table, render_series
from .summary import EXPECTED_SHAPES, run_all, write_markdown
from .tables import run_table1

__all__ = [
    "ExperimentConfig",
    "SMOKE",
    "BENCH",
    "REDUCED",
    "FULL",
    "SAMPLING_ALGORITHMS",
    "DatasetContext",
    "SessionBank",
    "build_sampling_algorithm",
    "load_dataset",
    "aggregate",
    "FigureResult",
    "run_eps_sweep",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_table1",
    "run_base_sweep",
    "run_sampler_work",
    "run_endpoint_ablation",
    "run_strategy_comparison",
    "run_pair_vs_path",
    "run_validation_set_ablation",
    "run_local_search_ablation",
    "run_work_scaling",
    "format_table",
    "format_number",
    "render_series",
    "to_csv",
    "to_json",
    "write_result",
    "read_json",
    "run_all",
    "write_markdown",
    "EXPECTED_SHAPES",
]
