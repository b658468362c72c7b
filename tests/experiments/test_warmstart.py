"""Warm-started sweeps: SessionBank reuse and the eps-sweep saving."""

from __future__ import annotations

import pytest

from repro.algorithms import AdaAlg
from repro.experiments import (
    SMOKE,
    SessionBank,
    build_sampling_algorithm,
    run_eps_sweep,
    run_fig5,
)
from repro.graph import barabasi_albert

CFG = SMOKE.with_overrides(
    datasets=("SyntheticNetwork-BA",),
    ks=(10,),
    eps_values=(0.3, 0.4, 0.5),
)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(80, 2, seed=5)


class TestSessionBank:
    def test_sessions_are_per_algorithm_and_persistent(self, graph):
        with SessionBank(graph, CFG) as bank:
            ada = bank.session_for("AdaAlg")
            hedge = bank.session_for("HEDGE")
            assert ada is not hedge
            assert ada.lanes == AdaAlg.session_lanes == 2
            assert hedge.lanes == 1
            assert bank.session_for("AdaAlg") is ada

    def test_reuse_accounting(self, graph):
        with SessionBank(graph, CFG) as bank:
            session = bank.session_for("AdaAlg")
            session.extend(100, lane=0)
            assert bank.samples_reused == 0  # first hand-out predates samples
            bank.session_for("AdaAlg")
            assert bank.samples_reused == 100
            assert bank.samples_drawn == 100

    def test_monotone_reuse_across_eps(self, graph):
        """The second (looser-eps) run draws nothing new."""
        with SessionBank(graph, CFG, seed=0) as bank:
            tight = build_sampling_algorithm(
                "AdaAlg", 0.3, CFG, 1, session=bank.session_for("AdaAlg")
            )
            tight.run(graph, 10)
            drawn_before = bank.samples_drawn
            loose = build_sampling_algorithm(
                "AdaAlg", 0.5, CFG, 2, session=bank.session_for("AdaAlg")
            )
            result = loose.run(graph, 10)
            assert bank.samples_drawn == drawn_before  # pool already covers it
            assert result.diagnostics["session"]["samples_reused"] > 0
            assert result.diagnostics["session"]["external"] is True

    def test_bank_session_stays_open_after_run(self, graph):
        with SessionBank(graph, CFG) as bank:
            session = bank.session_for("HEDGE")
            algorithm = build_sampling_algorithm(
                "HEDGE", 0.5, CFG, 3, session=session
            )
            algorithm.run(graph, 5)
            # the run must not close a session it does not own
            assert session.extend(session.total_samples + 10) == 10


class TestEpsSweep:
    def test_warm_start_reduces_samples(self):
        sweep = run_eps_sweep(CFG, k=10)
        meta = sweep.meta
        assert meta["samples_warm"] < meta["samples_cold"]
        assert meta["samples_saved"] == meta["samples_cold"] - meta["samples_warm"]
        assert 0.0 < meta["saving_fraction"] < 1.0
        # per-cell: warm never draws more than cold
        for _, _, _, cold, warm in sweep.rows:
            assert warm <= cold

    def test_figure_meta_records_reuse(self):
        warm = run_fig5(CFG.with_overrides(reuse_sessions=True))
        cold = run_fig5(CFG)
        assert warm.meta["samples_reused"] > 0
        assert cold.meta["samples_reused"] == 0
        assert warm.meta["reuse_sessions"] is True
