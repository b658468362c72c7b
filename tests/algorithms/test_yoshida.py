"""Unit tests for the YoshidaSketch pair-sampling baseline."""

import pytest

from repro.algorithms import AdaAlg, YoshidaSketch, yoshida_sample_size
from repro.exceptions import ParameterError
from repro.graph import erdos_renyi, star_graph
from repro.paths import exact_gbc


class TestSampleSize:
    def test_mu_squared_dependence(self):
        a = yoshida_sample_size(1000, 0.3, 0.01, 0.5)
        b = yoshida_sample_size(1000, 0.3, 0.01, 0.25)
        assert b >= 3.9 * a  # 1/mu^2 quadruples

    def test_no_k_dependence(self):
        # the bound has no K term at all (its weakness)
        assert yoshida_sample_size(1000, 0.3, 0.01, 0.5) == yoshida_sample_size(
            1000, 0.3, 0.01, 0.5
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            yoshida_sample_size(1, 0.3, 0.01, 0.5)
        with pytest.raises(ParameterError):
            yoshida_sample_size(10, 0.3, 0.01, 0.0)


class TestYoshidaSketch:
    def test_returns_k_nodes(self):
        g = erdos_renyi(40, 0.15, seed=0)
        result = YoshidaSketch(eps=0.4, seed=1).run(g, 3)
        assert len(result.group) == 3
        assert result.algorithm == "YoshidaSketch"

    def test_star_hub(self):
        g = star_graph(25)
        result = YoshidaSketch(eps=0.4, seed=2).run(g, 1)
        assert result.group == [0]

    def test_estimate_upper_bounds_exact(self):
        """The touched-pairs objective over-estimates B(C)."""
        g = erdos_renyi(40, 0.12, seed=3)
        result = YoshidaSketch(eps=0.4, seed=4).run(g, 3)
        exact = exact_gbc(g, result.group)
        # allow sampling noise, but the bias direction should be clear
        assert result.estimate >= exact * 0.95

    def test_quality_still_reasonable(self):
        g = erdos_renyi(50, 0.12, seed=5)
        sketch = YoshidaSketch(eps=0.4, seed=6).run(g, 4)
        ada = AdaAlg(eps=0.4, seed=7).run(g, 4)
        assert exact_gbc(g, sketch.group) >= 0.8 * exact_gbc(g, ada.group)

    def test_max_samples_cap(self):
        g = erdos_renyi(40, 0.12, seed=8)
        result = YoshidaSketch(eps=0.3, seed=9, max_samples=20).run(g, 3)
        assert not result.converged
        assert result.diagnostics["capped"]

    def test_endpoint_stripping(self):
        g = erdos_renyi(40, 0.15, seed=10)
        with_ep = YoshidaSketch(eps=0.4, seed=11).run(g, 3)
        without_ep = YoshidaSketch(
            eps=0.4, seed=11, include_endpoints=False
        ).run(g, 3)
        assert without_ep.estimate <= with_ep.estimate

    def test_guess_base_validation(self):
        with pytest.raises(ValueError):
            YoshidaSketch(guess_base=0.5)

    @pytest.mark.parametrize(
        "options",
        [{"eps": 0.0}, {"eps": 1.0}, {"gamma": 0.0}, {"gamma": 1.5},
         {"max_samples": 0}],
    )
    def test_parameter_validation(self, options):
        with pytest.raises(ParameterError):
            YoshidaSketch(**options)

    def test_draws_no_session(self):
        """A reference baseline, not a session-backed sampling loop."""
        from repro.algorithms import GBCAlgorithm, SamplingAlgorithm

        sketch = YoshidaSketch()
        assert isinstance(sketch, GBCAlgorithm)
        assert not isinstance(sketch, SamplingAlgorithm)

    def test_work_accounting(self):
        g = erdos_renyi(40, 0.15, seed=12)
        result = YoshidaSketch(eps=0.5, seed=13).run(g, 3)
        assert result.diagnostics["edges_explored"] > 0
