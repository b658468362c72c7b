"""Unit tests for the algorithm base plumbing."""

import numpy as np
import pytest

from repro.algorithms import AdaAlg, CentRa, Exhaust, GBCResult, Hedge
from repro.algorithms.base import SamplingAlgorithm
from repro.exceptions import ParameterError
from repro.graph import barabasi_albert, path_graph
from repro.paths.sampler import PackedSamples, PathSample


class TestGBCResult:
    def test_k_property(self):
        result = GBCResult(algorithm="x", group=[1, 2, 3], estimate=5.0)
        assert result.k == 3

    def test_normalized_estimate(self, path5):
        result = GBCResult(algorithm="x", group=[0], estimate=10.0)
        assert result.normalized_estimate(path5) == pytest.approx(0.5)

    def test_defaults(self):
        result = GBCResult(algorithm="x", group=[], estimate=0.0)
        assert result.converged
        assert result.estimate_unbiased is None
        assert result.diagnostics == {}


class TestValidation:
    def test_tiny_graph_rejected(self):
        with pytest.raises(ParameterError):
            AdaAlg(seed=0).run(path_graph(1), 1)

    def test_k_zero_rejected(self, path5):
        with pytest.raises(ParameterError):
            AdaAlg(seed=0).run(path5, 0)

    def test_k_above_n_rejected(self, path5):
        with pytest.raises(ParameterError):
            AdaAlg(seed=0).run(path5, 6)

    def test_eps_validation(self):
        with pytest.raises(ParameterError):
            AdaAlg(eps=1.5)
        with pytest.raises(ValueError):
            AdaAlg(eps=0.65)  # above 1 - 1/e

    def test_gamma_validation(self):
        with pytest.raises(ParameterError):
            AdaAlg(gamma=0.0)


class TestSharedLoop:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda **kw: AdaAlg(**kw),
            lambda **kw: Hedge(**kw),
            lambda **kw: CentRa(**kw),
            lambda **kw: CentRa(empirical_stop=True, **kw),
            lambda **kw: Exhaust(num_samples=None, **kw),
        ],
        ids=["adaalg", "hedge", "centra", "centra-era", "exhaust"],
    )
    def test_cap_preempting_the_first_guess_still_returns_k_nodes(
        self, factory
    ):
        """Every algorithm spends a cap that preempts its first schedule
        entry once and returns the greedy group it supports."""
        graph = barabasi_albert(200, 3, seed=1)
        result = factory(eps=0.3, gamma=0.1, seed=1, max_samples=50).run(
            graph, 3
        )
        assert len(result.group) == 3
        assert result.converged is False
        assert result.diagnostics["capped"] is True
        assert 0 < result.num_samples <= 50 * AdaAlg.session_lanes


class TestEndpointSlicing:
    """The endpoint convention an algorithm threads to its engines, as
    :meth:`PackedSamples.coverage` applies it on every draw."""

    class _Probe(SamplingAlgorithm):
        name = "probe"

        def run(self, graph, k):  # pragma: no cover - not used
            raise NotImplementedError

    def _covered(self, probe, nodes):
        nodes = np.asarray(nodes, dtype=np.int64)
        sample = PathSample(
            source=int(nodes[0]) if nodes.size else 0,
            target=int(nodes[-1]) if nodes.size else 1,
            nodes=nodes,
            distance=nodes.size - 1,
            sigma_st=1.0,
            edges_explored=0,
        )
        flat, offsets = PackedSamples.from_samples([sample]).coverage(
            probe.include_endpoints
        )
        assert offsets.tolist() == [0, flat.size]
        return flat

    def test_endpoints_included_by_default(self):
        probe = self._Probe(seed=0)
        assert list(self._covered(probe, [3, 4, 5])) == [3, 4, 5]

    def test_endpoints_stripped(self):
        probe = self._Probe(include_endpoints=False, seed=0)
        assert list(self._covered(probe, [3, 4, 5])) == [4]

    def test_two_node_path_strips_to_nothing(self):
        probe = self._Probe(include_endpoints=False, seed=0)
        assert self._covered(probe, [3, 4]).size == 0

    def test_null_sample_passthrough(self):
        probe = self._Probe(include_endpoints=False, seed=0)
        assert self._covered(probe, []).size == 0
