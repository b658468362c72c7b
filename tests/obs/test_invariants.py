"""Unit tests for the debug-mode invariant validators."""

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.exceptions import InvariantViolation
from repro.graph import erdos_renyi, path_graph
from repro.obs import check_coverage, check_instance, check_sample
from repro.paths import PathSampler
from repro.paths.sampler import PathSample


def _sample(graph, seed=0):
    sampler = PathSampler(graph, seed=seed)
    while True:
        sample = sampler.sample()
        if not sample.is_null:
            return sample


def _corrupted(sample, **overrides):
    fields = {
        "source": sample.source,
        "target": sample.target,
        "nodes": sample.nodes,
        "distance": sample.distance,
        "sigma_st": sample.sigma_st,
        "edges_explored": sample.edges_explored,
    }
    fields.update(overrides)
    return PathSample(**fields)


class TestCheckSample:
    def test_genuine_samples_pass(self):
        g = erdos_renyi(40, 0.15, seed=3)
        sampler = PathSampler(g, seed=4)
        for sample in sampler.sample_batch(np.arange(50)):
            check_sample(g, sample)  # must not raise

    def test_wrong_distance_rejected(self):
        g = path_graph(6)
        sample = _sample(g)
        bad = _corrupted(sample, distance=sample.distance + 1)
        with pytest.raises(InvariantViolation, match="distance"):
            check_sample(g, bad)

    def test_wrong_endpoints_rejected(self):
        g = erdos_renyi(30, 0.2, seed=5)
        sample = _sample(g)
        other = next(
            v for v in range(g.n) if v not in (sample.source, sample.target)
        )
        bad = _corrupted(sample, source=other)
        with pytest.raises(InvariantViolation, match="endpoints"):
            check_sample(g, bad)

    def test_nonexistent_arc_rejected(self):
        g = path_graph(6)  # 0-1-2-3-4-5: (0, 2) is not an edge
        bad = PathSample(
            source=0,
            target=2,
            nodes=np.array([0, 2]),
            distance=1,
            sigma_st=1.0,
            edges_explored=0,
        )
        with pytest.raises(InvariantViolation, match="arc"):
            check_sample(g, bad)

    def test_non_shortest_path_rejected(self):
        # 0-1-2 plus the chord 0-2: the two-hop route is not shortest
        from repro.graph import from_edges

        g = from_edges(np.array([[0, 1], [1, 2], [0, 2]]), n=3)
        bad = PathSample(
            source=0,
            target=2,
            nodes=np.array([0, 1, 2]),
            distance=2,
            sigma_st=1.0,
            edges_explored=0,
        )
        with pytest.raises(InvariantViolation, match="shortest"):
            check_sample(g, bad)

    def test_null_sample_for_reachable_pair_rejected(self):
        g = path_graph(4)
        bad = PathSample(
            source=0,
            target=3,
            nodes=np.empty(0, dtype=np.int64),
            distance=-1,
            sigma_st=0.0,
            edges_explored=0,
        )
        with pytest.raises(InvariantViolation, match="reachable"):
            check_sample(g, bad)


class TestCheckInstance:
    def _instance(self):
        instance = CoverageInstance(10)
        instance.add_path([0, 1, 2])
        instance.add_path([2, 3])
        instance.add_path([5])
        return instance

    def test_consistent_instance_passes(self):
        check_instance(self._instance())  # must not raise

    def test_corrupted_degree_counter_detected(self):
        instance = self._instance()
        instance._degrees[2] += 1  # simulate a double-count bug
        with pytest.raises(InvariantViolation, match="degree counter"):
            check_instance(instance)

    def test_empty_instance_passes(self):
        check_instance(CoverageInstance(5))


class TestCheckCoverage:
    def test_consistent_count_returned(self):
        instance = CoverageInstance(10)
        instance.add_path([0, 1, 2])
        instance.add_path([2, 3])
        instance.add_path([4, 5])
        assert check_coverage(instance, [2]) == 2
        assert check_coverage(instance, [0, 4]) == 2
        assert check_coverage(instance, [9]) == 0

    def test_matches_vectorized_count_on_random_instances(self):
        rng = np.random.default_rng(7)
        instance = CoverageInstance(30)
        for _ in range(60):
            size = int(rng.integers(1, 6))
            instance.add_path(rng.choice(30, size=size, replace=False))
        group = [0, 7, 13]
        assert check_coverage(instance, group) == instance.covered_count(group)


class TestAlgorithmDebugMode:
    def test_adaalg_debug_run_is_clean(self):
        from repro.algorithms import AdaAlg

        g = erdos_renyi(40, 0.15, seed=11)
        result = AdaAlg(eps=0.4, seed=12, debug=True).run(g, 3)
        assert len(result.group) == 3

    def test_debug_mode_catches_corrupted_sampler(self, monkeypatch):
        """A sampler that mangles distances must be caught at the engine."""
        from repro.engine import create_engine

        g = erdos_renyi(40, 0.15, seed=13)
        engine = create_engine(g, seed=14, debug=True)
        original = PathSampler.sample_cohort

        def corrupt(self, count, **kwargs):
            packed = original(self, count, **kwargs)
            reachable = packed.distances >= 0
            packed.distances[reachable] += 1
            return packed

        monkeypatch.setattr(PathSampler, "sample_cohort", corrupt)
        instance = CoverageInstance(g.n)
        with pytest.raises(InvariantViolation):
            engine.extend(instance, 10)
        engine.close()
