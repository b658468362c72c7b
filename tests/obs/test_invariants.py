"""Unit tests for the debug-mode invariant validators."""

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.exceptions import InvariantViolation
from repro.graph import erdos_renyi, path_graph
from repro.obs import check_coverage, check_instance, check_samples
from repro.paths import PackedSamples, PathSampler


def _sample(graph, seed=0):
    """The first non-null sample of a seeded stream, as a one-row record."""
    sampler = PathSampler(graph, seed=seed)
    while True:
        sample = sampler.sample()
        if sample.distances[0] >= 0:
            return sample


def _row(source, target, nodes, distance, sigma=1.0):
    """A one-row record with the given (possibly corrupt) fields."""
    return PackedSamples.from_paths(
        [source], [target], [distance], [sigma], [0],
        [np.asarray(nodes, dtype=np.int64)],
    )


def _corrupted(sample, **overrides):
    fields = {
        "source": int(sample.sources[0]),
        "target": int(sample.targets[0]),
        "nodes": sample.nodes,
        "distance": int(sample.distances[0]),
    }
    fields.update(overrides)
    return _row(**fields)


class TestCheckSample:
    def test_genuine_samples_pass(self):
        g = erdos_renyi(40, 0.15, seed=3)
        sampler = PathSampler(g, seed=4)
        check_samples(g, sampler.sample_batch(np.arange(50)))  # must not raise

    def test_wrong_distance_rejected(self):
        g = path_graph(6)
        sample = _sample(g)
        bad = _corrupted(sample, distance=int(sample.distances[0]) + 1)
        with pytest.raises(InvariantViolation, match="distance"):
            check_samples(g, bad)

    def test_wrong_endpoints_rejected(self):
        g = erdos_renyi(30, 0.2, seed=5)
        sample = _sample(g)
        pair = (int(sample.sources[0]), int(sample.targets[0]))
        other = next(v for v in range(g.n) if v not in pair)
        bad = _corrupted(sample, source=other)
        with pytest.raises(InvariantViolation, match="endpoints"):
            check_samples(g, bad)

    def test_nonexistent_arc_rejected(self):
        g = path_graph(6)  # 0-1-2-3-4-5: (0, 2) is not an edge
        with pytest.raises(InvariantViolation, match="arc"):
            check_samples(g, _row(0, 2, [0, 2], 1))

    def test_wrong_hop_count_rejected(self):
        g = path_graph(6)  # a genuine 0-1-2 path that claims distance 1
        with pytest.raises(InvariantViolation, match="dist\\+1 nodes"):
            check_samples(g, _row(0, 2, [0, 1, 2], 1))

    def test_wrong_weight_sum_rejected(self):
        from repro.graph.weighted import from_weighted_edges

        g = from_weighted_edges([(0, 1, 2), (1, 2, 3)], n=3)
        with pytest.raises(InvariantViolation, match="weight 5"):
            check_samples(g, _row(0, 2, [0, 1, 2], 4))

    def test_non_shortest_path_rejected(self):
        # 0-1-2 plus the chord 0-2: the two-hop route is not shortest
        from repro.graph import from_edges

        g = from_edges(np.array([[0, 1], [1, 2], [0, 2]]), n=3)
        with pytest.raises(InvariantViolation, match="shortest"):
            check_samples(g, _row(0, 2, [0, 1, 2], 2))

    def test_null_sample_for_reachable_pair_rejected(self):
        g = path_graph(4)
        with pytest.raises(InvariantViolation, match="reachable"):
            check_samples(g, _row(0, 3, [], -1, sigma=0.0))

    def test_message_names_the_row(self):
        g = path_graph(6)
        good = _row(0, 1, [0, 1], 1)
        bad = PackedSamples.concat([good, good, _row(0, 2, [0, 2], 1)])
        with pytest.raises(InvariantViolation, match="sample 2"):
            check_samples(g, bad)


class TestCheckInstance:
    def _instance(self):
        instance = CoverageInstance(10)
        instance.add_paths([[0, 1, 2], [2, 3], [5]])
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
        instance.add_paths([[0, 1, 2], [2, 3], [4, 5]])
        assert check_coverage(instance, [2]) == 2
        assert check_coverage(instance, [0, 4]) == 2
        assert check_coverage(instance, [9]) == 0

    def test_matches_vectorized_count_on_random_instances(self):
        rng = np.random.default_rng(7)
        instance = CoverageInstance(30)
        instance.add_paths(
            rng.choice(30, size=int(rng.integers(1, 6)), replace=False)
            for _ in range(60)
        )
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

        def corrupt(self, indices):
            packed = original(self, indices)
            reachable = packed.distances >= 0
            packed.distances[reachable] += 1
            return packed

        monkeypatch.setattr(PathSampler, "sample_cohort", corrupt)
        instance = CoverageInstance(g.n)
        with pytest.raises(InvariantViolation):
            engine.extend(instance, 10)
        engine.close()
