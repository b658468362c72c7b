"""Tests for the execution-engine substrate (:mod:`repro.engine`).

The engine contract under test:

* every engine draws from the same path distribution (chi-square
  cross-check on a small graph where the law is known empirically);
* a fixed seed gives a deterministic sample sequence, bit-identical
  across worker counts;
* ``extend`` applies the endpoint convention;
* statistics track the work actually performed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.engine import EpochEngine, SerialEngine, create_engine
from repro.exceptions import ParameterError
from repro.graph import from_weighted_edges
from repro.paths import PathSampler

#: Engine name -> the ``workers`` value that selects it.
WORKERS = {"serial": 0, "epoch": 2}
ENGINE_NAMES = sorted(WORKERS)


def _engine(name, graph, seed=0, **kwargs):
    return create_engine(graph, seed=seed, workers=WORKERS[name], **kwargs)


class TestFactory:
    def test_known_names(self, grid3x3):
        for name in ENGINE_NAMES:
            with _engine(name, grid3x3) as engine:
                assert engine.name == name

    def test_unknown_name(self, grid3x3):
        """Engines are no longer picked by name: naming one is refused
        (``workers`` is the only knob)."""
        with pytest.raises(TypeError):
            create_engine("turbo", grid3x3)
        with pytest.raises(TypeError):
            create_engine(grid3x3, engine="epoch")

    def test_registry_covers_classes(self, grid3x3):
        """``workers`` picks the class: in process for 0, the worker
        fan-out (a serial-engine subclass) otherwise."""
        assert issubclass(EpochEngine, SerialEngine)
        with create_engine(grid3x3) as engine:
            assert type(engine) is SerialEngine
        with create_engine(grid3x3, workers=1) as engine:
            assert type(engine) is EpochEngine and engine.workers == 1

    def test_bad_workers(self, grid3x3):
        # workers=0 is the in-process engine; negatives are bad
        with pytest.raises(ParameterError):
            EpochEngine(grid3x3, workers=-1)
        with pytest.raises(ParameterError):
            create_engine(grid3x3, workers=-1)

    def test_negative_count_rejected(self, grid3x3):
        for name in ENGINE_NAMES:
            with _engine(name, grid3x3) as engine:
                with pytest.raises(ParameterError):
                    engine.draw(-1)


class TestDrawBasics:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_count_and_validity(self, grid3x3, name):
        with _engine(name, grid3x3, seed=7) as engine:
            samples = engine.draw(50)
        assert len(samples) == 50
        assert np.all(samples.sources != samples.targets)
        assert np.array_equal(samples.nodes[samples.offsets[:-1]], samples.sources)
        assert np.array_equal(samples.nodes[samples.offsets[1:] - 1], samples.targets)
        assert np.array_equal(np.diff(samples.offsets), samples.distances + 1)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_zero_draw(self, grid3x3, name):
        with _engine(name, grid3x3) as engine:
            samples = engine.draw(0)
        assert len(samples) == 0
        assert samples.nodes.size == 0 and samples.offsets.tolist() == [0]

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_null_samples_on_disconnected(self, two_triangles, name):
        with _engine(name, two_triangles, seed=3) as engine:
            samples = engine.draw(60)
        # 18 of 30 ordered pairs straddle the components
        nulls = np.count_nonzero(samples.distances < 0)
        assert 0 < nulls < 60

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_weighted_graph(self, name):
        graph = from_weighted_edges(
            [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 2)], n=4
        )
        with _engine(name, graph, seed=11) as engine:
            samples = engine.draw(20)
        assert len(samples) == 20
        assert np.all(samples.distances >= 0)


class TestDeterminism:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_same_seed_same_samples(self, grid3x3, name):
        def run():
            with _engine(name, grid3x3, seed=42) as engine:
                return engine.draw(40)

        first, second = run(), run()
        for name in ("sources", "targets", "nodes", "offsets"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_epoch_groups_identical_across_worker_counts(self, barbell):
        """End-to-end: AdaAlg's group is invariant to the worker count."""
        from repro.algorithms import AdaAlg

        def run(workers):
            algorithm = AdaAlg(eps=0.5, gamma=0.1, seed=5, workers=workers)
            return algorithm.run(barbell, 2)

        reference = run(1)
        for workers in (0, 2, 4):
            result = run(workers)
            assert result.group == reference.group
            assert result.estimate == reference.estimate
            assert result.num_samples == reference.num_samples

class TestDistribution:
    """Engines must sample the same path law, not just any paths."""

    @staticmethod
    def _pair_counts(samples, n):
        return np.bincount(samples.sources * n + samples.targets, minlength=n * n)

    def test_pair_marginal_uniform(self, grid3x3):
        """Each engine's (s, t) marginal is uniform over ordered pairs."""
        scipy_stats = pytest.importorskip("scipy.stats")
        n = grid3x3.n
        draws = 7200
        mask = ~np.eye(n, dtype=bool).ravel()
        for name in ENGINE_NAMES:
            with _engine(name, grid3x3, seed=99) as engine:
                counts = self._pair_counts(engine.draw(draws), n)[mask]
            _, pvalue = scipy_stats.chisquare(counts)
            assert pvalue > 1e-3, f"{name}: pair marginal not uniform (p={pvalue})"

    def test_engines_agree_on_path_choice(self, diamond):
        """On the diamond, paths 0-1-3 and 0-2-3 are equally likely for
        the (0, 3) pair — and every engine must split them evenly."""
        scipy_stats = pytest.importorskip("scipy.stats")
        observed = {}
        for name in ENGINE_NAMES:
            with _engine(name, diamond, seed=17) as engine:
                samples = engine.draw(6000)
            via1 = via2 = 0
            paths = np.split(samples.nodes, samples.offsets[1:-1])
            for source, target, nodes in zip(samples.sources, samples.targets, paths):
                if {int(source), int(target)} == {0, 3}:
                    if 1 in nodes:
                        via1 += 1
                    else:
                        via2 += 1
            _, pvalue = scipy_stats.chisquare([via1, via2])
            observed[name] = pvalue
        for name, pvalue in observed.items():
            assert pvalue > 1e-3, f"{name}: uneven path split (p={pvalue})"


class TestExtend:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_extend_grows_to_target(self, grid3x3, name):
        instance = CoverageInstance(grid3x3.n)
        with _engine(name, grid3x3, seed=1) as engine:
            engine.extend(instance, 25)
            assert instance.num_paths == 25
            engine.extend(instance, 10)  # no shrink, no-op
            assert instance.num_paths == 25
            engine.extend(instance, 40)
            assert instance.num_paths == 40

    def test_extend_respects_endpoint_convention(self, path5):
        with_ends = CoverageInstance(path5.n)
        without = CoverageInstance(path5.n)
        with SerialEngine(path5, seed=8, include_endpoints=True) as engine:
            engine.extend(with_ends, 30)
        with SerialEngine(path5, seed=8, include_endpoints=False) as engine:
            engine.extend(without, 30)
        # same seed, same paths: stripping endpoints only shrinks them
        for pid in range(30):
            a, b = with_ends.path(pid), without.path(pid)
            assert len(b) in (len(a) - 2, 0) or len(a) == 0

    def test_coverage_nodes_helper(self, grid3x3):
        with SerialEngine(grid3x3, seed=0) as engine:
            draw = engine.draw(1)
        full, _ = draw.coverage(include_endpoints=True)
        inner, _ = draw.coverage(include_endpoints=False)
        assert np.array_equal(full, np.unique(draw.nodes))
        assert np.array_equal(inner, np.unique(draw.nodes[1:-1]))


class TestStats:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_counters_accumulate(self, grid3x3, name):
        with _engine(name, grid3x3, seed=4) as engine:
            engine.draw(30)
            engine.draw(20)
            stats = engine.stats
        assert stats.samples == 50
        assert stats.draw_calls == 2
        assert stats.traversals > 0
        assert stats.batches > 0
        assert stats.edges_explored > 0
        payload = stats.as_dict()
        assert payload["samples"] == 50
        assert isinstance(payload["worker_samples"], dict)

    def test_serial_small_draws_one_traversal_each(self, grid3x3):
        with SerialEngine(grid3x3, seed=4) as engine:
            engine.draw(5)  # below n=9: per-sample path
            assert engine.stats.traversals == 5

    def test_engine_stats_surface_in_diagnostics(self, barbell):
        from repro.algorithms import Hedge

        result = Hedge(eps=0.5, gamma=0.1, seed=0, max_samples=5000).run(barbell, 2)
        info = result.diagnostics["engine"]
        assert info["name"] == "serial"
        total = sum(s["samples"] for s in info["stats"])
        assert total == result.num_samples
        assert result.diagnostics["edges_explored"] == sum(
            s["edges_explored"] for s in info["stats"]
        )


class TestSerialMatchesBatch:
    @pytest.mark.parametrize("count", [5, 100])
    def test_serial_equals_cohort_batch_kernels(self, grid3x3, count):
        """Below and above n alike, the serial engine's packed cohort
        draw coincides exactly with the scalar oracle
        :meth:`~repro.paths.PathSampler.sample_batch`."""
        with SerialEngine(grid3x3, seed=13) as serial:
            a = serial.draw(count)
        b = PathSampler(grid3x3, seed=13).sample_batch(np.arange(count))
        assert len(a) == len(b) == count
        for name in ("sources", "targets", "nodes", "offsets", "edges"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
