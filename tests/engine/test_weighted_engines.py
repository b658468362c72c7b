"""Weighted-graph engine equivalence: the delta-stepping cohort kernel
must be a pure throughput knob.

Contract under test:

* the default engine's delta-stepping cohort draw and the scalar
  oracle (:meth:`~repro.paths.PathSampler.sample_batch`, one Dijkstra
  per query) are bit-identical on weighted graphs;
* ``delta`` and ``cohort_size`` never change results, only bucket
  granularity and batching;
* draws are bit-identical across worker counts ``{0, 1, 4}`` on
  weighted graphs;
* checkpoint/resume reproduces the uninterrupted weighted run exactly.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro.paths.sampler as sampler_module
from repro.algorithms import AdaAlg
from repro.engine import EpochEngine, SerialEngine
from repro.exceptions import SessionInterrupted
from repro.graph import from_weighted_edges
from repro.paths import PathSampler, wavefront_weighted_search


def _random_weighted(n, p, seed, max_w=9, directed=False):
    rng = np.random.default_rng(seed)
    triples = []
    for u in range(n):
        candidates = range(n) if directed else range(u + 1, n)
        for v in candidates:
            if u != v and rng.random() < p:
                triples.append((u, v, int(rng.integers(1, max_w + 1))))
    return from_weighted_edges(triples, n=n, directed=directed)


@pytest.fixture(scope="module")
def weighted_graph():
    return _random_weighted(60, 0.1, seed=3)


_COLUMNS = ("sources", "targets", "distances", "sigmas", "edges", "nodes", "offsets")


def _assert_samples_equal(first, second):
    assert len(first) == len(second)
    for name in _COLUMNS:
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


def _kernel_knob(monkeypatch, **knob):
    """Set a knob of the weighted search kernel the sampler calls."""
    monkeypatch.setattr(
        sampler_module,
        "wavefront_weighted_search",
        functools.partial(wavefront_weighted_search, **knob),
    )


def _oracle(graph, seed, count):
    return PathSampler(graph, seed=seed).sample_batch(np.arange(count))


class TestBatchKernelParity:
    """The serial engine's weighted draws against the scalar oracle."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_wavefront_equals_scalar(self, directed):
        graph = _random_weighted(50, 0.12, seed=7, directed=directed)
        with SerialEngine(graph, seed=31) as engine:
            drawn = engine.draw(150)
        _assert_samples_equal(drawn, _oracle(graph, 31, 150))

    def test_disconnected_nulls_agree(self):
        # two weighted components: cross pairs are null in both kernels
        left = [(u, v, 2) for u in range(4) for v in range(u + 1, 4)]
        right = [(u, v, 3) for u in range(4, 8) for v in range(u + 1, 8)]
        graph = from_weighted_edges(left + right, n=8)
        with SerialEngine(graph, seed=5) as engine:
            a = engine.draw(80)
        b = _oracle(graph, 5, 80)
        assert np.count_nonzero(a.distances < 0) > 0
        _assert_samples_equal(a, b)

    @pytest.mark.parametrize("delta", [1, 3, 10**6])
    def test_delta_is_result_invariant(self, weighted_graph, delta, monkeypatch):
        def run():
            return PathSampler(weighted_graph, seed=13).sample_cohort(
                np.arange(120)
            )

        reference = run()
        _kernel_knob(monkeypatch, delta=delta)
        _assert_samples_equal(reference, run())

    def test_weighted_cohort_stats_recorded(self, weighted_graph):
        with SerialEngine(weighted_graph, seed=2) as engine:
            engine.draw(100)
            stats = engine.stats
        assert stats.weighted_cohorts > 0
        assert stats.bucket_relaxations > 0


class TestSamplerCohortParity:
    def test_wavefront_cohort_equals_scalar_cohort(self, weighted_graph):
        cohort = PathSampler(weighted_graph, seed=17).sample_cohort(np.arange(200))
        _assert_samples_equal(cohort, _oracle(weighted_graph, 17, 200))

    def test_cohort_size_is_result_invariant(self, weighted_graph, monkeypatch):
        def run():
            return PathSampler(weighted_graph, seed=23).sample_cohort(
                np.arange(150)
            )

        reference = run()
        for cohort_size in (1, 7, 1000):
            _kernel_knob(monkeypatch, cohort_size=cohort_size)
            _assert_samples_equal(reference, run())


class TestWorkerCountInvariance:
    def test_epoch_identical_across_worker_counts(self, weighted_graph):
        def run(workers):
            engine = EpochEngine(weighted_graph, seed=404, workers=workers)
            with engine:
                return engine.draw(128)

        reference = run(1)
        for workers in (0, 4):
            _assert_samples_equal(reference, run(workers))

    def test_adaalg_group_invariant_across_epoch_workers(self):
        graph = _random_weighted(40, 0.15, seed=9)

        def run(workers):
            algorithm = AdaAlg(eps=0.5, gamma=0.1, seed=5, workers=workers)
            return algorithm.run(graph, 2)

        reference = run(1)
        for workers in (0, 4):
            result = run(workers)
            assert result.group == reference.group
            assert result.estimate == reference.estimate
            assert result.num_samples == reference.num_samples


class TestWeightedResume:
    @pytest.mark.parametrize(
        "engine,extra",
        [("serial", {}), ("epoch", {"workers": 2})],
    )
    def test_resume_is_bit_identical(self, tmp_path, engine, extra):
        graph = _random_weighted(40, 0.15, seed=21)
        path = str(tmp_path / "ck.npz")

        def factory(**kw):
            return AdaAlg(eps=0.4, gamma=0.1, seed=11, **extra, **kw)

        straight = factory().run(graph, 3)
        with pytest.raises(SessionInterrupted):
            factory(checkpoint_path=path, stop_after_checkpoints=1).run(graph, 3)
        resumed = factory(resume_from=path).run(graph, 3)
        assert resumed.group == straight.group
        assert resumed.estimate == straight.estimate
        assert resumed.estimate_unbiased == straight.estimate_unbiased
        assert resumed.num_samples == straight.num_samples
        assert resumed.iterations == straight.iterations
