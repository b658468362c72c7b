"""The index-addressed sample stream: sample ``i`` = f(seed, i, graph).

Contract under test:

* draws do not depend on the extend schedule, nor on the worker count;
* the cohort draw, the scalar oracle and the sampler's cursor methods
  give the same sample ``i``, unweighted and weighted;
* ordered pairs are exactly uniform: rejection over ``n(n-1)``, with
  the attempt number as its own step, never a biased modulo.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro._rng import PAIR_DOMAIN, counter_below, counter_pairs, counter_words
from repro.coverage import CoverageInstance
from repro.engine import create_engine
from repro.graph import barabasi_albert, from_weighted_edges
from repro.paths import PackedSamples, PathSampler

_COLUMNS = ("sources", "targets", "distances", "sigmas", "edges", "nodes", "offsets")


@pytest.fixture(scope="module")
def ba2000():
    return barabasi_albert(2000, 3, seed=3)


def _pool(graph, schedule, workers):
    instance = CoverageInstance(graph.n)
    with create_engine(graph, seed=3, workers=workers) as engine:
        for target in schedule:
            engine.extend(instance, target)
    return [instance.path(pid).tolist() for pid in range(instance.num_paths)]


def _assert_packed_equal(first, second):
    assert len(first) == len(second)
    for name in _COLUMNS:
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))


class TestSchedule:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_draws_independent_of_the_schedule(self, ba2000, workers):
        """``extend(300); extend(1000)`` and a single ``extend(1000)``
        build the same pool."""
        assert _pool(ba2000, [300, 1000], workers) == _pool(ba2000, [1000], workers)

    def test_worker_counts_give_identical_draws(self, ba2000):
        reference = _pool(ba2000, [700], 0)
        for workers in (1, 2):
            assert _pool(ba2000, [250, 700], workers) == reference


class TestOracle:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_cohort_equals_batch(self, weighted):
        graph = barabasi_albert(120, 2, seed=4)
        if weighted:
            rng = np.random.default_rng(5)
            graph = from_weighted_edges(
                [(u, v, int(rng.integers(1, 5))) for u, v in graph.edges()],
                n=graph.n,
            )
        indices = np.array([7, 0, 5000, 3, 3, 12, 999])
        sampler = PathSampler(graph, seed=21)
        _assert_packed_equal(
            sampler.sample_cohort(indices), sampler.sample_batch(indices)
        )

    def test_cursor_methods_read_the_same_indices(self):
        graph = barabasi_albert(80, 2, seed=6)
        expected = PathSampler(graph, seed=2).sample_batch(np.arange(6))
        sampler = PathSampler(graph, seed=2)
        drawn = PackedSamples.concat([sampler.sample(), sampler.sample(5)])
        assert sampler.cursor == 6
        _assert_packed_equal(drawn, expected)


class TestPairLaw:
    def test_pairs_exactly_uniform_at_n3(self):
        """All six ordered pairs of a 3-node graph, equally often."""
        sources, targets = counter_pairs(17, np.arange(60_000), 3)
        assert (sources != targets).all()
        cells = np.bincount(sources * 3 + targets, minlength=9)
        assert cells[[0, 4, 8]].sum() == 0
        observed = cells[[1, 2, 3, 5, 6, 7]]
        assert stats.chisquare(observed).pvalue > 1e-3

    def test_forced_rejection_stays_uniform(self):
        """With ``bound = 2**63 + 1`` almost half of all first attempts
        are rejected; every index then takes its first accepted attempt,
        and the accepted values stay uniform on ``[0, bound)``."""
        bound = (1 << 63) + 1
        indices = np.arange(4000)
        values = counter_below(9, indices, bound, domain=PAIR_DOMAIN)
        rejected = 0
        for index, value in zip(indices.tolist(), values.tolist()):
            attempt = 0
            while True:
                word = int(counter_words(9, index, PAIR_DOMAIN, attempt))
                if word < bound:
                    break
                attempt += 1
            rejected += attempt > 0
            assert value == word
        assert 1800 < rejected < 2200
        halves = np.bincount((values >= np.uint64(1 << 62)).astype(np.int64))
        assert stats.chisquare(halves).pvalue > 1e-3
        np.testing.assert_array_equal(
            values, counter_below(9, indices, bound, domain=PAIR_DOMAIN)
        )
