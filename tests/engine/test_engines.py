"""Tests for the execution-engine substrate (:mod:`repro.engine`).

The engine contract under test:

* every engine draws from the same path distribution (chi-square
  cross-check on a small graph where the law is known empirically);
* a fixed seed gives a deterministic sample sequence, and the process
  engine is additionally bit-identical across worker counts;
* ``extend`` applies the endpoint convention;
* statistics track the work actually performed.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.engine import (
    ENGINES,
    BatchEngine,
    EpochEngine,
    ProcessPoolEngine,
    SerialEngine,
    create_engine,
)
from repro.engine.base import coverage_nodes
from repro.exceptions import ParameterError
from repro.graph import from_weighted_edges

ENGINE_NAMES = sorted(ENGINES)


def _engine(name, graph, seed=0, **kwargs):
    return create_engine(name, graph, seed=seed, **kwargs)


class TestFactory:
    def test_known_names(self, grid3x3):
        for name in ENGINE_NAMES:
            with _engine(name, grid3x3) as engine:
                assert engine.name == name

    def test_unknown_name(self, grid3x3):
        with pytest.raises(ParameterError):
            create_engine("turbo", grid3x3)

    def test_registry_covers_classes(self):
        assert ENGINES == {
            "serial": SerialEngine,
            "batch": BatchEngine,
            "process": ProcessPoolEngine,
            "epoch": EpochEngine,
        }

    def test_bad_workers(self, grid3x3):
        # workers=0 is the explicit in-process fallback; negatives are bad
        with pytest.raises(ParameterError):
            ProcessPoolEngine(grid3x3, workers=-1)

    def test_bad_kernel(self, grid3x3):
        with pytest.raises(ParameterError):
            BatchEngine(grid3x3, kernel="turbo")
        with pytest.raises(ParameterError):
            create_engine("process", grid3x3, kernel="turbo")

    def test_bad_cache_sources(self, grid3x3):
        with pytest.raises(ParameterError):
            SerialEngine(grid3x3, cache_sources=-1)

    def test_bad_chunk_size(self, grid3x3):
        with pytest.raises(ParameterError):
            ProcessPoolEngine(grid3x3, chunk_size=0)

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
        for sample in samples:
            assert sample.source != sample.target
            assert sample.nodes[0] == sample.source
            assert sample.nodes[-1] == sample.target
            assert len(sample.nodes) == sample.distance + 1

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_zero_draw(self, grid3x3, name):
        with _engine(name, grid3x3) as engine:
            assert list(engine.draw(0)) == []

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_null_samples_on_disconnected(self, two_triangles, name):
        with _engine(name, two_triangles, seed=3) as engine:
            samples = engine.draw(60)
        # 18 of 30 ordered pairs straddle the components
        nulls = sum(sample.is_null for sample in samples)
        assert 0 < nulls < 60

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_weighted_graph(self, name):
        graph = from_weighted_edges(
            [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 2)], n=4
        )
        with _engine(name, graph, seed=11) as engine:
            samples = engine.draw(20)
        assert len(samples) == 20
        for sample in samples:
            assert not sample.is_null


class TestDeterminism:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_same_seed_same_samples(self, grid3x3, name):
        def run():
            with _engine(name, grid3x3, seed=42) as engine:
                return engine.draw(40)

        first, second = run(), run()
        for a, b in zip(first, second):
            assert a.source == b.source
            assert a.target == b.target
            assert np.array_equal(a.nodes, b.nodes)

    def test_process_identical_across_worker_counts(self, grid3x3):
        """The chunked sub-stream scheme: workers=1,2,4 agree bitwise."""

        def run(workers):
            engine = ProcessPoolEngine(
                grid3x3, seed=2024, workers=workers, chunk_size=16
            )
            with engine:
                return engine.draw(100)

        reference = run(1)
        for workers in (0, 2, 4):
            samples = run(workers)
            assert len(samples) == len(reference)
            for a, b in zip(reference, samples):
                assert a.source == b.source
                assert a.target == b.target
                assert np.array_equal(a.nodes, b.nodes)

    def test_process_groups_identical_across_worker_counts(self, barbell):
        """End-to-end: AdaAlg's group is invariant to the worker count."""
        from repro.algorithms import AdaAlg

        def run(workers):
            algorithm = AdaAlg(
                eps=0.5, gamma=0.1, seed=5, engine="process", workers=workers
            )
            return algorithm.run(barbell, 2)

        reference = run(1)
        for workers in (0, 2, 4):
            result = run(workers)
            assert result.group == reference.group
            assert result.estimate == reference.estimate
            assert result.num_samples == reference.num_samples

    def test_batch_identical_across_kernels(self, grid3x3):
        """The wavefront and scalar kernels are bit-identical."""

        def run(kernel):
            with BatchEngine(grid3x3, seed=31, kernel=kernel) as engine:
                return engine.draw(120)

        for a, b in zip(run("wavefront"), run("scalar")):
            assert a.source == b.source
            assert a.target == b.target
            assert np.array_equal(a.nodes, b.nodes)
            assert a.sigma_st == b.sigma_st
            assert a.edges_explored == b.edges_explored

    def test_adaalg_identical_across_kernels(self, barbell):
        """End-to-end: the kernel knob trades speed, never results."""
        from repro.algorithms import AdaAlg

        def run(kernel):
            algorithm = AdaAlg(
                eps=0.5, gamma=0.1, seed=5, engine="batch", kernel=kernel
            )
            return algorithm.run(barbell, 2)

        reference = run("wavefront")
        result = run("scalar")
        assert result.group == reference.group
        assert result.estimate == reference.estimate
        assert result.estimate_unbiased == reference.estimate_unbiased
        assert result.num_samples == reference.num_samples


class TestDistribution:
    """Engines must sample the same path law, not just any paths."""

    @staticmethod
    def _pair_counts(samples, n):
        counts = np.zeros((n, n), dtype=np.int64)
        for sample in samples:
            counts[sample.source, sample.target] += 1
        return counts.ravel()

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
            for sample in samples:
                if {sample.source, sample.target} == {0, 3}:
                    if 1 in sample.nodes:
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
        # the epoch engine rounds extends up to epoch boundaries; pick a
        # size that divides every target so the counts below stay exact
        kwargs = {"epoch_size": 5} if name == "epoch" else {}
        instance = CoverageInstance(grid3x3.n)
        with _engine(name, grid3x3, seed=1, **kwargs) as engine:
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
            (sample,) = engine.draw(1)
        full = coverage_nodes(sample, True)
        inner = coverage_nodes(sample, False)
        assert np.array_equal(full, sample.nodes)
        assert np.array_equal(inner, sample.nodes[1:-1])


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

    def test_batch_grouped_amortizes_traversals(self, grid3x3):
        with BatchEngine(grid3x3, seed=4, kernel="grouped") as engine:
            engine.draw(500)
            # at most one BFS per distinct source
            assert engine.stats.traversals <= grid3x3.n
            assert engine.stats.batches == 1

    def test_process_worker_utilization_recorded(self, grid3x3):
        with ProcessPoolEngine(grid3x3, seed=4, workers=2, chunk_size=32) as engine:
            engine.draw(128)
            stats = engine.stats
        assert sum(stats.worker_samples.values()) == 128
        assert stats.batches == 4

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
        """Below and above n alike, the serial engine draws packed
        cohorts: it coincides exactly with both cohort kernels of the
        batch engine."""
        with SerialEngine(grid3x3, seed=13) as serial:
            a = serial.draw(count)
        for kernel in ("wavefront", "scalar"):
            with BatchEngine(grid3x3, seed=13, kernel=kernel) as batch:
                b = batch.draw(count)
            assert len(a) == len(b) == count
            for x, y in zip(a, b):
                assert x.source == y.source and x.target == y.target
                assert np.array_equal(x.nodes, y.nodes)


def _segment_paths(engine):
    """On-disk /dev/shm paths of the engine's shared graph segments."""
    if engine._segments is None:
        return []
    return [
        os.path.join("/dev/shm", name.lstrip("/"))
        for name in engine._segments.block_names()
    ]


class TestPoolChunking:
    def test_auto_chunks_cap_dispatch_count(self, grid3x3):
        """Default chunks scale with the draw: big requests never split
        into more than 8 dispatches (one result pickle each)."""
        engine = ProcessPoolEngine(grid3x3, workers=0)
        assert engine._chunk_sizes(500) == [500]
        assert engine._chunk_sizes(1024) == [1024]
        assert engine._chunk_sizes(8192) == [1024] * 8
        assert engine._chunk_sizes(80_000) == [10_000] * 8
        assert len(engine._chunk_sizes(80_001)) == 8
        engine.close()

    def test_auto_chunk_layout_is_worker_count_invariant(self, grid3x3):
        """The layout depends on the request count only — the same
        guarantee the fixed default gave."""
        a = ProcessPoolEngine(grid3x3, workers=0)
        b = ProcessPoolEngine(grid3x3, workers=8)
        assert a._chunk_sizes(123_456) == b._chunk_sizes(123_456)
        a.close()
        b.close()

    def test_explicit_chunk_size_still_honored(self, grid3x3):
        engine = ProcessPoolEngine(grid3x3, workers=0, chunk_size=16)
        assert engine._chunk_sizes(40) == [16, 16, 8]
        engine.close()


class TestPoolLifecycle:
    def test_executor_reused_across_draws(self, grid3x3):
        with ProcessPoolEngine(grid3x3, seed=4, workers=2, chunk_size=32) as engine:
            engine.draw(64)
            engine.draw(64)
            instance = CoverageInstance(grid3x3.n)
            engine.extend(instance, 160)
            assert engine.stats.pool_startups == 1
            assert engine.stats.draw_calls == 3

    def test_workers_zero_never_starts_a_pool(self, grid3x3):
        with ProcessPoolEngine(grid3x3, seed=4, workers=0) as engine:
            engine.draw(50)
            assert engine.stats.pool_startups == 0
            assert engine.stats.workers == 0
            assert engine._segments is None

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no POSIX shared memory"
    )
    def test_shared_segments_cleaned_up_on_close(self, grid3x3):
        engine = ProcessPoolEngine(grid3x3, seed=9, workers=2, chunk_size=32)
        engine.draw(64)
        paths = _segment_paths(engine)
        if engine.stats.workers:  # pool actually started
            assert paths and all(os.path.exists(p) for p in paths)
        engine.close()
        assert not any(os.path.exists(p) for p in paths)
        engine.close()  # idempotent

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no POSIX shared memory"
    )
    def test_worker_crash_falls_back_and_cleans_up(self, grid3x3):
        """A dying worker breaks the pool; the engine must recover
        in-process AND unlink its shared segments."""
        engine = ProcessPoolEngine(grid3x3, seed=9, workers=2, chunk_size=32)
        first = engine.draw(64)
        paths = _segment_paths(engine)
        if engine._pool is None:  # pragma: no cover - sandbox without pools
            engine.close()
            pytest.skip("process pool unavailable")
        crash = engine._pool.submit(os._exit, 1)  # simulate a worker crash
        # let the executor register the death first: otherwise a fast
        # surviving worker can finish the next draw before it does
        with pytest.raises(BrokenExecutor):
            crash.result(timeout=60)
        second = engine.draw(64)
        assert len(first) == len(second) == 64
        assert engine.stats.workers == 0  # degraded to in-process
        assert not any(os.path.exists(p) for p in paths)
        engine.close()

    def test_crash_fallback_preserves_samples(self, grid3x3):
        """The in-process fallback replays the same chunk schedule, so
        a crash changes *where* samples are computed, never *what*."""
        with ProcessPoolEngine(
            grid3x3, seed=77, workers=2, chunk_size=16
        ) as healthy:
            healthy.draw(48)
            expected = healthy.draw(48)
        crashed = ProcessPoolEngine(grid3x3, seed=77, workers=2, chunk_size=16)
        crashed.draw(48)
        if crashed._pool is not None:
            crashed._pool.submit(os._exit, 1)
        actual = crashed.draw(48)
        crashed.close()
        for a, b in zip(expected, actual):
            assert a.source == b.source and a.target == b.target
            assert np.array_equal(a.nodes, b.nodes)


class TestTreeCache:
    def test_cache_counts_and_sample_identity(self, grid3x3):
        """Caching forward-BFS trees changes work accounting only —
        the sampled paths are bit-identical.  The cache serves the
        grouped kernel only."""
        with BatchEngine(grid3x3, seed=21, kernel="grouped") as plain:
            a = plain.draw(100) + plain.draw(100)
            assert plain.stats.cache_hits == plain.stats.cache_misses == 0
        with BatchEngine(
            grid3x3, seed=21, kernel="grouped", cache_sources=9
        ) as cached:
            b = cached.draw(100) + cached.draw(100)
            stats = cached.stats
        assert stats.cache_misses <= grid3x3.n
        assert stats.cache_hits > 0  # second draw reuses first draw's trees
        for x, y in zip(a, b):
            assert x.source == y.source and x.target == y.target
            assert np.array_equal(x.nodes, y.nodes)

    def test_cache_eviction_is_bounded(self, grid3x3):
        with BatchEngine(
            grid3x3, seed=21, kernel="grouped", cache_sources=2
        ) as engine:
            engine.draw(100)
            assert len(engine._sampler._tree_cache) <= 2

    def test_cache_stats_surface_in_diagnostics(self, barbell):
        from repro.algorithms import Hedge

        result = Hedge(
            eps=0.5,
            gamma=0.1,
            seed=0,
            engine="batch",
            kernel="grouped",
            cache_sources=16,
            max_samples=5000,
        ).run(barbell, 2)
        info = result.diagnostics["engine"]
        assert info["kernel"] == "grouped"
        merged = {
            key: sum(s[key] for s in info["stats"])
            for key in ("cache_hits", "cache_misses")
        }
        assert merged["cache_misses"] > 0

    def test_diagnostics_report_resolved_kernel(self, barbell):
        from repro.algorithms import Hedge

        result = Hedge(
            eps=0.5, gamma=0.1, seed=0, engine="batch", max_samples=5000
        ).run(barbell, 2)
        assert result.diagnostics["engine"]["kernel"] == "wavefront"
