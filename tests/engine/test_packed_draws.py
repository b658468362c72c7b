"""Packed cohort draws: the default engine against the scalar oracle.

``SerialEngine`` (the default everywhere) resolves its draws with the
vectorized search and one vectorized walk per chunk, through
:meth:`~repro.paths.PathSampler.sample_cohort`, at any chunk width;
the oracle :meth:`~repro.paths.PathSampler.sample_batch` runs one
scalar search and one scalar walk per sample.  All must yield
bit-identical samples — and hence identical coverage instances — for
every seed, chunk width, endpoint convention, and draw size below or
above ``n``.  A draw's memory must follow the samples drawn, not ``n``.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

import repro.paths.sampler as sampler_module
from repro.coverage import CoverageInstance
from repro.engine import PackedSamples, SampleEngine, SerialEngine
from repro.graph import barabasi_albert, erdos_renyi
from repro.paths import PathSampler

_COLUMNS = ("sources", "targets", "distances", "sigmas", "edges", "nodes", "offsets")


@pytest.fixture(scope="module")
def ba():
    return barabasi_albert(150, 2, seed=8)


@pytest.fixture(scope="module")
def sparse_digraph():
    # sparse enough that many ordered pairs are unreachable
    return erdos_renyi(120, 0.015, seed=6, directed=True)


class _SamplerEngine(SampleEngine):
    """One sampler draw method behind the engine interface."""

    name = "sampler"

    def __init__(self, graph, seed, include_endpoints, draw):
        super().__init__(graph, seed=seed, include_endpoints=include_endpoints)
        self._draw = draw

    def draw(self, count):
        indices = np.arange(self.cursor, self.cursor + count)
        self.cursor += count
        return self._draw(self._sampler, indices)


def _engines(graph, seed, include_endpoints=True):
    def cohort(sampler, indices):
        return sampler.sample_cohort(indices)

    def oracle(sampler, indices):
        return sampler.sample_batch(indices)

    return [
        SerialEngine(graph, seed=seed, include_endpoints=include_endpoints),
        _SamplerEngine(graph, seed, include_endpoints, cohort),
        _SamplerEngine(graph, seed, include_endpoints, oracle),
    ]


def _assert_identical(first: PackedSamples, second: PackedSamples):
    assert len(first) == len(second)
    for name in _COLUMNS:
        assert np.array_equal(getattr(first, name), getattr(second, name)), name


def _assert_same_instance(first: CoverageInstance, second: CoverageInstance):
    assert first.num_paths == second.num_paths
    for pid in range(first.num_paths):
        assert np.array_equal(first.path(pid), second.path(pid))
    assert np.array_equal(first.degrees(), second.degrees())


class TestOracle:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("chunk", [None, 1, 5])
    @pytest.mark.parametrize("graph_name", ["ba", "sparse_digraph"])
    def test_engines_draw_bit_identical_samples(
        self, request, monkeypatch, graph_name, seed, chunk
    ):
        graph = request.getfixturevalue(graph_name)
        if chunk is not None:
            # the pairs one search kernel call resolves in lock step
            monkeypatch.setattr(sampler_module, "_CHUNK", chunk)
        # one draw below n, one above: both go through the same path
        counts = (graph.n // 3, 2 * graph.n + 7)
        draws = []
        for engine in _engines(graph, seed):
            with engine:
                draws.append([engine.draw(count) for count in counts])
        reference = draws[-1]  # the scalar oracle
        for other in draws[:-1]:
            for got, want in zip(other, reference):
                _assert_identical(got, want)
        if graph_name == "sparse_digraph":
            assert (reference[1].distances < 0).any()  # nulls exercised

    @pytest.mark.parametrize("include_endpoints", [True, False])
    @pytest.mark.parametrize("graph_name", ["ba", "sparse_digraph"])
    def test_extend_builds_identical_instances(
        self, request, graph_name, include_endpoints
    ):
        graph = request.getfixturevalue(graph_name)
        built = []
        for engine in _engines(graph, 5, include_endpoints):
            instance = CoverageInstance(graph.n)
            with engine:
                for upto in (40, graph.n + 25, 3 * graph.n):
                    engine.extend(instance, upto)
            built.append(instance)
        for instance in built[:-1]:
            _assert_same_instance(instance, built[-1])

    def test_extend_matches_per_sample_ingest(self, sparse_digraph):
        """The one bulk append equals appending each drawn path with
        the endpoint convention applied, one path at a time."""
        for include_endpoints in (True, False):
            with SerialEngine(
                sparse_digraph, seed=2, include_endpoints=include_endpoints
            ) as engine:
                bulk = CoverageInstance(sparse_digraph.n)
                engine.extend(bulk, 300)
            with SerialEngine(sparse_digraph, seed=2) as engine:
                samples = engine.draw(300)
            single = CoverageInstance(sparse_digraph.n)
            for nodes in np.split(samples.nodes, samples.offsets[1:-1]):
                if not include_endpoints and nodes.size:
                    nodes = nodes[1:-1]
                single.add_paths([nodes])
            _assert_same_instance(bulk, single)

    def test_walk_slices_and_chunks_do_not_move_samples(self, ba, monkeypatch):
        """Tiny search chunks and walk-step arc budgets split the draw
        differently; the samples stay those of the scalar oracle."""
        expected = PathSampler(ba, seed=9).sample_batch(np.arange(400))
        monkeypatch.setattr(sampler_module, "_CHUNK", 37)
        monkeypatch.setattr(sampler_module, "_WALK_ARCS", 3)
        got = PathSampler(ba, seed=9).sample_cohort(np.arange(400))
        _assert_identical(got, expected)


class TestPackedSamples:
    def test_concat_and_pickle_round_trip(self, ba):
        with SerialEngine(ba, seed=4) as engine:
            packed = engine.draw(30)
        with SerialEngine(ba, seed=4) as engine:
            head, tail = engine.draw(12), engine.draw(18)
        assert len(packed) == 30
        _assert_identical(PackedSamples.concat([head, tail]), packed)
        _assert_identical(pickle.loads(pickle.dumps(packed)), packed)

    def test_empty(self):
        empty = PackedSamples.empty()
        assert len(empty) == 0
        flat, offsets = empty.coverage()
        assert flat.size == 0 and list(offsets) == [0]
        assert len(PackedSamples.concat([empty, empty])) == 0


class TestDrawMemory:
    def test_extend_memory_follows_samples_not_n(self):
        """4,000 samples on n=20,000: dense per-sample search rows would
        take 4000 * 4 * n * 8 bytes; the packed draw keeps the cohort's
        discovered marks of one chunk plus a small per-sample amount."""
        graph = barabasi_albert(20_000, 2, seed=1)
        count = 4_000
        engine = SerialEngine(graph, seed=2)
        instance = CoverageInstance(graph.n)
        tracemalloc.start()
        try:
            engine.extend(instance, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert instance.num_paths == count
        dense_rows = count * 4 * graph.n * 8
        assert peak < dense_rows / 100
        assert peak < 2 * 32 * graph.n * 8 + 2048 * count
