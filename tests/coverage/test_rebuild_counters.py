"""The CSR-incidence rebuild counters (append→query transitions).

`CoverageInstance` rebuilds its node→path index (a full stable argsort)
whenever a query follows an append; that cost used to be invisible.
These tests pin the counting semantics and their flow into
`EngineStats` / the ``coverage.*`` telemetry counters.
"""

from __future__ import annotations

from repro.coverage import CoverageInstance
from repro.engine import create_engine
from repro.graph import barabasi_albert
from repro.obs import Telemetry


def _add(instance, *paths):
    instance.add_paths(paths)


class TestInstanceCounters:
    def test_fresh_instance_has_zero(self):
        instance = CoverageInstance(5)
        assert instance.rebuilds == 0
        assert instance.rebuilt_elements == 0

    def test_query_after_append_rebuilds_once(self):
        instance = CoverageInstance(5)
        _add(instance, (0, 1, 2), (2, 3))
        instance.covered_count([2])
        assert instance.rebuilds == 1
        assert instance.rebuilt_elements == 5  # 3 + 2 path elements
        # repeated queries reuse the index
        instance.covered_count([0])
        instance.paths_through(2)
        assert instance.rebuilds == 1

    def test_append_invalidates_index(self):
        instance = CoverageInstance(5)
        _add(instance, (0, 1))
        instance.covered_count([0])
        _add(instance, (3, 4))
        instance.covered_count([3])
        assert instance.rebuilds == 2
        assert instance.rebuilt_elements == 2 + 4  # whole flat array each time


class TestEngineStatsFlow:
    def test_extend_folds_rebuilds_into_stats(self):
        graph = barabasi_albert(40, 2, seed=1)
        instance = CoverageInstance(graph.n)
        with create_engine(graph, seed=0) as engine:
            engine.extend(instance, 50)
            instance.covered_count([0])  # forces one rebuild
            engine.extend(instance, 100)
            stats = engine.stats.as_dict()
        assert stats["coverage_rebuilds"] == instance.rebuilds == 1
        assert stats["coverage_rebuilt_elements"] == instance.rebuilt_elements

    def test_telemetry_counters(self):
        graph = barabasi_albert(40, 2, seed=1)
        hub = Telemetry()
        instance = CoverageInstance(graph.n)
        with create_engine(graph, seed=0, telemetry=hub) as engine:
            engine.extend(instance, 50)
            instance.covered_count([0])
            engine.extend(instance, 100)
        counters = hub.snapshot()["counters"]
        assert counters["coverage.rebuilds"] == 1
        assert counters["coverage.rebuilt_elements"] == instance.rebuilt_elements

    def test_algorithm_run_reports_rebuilds(self):
        from repro.algorithms import AdaAlg

        graph = barabasi_albert(40, 2, seed=1)
        result = AdaAlg(eps=0.4, gamma=0.1, seed=2).run(graph, 3)
        stats = result.diagnostics["engine"]["stats"]
        assert sum(s["coverage_rebuilds"] for s in stats) >= 1
        assert sum(s["coverage_rebuilt_elements"] for s in stats) > 0
