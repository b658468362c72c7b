"""The runtime half of RPR202: debug=True freezes escaping arrays."""

import pytest

from repro.coverage import CoverageInstance
from repro.graph import generators
from repro.session import SampleStore, SamplingSession


@pytest.fixture
def store():
    s = SampleStore(6, debug=True)
    s.add_paths([[0, 1, 2], [2, 3], []])
    return s


class TestDebugStore:
    def test_path_view_is_read_only(self, store):
        view = store.path(0)
        with pytest.raises(ValueError):
            view[0] = 99

    def test_incidence_view_is_read_only(self, store):
        pids = store.paths_through_array(2)
        assert pids.tolist() == [0, 1]
        with pytest.raises(ValueError):
            pids[0] = 7

    def test_export_arrays_are_read_only(self, store):
        for name, array in store.export_arrays().items():
            assert not array.flags.writeable, name

    def test_read_only_export_round_trips_and_grows(self, store):
        clone = SampleStore.from_arrays(6, store.export_arrays(), debug=True)
        clone.add_paths([[4, 5]])  # must not explode on frozen inputs
        assert clone.num_paths == store.num_paths + 1
        assert clone.path(0).tolist() == store.path(0).tolist()

    def test_queries_unaffected_by_debug(self, store):
        plain = SampleStore(6)
        plain.add_paths([[0, 1, 2], [2, 3], []])
        assert store.covered_count([2]) == plain.covered_count([2]) == 2
        assert store.degrees().tolist() == plain.degrees().tolist()

    def test_default_store_keeps_writable_views(self):
        s = SampleStore(4)
        s.add_paths([[1, 2]])
        s.path(0)[0] = 1  # legacy behavior: views stay writable
        assert not s.debug


class TestDebugCoverage:
    def test_coverage_instance_accepts_debug(self):
        cov = CoverageInstance(4, debug=True)
        cov.add_paths([[0, 3]])
        with pytest.raises(ValueError):
            cov.path(0)[0] = 2


class TestSessionWiring:
    def test_session_stores_inherit_debug(self):
        graph = generators.erdos_renyi(12, 0.3, seed=5)
        with SamplingSession(graph, seed=1, lanes=2, debug=True) as session:
            assert all(s.debug for s in session.stores)
            session.extend(8)
            with pytest.raises(ValueError):
                session.stores[0].path(0)[0] = 0

    def test_resumed_session_stores_inherit_debug(self, tmp_path):
        graph = generators.erdos_renyi(12, 0.3, seed=5)
        path = str(tmp_path / "ckpt.npz")
        with SamplingSession(graph, seed=1, lanes=2, debug=True) as session:
            session.extend(8)
            session.checkpoint(path)
        resumed, _state = SamplingSession.resume(path, graph, debug=True)
        with resumed:
            assert all(s.debug for s in resumed.stores)
            with pytest.raises(ValueError):
                resumed.stores[0].path(0)[0] = 0
        plain, _state = SamplingSession.resume(path, graph)
        with plain:
            assert not any(s.debug for s in plain.stores)

    def test_graph_arrays_read_only_regardless(self):
        graph = generators.erdos_renyi(8, 0.4, seed=2)
        for arrays in (graph.export_arrays(),):
            for name, array in arrays.items():
                assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            graph.indptr[0] = 1
        with pytest.raises(ValueError):
            graph.neighbors(0)[:] = 0
