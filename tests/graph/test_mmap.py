"""Tests for the out-of-core memory-mapped graph tier
(:mod:`repro.graph.mmap`).

The contract under test:

* ``save_mmap`` → ``load_mmap`` round-trips every CSR array, the
  directedness/weightedness flags, and attaches the arrays as
  read-only memory maps (no in-memory copy);
* a loaded graph samples bit-identically to its in-memory original,
  through every engine and through worker processes that re-open the
  directory via the ``mmap`` transport;
* corrupt or foreign directories are rejected with
  :class:`~repro.exceptions.GraphError`.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.engine import create_engine
from repro.exceptions import GraphError
from repro.graph import (
    barabasi_albert,
    from_edges,
    from_weighted_edges,
    is_mmap_graph,
    load_mmap,
    save_mmap,
)
from repro.obs import Telemetry


def _is_mapped(array) -> bool:
    return isinstance(array, np.memmap) or isinstance(array.base, np.memmap)


class TestRoundTrip:
    def test_unweighted(self, tmp_path, grid3x3):
        path = save_mmap(grid3x3, str(tmp_path / "g"))
        loaded = load_mmap(path)
        assert loaded.n == grid3x3.n
        assert loaded.num_edges == grid3x3.num_edges
        assert loaded.directed == grid3x3.directed
        for key, array in grid3x3.export_arrays().items():
            assert np.array_equal(loaded.export_arrays()[key], array)
        assert loaded.mmap_source == os.path.abspath(path)
        assert grid3x3.mmap_source is None

    def test_weighted(self, tmp_path):
        graph = from_weighted_edges(
            [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 2)], n=4
        )
        loaded = load_mmap(save_mmap(graph, str(tmp_path / "w")))
        assert type(loaded).__name__ == "WeightedCSRGraph"
        assert np.array_equal(
            loaded.export_arrays()["weights"], graph.export_arrays()["weights"]
        )

    def test_directed(self, tmp_path, directed_diamond):
        loaded = load_mmap(save_mmap(directed_diamond, str(tmp_path / "d")))
        assert loaded.directed is True

    def test_arrays_are_memory_mapped(self, tmp_path, grid3x3):
        loaded = load_mmap(save_mmap(grid3x3, str(tmp_path / "g")))
        for key, array in loaded.export_arrays().items():
            assert _is_mapped(array), f"{key} was copied into memory"

    def test_save_overwrites_in_place(self, tmp_path, grid3x3, path5):
        target = str(tmp_path / "g")
        save_mmap(grid3x3, target)
        save_mmap(path5, target)
        assert load_mmap(target).n == path5.n

    def test_is_mmap_graph(self, tmp_path, grid3x3):
        path = save_mmap(grid3x3, str(tmp_path / "g"))
        assert is_mmap_graph(path)
        assert not is_mmap_graph(str(tmp_path))
        assert not is_mmap_graph(str(tmp_path / "missing"))

    def test_open_telemetry(self, tmp_path, grid3x3):
        tel = Telemetry()
        load_mmap(save_mmap(grid3x3, str(tmp_path / "g")), telemetry=tel)
        assert tel.counters["graph.mmap.opens"] == 1
        assert tel.counters["graph.mmap.bytes_mapped"] > 0


class TestRejection:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(GraphError):
            load_mmap(str(tmp_path / "nowhere"))

    def test_foreign_manifest(self, tmp_path):
        target = tmp_path / "g"
        target.mkdir()
        (target / "graph.json").write_text(json.dumps({"format": "other"}))
        assert not is_mmap_graph(str(target))
        with pytest.raises(GraphError):
            load_mmap(str(target))

    def test_unsupported_version(self, tmp_path, grid3x3):
        path = save_mmap(grid3x3, str(tmp_path / "g"))
        manifest = json.loads((tmp_path / "g" / "graph.json").read_text())
        manifest["version"] = 99
        (tmp_path / "g" / "graph.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphError):
            load_mmap(path)

    def test_manifest_array_mismatch(self, tmp_path, grid3x3):
        path = save_mmap(grid3x3, str(tmp_path / "g"))
        manifest = json.loads((tmp_path / "g" / "graph.json").read_text())
        manifest["arrays"]["indptr"]["shape"] = [1]
        (tmp_path / "g" / "graph.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphError):
            load_mmap(path)

    def test_missing_array_file(self, tmp_path, grid3x3):
        path = save_mmap(grid3x3, str(tmp_path / "g"))
        os.remove(tmp_path / "g" / "indices.npy")
        with pytest.raises(GraphError):
            load_mmap(path)

    def test_count_mismatch(self, tmp_path, grid3x3):
        path = save_mmap(grid3x3, str(tmp_path / "g"))
        manifest = json.loads((tmp_path / "g" / "graph.json").read_text())
        manifest["n"] = grid3x3.n + 1
        (tmp_path / "g" / "graph.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphError):
            load_mmap(path)


class TestSamplingEquivalence:
    """A memory-mapped graph is the *same* graph: fixed-seed sampling
    must agree bit-for-bit with the in-memory original."""

    @pytest.fixture(scope="class")
    def ba(self):
        return barabasi_albert(200, 2, seed=3)

    @pytest.fixture(scope="class")
    def ba_mmap(self, ba, tmp_path_factory):
        path = save_mmap(ba, str(tmp_path_factory.mktemp("mmap") / "ba"))
        return load_mmap(path)

    @pytest.mark.parametrize("name", ["serial", "epoch"])
    def test_engines_agree_with_in_memory(self, ba, ba_mmap, name):
        workers = {"serial": 0, "epoch": 2}[name]

        def run(graph):
            instance = CoverageInstance(graph.n)
            engine = create_engine(graph, seed=42, workers=workers)
            with engine:
                engine.extend(instance, 300)
            return instance

        reference = run(ba)
        observed = run(ba_mmap)
        assert observed.num_paths == reference.num_paths
        assert np.array_equal(observed.degrees(), reference.degrees())

    def test_workers_use_the_mmap_transport(self, ba_mmap):
        with create_engine(ba_mmap, seed=1, workers=1) as engine:
            transport, payload = engine._worker_payload()
            assert transport == "mmap"
            assert payload["path"] == ba_mmap.mmap_source
            assert engine._segments is None  # no shm copy was made
            engine.draw(64)

    def test_algorithm_over_mmap_graph(self, tmp_path):
        from repro.algorithms import AdaAlg

        graph = barabasi_albert(80, 2, seed=5)
        mapped = load_mmap(save_mmap(graph, str(tmp_path / "g")))

        def run(g, workers):
            return AdaAlg(eps=0.4, gamma=0.1, seed=11, workers=workers).run(g, 4)

        for workers in (0, 2):
            in_memory = run(graph, workers)
            out_of_core = run(mapped, workers)
            assert out_of_core.group == in_memory.group
            assert out_of_core.estimate == in_memory.estimate
            assert out_of_core.num_samples == in_memory.num_samples


class TestCLI:
    def test_run_mmap_matches_in_memory(self, tmp_path, capsys):
        from repro.cli import main

        edges = tmp_path / "g.txt"
        rng = np.random.default_rng(0)
        lines = {f"{a} {b}" for a, b in rng.integers(0, 30, size=(120, 2))
                 if a != b}
        edges.write_text("\n".join(sorted(lines)) + "\n")
        base = [
            "run", "--algorithm", "adaalg", "--edge-list", str(edges),
            "-k", "3", "--eps", "0.4", "--gamma", "0.1", "--seed", "7",
            "--workers", "2",
        ]
        plain, mapped = tmp_path / "plain.json", tmp_path / "mapped.json"
        assert main(base + ["--json", str(plain)]) == 0
        assert main(
            base + ["--json", str(mapped), "--mmap", str(tmp_path / "spill")]
        ) == 0
        capsys.readouterr()
        assert json.loads(plain.read_text()) == json.loads(mapped.read_text())
        assert is_mmap_graph(str(tmp_path / "spill"))

    def test_edge_list_pointing_at_mmap_dir(self, tmp_path, capsys):
        """A previously spilled directory is accepted directly as the
        graph source."""
        from repro.cli import main

        graph = barabasi_albert(40, 2, seed=1)
        path = save_mmap(graph, str(tmp_path / "g"))
        out = tmp_path / "r.json"
        code = main([
            "run", "--algorithm", "hedge", "--edge-list", path,
            "-k", "2", "--eps", "0.5", "--gamma", "0.1", "--seed", "3",
            "--workers", "1", "--json", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["k"] == 2
