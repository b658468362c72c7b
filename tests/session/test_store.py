"""Unit tests for :class:`repro.session.SampleStore`."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.exceptions import CheckpointError
from repro.session import STORE_FORMAT, STORE_VERSION, SampleStore


def _filled_store(num_nodes=10, paths=((0, 1, 2), (2, 3), (4,), (0, 5, 6, 7))):
    store = SampleStore(num_nodes)
    for path in paths:
        store.add_path(np.asarray(path, dtype=np.int64))
    return store


class TestStoreBasics:
    def test_is_a_coverage_instance(self):
        assert isinstance(_filled_store(), CoverageInstance)

    def test_draw_schedule_records_targets(self):
        store = _filled_store()
        store.record_extend(100)
        store.record_extend(250)
        assert store.draw_schedule == [100, 250]

    def test_export_arrays_shapes(self):
        store = _filled_store()
        arrays = store.export_arrays()
        assert arrays["offsets"].shape == (store.num_paths + 1,)
        assert arrays["flat"].shape == (arrays["offsets"][-1],)
        assert arrays["degrees"].shape == (store.num_nodes,)


class TestRoundTrip:
    def test_from_arrays_preserves_queries(self):
        store = _filled_store()
        clone = SampleStore.from_arrays(store.num_nodes, store.export_arrays())
        assert clone.num_paths == store.num_paths
        for group in ([0], [2, 4], [0, 3, 5]):
            assert clone.covered_count(group) == store.covered_count(group)

    def test_loaded_store_can_keep_growing(self):
        store = _filled_store()
        clone = SampleStore.from_arrays(store.num_nodes, store.export_arrays())
        clone.add_path(np.asarray([8, 9], dtype=np.int64))
        assert clone.num_paths == store.num_paths + 1
        assert clone.covered_count([8]) == 1

    def test_save_load_file(self, tmp_path):
        store = _filled_store()
        store.record_extend(4)
        path = str(tmp_path / "pool.npz")
        store.save(path, rng_state={"stream": "repro-index-stream"},
                   provenance={"workers": 0})
        loaded, meta = SampleStore.load(path)
        assert loaded.num_paths == store.num_paths
        assert loaded.draw_schedule == [4]
        assert meta["format"] == STORE_FORMAT
        assert meta["version"] == STORE_VERSION
        assert meta["rng_state"] == {"stream": "repro-index-stream"}
        assert meta["provenance"] == {"workers": 0}

    def test_atomic_save_replaces_existing(self, tmp_path):
        path = str(tmp_path / "pool.npz")
        _filled_store().save(path)
        bigger = _filled_store(paths=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
        bigger.save(path)
        loaded, _ = SampleStore.load(path)
        assert loaded.num_paths == 5
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


class TestValidation:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            SampleStore.load(str(tmp_path / "nope.npz"))

    def test_load_non_store_npz(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, x=np.arange(3))
        with pytest.raises(CheckpointError):
            SampleStore.load(path)

    def test_from_arrays_bad_offsets(self):
        arrays = _filled_store().export_arrays()
        arrays["offsets"] = arrays["offsets"][:-1]  # no longer ends at flat size
        with pytest.raises(CheckpointError):
            SampleStore.from_arrays(10, arrays)

    def test_from_arrays_wrong_universe(self):
        arrays = _filled_store().export_arrays()
        with pytest.raises(CheckpointError):
            SampleStore.from_arrays(7, arrays)

    def test_path_count_mismatch_detected(self, tmp_path):
        store = _filled_store()
        path = str(tmp_path / "pool.npz")
        store.save(path)
        with np.load(path) as payload:
            arrays = {k: payload[k] for k in payload.files}
        import json

        meta = json.loads(str(arrays["meta"]))
        meta["num_paths"] += 1
        arrays["meta"] = np.asarray(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError):
            SampleStore.load(path)


class TestSnapshotFieldValidation:
    """``from_arrays``/``load`` name the offending field on bad input."""

    def test_missing_field_named(self):
        arrays = _filled_store().export_arrays()
        del arrays["flat"]
        with pytest.raises(CheckpointError, match="'flat'.*missing"):
            SampleStore.from_arrays(10, arrays)

    def test_float_dtype_rejected(self):
        arrays = _filled_store().export_arrays()
        arrays["flat"] = arrays["flat"].astype(np.float64)
        with pytest.raises(CheckpointError, match="'flat'.*integer dtype"):
            SampleStore.from_arrays(10, arrays)

    def test_two_dimensional_array_rejected(self):
        arrays = _filled_store().export_arrays()
        arrays["offsets"] = arrays["offsets"].reshape(1, -1)
        with pytest.raises(CheckpointError, match="'offsets'.*1-D"):
            SampleStore.from_arrays(10, arrays)

    def test_wrong_length_degrees_named(self):
        arrays = _filled_store().export_arrays()
        arrays["degrees"] = arrays["degrees"][:-2]
        with pytest.raises(CheckpointError, match="'degrees'.*length"):
            SampleStore.from_arrays(10, arrays)

    def test_narrower_int_widths_accepted(self):
        arrays = _filled_store().export_arrays()
        arrays["flat"] = arrays["flat"].astype(np.int32)
        arrays["offsets"] = arrays["offsets"].astype(np.uint32)
        clone = SampleStore.from_arrays(10, arrays)
        assert clone.num_paths == _filled_store().num_paths
        assert clone.export_arrays()["flat"].dtype == np.int64

    def test_load_surfaces_field_name(self, tmp_path):
        store = _filled_store()
        path = str(tmp_path / "pool.npz")
        store.save(path)
        with np.load(path, allow_pickle=True) as payload:
            arrays = {k: payload[k] for k in payload.files}
        arrays["degrees"] = arrays["degrees"].astype(np.float32)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="'degrees'"):
            SampleStore.load(path)
