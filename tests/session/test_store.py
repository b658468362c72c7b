"""Unit tests for :class:`repro.session.SampleStore`.

A store is written to disk only inside a session checkpoint; the file
round trip, atomic overwrite, missing-file and corruption tests live
with :class:`~repro.session.SamplingSession` in ``test_session.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage import CoverageInstance
from repro.exceptions import CheckpointError
from repro.session import SampleStore


def _filled_store(num_nodes=10, paths=((0, 1, 2), (2, 3), (4,), (0, 5, 6, 7))):
    store = SampleStore(num_nodes)
    store.add_paths(paths)
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
        clone.add_paths([[8, 9]])
        assert clone.num_paths == store.num_paths + 1
        assert clone.covered_count([8]) == 1

class TestValidation:
    def test_from_arrays_bad_offsets(self):
        arrays = _filled_store().export_arrays()
        arrays["offsets"] = arrays["offsets"][:-1]  # no longer ends at flat size
        with pytest.raises(CheckpointError):
            SampleStore.from_arrays(10, arrays)

    def test_from_arrays_wrong_universe(self):
        arrays = _filled_store().export_arrays()
        with pytest.raises(CheckpointError):
            SampleStore.from_arrays(7, arrays)

class TestSnapshotFieldValidation:
    """``from_arrays`` names the offending field on bad input."""

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
