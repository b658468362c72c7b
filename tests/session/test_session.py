"""Unit tests for :class:`repro.session.SamplingSession`."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ParameterError
from repro.graph import (
    DeltaGraph,
    GraphUpdate,
    barabasi_albert,
    erdos_renyi,
    from_weighted_edges,
)
from repro.obs import Telemetry
from repro.session import SamplingSession


@pytest.fixture
def graph():
    return barabasi_albert(60, 2, seed=3)


def _mutated(graph, update):
    delta = DeltaGraph(graph)
    delta.apply(update)
    return delta.compact()


class TestLifecycle:
    def test_lanes_and_stores(self, graph):
        with SamplingSession(graph, lanes=2, seed=1) as session:
            assert session.lanes == 2
            assert session.total_samples == 0
            assert session.store(0) is not session.store(1)

    def test_extend_grows_and_counts(self, graph):
        with SamplingSession(graph, seed=1) as session:
            assert session.extend(50) == 50
            assert session.extend(30) == 0  # already covered
            assert session.extend(80) == 30
            assert session.samples_drawn == 80
            assert session.store(0).draw_schedule == [50, 80]

    def test_lane_streams_are_independent(self, graph):
        with SamplingSession(graph, lanes=2, seed=1) as session:
            session.extend(40, lane=0)
            session.extend(40, lane=1)
            a = session.store(0).path(0)
            b = session.store(1).path(0)
            assert a.shape != b.shape or not np.array_equal(a, b)

    def test_at_least_one_lane(self, graph):
        with pytest.raises(ParameterError):
            SamplingSession(graph, lanes=0)

    def test_repr_mentions_state(self, graph):
        with SamplingSession(graph, seed=1) as session:
            text = repr(session)
            assert "lanes=1" in text and "resumed=False" in text


class TestCheckpointResume:
    def test_round_trip_restores_everything(self, graph, tmp_path):
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, lanes=2, seed=7) as session:
            session.extend(60, lane=0)
            session.extend(25, lane=1)
            session.checkpoint(path, state={"loop": {"q": 3}})
        thawed, state = SamplingSession.resume(path, graph)
        with thawed:
            assert thawed.resumed
            assert thawed.checkpoints_written == 1
            assert state == {"loop": {"q": 3}}
            assert thawed.total_samples == 85
            assert thawed.store(0).num_paths == 60

    def test_resume_continues_bit_identically(self, graph, tmp_path):
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=42) as straight:
            straight.extend(50)
            straight.extend(120)
            reference = [straight.store(0).path(i) for i in range(120)]
        with SamplingSession(graph, seed=42) as first:
            first.extend(50)
            first.checkpoint(path)
        thawed, _ = SamplingSession.resume(path, graph)
        with thawed:
            thawed.extend(120)
            for i in (0, 49, 50, 119):
                assert np.array_equal(thawed.store(0).path(i), reference[i])

    def test_peek_reads_meta_without_arrays(self, graph, tmp_path):
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, lanes=2, seed=7) as session:
            session.extend(10)
            session.checkpoint(path)
        meta = SamplingSession.peek(path)
        assert meta["lanes"] == 2
        assert meta["provenance"]["workers"] == 0
        assert meta["num_paths"] == [10, 0]

    def test_resume_rejects_other_graph(self, graph, tmp_path):
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=1) as session:
            session.extend(5)
            session.checkpoint(path)
        other = erdos_renyi(30, 0.2, seed=0)
        with pytest.raises(CheckpointError) as excinfo:
            SamplingSession.resume(path, other)
        # the error names BOTH fingerprints so the operator can see
        # what was swapped, not just that something was
        message = str(excinfo.value)
        assert "fingerprint mismatch" in message
        assert f'"n": {graph.n}' in message
        assert f'"n": {other.n}' in message

    def test_resume_rejects_mismatched_mmap_graph(self, graph, tmp_path):
        """The fingerprint guard must cover graphs loaded through the
        out-of-core mmap tier, and the error must say which spill
        directory the wrong graph came from."""
        from repro.graph.mmap import load_mmap, save_mmap

        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=1) as session:
            session.extend(5)
            session.checkpoint(path)
        other = erdos_renyi(30, 0.2, seed=0)
        spill = save_mmap(other, str(tmp_path / "other.graph"))
        mapped = load_mmap(spill)
        with pytest.raises(CheckpointError) as excinfo:
            SamplingSession.resume(path, mapped)
        message = str(excinfo.value)
        assert "fingerprint mismatch" in message
        assert "mmap" in message and "other.graph" in message

    def test_resume_accepts_same_graph_via_mmap(self, graph, tmp_path):
        """Round-tripping the SAME graph through the mmap tier keeps
        its checkpoints resumable — n/m/directedness/weights all agree."""
        from repro.graph.mmap import load_mmap, save_mmap

        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=1) as session:
            session.extend(5)
            session.checkpoint(path)
        mapped = load_mmap(save_mmap(graph, str(tmp_path / "same.graph")))
        thawed, _ = SamplingSession.resume(path, mapped)
        with thawed:
            assert thawed.total_samples == 5

    def test_resume_refuses_balanced_delta(self, tmp_path):
        """One edge swapped keeps n and m: only the content digest can
        tell the graphs apart."""
        graph = barabasi_albert(200, 2, seed=3)
        swapped = _mutated(graph, GraphUpdate.from_ops(
            inserts=[(0, 199, 1)], deletes=[(0, int(graph.neighbors(0)[0]))]
        ))
        assert swapped.num_edges == graph.num_edges == 396
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=1) as session:
            session.extend(5)
            session.checkpoint(path)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            SamplingSession.resume(path, swapped)

    def test_resume_refuses_reweight_only_delta(self, tmp_path):
        base = barabasi_albert(60, 2, seed=3)
        graph = from_weighted_edges(
            [(u, v, 1 + (u + v) % 5)
             for u in range(60) for v in base.neighbors(u).tolist() if u < v],
            n=60,
        )
        u = 0
        v = int(graph.neighbors(u)[0])
        w = int(graph.neighbor_weights(u)[0])
        reweighted = _mutated(
            graph, GraphUpdate.from_ops(reweights=[(u, v, w + 1)])
        )
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=1) as session:
            session.extend(5)
            session.checkpoint(path)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            SamplingSession.resume(path, reweighted)
        thawed, _ = SamplingSession.resume(path, graph)
        thawed.close()

    def test_digest_free_checkpoint_is_refused(self, graph, tmp_path):
        """A checkpoint whose fingerprint lacks a key cannot prove which
        graph it was taken on, so resume refuses it — even on the very
        graph it came from."""
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=1) as session:
            session.extend(5)
            session.checkpoint(path)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {key: payload[key] for key in payload.files}
        meta = json.loads(str(arrays["meta"]))
        assert len(meta["graph"].pop("digest")) == 32
        arrays["meta"] = np.asarray(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            SamplingSession.resume(path, graph)

    def test_peek_rejects_foreign_npz(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, meta=np.asarray('{"format": "something-else"}'))
        with pytest.raises(CheckpointError):
            SamplingSession.peek(path)

    def test_checkpoint_count_survives_lineage(self, graph, tmp_path):
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=1) as session:
            session.extend(5)
            session.checkpoint(path)
            session.checkpoint(path)
        thawed, _ = SamplingSession.resume(path, graph)
        with thawed:
            thawed.checkpoint(path)
            assert thawed.checkpoints_written == 3


class TestTelemetry:
    def test_session_counters_and_spans(self, graph, tmp_path):
        hub = Telemetry()
        path = str(tmp_path / "ck.npz")
        with SamplingSession(graph, seed=1, telemetry=hub) as session:
            session.extend(20)
            session.checkpoint(path)
        SamplingSession.resume(path, graph, telemetry=hub)[0].close()
        snapshot = hub.snapshot()
        counters = snapshot["counters"]
        assert counters["session.samples_drawn"] == 20
        assert counters["session.extend_calls"] == 1
        assert counters["session.checkpoints"] == 1
        assert counters["session.restores"] == 1
        span_paths = set(snapshot["spans"])
        assert any("checkpoint" in path for path in span_paths)
        assert any("restore" in path for path in span_paths)
