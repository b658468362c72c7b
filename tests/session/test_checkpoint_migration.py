"""Checkpoints written by older versions of the package.

Whether a checkpoint can be continued is decided by its lanes' stream
states alone.  Every lane of a resumable checkpoint is on the
index-addressed stream (``{"stream": STREAM_TAG, "key", "cursor"}``);
leftover provenance keys (``kernel``, ``delta``, ``cache_sources``,
``method``, ``engine``, ``epoch_size``) are ignored.  A checkpoint
drawn from an older stream — a PCG64 generator state of the removed
``serial``/``batch``/``process`` streams, or the epoch engine's
``repro-epoch-stream`` cursor — cannot be continued and is refused with
:class:`~repro.exceptions.CheckpointError` saying why.

Leftover per-lane ``versions``/``fingerprints`` columns of older
layouts are ignored too: such a checkpoint resumes bit-identically.
(A graph fingerprint without the CSR ``digest`` is refused: resume
compares the whole fingerprint.)
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import AdaAlg
from repro.cli import main
from repro.engine import STREAM_TAG
from repro.exceptions import CheckpointError, SessionInterrupted
from repro.graph import barabasi_albert, write_edge_list
from repro.session import SamplingSession

#: The provenance keys every pre-change checkpoint carried.
LEGACY_KEYS = {
    "method": "bidirectional",
    "kernel": "wavefront",
    "cache_sources": 0,
    "delta": None,
    "engine": "serial",
    "epoch_size": None,
}

#: Lane states of the two retired streams.
PCG64_STATE = {
    "bit_generator": "PCG64",
    "state": {"state": 1, "inc": 3},
    "has_uint32": 0,
    "uinteger": 0,
}
EPOCH_STATE = {
    "bit_generator": "repro-epoch-stream",
    "entropy": 5,
    "next_epoch": 2,
    "epoch_size": 512,
    "master": PCG64_STATE,
}


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(80, 2, seed=5)


def rewrite_checkpoint(path, provenance=(), params=(), rng_state=None):
    """Patch a checkpoint's provenance, algorithm parameters and (when
    given) every lane's stream state in place, as an older version
    would have written them."""
    with np.load(path, allow_pickle=False) as payload:
        arrays = {key: payload[key] for key in payload.files}
    meta = json.loads(str(arrays["meta"]))
    meta["provenance"].update(provenance)
    if rng_state is not None:
        meta["rng_states"] = [rng_state] * meta["lanes"]
    if meta.get("state") and "params" in meta["state"]:
        meta["state"]["params"].update(params)
    arrays["meta"] = np.asarray(json.dumps(meta))
    np.savez(path, **arrays)


def rewrite_with_legacy_columns(path):
    """Give a checkpoint the older per-lane columns: per-path
    ``versions`` plus 64-bit Bloom ``fingerprints`` (the graph
    fingerprint, digest included, is kept — resume compares all of
    it)."""
    with np.load(path, allow_pickle=False) as payload:
        arrays = {key: payload[key] for key in payload.files}
    meta = json.loads(str(arrays["meta"]))
    for lane in range(meta["lanes"]):
        flat = arrays[f"lane{lane}_flat"]
        lengths = np.diff(arrays[f"lane{lane}_offsets"])
        owner = np.repeat(np.arange(lengths.size), lengths)
        words = np.zeros(lengths.size, dtype=np.uint64)
        np.bitwise_or.at(
            words, owner, np.uint64(1) << (flat.astype(np.uint64) % np.uint64(64))
        )
        arrays[f"lane{lane}_versions"] = np.zeros(lengths.size, dtype=np.int64)
        arrays[f"lane{lane}_fingerprints"] = words
    np.savez(path, **arrays)


def _interrupted(graph, path, **engine):
    with pytest.raises(SessionInterrupted):
        AdaAlg(
            eps=0.4,
            gamma=0.1,
            seed=11,
            checkpoint_path=path,
            stop_after_checkpoints=1,
            **engine,
        ).run(graph, 3)


class TestLegacyResume:
    @pytest.mark.parametrize("engine", [{}, {"workers": 2}])
    def test_pre_change_checkpoint_resumes_bit_identically(
        self, graph, tmp_path, engine
    ):
        path = str(tmp_path / "ck.npz")
        straight = AdaAlg(eps=0.4, gamma=0.1, seed=11, **engine).run(graph, 3)
        _interrupted(graph, path, **engine)
        rewrite_checkpoint(
            path,
            provenance=LEGACY_KEYS,
            params={"sampler_method": "bidirectional", "delta": None},
        )
        resumed = AdaAlg(
            eps=0.4, gamma=0.1, seed=11, resume_from=path, **engine
        ).run(graph, 3)
        assert resumed.diagnostics["resumed"] is True
        assert resumed.group == straight.group
        assert resumed.estimate == straight.estimate
        assert resumed.estimate_unbiased == straight.estimate_unbiased
        assert resumed.num_samples == straight.num_samples
        assert resumed.iterations == straight.iterations

    @pytest.mark.parametrize("engine", [{}, {"workers": 2}])
    def test_versions_and_fingerprints_checkpoint_resumes_bit_identically(
        self, graph, tmp_path, engine
    ):
        path = str(tmp_path / "ck.npz")
        straight = AdaAlg(eps=0.4, gamma=0.1, seed=11, **engine).run(graph, 3)
        _interrupted(graph, path, **engine)
        rewrite_with_legacy_columns(path)
        with np.load(path, allow_pickle=False) as payload:
            assert {"lane0_versions", "lane1_fingerprints"} <= set(payload.files)
        resumed = AdaAlg(
            eps=0.4, gamma=0.1, seed=11, resume_from=path, **engine
        ).run(graph, 3)
        assert resumed.diagnostics["resumed"] is True
        assert resumed.group == straight.group
        assert resumed.estimate == straight.estimate
        assert resumed.estimate_unbiased == straight.estimate_unbiased
        assert resumed.num_samples == straight.num_samples
        assert resumed.iterations == straight.iterations

    def test_scalar_kernel_checkpoint_resumes(self, graph, tmp_path):
        """The kernel never changed a sample; its provenance key is
        ignored."""
        path = str(tmp_path / "ck.npz")
        _interrupted(graph, path)
        rewrite_checkpoint(path, provenance={**LEGACY_KEYS, "kernel": "scalar"})
        session, _state = SamplingSession.resume(path, graph)
        session.close()


class TestRemovedEngines:
    @pytest.mark.parametrize(
        "provenance, rng_state, found",
        [
            ({"engine": "batch"}, PCG64_STATE, "PCG64"),
            ({"engine": "process", "workers": 2}, PCG64_STATE, "PCG64"),
            ({"kernel": "grouped"}, PCG64_STATE, "PCG64"),
            ({"method": "forward"}, PCG64_STATE, "PCG64"),
            ({"engine": "epoch", "epoch_size": 512}, EPOCH_STATE,
             "repro-epoch-stream"),
        ],
        ids=["batch", "process", "grouped", "forward", "epoch-stream"],
    )
    def test_refused_with_replacement_named(
        self, graph, tmp_path, provenance, rng_state, found
    ):
        """The refusal names the old stream and the one replacing it."""
        path = str(tmp_path / "ck.npz")
        _interrupted(graph, path)
        rewrite_checkpoint(
            path, provenance={**LEGACY_KEYS, **provenance}, rng_state=rng_state
        )
        for call in (
            lambda: SamplingSession.peek(path),
            lambda: SamplingSession.resume(path, graph),
            lambda: AdaAlg(eps=0.4, gamma=0.1, seed=11, resume_from=path).run(
                graph, 3
            ),
        ):
            with pytest.raises(CheckpointError) as excinfo:
                call()
            message = str(excinfo.value)
            assert "older sample stream" in message
            assert repr(found) in message and repr(STREAM_TAG) in message

    def test_cli_resume_refuses_process_checkpoint(self, graph, tmp_path):
        edges = tmp_path / "ba.txt"
        write_edge_list(graph, edges)
        path = str(tmp_path / "ck.npz")
        args = ["--edge-list", str(edges), "--algorithm", "adaalg", "-k", "3",
                "--eps", "0.4", "--gamma", "0.1", "--seed", "11"]
        assert main(["run", *args, "--checkpoint", path,
                     "--stop-after-checkpoints", "1"]) == 3
        rewrite_checkpoint(
            path, provenance={**LEGACY_KEYS, "engine": "process"},
            rng_state=PCG64_STATE,
        )
        with pytest.raises(CheckpointError, match="older sample stream"):
            main(["resume", path])
