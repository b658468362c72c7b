"""End-to-end tests for the resident query daemon.

The server runs on a background event-loop thread inside the test
process (its signal-handler registration degrades gracefully off the
main thread; tests drain it with :meth:`GBCServer.request_drain`).
Clients speak the real line-delimited JSON protocol over TCP.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.cli import main
from repro.graph import (
    DeltaGraph,
    GraphUpdate,
    barabasi_albert,
    erdos_renyi,
    read_edge_list,
    write_edge_list,
)
from repro.serve import ServeClient
from repro.serve.daemon import GBCServer, ServerConfig
from repro.serve.protocol import QueryKey, build_algorithm, result_payload


@pytest.fixture(scope="module")
def ba60():
    return barabasi_albert(60, 2, seed=3)


class _Harness:
    """A daemon on a background thread, drained on exit."""

    def __init__(self, config: ServerConfig):
        self.server = GBCServer(config)
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server._draining.wait()
        await self.server.drain()

    def __enter__(self) -> "_Harness":
        self._thread.start()
        assert self._ready.wait(timeout=60), "server did not start"
        return self

    def stop(self) -> None:
        if self._thread.is_alive():
            assert self.loop is not None
            self.loop.call_soon_threadsafe(self.server.request_drain)
            self._thread.join(timeout=120)
            assert not self._thread.is_alive(), "drain did not finish"

    def __exit__(self, *_exc) -> None:
        self.stop()

    def client(self) -> ServeClient:
        return ServeClient(port=self.server.bound_port)

    def counter(self, name: str) -> int:
        return self.server.telemetry.counters.get(name, 0)


def _config(graph, **overrides) -> ServerConfig:
    defaults = dict(datasets={"ba": graph}, port=0, cache_size=8)
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestAnswerPaths:
    def test_cache_hit_and_miss(self, ba60):
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                first = client.query("ba", k=2, eps=0.6, gamma=0.1, seed=5)
                second = client.query("ba", k=2, eps=0.6, gamma=0.1, seed=5)
            assert first["served"]["source"] == "computed"
            assert second["served"]["source"] == "cache"
            assert second["result"] == first["result"]
            assert daemon.counter("serve.queries") == 2
            assert daemon.counter("serve.cache_misses") == 1
            assert daemon.counter("serve.cache_hits") == 1
            assert daemon.counter("serve.computed") == 1

    def test_result_bit_identical_to_direct_run(self, ba60):
        """The headline acceptance criterion: a cold-lane served answer
        equals the single-shot run with the same seed, byte for byte."""
        key = QueryKey("ba", "adaalg", 2, 0.6, 0.1, 7)
        direct = result_payload(
            build_algorithm(key).run(ba60, key.k), key.k
        )
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                served = client.query(
                    "ba", k=2, eps=0.6, gamma=0.1, seed=7
                )
        assert json.dumps(served["result"], sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_cold_answer_equals_cli_run_json(self, tmp_path, algorithm):
        """Every served sampling algorithm is built by the same factory
        as ``repro-gbc run``: a cold-lane answer equals the payload the
        CLI writes with ``--json`` for the same graph, K, eps, gamma
        and seed."""
        edges = tmp_path / "ba.txt"
        write_edge_list(barabasi_albert(40, 2, seed=3), edges)
        graph, _ = read_edge_list(edges)
        out = tmp_path / "run.json"
        assert main([
            "run", "--edge-list", str(edges), "--whole-graph",
            "--algorithm", algorithm, "-k", "2", "--eps", "0.5",
            "--gamma", "0.1", "--seed", "7", "--json", str(out),
        ]) == 0
        with _Harness(_config(graph)) as daemon:
            with daemon.client() as client:
                served = client.query(
                    "ba", algorithm, k=2, eps=0.5, gamma=0.1, seed=7
                )
        assert served["served"]["source"] == "computed"
        assert served["served"]["samples_reused"] == 0
        assert served["result"] == json.loads(out.read_text())

    def test_warm_lane_batches_follow_up_queries(self, ba60):
        """A second query on the same (dataset, algorithm, seed) lane
        reuses the warm sample pool instead of resampling."""
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                first = client.query("ba", k=2, eps=0.6, gamma=0.1, seed=5)
                second = client.query("ba", k=2, eps=0.5, gamma=0.1, seed=5)
            assert first["served"]["samples_reused"] == 0
            reused = second["served"]["samples_reused"]
            assert reused == first["result"]["num_samples"]
            assert daemon.counter("serve.batched") == 1
            assert daemon.counter("serve.samples_reused") == reused

    def test_smaller_k_reads_the_lane_greedy_memo(self, ba60):
        """After a K=50 query, a K=5 query on the same lane reads its
        groups off the greedy order memoized on the lane's pools: no
        CELF evaluation, and the answer a fresh daemon gives."""
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                client.query("ba", k=50, eps=0.6, gamma=0.1, seed=5)
                before = daemon.counter("coverage.batched_evals")
                warm = client.query("ba", k=5, eps=0.6, gamma=0.1, seed=5)
            assert before > 0
            assert daemon.counter("coverage.batched_evals") == before
        assert warm["served"]["source"] == "computed"
        assert warm["served"]["samples_reused"] > 0
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                fresh = client.query("ba", k=5, eps=0.6, gamma=0.1, seed=5)
        assert warm["result"] == fresh["result"]

    def test_concurrent_identical_queries_coalesce(self, ba60):
        """N equal in-flight queries cost ONE sampling pass: the
        followers ride the leader's future (``serve.coalesced`` counts
        N-1), and everyone gets the same bits."""
        clients = 4
        daemon = _Harness(_config(ba60))
        with daemon:
            server = daemon.server
            gate = threading.Event()
            entered = threading.Event()
            original = server._compute

            def gated(key):
                entered.set()
                assert gate.wait(timeout=60), "test gate never opened"
                return original(key)

            server._compute = gated
            answers: list[dict] = [None] * clients
            errors: list[BaseException] = []

            def ask(slot):
                try:
                    with daemon.client() as client:
                        answers[slot] = client.query(
                            "ba", k=2, eps=0.6, gamma=0.1, seed=11
                        )
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=ask, args=(i,)) for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            # the leader is inside _compute (blocked on the gate); wait
            # until every follower has been admitted and parked on the
            # leader's future, observable as the coalesced counter
            assert entered.wait(timeout=60)
            deadline = time.monotonic() + 60
            while daemon.counter("serve.coalesced") < clients - 1:
                assert time.monotonic() < deadline, (
                    f"followers never coalesced: "
                    f"{dict(server.telemetry.counters)}"
                )
                time.sleep(0.01)
            gate.set()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            assert daemon.counter("serve.queries") == clients
            assert daemon.counter("serve.computed") == 1
            assert daemon.counter("serve.coalesced") == clients - 1
            reference = answers[0]["result"]
            assert all(a["result"] == reference for a in answers)
            sources = sorted(a["served"]["source"] for a in answers)
            assert sources == ["coalesced"] * (clients - 1) + ["computed"]

    def test_ping_and_stats(self, ba60):
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                assert client.ping()["pong"] is True
                client.query("ba", k=1, eps=0.6, gamma=0.1, seed=3)
                stats = client.stats()
            assert stats["datasets"]["ba"]["n"] == 60
            assert stats["cache"]["capacity"] == 8
            lanes = stats["lanes"]
            assert len(lanes) == 1
            assert lanes[0]["algorithm"] == "adaalg"
            assert lanes[0]["queries"] == 1
            assert lanes[0]["samples"] > 0
            assert stats["counters"]["serve.computed"] == 1


class TestTelemetryHistory:
    def test_snapshot_work_does_not_grow_with_events(self, ba60):
        """Regression: every computed query snapshots the daemon's hub
        for its diagnostics; that copy must not include (and so must
        not grow with) the events the daemon has emitted so far."""
        with _Harness(_config(ba60)) as daemon:
            hub = daemon.server.telemetry
            copied = []
            original = hub.snapshot

            def spy():
                snap = original()
                copied.append(len(snap["events"]))
                return snap

            hub.snapshot = spy
            with daemon.client() as client:
                client.query("ba", k=1, eps=0.6, gamma=0.1, seed=3)
                for i in range(2000):
                    hub.event("test.filler", index=i)
                client.query("ba", k=2, eps=0.6, gamma=0.1, seed=3)
            assert len(copied) == 2
            assert copied == [0, 0]
            assert hub.events == []


class TestErrors:
    def test_bad_frames_answer_without_poisoning_the_connection(self, ba60):
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                bad = client.request({"op": "query", "dataset": "nope"})
                assert bad["ok"] is False and "nope" in bad["error"]
                bad = client.request({"op": "launch-missiles"})
                assert bad["ok"] is False and "unknown op" in bad["error"]
                client._sock.sendall(b"this is not json\n")
                line = client._reader.readline()
                assert json.loads(line)["ok"] is False
                # the same connection still serves real queries
                good = client.query("ba", k=1, eps=0.6, gamma=0.1, seed=3)
                assert good["ok"] is True
            assert daemon.counter("serve.errors") == 3

    def test_compute_failure_reports_and_daemon_survives(self, ba60):
        daemon = _Harness(_config(ba60))
        with daemon:
            def boom(key):
                raise ArithmeticError("sampler exploded")

            daemon.server._compute = boom
            with daemon.client() as client:
                answer = client.request(
                    {"op": "query", "dataset": "ba", "eps": 0.6}
                )
                assert answer["ok"] is False
                assert "ArithmeticError" in answer["error"]
                assert client.ping()["pong"] is True
            # the failed key left the single-flight table
            assert not daemon.server._inflight


class TestDrain:
    def test_drain_checkpoints_lanes_and_releases_engines(self, ba60, tmp_path):
        warm = tmp_path / "warm"
        daemon = _Harness(_config(ba60, warm_dir=str(warm)))
        with daemon:
            with daemon.client() as client:
                first = client.query("ba", k=2, eps=0.6, gamma=0.1, seed=5)
            assert daemon.server._lanes
        # context exit drained: lanes checkpointed then closed
        files = sorted(warm.glob("*.warm.npz"))
        assert len(files) == 1
        assert files[0].name == "ba__adaalg__5.warm.npz"
        assert not daemon.server._lanes

        # a fresh daemon thaws the lane and batches its first query
        second = _Harness(_config(ba60, warm_dir=str(warm)))
        with second:
            with second.client() as client:
                answer = client.query("ba", k=3, eps=0.5, gamma=0.1, seed=5)
            reused = answer["served"]["samples_reused"]
            assert reused == first["result"]["num_samples"]
            assert second.counter("serve.batched") == 1

    def test_thaw_skips_mismatched_graph_checkpoints(self, ba60, tmp_path, capfd):
        """A warm checkpoint taken against a different graph must be
        skipped with a warning at startup, never crash the daemon."""
        warm = tmp_path / "warm"
        other = erdos_renyi(30, 0.2, seed=0)
        with _Harness(_config(other, warm_dir=str(warm))) as daemon:
            with daemon.client() as client:
                client.query("ba", k=1, eps=0.6, gamma=0.1, seed=5)
        assert list(warm.glob("*.warm.npz"))
        # same warm dir, same dataset NAME, different graph bits
        with _Harness(_config(ba60, warm_dir=str(warm))) as daemon:
            assert not daemon.server._lanes  # nothing thawed
            with daemon.client() as client:
                answer = client.query("ba", k=1, eps=0.6, gamma=0.1, seed=5)
            assert answer["served"]["samples_reused"] == 0
        err = capfd.readouterr().err
        assert "skipping warm lane" in err
        assert "fingerprint mismatch" in err

    def test_thaw_skips_balanced_delta_checkpoints(self, ba60, tmp_path, capfd):
        """Same n and m, one edge swapped: the content digest must still
        keep the old lane from thawing onto the new graph."""
        warm = tmp_path / "warm"
        with _Harness(_config(ba60, warm_dir=str(warm))) as daemon:
            with daemon.client() as client:
                client.query("ba", k=1, eps=0.6, gamma=0.1, seed=5)
        assert list(warm.glob("*.warm.npz"))
        delta = DeltaGraph(ba60)
        delta.apply(GraphUpdate.from_ops(
            inserts=[(0, 59, 1)], deletes=[(0, int(ba60.neighbors(0)[0]))]
        ))
        swapped = delta.compact()
        assert swapped.num_edges == ba60.num_edges
        with _Harness(_config(swapped, warm_dir=str(warm))) as daemon:
            assert not daemon.server._lanes  # nothing thawed
        err = capfd.readouterr().err
        assert "skipping warm lane" in err
        assert "fingerprint mismatch" in err

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no POSIX shared memory"
    )
    def test_drain_unlinks_shared_memory_and_workers(self, ba60, tmp_path):
        """With worker processes, drain must stop the persistent
        workers and unlink every /dev/shm graph segment."""
        before = set(multiprocessing.active_children())
        daemon = _Harness(
            _config(ba60, workers=2, warm_dir=str(tmp_path / "warm"))
        )
        shm_paths: list[str] = []
        with daemon:
            with daemon.client() as client:
                client.query("ba", k=2, eps=0.6, gamma=0.1, seed=5)
            for lane in daemon.server._lanes.values():
                for engine in lane.session.engines:
                    segments = getattr(engine, "_segments", None)
                    if segments is not None:
                        shm_paths.extend(
                            os.path.join("/dev/shm", name.lstrip("/"))
                            for name in segments.block_names()
                        )
        assert not any(os.path.exists(p) for p in shm_paths)
        leaked = [
            p
            for p in set(multiprocessing.active_children()) - before
            if p.is_alive()
        ]
        assert not leaked, f"drain leaked worker processes: {leaked}"
        assert list((tmp_path / "warm").glob("*.warm.npz"))


class TestSigterm:
    def test_sigterm_drains_subprocess_cleanly(self, tmp_path):
        """The real thing: a ``repro-gbc serve`` process answering over
        TCP exits 0 on SIGTERM, checkpointing its warm lanes."""
        ready = tmp_path / "ready.json"
        warm = tmp_path / "warm"
        env = dict(os.environ)
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--dataset",
                "SyntheticNetwork-BA",
                "--port",
                "0",
                "--ready-file",
                str(ready),
                "--warm-dir",
                str(warm),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 120
            while not ready.exists():
                assert proc.poll() is None, (
                    f"daemon died early: {proc.stderr.read().decode()}"
                )
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.05)
            port = json.loads(ready.read_text())["port"]
            with ServeClient(port=port) as client:
                assert client.ping()["pong"] is True
                answer = client.query(
                    "SyntheticNetwork-BA", k=2, eps=0.6, gamma=0.1, seed=7
                )
                assert answer["result"]["num_samples"] > 0
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            stderr = proc.stderr.read().decode()
            assert code == 0, stderr
            assert "drained" in stderr
            assert list(warm.glob("*.warm.npz"))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


    def test_sigterm_with_idle_connection_is_quiet(self, tmp_path):
        """Regression: a client still connected when SIGTERM arrives
        is closed without an asyncio traceback in the daemon's log."""
        ready = tmp_path / "ready.json"
        env = dict(os.environ)
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--dataset",
                "SyntheticNetwork-BA",
                "--port",
                "0",
                "--ready-file",
                str(ready),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 120
            while not ready.exists():
                assert proc.poll() is None, (
                    f"daemon died early: {proc.stderr.read().decode()}"
                )
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.05)
            port = json.loads(ready.read_text())["port"]
            with ServeClient(port=port) as client:
                assert client.ping()["pong"] is True
                proc.send_signal(signal.SIGTERM)
                code = proc.wait(timeout=120)
            stderr = proc.stderr.read().decode()
            assert code == 0, stderr
            assert "drained" in stderr
            assert "Traceback" not in stderr
            assert "CancelledError" not in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestLoopThreadStats:
    def test_stats_and_ping_answer_while_compute_is_busy(self, ba60):
        """Regression: stats/ping are loop-thread reads and must not
        queue behind a long sampling run on the compute thread."""
        daemon = _Harness(_config(ba60))
        with daemon:
            server = daemon.server
            gate = threading.Event()
            entered = threading.Event()
            original = server._compute

            def gated(key):
                entered.set()
                assert gate.wait(timeout=60), "test gate never opened"
                return original(key)

            server._compute = gated
            answer: list[dict] = []

            def ask():
                with daemon.client() as client:
                    answer.append(
                        client.query("ba", k=2, eps=0.6, gamma=0.1, seed=11)
                    )

            worker = threading.Thread(target=ask)
            worker.start()
            try:
                assert entered.wait(timeout=60)
                # the compute thread is parked on the gate; control ops
                # must still answer promptly on the loop thread
                started = time.monotonic()
                with daemon.client() as control:
                    assert control.ping()["pong"] is True
                    stats = control.stats()
                elapsed = time.monotonic() - started
                assert stats["ok"] is True
                assert stats["datasets"]["ba"]["n"] == 60
                assert elapsed < 10, (
                    f"stats/ping took {elapsed:.1f}s — queued behind compute"
                )
                assert not gate.is_set()  # the query is still in flight
            finally:
                gate.set()
                worker.join(timeout=120)
            assert not worker.is_alive()
            assert answer and answer[0]["ok"] is True


class TestThawRobustness:
    def test_thaw_skips_malformed_tag_checkpoints(self, ba60, tmp_path, capfd):
        """A warm checkpoint whose serve tag is missing keys is skipped
        with a warning before any session is resumed — startup survives
        and the daemon serves cold."""
        warm = tmp_path / "warm"
        warm.mkdir()
        algorithm = build_algorithm(
            QueryKey("ba", "adaalg", 1, 0.6, 0.1, 5)
        )
        session = algorithm.build_session(ba60)
        try:
            # dataset present, algorithm/seed keys missing
            session.checkpoint(
                str(warm / "ba__adaalg__5.warm.npz"),
                state={"serve": {"dataset": "ba"}},
            )
        finally:
            session.close()
        with _Harness(_config(ba60, warm_dir=str(warm))) as daemon:
            assert not daemon.server._lanes  # nothing thawed
            with daemon.client() as client:
                answer = client.query("ba", k=1, eps=0.6, gamma=0.1, seed=5)
            assert answer["ok"] is True
            assert answer["served"]["samples_reused"] == 0
        err = capfd.readouterr().err
        assert "skipping warm lane" in err
        assert "KeyError" in err

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no POSIX shared memory"
    )
    def test_thaw_skips_removed_engine_lane(
        self, ba60, tmp_path, capfd, monkeypatch
    ):
        """Warm lanes drawn from an older sample stream — a PCG64 state
        of the removed ``process`` engine, or the retired epoch stream —
        are skipped with a warning saying why, before any session,
        worker process or shared-memory block is created."""
        from repro.session import SamplingSession

        warm = tmp_path / "warm"
        warm.mkdir()
        old_states = {
            "ba__adaalg__5.warm.npz": (
                {"engine": "process", "workers": 2, "kernel": "wavefront"},
                {"bit_generator": "PCG64", "state": {"state": 1, "inc": 3}},
            ),
            "ba__adaalg__6.warm.npz": (
                {"engine": "epoch", "epoch_size": 512},
                {"bit_generator": "repro-epoch-stream", "entropy": 1,
                 "next_epoch": 1, "epoch_size": 512},
            ),
        }
        for name, (provenance, state) in old_states.items():
            path = warm / name
            seed = int(name.split("__")[2].split(".")[0])
            algorithm = build_algorithm(
                QueryKey("ba", "adaalg", 1, 0.6, 0.1, seed)
            )
            session = algorithm.build_session(ba60)
            try:
                session.extend(64)
                session.checkpoint(
                    str(path),
                    state={"serve": {
                        "dataset": "ba", "algorithm": "adaalg", "seed": seed,
                    }},
                )
            finally:
                session.close()
            with np.load(path, allow_pickle=False) as payload:
                arrays = {key: payload[key] for key in payload.files}
            meta = json.loads(str(arrays["meta"]))
            meta["provenance"].update(provenance)
            meta["rng_states"] = [state] * meta["lanes"]
            arrays["meta"] = np.asarray(json.dumps(meta))
            np.savez(path, **arrays)

        built = []
        original_init = SamplingSession.__init__

        def recording_init(self, *args, **kwargs):
            built.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(SamplingSession, "__init__", recording_init)
        children = set(multiprocessing.active_children())
        segments = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
        with _Harness(_config(ba60, warm_dir=str(warm))) as daemon:
            assert not daemon.server._lanes  # nothing thawed
            assert built == []  # no session was built for the lanes
            assert set(multiprocessing.active_children()) == children
            now = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
            assert now <= segments
        err = capfd.readouterr().err
        for name in old_states:
            assert f"skipping warm lane {name}" in err
        assert err.count("older sample stream") == 2
        assert "'PCG64'" in err and "'repro-epoch-stream'" in err
