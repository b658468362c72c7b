"""Tests for the daemon's ``mutate`` protocol op.

The headline contract: after a mutation, a re-issued query must return
the same group as a cold single-shot run on the compacted post-delta
graph — the daemon reuses the warm samples whose pairs the delta left
alone and redraws the rest in place, and never serves a stale cached
answer.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.exceptions import ServeError
from repro.graph import DeltaGraph, GraphUpdate, barabasi_albert
from repro.serve.cache import LRUCache
from repro.serve import ServeClient
from repro.serve.daemon import GBCServer, ServerConfig
from repro.serve.protocol import (
    QueryKey,
    build_algorithm,
    parse_mutation,
    result_payload,
)


@pytest.fixture(scope="module")
def ba60():
    return barabasi_albert(60, 2, seed=3)


class _Harness:
    """A daemon on a background thread, drained on exit (mirrors
    ``tests/serve/test_daemon.py``)."""

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

    def __exit__(self, *_exc) -> None:
        if self._thread.is_alive():
            assert self.loop is not None
            self.loop.call_soon_threadsafe(self.server.request_drain)
            self._thread.join(timeout=120)
            assert not self._thread.is_alive(), "drain did not finish"

    def client(self) -> ServeClient:
        return ServeClient(port=self.server.bound_port)

    def counter(self, name: str) -> int:
        return self.server.telemetry.counters.get(name, 0)


def _config(graph, **overrides) -> ServerConfig:
    defaults = dict(datasets={"ba": graph}, port=0, cache_size=8)
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestParseMutation:
    def test_parses_all_three_op_kinds(self, ba60):
        dataset, update = parse_mutation(
            {
                "dataset": "ba",
                "insert": [[0, 55], [1, 56, 3]],
                "delete": [[0, 1]],
                "reweight": [[2, 3, 9]],
            },
            {"ba": ba60},
        )
        assert dataset == "ba"
        assert update.num_ops == 4

    def test_empty_frame_rejected(self, ba60):
        with pytest.raises(ServeError, match="no ops"):
            parse_mutation({"dataset": "ba"}, {"ba": ba60})

    def test_malformed_row_rejected(self, ba60):
        with pytest.raises(ServeError, match="malformed mutation"):
            parse_mutation(
                {"dataset": "ba", "insert": [[0]]}, {"ba": ba60}
            )

    def test_touch_radius_validated(self, ba60):
        """The removed invalidation-radius field is refused, whatever
        its value, with a message saying invalidation is exact."""
        frame = {"dataset": "ba", "insert": [[0, 1]]}
        for radius in (0, 1, "wide"):
            with pytest.raises(ServeError, match="touch_radius.*exact"):
                parse_mutation({**frame, "touch_radius": radius}, {"ba": ba60})
        with pytest.raises(ServeError, match="unknown field"):
            parse_mutation({**frame, "radius": 1}, {"ba": ba60})

    def test_unknown_dataset_rejected(self, ba60):
        with pytest.raises(ServeError):
            parse_mutation(
                {"dataset": "nope", "insert": [[0, 1]]}, {"ba": ba60}
            )


class TestCacheEviction:
    def test_evict_by_predicate(self):
        cache = LRUCache(8)
        a = QueryKey("a", "adaalg", 1, 0.5, 0.1, 0)
        b = QueryKey("b", "adaalg", 1, 0.5, 0.1, 0)
        cache.put(a, {"group": [0]})
        cache.put(b, {"group": [1]})
        assert cache.evict(lambda key: key.dataset == "a") == 1
        assert cache.get(a) is None
        assert cache.get(b) == {"group": [1]}


def _delta_ops():
    """A small but non-trivial delta on the 60-node BA graph."""
    return dict(insert=[(5, 41), (7, 52)], delete=[(0, 2)])


class TestMutateEndToEnd:
    def test_mutate_invalidates_cache_and_matches_cold_run(self, ba60):
        ops = _delta_ops()
        overlay = DeltaGraph(ba60)
        overlay.apply(GraphUpdate.from_ops(
            [(u, v, 1) for u, v in ops["insert"]], ops["delete"], ()
        ))
        compacted = overlay.compact()
        key = QueryKey("ba", "adaalg", 2, 0.6, 0.1, 7)
        cold = result_payload(
            build_algorithm(key).run(compacted, key.k), key.k
        )

        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                before = client.query("ba", k=2, eps=0.6, gamma=0.1, seed=7)
                answer = client.mutate("ba", **ops)
                after = client.query("ba", k=2, eps=0.6, gamma=0.1, seed=7)
                stats = client.stats()

            mutated = answer["mutated"]
            assert mutated["dataset"] == "ba"
            assert mutated["ops"] == 3  # undirected delete counts one op each
            assert mutated["version"] == 1
            assert "touched" not in mutated
            assert mutated["tested"] == (
                mutated["invalidated"] + mutated["surviving"]
            )
            assert mutated["redrawn"] == mutated["invalidated"]
            assert mutated["n"] == compacted.num_nodes
            assert mutated["m"] == compacted.num_edges
            assert mutated["cache_evicted"] == 1

            # The pre-mutation cache entry must not be served again.
            assert before["served"]["source"] == "computed"
            assert after["served"]["source"] == "computed"
            assert after["result"]["group"] == cold["group"]

            assert stats["datasets"]["ba"]["version"] == 1
            assert daemon.counter("serve.mutations") == 1

    def test_mutate_migrates_warm_lanes(self, ba60):
        ops = _delta_ops()
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                client.query("ba", k=2, eps=0.6, gamma=0.1, seed=7)
                answer = client.mutate("ba", **ops)
                after = client.query("ba", k=2, eps=0.6, gamma=0.1, seed=7)

            mutated = answer["mutated"]
            assert mutated["lanes_updated"] >= 1
            assert mutated["invalidated"] > 0 and mutated["surviving"] > 0
            assert mutated["tested"] == (
                mutated["invalidated"] + mutated["surviving"]
            )
            assert after["served"]["source"] == "computed"
            # the pool was kept at size: the requery reuses all of it
            assert after["served"]["samples_reused"] == mutated["tested"]
            assert after["result"]["converged"]

    def test_mutate_unknown_dataset_is_client_error(self, ba60):
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                with pytest.raises(ServeError):
                    client.mutate("nope", insert=[(0, 1)])
            assert daemon.counter("serve.mutations") == 0

    def test_mutate_empty_ops_is_client_error(self, ba60):
        with _Harness(_config(ba60)) as daemon:
            with daemon.client() as client:
                with pytest.raises(ServeError, match="no ops"):
                    client.mutate("ba")
