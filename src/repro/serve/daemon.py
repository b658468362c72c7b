"""The resident query daemon behind ``repro-gbc serve``.

One asyncio event loop accepts line-delimited JSON frames over TCP or
a Unix socket; one dedicated compute thread runs the sampling
algorithms.  The split is deliberate:

* the loop thread owns the LRU result cache, the single-flight table,
  and the ``serve.*`` telemetry — all single-threaded state;
* the compute thread owns the warm
  :class:`~repro.session.SamplingSession` lanes and everything the
  algorithms touch (engines, stores, spans).  Serializing queries
  through one thread keeps the per-run telemetry hub and the lane
  stores free of data races, and matches the workload: sampling is
  CPU-bound, so a second compute thread would only fight the GIL —
  parallelism lives *inside* a query (the epoch engine),
  not across queries.

Answer paths, cheapest first:

1. **Cache** — equal :class:`~repro.serve.protocol.QueryKey` already
   answered (``serve.cache_hits``).
2. **Coalesce** — an equal key is in flight; the request awaits the
   leader's future instead of recomputing (``serve.coalesced``).
3. **Warm lane** — the (dataset, algorithm, seed) lane already holds
   samples from earlier queries; the run reuses them and only tops up
   (``serve.batched`` / ``serve.samples_reused``) — the admission
   batching of the ROADMAP item, riding the same monotone-reuse
   semantics as the warm-started eps sweeps.
4. **Cold** — first query on the lane: the session is built from the
   algorithm's own RNG (:meth:`~repro.algorithms.base
   .SamplingAlgorithm.build_session`), so the answer is bit-identical
   to the single-shot ``repro-gbc run`` with the same seed.

A ``mutate`` op applies an edge delta to a held dataset *in place*:
the update is rebuilt into a fresh CSR on the compute thread, every warm
lane of that dataset migrates onto it (each stored sample whose pair's
shortest paths or distance changed is redrawn in place for the same
pair, the rest are kept), and the dataset's graph version bumps —
retiring the superseded generation's cache entries, since
:class:`~repro.serve.protocol.QueryKey` carries the version it was
admitted under.

``SIGTERM``/``SIGINT`` trigger a graceful drain: stop accepting,
finish in-flight queries, checkpoint every warm lane to ``--warm-dir``
(if set), close the sessions (stopping epoch workers and unlinking
shared-memory segments), and exit 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ..exceptions import CheckpointError, ServeError
from ..graph.csr import CSRGraph
from ..graph.delta import DeltaGraph, GraphUpdate
from ..obs import JsonlSink, Telemetry, monotonic
from ..session import SamplingSession
from .cache import LRUCache
from .protocol import (
    QueryKey,
    build_algorithm,
    parse_mutation,
    parse_request,
    result_payload,
)

__all__ = ["GBCServer", "ServerConfig", "serve_main"]

_PROTOCOL_VERSION = 1

#: Upper bound on one request line; a frame larger than this is a
#: client bug, not a query.
_MAX_FRAME = 1 << 20


class _LockedTelemetry(Telemetry):
    """A :class:`~repro.obs.Telemetry` hub safe for the daemon's two
    writers: the event loop (``serve.*`` counters and events) and the
    compute thread (algorithm spans, ``engine.*``/``session.*``
    counters).  Counter updates, event appends, and sink emission are
    serialized; span aggregation stays compute-thread-only, and the
    loop thread reads counters only through
    :meth:`counters_snapshot`.

    The hub lives as long as the daemon, so it keeps no event history
    (events still reach the ``--log-json`` sink): every computed query
    takes a :meth:`snapshot` for its diagnostics, and copying the whole
    history made each query's cost grow with the daemon's age."""

    def __init__(self, sinks=()):
        super().__init__(sinks=sinks, retain_events=False)
        self._lock = threading.RLock()

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            super().count(name, value)

    def event(self, name: str, **fields) -> dict:
        with self._lock:
            return super().event(name, **fields)

    def _emit(self, record: dict) -> None:
        with self._lock:
            super()._emit(record)

    def snapshot(self) -> dict:
        """Counters and span totals, copied under the lock so a
        counter the loop thread inserts mid-copy cannot break it."""
        with self._lock:
            return super().snapshot()

    def counters_snapshot(self) -> dict:
        """Point-in-time counter copy, safe against the compute thread
        inserting new counter names mid-copy (a bare ``dict(counters)``
        can raise ``RuntimeError: dictionary changed size``)."""
        with self._lock:
            return dict(self.counters)


@dataclass
class ServerConfig:
    """Everything ``repro-gbc serve`` resolved from its flags."""

    datasets: dict  # name -> CSRGraph, loaded once at startup
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in ready_file
    socket_path: str | None = None  # Unix socket; overrides host/port
    workers: int = 0
    cache_size: int = 128
    warm_dir: str | None = None
    log_json: str | None = None
    ready_file: str | None = None
    debug: bool = False


@dataclass
class _Lane:
    """One warm (dataset, algorithm, seed) sampling lane."""

    session: SamplingSession
    queries: int = 0


def _lane_filename(dataset: str, algorithm: str, seed: int) -> str:
    safe = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in dataset)
    return f"{safe}__{algorithm}__{seed}.warm.npz"


class GBCServer:
    """The daemon: owns the listener, the cache, the single-flight
    table, and (through its compute thread) the warm lanes."""

    def __init__(self, config: ServerConfig):
        if not config.datasets:
            raise ServeError("a server needs at least one dataset to hold")
        self.config = config
        sinks = [JsonlSink(config.log_json)] if config.log_json else []
        self.telemetry = _LockedTelemetry(sinks=sinks)
        self.cache = LRUCache(config.cache_size)
        self._inflight: dict[QueryKey, asyncio.Future] = {}
        self._lanes: dict[tuple[str, str, int], _Lane] = {}
        # guards the *structure* the two threads share: the _lanes dict
        # and the datasets mapping.  The compute thread holds it only
        # for inserts/swaps/snapshots — never across a sampling run —
        # so the loop thread's stats handler answers instantly instead
        # of queueing behind a long compute.  Held without any other
        # lock inside (the telemetry lock in particular), so no lock
        # order can invert (RPR602).
        self._lane_lock = threading.RLock()
        # per-dataset graph generation, bumped by every mutate op; new
        # query keys are stamped with it (loop-thread state)
        self._versions: dict[str, int] = dict.fromkeys(config.datasets, 0)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gbc-compute"
        )
        self._server: asyncio.AbstractServer | None = None
        self._draining = asyncio.Event()
        self._started = monotonic()
        self.bound_port: int | None = None

    # ------------------------------------------------------------------
    # compute-thread side
    # ------------------------------------------------------------------
    def _compute(self, key: QueryKey) -> tuple[dict, int]:
        """Answer ``key`` on the compute thread; returns
        ``(result_payload, warm_samples_reused)``."""
        graph: CSRGraph = self.config.datasets[key.dataset]
        algorithm = build_algorithm(
            key,
            telemetry=self.telemetry,
            debug=self.config.debug,
            workers=self.config.workers,
        )
        lane_key = (key.dataset, key.algorithm, key.seed)
        with self._lane_lock:
            lane = self._lanes.get(lane_key)
        if lane is None:
            # cold lane: consume the algorithm's RNG exactly as a fresh
            # run would, so this answer is bit-identical to the CLI's.
            # Built outside the lock (it spawns workers); queries are
            # serialized on this thread, so no double-build race.
            lane = _Lane(session=algorithm.build_session(graph))
            with self._lane_lock:
                self._lanes[lane_key] = lane
        reused = lane.session.total_samples
        algorithm.session = lane.session
        lane.queries += 1
        with self.telemetry.span(
            "serve.compute",
            dataset=key.dataset,
            algorithm=key.algorithm,
            k=key.k,
        ):
            result = algorithm.run(graph, key.k)
        return result_payload(result, key.k), reused

    def _apply_mutation(self, dataset: str, update: GraphUpdate) -> dict:
        """Apply one edge-delta batch to ``dataset`` (compute thread).

        Runs the update through a :class:`~repro.graph.delta.DeltaGraph`
        (validated, then rebuilt once), migrates every warm lane of the
        dataset onto the new snapshot — each stored sample is tested by
        its pair, and the stale ones are redrawn in place — and swaps
        the held graph.  Queries queued
        behind this job on the single compute thread see the new graph;
        queries ahead of it finished on the old one.
        """
        graph: CSRGraph = self.config.datasets[dataset]
        delta = DeltaGraph(graph, telemetry=self.telemetry)
        delta.apply(update)
        new_graph = delta.compact()
        totals = {"tested": 0, "invalidated": 0, "redrawn": 0, "surviving": 0}
        lanes_updated = 0
        with self._lane_lock:
            lanes = sorted(self._lanes.items())
        for (name, _algorithm, _seed), lane in lanes:
            if name != dataset:
                continue
            stats = lane.session.migrate(new_graph)
            for key in totals:
                totals[key] += stats[key]
            lanes_updated += 1
        with self._lane_lock:
            self.config.datasets[dataset] = new_graph
        return {
            "dataset": dataset,
            "ops": int(update.num_ops),
            "lanes_updated": lanes_updated,
            **totals,
            "n": int(new_graph.n),
            "m": int(new_graph.num_edges),
        }

    def _checkpoint_lanes(self) -> int:
        """Freeze every warm lane to ``warm_dir`` (compute thread)."""
        if self.config.warm_dir is None:
            return 0
        warm = Path(self.config.warm_dir)
        warm.mkdir(parents=True, exist_ok=True)
        written = 0
        with self._lane_lock:
            lanes = sorted(self._lanes.items())
        for (dataset, algorithm, seed), lane in lanes:
            path = warm / _lane_filename(dataset, algorithm, seed)
            lane.session.checkpoint(
                str(path),
                state={
                    "serve": {
                        "dataset": dataset,
                        "algorithm": algorithm,
                        "seed": seed,
                    }
                },
            )
            written += 1
        return written

    def _close_lanes(self) -> None:
        """Release every lane's engines (workers, shm) — compute thread."""
        with self._lane_lock:
            lanes, self._lanes = self._lanes, {}
        for lane in lanes.values():
            lane.session.close()

    def _thaw_lanes(self) -> int:
        """Re-attach warm lanes checkpointed by an earlier drain
        (compute thread, called once before serving).  A checkpoint
        that no longer matches its graph — or references a dataset this
        server does not hold — is skipped with a warning, never fatal."""
        if self.config.warm_dir is None:
            return 0
        thawed = 0
        for path in sorted(Path(self.config.warm_dir).glob("*.warm.npz")):
            try:
                meta = SamplingSession.peek(str(path))
                tag = (meta.get("state") or {}).get("serve") or {}
                dataset = tag.get("dataset")
                if dataset not in self.config.datasets:
                    print(
                        f"serve: skipping warm lane {path.name}: dataset "
                        f"{dataset!r} is not held by this server",
                        file=sys.stderr,
                    )
                    continue
                # the full lane key must parse *before* resume spawns the
                # session's workers: a malformed tag after resume would
                # leak a live session and abort the whole startup
                lane_key = (dataset, str(tag["algorithm"]), int(tag["seed"]))
                session, _state = SamplingSession.resume(
                    str(path),
                    self.config.datasets[dataset],
                    telemetry=self.telemetry,
                    debug=self.config.debug,
                )
            except (CheckpointError, KeyError, TypeError, ValueError) as exc:
                print(
                    f"serve: skipping warm lane {path.name}: {exc!r}",
                    file=sys.stderr,
                )
                continue
            with self._lane_lock:
                self._lanes[lane_key] = _Lane(session=session)
            thawed += 1
        return thawed

    # ------------------------------------------------------------------
    # event-loop side
    # ------------------------------------------------------------------
    async def _answer_query(self, key: QueryKey) -> dict:
        """Resolve one admitted query through cache → coalesce →
        compute, maintaining the ``serve.*`` counters."""
        hub = self.telemetry
        hub.count("serve.queries", 1)
        cached = self.cache.get(key)
        if cached is not None:
            hub.count("serve.cache_hits", 1)
            return {
                "ok": True,
                "result": cached,
                "served": {"source": "cache", "samples_reused": 0},
            }
        hub.count("serve.cache_misses", 1)
        loop = asyncio.get_running_loop()
        leader_future = self._inflight.get(key)
        if leader_future is not None:
            hub.count("serve.coalesced", 1)
            payload, reused = await leader_future
            return {
                "ok": True,
                "result": payload,
                "served": {"source": "coalesced", "samples_reused": reused},
            }
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            payload, reused = await loop.run_in_executor(
                self._executor, partial(self._compute, key)
            )
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # mark retrieved for the leader's copy
            raise
        else:
            future.set_result((payload, reused))
            return payload, reused
        finally:
            self._inflight.pop(key, None)

    async def _serve_query(self, key: QueryKey) -> dict:
        hub = self.telemetry
        began = monotonic()
        answer = await self._answer_query(key)
        if isinstance(answer, dict):
            source = answer["served"]["source"]
            reused = answer["served"]["samples_reused"]
        else:
            payload, reused = answer
            hub.count("serve.computed", 1)
            if reused:
                hub.count("serve.batched", 1)
                hub.count("serve.samples_reused", reused)
            self.cache.put(key, payload)
            source = "computed"
            answer = {
                "ok": True,
                "result": payload,
                "served": {"source": source, "samples_reused": reused},
            }
        hub.event(
            "serve.request",
            dataset=key.dataset,
            algorithm=key.algorithm,
            k=key.k,
            eps=key.eps,
            gamma=key.gamma,
            seed=key.seed,
            source=source,
            seconds=monotonic() - began,
        )
        return answer

    async def _serve_mutation(self, dataset: str, update: GraphUpdate) -> dict:
        """Run one admitted ``mutate`` op: apply on the compute thread,
        then retire the superseded generation's cache entries and bump
        the dataset's version (loop thread)."""
        hub = self.telemetry
        began = monotonic()
        loop = asyncio.get_running_loop()
        mutated = await loop.run_in_executor(
            self._executor,
            partial(self._apply_mutation, dataset, update),
        )
        # bump only after the compute thread swapped the graph: queries
        # admitted during the mutation were stamped with the old version
        # and computed on the old graph, so their cache entries stay
        # correct for that generation — and unreachable after this
        self._versions[dataset] += 1
        mutated["version"] = self._versions[dataset]
        mutated["cache_evicted"] = self.cache.evict(
            lambda key: key.dataset == dataset
        )
        hub.count("serve.mutations", 1)
        hub.event(
            "serve.mutate",
            seconds=monotonic() - began,
            **mutated,
        )
        return {"ok": True, "mutated": mutated}

    def _stats_payload(self) -> dict:
        """Build the ``stats`` answer on the *loop* thread.

        Everything else here is loop-owned (cache, versions, uptime);
        the two structures the compute thread also writes — the lanes
        dict and the datasets mapping — are snapshotted under the lane
        lock, so stats never queues behind a long compute and never
        iterates a dict mid-insert.  The telemetry copy happens outside
        the lane lock (the two locks are never nested, by design)."""
        with self._lane_lock:
            lane_items = sorted(self._lanes.items())
            dataset_items = sorted(self.config.datasets.items())
        lanes = [
            {
                "dataset": dataset,
                "algorithm": algorithm,
                "seed": seed,
                "samples": lane.session.total_samples,
                "queries": lane.queries,
            }
            for (dataset, algorithm, seed), lane in lane_items
        ]
        return {
            "ok": True,
            "version": _PROTOCOL_VERSION,
            "uptime_seconds": monotonic() - self._started,
            "datasets": {
                name: {
                    "n": int(graph.n),
                    "m": int(graph.num_edges),
                    "directed": bool(graph.directed),
                    "mmap": graph.mmap_source,
                    "version": self._versions.get(name, 0),
                }
                for name, graph in dataset_items
            },
            "cache": {
                "size": len(self.cache),
                "capacity": self.cache.capacity,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            },
            "lanes": lanes,
            "counters": self.telemetry.counters_snapshot(),
        }

    async def _dispatch(self, frame: dict) -> dict:
        op = frame.get("op", "query") if isinstance(frame, dict) else None
        if op == "ping":
            return {"ok": True, "pong": True, "version": _PROTOCOL_VERSION}
        if op == "stats":
            # answered right here on the loop thread — the shared lane
            # structures are read under the lane lock, so stats no
            # longer queues behind whatever compute job is running
            return self._stats_payload()
        if op == "query":
            key = parse_request(frame, self.config.datasets, self._versions)
            return await self._serve_query(key)
        if op == "mutate":
            dataset, update = parse_mutation(frame, self.config.datasets)
            return await self._serve_mutation(dataset, update)
        raise ServeError(
            f"unknown op {op!r}; expected query, ping, stats, or mutate"
        )

    async def _handle_client(self, reader, writer) -> None:
        self.telemetry.count("serve.connections", 1)
        try:
            while not self._draining.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    # ValueError: the frame overran _MAX_FRAME
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.telemetry.count("serve.requests", 1)
                try:
                    frame = json.loads(line)
                except ValueError:
                    response = {"ok": False, "error": "frame is not valid JSON"}
                    self.telemetry.count("serve.errors", 1)
                else:
                    try:
                        response = await self._dispatch(frame)
                    except ServeError as exc:
                        response = {"ok": False, "error": str(exc)}
                        self.telemetry.count("serve.errors", 1)
                    except Exception as exc:
                        # a failed computation poisons neither the
                        # connection nor the daemon
                        response = {
                            "ok": False,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                        self.telemetry.count("serve.errors", 1)
                writer.write(json.dumps(response).encode() + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            # the loop's shutdown after a drain cancels connections that
            # are still open; end them like a client hang-up — a task
            # left cancelled makes asyncio's stream callback log a
            # traceback
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        thawed = await loop.run_in_executor(self._executor, self._thaw_lanes)
        if thawed:
            print(f"serve: thawed {thawed} warm lane(s)", file=sys.stderr)
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_client,
                path=self.config.socket_path,
                limit=_MAX_FRAME,
            )
            endpoint = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=self.config.host,
                port=self.config.port,
                limit=_MAX_FRAME,
            )
            self.bound_port = self._server.sockets[0].getsockname()[1]
            endpoint = f"{self.config.host}:{self.bound_port}"
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._draining.set)
            except (ValueError, NotImplementedError, RuntimeError):
                # embedded in a non-main thread (tests): the owner calls
                # request_drain() instead of sending a signal
                break
        if self.config.ready_file:
            # the smoke scripts poll this file to learn the ephemeral
            # port and to know the listener is accepting; written off
            # the loop so a slow filesystem can't stall the listener
            payload = json.dumps(
                {
                    "endpoint": endpoint,
                    "port": self.bound_port,
                    "socket": self.config.socket_path,
                }
            )
            await asyncio.to_thread(
                Path(self.config.ready_file).write_text, payload
            )
        print(
            f"serve: listening on {endpoint} "
            f"({len(self.config.datasets)} dataset(s), "
            f"workers={self.config.workers})",
            file=sys.stderr,
        )

    def request_drain(self) -> None:
        """Programmatic equivalent of SIGTERM (must be called on the
        server's event loop thread)."""
        self._draining.set()

    async def drain(self) -> None:
        """Finish in-flight work, persist warm lanes, release engines."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self._inflight:
            await asyncio.gather(
                *self._inflight.values(), return_exceptions=True
            )
        loop = asyncio.get_running_loop()
        written = await loop.run_in_executor(
            self._executor, self._checkpoint_lanes
        )
        await loop.run_in_executor(self._executor, self._close_lanes)
        self.telemetry.event("serve.drain", checkpoints=written)
        # the blocking join of the compute thread happens off the loop
        await asyncio.to_thread(partial(self._executor.shutdown, wait=True))
        self.telemetry.close()
        print(
            f"serve: drained ({written} warm lane(s) checkpointed)",
            file=sys.stderr,
        )

    async def run_forever(self) -> None:
        """Serve until a termination signal arrives, then drain."""
        await self.start()
        await self._draining.wait()
        print("serve: draining on signal", file=sys.stderr)
        await self.drain()


def serve_main(config: ServerConfig) -> int:
    """Blocking entry point used by the CLI ``serve`` subcommand."""
    server = GBCServer(config)
    asyncio.run(server.run_forever())
    return 0
