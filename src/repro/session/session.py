"""The :class:`SamplingSession` driver — growing sample pools as state.

AdaAlg's core trick (paper Sec. III-C) is that the *same* growing
sample set is reused across adaptive iterations.  A session makes that
pool first-class: it owns one or more ``(engine, store)`` *lanes*
(AdaAlg keeps two — the selection set S and the validation set T;
HEDGE/CentRa/EXHAUST keep one), serves ``extend`` requests against
them, and can freeze the whole arrangement to disk and thaw it later
**bit-identically** — same stores, same stream keys and cursors, so
the continued sample stream is exactly what the uninterrupted run
would have drawn.

The algorithms are stopping-rule policies over this driver: they decide
*how far* to extend and *when* to stop, the session decides nothing —
it acquires, accounts, and persists.

Lane ``j``'s stream key is ``indexed_seed(root, j)``, with ``root`` one
entropy word of the session's seed, and a lane's store holds its
stream's samples ``0 .. num_paths - 1`` in index order: path id ``i``
*is* sample ``i``.

Checkpoint files are single ``.npz`` archives holding every lane's
:class:`~repro.session.SampleStore` arrays plus a JSON ``meta`` blob:
graph fingerprint, engine provenance, per-lane stream states (key and
cursor), the draw schedule, and an arbitrary ``state`` payload the
owning algorithm uses for its loop variables.  See
``docs/architecture.md`` for the format and its compatibility caveats.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .._rng import as_generator, indexed_seed, stream_entropy
from ..engine import SampleEngine, check_stream_state, create_engine
from ..exceptions import CheckpointError, ParameterError
from ..graph.csr import CSRGraph
from ..obs import as_telemetry, check_instance, check_samples
from ..paths._dispatch import is_weighted
from .invalidation import ExactInvalidation
from .store import SNAPSHOT_FIELDS, SampleStore

__all__ = ["SamplingSession", "CHECKPOINT_FORMAT", "CHECKPOINT_VERSION"]

CHECKPOINT_FORMAT = "repro-session-checkpoint"
CHECKPOINT_VERSION = 1


def _atomic_savez(path: str, **arrays) -> None:
    """Write ``np.savez_compressed(path, **arrays)`` atomically."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _graph_fingerprint(graph: CSRGraph) -> dict:
    """The graph identity a checkpoint records and resume checks.

    Besides ``n``/``m``/directedness/weightedness it carries a
    ``blake2b`` ``digest`` of the CSR arrays (``indptr``, ``indices``
    and, when weighted, ``weights``), each cast to little-endian
    int64 first, so a reweight-only or balanced insert/delete delta is
    caught, and a graph spilled to an mmap directory (whose arrays may
    be stored narrower) hashes the same as its in-memory original.
    """
    digest = hashlib.blake2b(digest_size=16)
    arrays = [graph.indptr, graph.indices]
    if is_weighted(graph):
        arrays.append(graph.weights)
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<i8"))
    return {
        "n": int(graph.n),
        "m": int(graph.num_edges),
        "directed": bool(graph.directed),
        "weighted": is_weighted(graph),
        "digest": digest.hexdigest(),
    }


def _describe_graph(graph: CSRGraph, fingerprint: dict) -> str:
    """A human-readable fingerprint, naming the mmap source if any."""
    text = json.dumps(fingerprint, sort_keys=True)
    if graph.mmap_source is not None:
        text += f" (mmap: {graph.mmap_source})"
    return text


class SamplingSession:
    """Owns the engines and stores one algorithm run draws through.

    Parameters
    ----------
    graph:
        The network being sampled.
    lanes:
        Number of independent ``(engine, store)`` pairs.  Lane ``j``
        reads the stream keyed ``indexed_seed(root, j)``.
    seed:
        Master seed (or a shared :class:`numpy.random.Generator`, which
        gives up one entropy word) the lane keys are derived from.
    include_endpoints, workers:
        Engine configuration (:func:`~repro.engine.create_engine`),
        recorded as provenance in checkpoints.  ``workers`` never
        changes a sample.
    telemetry:
        A :class:`~repro.obs.Telemetry` hub; the session reports
        ``session.*`` counters (samples drawn/reused, extend calls,
        checkpoints, restores) and ``checkpoint``/``restore`` spans,
        and wires the same hub into its engines.
    debug:
        Forwarded to the engines (per-draw invariant validation) and to
        the lane stores, whose escaping views and exported arrays are
        then returned with ``writeable=False`` (the runtime sanitizer
        backing the static RPR202 rule).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        lanes: int = 1,
        seed=None,
        include_endpoints: bool = True,
        workers: int = 0,
        telemetry=None,
        debug: bool = False,
    ):
        if lanes < 1:
            raise ParameterError(f"a session needs at least one lane, got {lanes}")
        self.graph = graph
        self.telemetry = as_telemetry(telemetry)
        self.debug = bool(debug)
        self.provenance = {
            "include_endpoints": bool(include_endpoints),
            "workers": workers,
        }
        root = stream_entropy(as_generator(seed))
        self.engines: list[SampleEngine] = []
        try:
            for lane in range(lanes):
                self.engines.append(
                    self._engine(graph, seed=indexed_seed(root, lane))
                )
        except BaseException:
            # a later lane failing must not leak earlier lanes' worker
            # processes or shared-memory blocks
            for built in self.engines:
                built.close()
            raise
        self.stores: list[SampleStore] = [
            SampleStore(graph.n, debug=self.debug) for _ in range(lanes)
        ]
        #: Whether this session was thawed from a checkpoint.
        self.resumed = False
        #: Checkpoints written across the session's whole lineage
        #: (restored counts included).
        self.checkpoints_written = 0
        #: Samples drawn through *this* process's session object —
        #: excludes anything already present at attach/resume time.
        self.samples_drawn = 0
        #: Graph version of the session's current graph; bumped by
        #: every migrated update (:meth:`apply_update` / :meth:`migrate`).
        self.graph_version = 0
        # _graph_fingerprint(self.graph), hashed on first use
        self._fingerprint: dict | None = None

    # ------------------------------------------------------------------
    def _engine(self, graph: CSRGraph, seed: int) -> SampleEngine:
        """A lane engine on ``graph`` reading the stream keyed ``seed``."""
        return create_engine(
            graph,
            seed=seed,
            include_endpoints=self.provenance["include_endpoints"],
            workers=self.provenance["workers"],
            telemetry=self.telemetry,
            debug=self.debug,
        )

    @property
    def lanes(self) -> int:
        """Number of ``(engine, store)`` pairs."""
        return len(self.engines)

    def _graph_identity(self) -> dict:
        """The current graph's :func:`_graph_fingerprint`, hashed once
        per graph the session is backed by."""
        if self._fingerprint is None:
            self._fingerprint = _graph_fingerprint(self.graph)
        return self._fingerprint

    @property
    def total_samples(self) -> int:
        """Samples held across all lanes (reused + drawn)."""
        return sum(store.num_paths for store in self.stores)

    def store(self, lane: int = 0) -> SampleStore:
        """The sample store of one lane."""
        return self.stores[lane]

    def extend(self, upto: int, lane: int = 0) -> int:
        """Grow lane ``lane`` to hold ``upto`` samples; returns the
        number actually drawn (0 when the store already suffices —
        the monotone-reuse path of warm-started sweeps)."""
        store = self.stores[lane]
        before = store.num_paths
        self.engines[lane].extend(store, upto)
        drawn = store.num_paths - before
        if drawn:
            store.record_extend(int(store.num_paths))
            self.samples_drawn += drawn
            self.telemetry.count("session.samples_drawn", drawn)
        self.telemetry.count("session.extend_calls", 1)
        return drawn

    def flush_coverage(self) -> None:
        """Fold any outstanding CSR-rebuild counters of the stores into
        their engines' stats (rebuilds triggered by greedy passes after
        the last extend would otherwise go unreported)."""
        for engine, store in zip(self.engines, self.stores):
            engine._flush_coverage(store)

    # ------------------------------------------------------------------
    # dynamic-graph updates
    # ------------------------------------------------------------------
    def apply_update(self, update) -> dict:
        """Apply one :class:`~repro.graph.delta.GraphUpdate` to the
        session's graph and migrate every lane onto the result; returns
        the :meth:`migrate` stats dict.

        The update runs through a fresh
        :class:`~repro.graph.delta.DeltaGraph` (validated op by op,
        then rebuilt into one new CSR); a rejected batch raises before
        any lane is touched.
        """
        from ..graph.delta import DeltaGraph  # local import avoids a cycle

        delta = DeltaGraph(self.graph, telemetry=self.telemetry)
        delta.apply(update)
        return self.migrate(delta.compact())

    def migrate(self, new_graph: CSRGraph) -> dict:
        """Move the session onto ``new_graph``, redrawing in place every
        stored sample whose pair's shortest paths or distance changed.

        Each sample is decided by its pair alone, in one
        :class:`~repro.session.ExactInvalidation` test over every lane.
        A stale sample ``i`` is redrawn through its lane's
        :meth:`~repro.engine.SampleEngine.redraw`: the cold sample ``i``
        of the new graph, same pair, same path id.  The rest are kept —
        the same pair and the same shortest-path set, hence the same
        law.  The pool then holds i.i.d. draws of the new graph's law,
        with no change in size, so nothing needs topping up.

        The node universe must be unchanged (the stores index into it
        by id).  Every lane's engine is rebuilt on the new graph with
        its key and cursor, so the continued stream is the one a cold
        session would read.  Returns a stats dict with the new
        ``version``, the samples ``tested``, the ``invalidated``
        (= ``redrawn``) ones, and the ``surviving`` ones kept as they
        were.
        """
        if new_graph.n != self.graph.n:
            raise ParameterError(
                f"cannot migrate a session across node universes "
                f"({self.graph.n} -> {new_graph.n}); graph updates mutate "
                "edges, never nodes"
            )
        invalidation = ExactInvalidation(self.graph, new_graph)
        telemetry = self.telemetry
        with telemetry.span("session.invalidate", lanes=self.lanes):
            # one test over every lane's pairs, then split per lane
            mask = invalidation.stale(
                *(
                    np.concatenate(column)
                    for column in zip(*(store.pairs() for store in self.stores))
                )
            )
            bounds = np.cumsum([store.num_paths for store in self.stores])[:-1]
            stale = [np.flatnonzero(part) for part in np.split(mask, bounds)]
        new_engines: list[SampleEngine] = []
        try:
            for engine in self.engines:
                new_engines.append(self._engine(new_graph, seed=engine.key))
                new_engines[-1].cursor = engine.cursor
            # redraw before anything is swapped: a failure here leaves
            # the session on the old graph with its old pool
            with telemetry.span("session.redraw", samples=sum(map(len, stale))):
                redrawn = [
                    engine.redraw(ids) for engine, ids in zip(new_engines, stale)
                ]
        except BaseException:
            for built in new_engines:
                built.close()
            raise
        for engine in self.engines:
            engine.close()
        self.engines = new_engines
        self.graph = new_graph
        self._fingerprint = None
        self.graph_version += 1
        for engine, store, ids, samples in zip(
            new_engines, self.stores, stale, redrawn
        ):
            store.replace_samples(ids, samples, engine.include_endpoints)
            if self.debug:
                check_samples(new_graph, samples)
                check_instance(store)
        tested = self.total_samples
        invalidated = sum(ids.size for ids in stale)
        if invalidated:
            telemetry.count("store.invalidated", invalidated)
            telemetry.count("store.redrawn", invalidated)
        stats = {
            "version": self.graph_version,
            "tested": tested,
            "invalidated": invalidated,
            "redrawn": invalidated,
            "surviving": tested - invalidated,
        }
        telemetry.event("session.update", **stats)
        return stats

    # ------------------------------------------------------------------
    def checkpoint(self, path: str, state: dict | None = None) -> str:
        """Freeze every lane (stores + RNG states) and ``state`` to
        ``path``; returns ``path``.  Atomic — an existing file is
        replaced only once the new snapshot is fully written."""
        self.flush_coverage()
        self.checkpoints_written += 1
        meta = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "lanes": self.lanes,
            "graph": self._graph_identity(),
            "provenance": dict(self.provenance),
            "rng_states": [engine.rng_state() for engine in self.engines],
            "num_paths": [store.num_paths for store in self.stores],
            "checkpoints": self.checkpoints_written,
            "graph_version": self.graph_version,
            "state": state,
        }
        arrays = {"meta": np.asarray(json.dumps(meta))}
        for lane, store in enumerate(self.stores):
            for key, value in store.export_arrays().items():
                arrays[f"lane{lane}_{key}"] = value
        with self.telemetry.span("checkpoint", path=path, lanes=self.lanes):
            _atomic_savez(path, **arrays)
        self.telemetry.count("session.checkpoints", 1)
        return path

    @staticmethod
    def peek(path: str) -> dict:
        """The JSON ``meta`` blob of a checkpoint, without the arrays.

        Lets callers (the CLI ``resume`` command) learn which
        algorithm, parameters, and graph produced a checkpoint before
        committing to loading it.  Checkpoints drawn from an older
        sample stream raise :class:`~repro.exceptions.CheckpointError`
        saying why.
        """
        try:
            with np.load(path, allow_pickle=False) as payload:
                meta = json.loads(str(payload["meta"]))
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}")
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path!r} is not a session checkpoint")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {meta.get('version')!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        # every lane must be on the index-addressed stream
        for lane, state in enumerate(meta.get("rng_states") or [None]):
            check_stream_state(state, f"lane {lane} of checkpoint {path!r}")
        return meta

    @classmethod
    def resume(
        cls,
        path: str,
        graph: CSRGraph,
        *,
        telemetry=None,
        debug: bool = False,
    ) -> tuple["SamplingSession", dict | None]:
        """Thaw a checkpoint against ``graph``; returns
        ``(session, state)`` where ``state`` is the algorithm payload
        stored at checkpoint time.

        The graph must match the recorded fingerprint (node count,
        edge count, directedness, weightedness and the CSR digest) —
        the stores index into it by node id, so resuming on a different
        graph would silently corrupt results.  Engines are rebuilt from
        the recorded provenance and their keys and cursors restored, so
        the continued stream is bit-identical to the uninterrupted run's.
        """
        hub = as_telemetry(telemetry)
        with hub.span("restore", path=path):
            meta = cls.peek(path)
            fingerprint = _graph_fingerprint(graph)
            recorded = meta["graph"]
            # the whole fingerprint: a checkpoint missing a key (say, a
            # stripped digest) cannot prove it was taken on this graph
            if fingerprint != recorded:
                raise CheckpointError(
                    f"graph fingerprint mismatch: checkpoint {path!r} was "
                    f"taken on {json.dumps(recorded, sort_keys=True)} but "
                    f"resume was attempted on "
                    f"{_describe_graph(graph, fingerprint)}; the stores "
                    "index nodes of the original graph, so resuming here "
                    "would corrupt results"
                )
            provenance = meta["provenance"]
            session = cls(
                graph,
                lanes=meta["lanes"],
                seed=0,  # placeholder keys, overwritten below
                include_endpoints=provenance["include_endpoints"],
                workers=provenance.get("workers") or 0,
                telemetry=hub,
                debug=debug,
            )
            try:
                with np.load(path, allow_pickle=False) as payload:
                    stores = [
                        SampleStore.from_arrays(
                            graph.n,
                            {
                                key: payload[f"lane{lane}_{key}"]
                                # older checkpoints lack the pair columns,
                                # and may carry per-path versions and
                                # fingerprints, which are ignored
                                for key in SNAPSHOT_FIELDS
                                if f"lane{lane}_{key}" in payload.files
                            },
                            debug=debug,
                        )
                        for lane in range(meta["lanes"])
                    ]
            except CheckpointError:
                session.close()  # a malformed field: stop the workers
                raise
            except (OSError, KeyError, ValueError) as exc:
                session.close()
                raise CheckpointError(
                    f"cannot load checkpoint {path!r}: {exc}"
                )
            for engine, store, rng_state, expected in zip(
                session.engines, stores, meta["rng_states"], meta["num_paths"]
            ):
                if store.num_paths != expected:
                    session.close()
                    raise CheckpointError(
                        "corrupt checkpoint: lane path-count mismatch"
                    )
                engine.set_rng_state(rng_state)
            session.stores = stores
            session.resumed = True
            session.checkpoints_written = int(meta.get("checkpoints", 0))
            session.graph_version = int(meta.get("graph_version", 0))
            session._fingerprint = fingerprint
        hub.count("session.restores", 1)
        return session, meta.get("state")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every lane's engine resources; idempotent."""
        for engine in self.engines:
            engine.close()

    def __enter__(self) -> "SamplingSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SamplingSession(lanes={self.lanes}, "
            f"workers={self.provenance['workers']!r}, "
            f"samples={self.total_samples}, resumed={self.resumed})"
        )
