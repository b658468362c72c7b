"""The persistent half of a sampling session: :class:`SampleStore`.

A :class:`~repro.coverage.CoverageInstance` is the in-memory incidence
between sampled paths and nodes; a :class:`SampleStore` is the same
structure *promoted to first-class, persistable state*.  It remembers
the draw schedule that grew it (the sequence of ``extend`` targets) and
serializes to a single ``.npz`` snapshot that also carries the engine
RNG state and provenance needed to resume the stream bit-identically:

* the flat path arrays (``flat``, ``offsets``, ``degrees``) — the
  append-only sample pool itself;
* per-path dynamic-graph provenance: the ``versions`` array records
  which graph version each path was drawn under, and ``fingerprints``
  packs each path's node set into a 64-bit Bloom word
  (``OR of 1 << (node % 64)``) so :meth:`invalidate` can reject
  untouched paths without gathering their node segments;
* the ``schedule`` of extend targets served so far;
* a JSON ``meta`` blob: node-universe size, the engine's
  :meth:`~repro.engine.SampleEngine.rng_state`, and the engine
  provenance (engine, workers, epoch size, endpoint convention) the
  samples were drawn under.

The arrays are integers, so a save→load round trip is exact: coverage
queries, greedy runs, and continued draws on the loaded store behave
bit-identically to the original.  Snapshots are written atomically
(temp file + rename), so a crash mid-save never corrupts an existing
checkpoint.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from ..coverage.hypergraph import CoverageInstance, _grow
from ..exceptions import CheckpointError, ParameterError

__all__ = ["SampleStore", "STORE_FORMAT", "STORE_VERSION"]

STORE_FORMAT = "repro-sample-store"
STORE_VERSION = 1

_WORD = np.uint64(64)
_ONE = np.uint64(1)


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


def _node_fingerprints(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One packed 64-bit Bloom word per path segment of ``flat``."""
    count = int(lengths.size)
    fingerprints = np.zeros(count, dtype=np.uint64)
    if flat.size:
        bits = _ONE << (flat.astype(np.uint64) % _WORD)
        owner = np.repeat(np.arange(count, dtype=np.int64), lengths)
        np.bitwise_or.at(fingerprints, owner, bits)
    return fingerprints


def _checked_array(
    arrays: dict, key: str, dtype, *, length: int | None = None,
    required: bool = True
) -> np.ndarray | None:
    """Fetch ``arrays[key]`` validated as a 1-D integer array.

    Raises :class:`~repro.exceptions.CheckpointError` naming the
    offending field on a missing key, non-1-D shape, non-integer
    dtype, or (when ``length`` is given) a length mismatch — instead
    of letting a later numpy broadcast fail opaquely.  Exact-width
    integer inputs are cast to the canonical ``dtype``.
    """
    if key not in arrays:
        if not required:
            return None
        raise CheckpointError(f"store snapshot field {key!r}: missing")
    value = np.asarray(arrays[key])
    if value.ndim != 1:
        raise CheckpointError(
            f"store snapshot field {key!r}: expected a 1-D array, got "
            f"shape {value.shape}"
        )
    if not np.issubdtype(value.dtype, np.integer):
        raise CheckpointError(
            f"store snapshot field {key!r}: expected an integer dtype, "
            f"got {value.dtype}"
        )
    if length is not None and value.size != length:
        raise CheckpointError(
            f"store snapshot field {key!r}: expected length {length}, "
            f"got {value.size}"
        )
    return value.astype(dtype, copy=False)


class SampleStore(CoverageInstance):
    """An append-only, serializable pool of sampled paths.

    Everything a :class:`~repro.coverage.CoverageInstance` can do, plus
    the persistence layer described in the module docstring and
    dynamic-graph awareness: every appended path is stamped with the
    store's current :attr:`graph_version` and a packed node-set
    fingerprint, and :meth:`invalidate` drops exactly the paths whose
    node sets intersect a touched-nodes frontier.  The four sampling
    algorithms operate on stores through a
    :class:`~repro.session.SamplingSession`, which owns the pairing of
    each store with the engine whose stream filled it.
    """

    def __init__(self, num_nodes: int, *, debug: bool = False):
        super().__init__(num_nodes, debug=debug)
        #: Extend targets served so far, in order — the draw schedule
        #: provenance a snapshot carries.
        self.draw_schedule: list[int] = []
        #: Graph version newly appended paths are stamped with; the
        #: owning session bumps it after every migrated update.
        self.graph_version = 0
        # per-path provenance, parallel to the offsets segments
        self._versions = np.zeros(64, dtype=np.int64)
        self._fingerprints = np.zeros(64, dtype=np.uint64)

    # ------------------------------------------------------------------
    # appends stamp versions + fingerprints
    # ------------------------------------------------------------------
    def add_path(self, nodes) -> int:
        pid = super().add_path(nodes)
        segment = self._flat[self._offsets[pid] : self._offsets[pid + 1]]
        self._versions = _grow(self._versions, pid + 1)
        self._versions[pid] = self.graph_version
        self._fingerprints = _grow(self._fingerprints, pid + 1)
        if segment.size:
            bits = _ONE << (segment.astype(np.uint64) % _WORD)
            self._fingerprints[pid] = np.bitwise_or.reduce(bits)
        else:
            self._fingerprints[pid] = 0
        return pid

    def add_paths_packed(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        before = self._num_paths
        super().add_paths_packed(flat, offsets)
        count = self._num_paths - before
        if count == 0:
            return
        self._versions = _grow(self._versions, self._num_paths)
        self._versions[before : self._num_paths] = self.graph_version
        lengths = np.diff(self._offsets[before : self._num_paths + 1])
        segment = self._flat[self._offsets[before] : self._flat_len]
        self._fingerprints = _grow(self._fingerprints, self._num_paths)
        self._fingerprints[before : self._num_paths] = _node_fingerprints(
            segment, lengths
        )

    def path_version(self, pid: int) -> int:
        """The graph version path ``pid`` was drawn under."""
        if not 0 <= pid < self._num_paths:
            raise IndexError(f"path id {pid} out of range")
        return int(self._versions[pid])

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def remove_paths(self, drop: np.ndarray) -> int:
        count = self._num_paths
        dropped = super().remove_paths(drop)
        if dropped:
            keep = ~np.asarray(drop, dtype=bool)
            versions = self._versions[:count][keep]
            fingerprints = self._fingerprints[:count][keep]
            self._versions = _grow(
                np.zeros(64, dtype=np.int64), versions.size
            )
            self._versions[: versions.size] = versions
            self._fingerprints = _grow(
                np.zeros(64, dtype=np.uint64), fingerprints.size
            )
            self._fingerprints[: fingerprints.size] = fingerprints
        return dropped

    def invalidate(self, touched_nodes) -> int:
        """Drop every stored path whose node set intersects
        ``touched_nodes``; returns the number of paths dropped.

        The test is exact: the packed fingerprints only pre-reject
        paths that cannot intersect the frontier (their Bloom words
        are disjoint), and the survivors of that filter are checked
        with one vectorized membership gather over the flat arrays.
        Untouched paths are never dropped.  The draw schedule is reset
        to the surviving pool size so later extends append monotone
        targets again.
        """
        touched = np.unique(np.asarray(touched_nodes, dtype=np.int64))
        if touched.size == 0 or self._num_paths == 0:
            return 0
        if touched[0] < 0 or touched[-1] >= self.num_nodes:
            bad = int(touched[0]) if touched[0] < 0 else int(touched[-1])
            raise ParameterError(
                f"touched node {bad} outside the 0..{self.num_nodes - 1} "
                "universe"
            )
        frontier_word = np.bitwise_or.reduce(
            _ONE << (touched.astype(np.uint64) % _WORD)
        )
        candidates = (
            self._fingerprints[: self._num_paths] & frontier_word
        ) != 0
        if not bool(candidates.any()):
            return 0
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[touched] = True
        lengths = np.diff(self._offsets[: self._num_paths + 1])
        owner = np.repeat(
            np.arange(self._num_paths, dtype=np.int64), lengths
        )
        hit = mask[self._flat[: self._flat_len]]
        drop = np.zeros(self._num_paths, dtype=bool)
        drop[owner[hit]] = True
        drop &= candidates  # the Bloom filter has no false negatives
        dropped = self.remove_paths(drop)
        if dropped:
            self.draw_schedule = (
                [int(self._num_paths)] if self._num_paths else []
            )
        return dropped

    # ------------------------------------------------------------------
    def record_extend(self, target: int) -> None:
        """Append one served extend target to the draw schedule."""
        self.draw_schedule.append(int(target))

    def export_arrays(self) -> dict[str, np.ndarray]:
        """The store's content as compact, copy-safe arrays.

        Under ``debug=True`` the exported arrays are additionally
        returned with ``writeable=False`` (they are private copies
        either way, but the read-only flag catches callers that treat a
        snapshot as scratch space and then feed it back to
        :meth:`from_arrays`).
        """
        arrays = {
            "flat": self._flat[: self._flat_len].copy(),
            "offsets": self._offsets[: self._num_paths + 1].copy(),
            "degrees": self._degrees.copy(),
            "schedule": np.asarray(self.draw_schedule, dtype=np.int64),
            "versions": self._versions[: self._num_paths].copy(),
            "fingerprints": self._fingerprints[: self._num_paths].copy(),
        }
        if self.debug:
            for array in arrays.values():
                array.setflags(write=False)
        return arrays

    @classmethod
    def from_arrays(
        cls, num_nodes: int, arrays: dict, *, debug: bool = False
    ) -> "SampleStore":
        """Rebuild a store from :meth:`export_arrays` output.

        Every field is validated against the expected dtype family,
        dimensionality, and length before any array is adopted; a
        mismatch raises :class:`~repro.exceptions.CheckpointError`
        naming the offending field.  ``versions`` and ``fingerprints``
        are optional for pre-dynamic-graph snapshots: absent versions
        default to 0 and fingerprints are recomputed from the flat
        arrays.
        """
        store = cls(int(num_nodes), debug=debug)
        flat = _checked_array(arrays, "flat", np.int64)
        offsets = _checked_array(arrays, "offsets", np.int64)
        if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != flat.size:
            raise CheckpointError(
                "store snapshot field 'offsets': must start at 0 and end "
                f"at len(flat)={flat.size}"
            )
        if np.any(np.diff(offsets) < 0):
            raise CheckpointError(
                "store snapshot field 'offsets': must be non-decreasing"
            )
        num_paths = int(offsets.size - 1)
        degrees = _checked_array(
            arrays, "degrees", np.int64, length=store.num_nodes
        )
        schedule = _checked_array(arrays, "schedule", np.int64, required=False)
        versions = _checked_array(
            arrays, "versions", np.int64, length=num_paths, required=False
        )
        fingerprints = _checked_array(
            arrays, "fingerprints", np.uint64, length=num_paths,
            required=False,
        )
        capacity = max(64, int(flat.size))
        store._flat = np.empty(capacity, dtype=np.int64)
        store._flat[: flat.size] = flat
        store._flat_len = int(flat.size)
        store._offsets = np.zeros(max(64, offsets.size), dtype=np.int64)
        store._offsets[: offsets.size] = offsets
        store._num_paths = num_paths
        # copy: the input may be a read-only debug export, and sharing a
        # writable buffer with the caller would alias future appends
        store._degrees = degrees.copy()
        store.draw_schedule = (
            [int(t) for t in schedule] if schedule is not None else []
        )
        store._versions = np.zeros(max(64, num_paths), dtype=np.int64)
        if versions is not None:
            store._versions[:num_paths] = versions
        store._fingerprints = np.zeros(max(64, num_paths), dtype=np.uint64)
        if fingerprints is not None:
            store._fingerprints[:num_paths] = fingerprints
        else:
            store._fingerprints[:num_paths] = _node_fingerprints(
                flat, np.diff(offsets)
            )
        if versions is not None and num_paths:
            store.graph_version = int(store._versions[:num_paths].max())
        return store

    # ------------------------------------------------------------------
    def save(self, path: str, *, rng_state=None, provenance=None) -> None:
        """Snapshot the store (and its stream context) to ``path``.

        ``rng_state`` is the owning engine's
        :meth:`~repro.engine.SampleEngine.rng_state` at the moment of
        the snapshot; ``provenance`` records how the samples were drawn
        (engine name, epoch size, endpoint convention, ...).  Both
        are optional for bare pools but required for bit-identical
        resumption of a live session.
        """
        meta = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "num_nodes": self.num_nodes,
            "num_paths": self.num_paths,
            "graph_version": self.graph_version,
            "rng_state": rng_state,
            "provenance": provenance,
        }
        _atomic_savez(
            path,
            meta=np.asarray(json.dumps(meta)),
            **self.export_arrays(),
        )

    @classmethod
    def load(cls, path: str) -> tuple["SampleStore", dict]:
        """Load a snapshot; returns ``(store, meta)``.

        ``meta`` carries the ``rng_state`` and ``provenance`` recorded
        at save time (both ``None`` for bare pools).
        """
        try:
            with np.load(path, allow_pickle=False) as payload:
                meta = json.loads(str(payload["meta"]))
                if meta.get("format") != STORE_FORMAT:
                    raise CheckpointError(
                        f"{path!r} is not a sample-store snapshot"
                    )
                if meta.get("version") != STORE_VERSION:
                    raise CheckpointError(
                        f"unsupported store snapshot version "
                        f"{meta.get('version')!r} (expected {STORE_VERSION})"
                    )
                arrays = {
                    key: payload[key]
                    for key in ("flat", "offsets", "degrees", "schedule",
                                "versions", "fingerprints")
                    if key in payload.files
                }
                store = cls.from_arrays(meta["num_nodes"], arrays)
        except CheckpointError:
            raise
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(f"cannot load store snapshot {path!r}: {exc}")
        if store.num_paths != meta["num_paths"]:
            raise CheckpointError(
                "corrupt store snapshot: path count mismatch "
                f"({store.num_paths} != {meta['num_paths']})"
            )
        store.graph_version = int(meta.get("graph_version", store.graph_version))
        return store, meta
