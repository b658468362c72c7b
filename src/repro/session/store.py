"""The persistent half of a sampling session: :class:`SampleStore`.

A :class:`~repro.coverage.CoverageInstance` is the in-memory incidence
between sampled paths and nodes; a :class:`SampleStore` is the same
structure *promoted to first-class, persistable state*.  It remembers
the draw schedule that grew it (the sequence of ``extend`` targets)
and exports itself as compact arrays (:meth:`SampleStore.export_arrays`)
that the session checkpoint
(:meth:`~repro.session.SamplingSession.checkpoint`) writes beside the
engine stream state:

* the flat path arrays (``flat``, ``offsets``, ``degrees``) — the
  sample pool itself;
* the per-sample pair columns (``sources``, ``targets``,
  ``distances``) — what a graph update's exact per-pair test reads;
* the ``schedule`` of extend targets served so far.

The arrays are integers, so an export→:meth:`SampleStore.from_arrays`
round trip is exact: coverage queries, greedy runs, and continued
draws on the rebuilt store behave bit-identically to the original.
"""

from __future__ import annotations

import numpy as np

from ..coverage.hypergraph import CoverageInstance
from ..exceptions import CheckpointError

__all__ = ["SampleStore"]


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


#: The per-sample pair columns a store keeps beside the paths.
PAIR_COLUMNS = ("sources", "targets", "distances")

#: Every array a snapshot may carry (older ones lack the pair columns).
SNAPSHOT_FIELDS = ("flat", "offsets", "degrees", "schedule", *PAIR_COLUMNS)


class SampleStore(CoverageInstance):
    """A serializable pool of sampled paths and the pairs they were
    drawn for.

    Everything a :class:`~repro.coverage.CoverageInstance` can do, plus
    the persistence layer described in the module docstring and the
    pair columns: the source, target and distance of every sample
    ingested through :meth:`add_samples` (distance ``-1`` for a null
    sample).  A path added without its pair (:meth:`add_paths`, or a
    snapshot predating the columns) has source ``-1``: its pair is
    unknown.  The four sampling algorithms operate on stores through a
    :class:`~repro.session.SamplingSession`, which owns the pairing of
    each store with the engine whose stream filled it and redraws
    samples in place (:meth:`replace_samples`) when the graph changes.
    """

    def __init__(self, num_nodes: int, *, debug: bool = False):
        super().__init__(num_nodes, debug=debug)
        #: Extend targets served so far, in order — the draw schedule
        #: provenance a snapshot carries.
        self.draw_schedule: list[int] = []
        # rows: PAIR_COLUMNS; columns past what was written read -1
        self._pairs = np.full((3, 64), -1, dtype=np.int64)

    def _pair_rows(self, needed: int) -> np.ndarray:
        """The pair-column buffer, grown to hold ``needed`` samples."""
        capacity = self._pairs.shape[1]
        if needed > capacity:
            grown = np.full((3, max(needed, 2 * capacity)), -1, dtype=np.int64)
            grown[:, :capacity] = self._pairs
            self._pairs = grown
        return self._pairs

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, targets, distances)`` of every stored sample, in
        path-id order (copies; source ``-1`` marks an unknown pair)."""
        rows = self._pair_rows(self._num_paths)[:, : self._num_paths].copy()
        return rows[0], rows[1], rows[2]

    def add_samples(self, samples, include_endpoints: bool = True) -> None:
        """Append a draw's paths and record its pair columns."""
        first = self._num_paths
        super().add_samples(samples, include_endpoints)
        rows = self._pair_rows(self._num_paths)
        for row, name in enumerate(PAIR_COLUMNS):
            rows[row, first : self._num_paths] = getattr(samples, name)

    def replace_samples(
        self, ids, samples, include_endpoints: bool = True
    ) -> None:
        """Put ``samples[i]`` at path id ``ids[i]`` (ascending ids): the
        node sets via :meth:`replace_paths`, and the pair columns."""
        ids = np.asarray(ids, dtype=np.int64)
        self.replace_paths(ids, *samples.coverage(include_endpoints))
        rows = self._pair_rows(self._num_paths)
        for row, name in enumerate(PAIR_COLUMNS):
            rows[row, ids] = getattr(samples, name)

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
            **dict(zip(PAIR_COLUMNS, self.pairs())),
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
        naming the offending field.  The pair columns must match the
        path count; snapshots without them (older ones) load with every
        pair unknown, and the per-path ``versions`` and ``fingerprints``
        columns older snapshots carry are ignored.
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
        paired = any(name in arrays for name in PAIR_COLUMNS)
        pairs = [
            _checked_array(arrays, name, np.int64, length=num_paths)
            for name in PAIR_COLUMNS
            if paired
        ]
        for name, column in zip(PAIR_COLUMNS[:2], pairs):
            if column.size and (column.min() < -1 or column.max() >= store.num_nodes):
                raise CheckpointError(
                    f"store snapshot field {name!r}: node ids outside "
                    f"-1..{store.num_nodes - 1}"
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
        if pairs:
            store._pair_rows(num_paths)[:, :num_paths] = pairs
        return store
