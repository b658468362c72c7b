"""Incidence structure between sampled paths and the nodes they visit.

Every sampling algorithm in the paper reduces top-K GBC to *maximum
coverage*: each sampled shortest path is a hyperedge over the nodes it
visits, and a group of K nodes should cover (intersect) as many
hyperedges as possible.  :class:`CoverageInstance` stores that
incidence incrementally — AdaAlg keeps growing the same sample set
across iterations, so paths are appended, never rebuilt.

Storage is flat-array CSR, not Python containers: path node sets live
in one concatenated int64 array addressed by an offsets array, and the
node→path incidence is a CSR built lazily from those arrays the first
time a query needs it after an append.  Appends (and in-place
rewrites) invalidate the incidence, together with the greedy run
:func:`~repro.coverage.greedy_max_cover` memoizes on the instance; the
rebuild is a single stable argsort over the flat array,
so with the geometric growth schedules of the algorithms its amortized
cost stays linear in the final sample volume.  All coverage queries
(:meth:`covered_count`, :meth:`marginal_gain`, ...) are vectorized
gathers over these arrays — the kernels CELF consumes directly.

Null samples (empty node arrays, from disconnected pairs) are stored
too: they are covered by no node but count toward the sample size,
which the unbiased estimator divides by.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError

__all__ = ["CoverageInstance"]

_INITIAL_CAPACITY = 64


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` with capacity of at least ``needed`` (amortized
    doubling; contents up to the old size are preserved)."""
    capacity = array.size
    if needed <= capacity:
        return array
    while capacity < needed:
        capacity *= 2
    grown = np.empty(capacity, dtype=array.dtype)
    grown[: array.size] = array
    return grown


class CoverageInstance:
    """A growable set of node-subsets ("paths") supporting coverage queries.

    Attributes
    ----------
    num_nodes:
        Size of the node universe (paths may only mention ids below it).
    num_paths:
        Number of paths added so far, nulls included.
    """

    def __init__(self, num_nodes: int, *, debug: bool = False):
        if num_nodes < 0:
            raise ParameterError("num_nodes must be non-negative")
        self.num_nodes = num_nodes
        #: Runtime half of the static RPR202 rule: under ``debug=True``
        #: every array escaping this instance (:meth:`path`,
        #: :meth:`paths_through_array`, exported snapshots) is returned
        #: with ``writeable=False``, so an accidental in-place write by
        #: a caller raises instead of silently corrupting the pool.
        self.debug = bool(debug)
        self._flat = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._flat_len = 0
        self._offsets = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._num_paths = 0
        self._degrees = np.zeros(num_nodes, dtype=np.int64)
        # node -> path CSR incidence, rebuilt lazily after appends
        self._inc_indptr: np.ndarray | None = None
        self._inc_paths: np.ndarray | None = None
        # the paused CELF run of greedy_max_cover on these paths, dropped
        # with the incidence.  No lock: the daemon's one compute thread
        # owns every warm lane, and nothing else shares an instance
        # across threads.
        self._greedy = None
        # every append->query transition re-argsorts the whole flat
        # array; these counters make that hidden cost observable
        # (surfaced as EngineStats.coverage_* and telemetry coverage.*)
        self.rebuilds = 0
        self.rebuilt_elements = 0

    # ------------------------------------------------------------------
    def _escape(self, array: np.ndarray) -> np.ndarray:
        """Sanitize an array that is about to leave the instance.

        A no-op unless ``debug`` is on, in which case the caller gets a
        read-only view; the writable base stays private so appends and
        rebuilds are unaffected.
        """
        if self.debug:
            array = array.view()
            array.setflags(write=False)
        return array

    def _invalidate(self) -> None:
        """Drop what is derived from the stored paths: the node→path
        incidence and the memoized greedy run."""
        self._inc_indptr = None
        self._inc_paths = None
        self._greedy = None

    # ------------------------------------------------------------------
    @property
    def num_paths(self) -> int:
        """Number of stored paths (null samples included)."""
        return self._num_paths

    def add_paths(self, paths) -> None:
        """Append many paths (any iterable of node iterables; a path
        may be empty) in one :meth:`add_paths_packed` call."""
        sets = [np.unique(np.asarray(nodes, dtype=np.int64)) for nodes in paths]
        offsets = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum([nodes.size for nodes in sets], out=offsets[1:])
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
        self.add_paths_packed(flat, offsets)

    def add_paths_packed(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        """Append many paths at once from a packed (flat, offsets) pair.

        ``flat`` concatenates the node sets, ``offsets`` delimits them
        (``offsets[0] == 0``, ``offsets[-1] == flat.size``); segment
        ``i`` is ``flat[offsets[i]:offsets[i+1]]``.  **Each segment
        must already be sorted and deduplicated** — the layout
        :meth:`repro.paths.packed.PackedSamples.coverage` produces —
        because the per-path ``np.unique`` is skipped here; that is the
        point: one vectorized append per draw instead of one Python
        call per path.  Empty segments (null samples) are fine.
        """
        flat = np.ascontiguousarray(flat, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0:
            raise ParameterError("offsets must be 1-D and start at 0")
        if offsets[-1] != flat.size or np.any(np.diff(offsets) < 0):
            raise ParameterError(
                "offsets must be non-decreasing and end at flat.size"
            )
        if flat.size and (flat.min() < 0 or flat.max() >= self.num_nodes):
            raise ParameterError("path mentions node ids outside the universe")
        if self.debug and flat.size:
            # verify the sorted-unique precondition: within a segment
            # every step must strictly increase
            rising = flat[1:] > flat[:-1]
            # comparisons that straddle a segment boundary are exempt
            boundary = offsets[1:-1]
            boundary = boundary[(boundary > 0) & (boundary < flat.size)]
            rising[boundary - 1] = True
            if not bool(rising.all()):
                raise ParameterError(
                    "packed path segments must be sorted and deduplicated"
                )
        count = offsets.size - 1
        end = self._flat_len + flat.size
        self._flat = _grow(self._flat, end)
        self._flat[self._flat_len : end] = flat
        self._offsets = _grow(self._offsets, self._num_paths + count + 1)
        self._offsets[self._num_paths + 1 : self._num_paths + count + 1] = (
            offsets[1:] + self._flat_len
        )
        self._flat_len = end
        self._num_paths += count
        np.add.at(self._degrees, flat, 1)
        self._invalidate()

    def add_samples(self, samples, include_endpoints: bool = True) -> None:
        """Append a :class:`~repro.paths.packed.PackedSamples` draw: its
        covering node sets under the ``include_endpoints`` convention,
        in one :meth:`add_paths_packed` call."""
        self.add_paths_packed(*samples.coverage(include_endpoints))

    def replace_paths(self, ids, flat: np.ndarray, offsets: np.ndarray) -> None:
        """Rewrite the node sets of paths ``ids`` in place.

        ``ids`` are strictly ascending path ids; ``(flat, offsets)``
        holds their new node sets in the same order and in the layout
        :meth:`add_paths_packed` takes (sorted, deduplicated segments).
        Every other path keeps its id and nodes; the degrees are
        updated and the node→path incidence is rebuilt lazily, as after
        an append.  One vectorized pass over the flat array.
        """
        ids = np.asarray(ids, dtype=np.int64)
        flat = np.ascontiguousarray(flat, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        count = self._num_paths
        if ids.ndim != 1 or offsets.shape != (ids.size + 1,) or offsets[0] != 0:
            raise ParameterError("need one offsets entry per replaced id, plus one")
        if offsets[-1] != flat.size or np.any(np.diff(offsets) < 0):
            raise ParameterError(
                "offsets must be non-decreasing and end at flat.size"
            )
        if ids.size and (
            ids[0] < 0 or ids[-1] >= count or np.any(np.diff(ids) <= 0)
        ):
            raise ParameterError("ids must be ascending, distinct path ids")
        if flat.size and (flat.min() < 0 or flat.max() >= self.num_nodes):
            raise ParameterError("path mentions node ids outside the universe")
        if ids.size == 0:
            return
        old_offsets = self._offsets[: count + 1]
        lengths = np.diff(old_offsets)
        old_flat = self._flat[: self._flat_len]
        owner = np.repeat(np.arange(count, dtype=np.int64), lengths)
        replaced = np.zeros(count, dtype=bool)
        replaced[ids] = True
        dropped = replaced[owner]
        new_lengths = lengths.copy()
        new_lengths[ids] = np.diff(offsets)
        new_offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(new_lengths, out=new_offsets[1:])
        merged = np.empty(int(new_offsets[-1]), dtype=np.int64)
        kept = ~dropped
        merged[
            (new_offsets[:-1] - old_offsets[:-1])[owner[kept]]
            + np.flatnonzero(kept)
        ] = old_flat[kept]
        fresh_owner = np.repeat(ids, np.diff(offsets))
        merged[
            new_offsets[fresh_owner]
            + np.arange(flat.size)
            - np.repeat(offsets[:-1], np.diff(offsets))
        ] = flat
        self._degrees -= np.bincount(old_flat[dropped], minlength=self.num_nodes)
        self._degrees += np.bincount(flat, minlength=self.num_nodes)
        self._flat = _grow(np.empty(_INITIAL_CAPACITY, dtype=np.int64), merged.size)
        self._flat[: merged.size] = merged
        self._flat_len = int(merged.size)
        self._offsets[: count + 1] = new_offsets
        self._invalidate()

    def path(self, pid: int) -> np.ndarray:
        """The (sorted, deduplicated) node array of path ``pid``."""
        if pid < 0:
            pid += self._num_paths
        if not 0 <= pid < self._num_paths:
            raise IndexError(f"path id {pid} out of range")
        return self._escape(
            self._flat[self._offsets[pid] : self._offsets[pid + 1]]
        )

    # ------------------------------------------------------------------
    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """The node→path CSR ``(indptr, path_ids)``, rebuilt if stale."""
        if self._inc_indptr is None:
            flat = self._flat[: self._flat_len]
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            lengths = np.diff(self._offsets[: self._num_paths + 1])
            path_ids = np.repeat(
                np.arange(self._num_paths, dtype=np.int64), lengths
            )
            order = np.argsort(flat, kind="stable")
            self._inc_indptr = indptr
            self._inc_paths = path_ids[order]
            self.rebuilds += 1
            self.rebuilt_elements += int(self._flat_len)
        return self._inc_indptr, self._inc_paths

    def paths_through_array(self, node: int) -> np.ndarray:
        """Ids of all paths visiting ``node`` as a read-only array view
        (ascending order — paths are appended with increasing ids)."""
        if not 0 <= node < self.num_nodes:
            return np.empty(0, dtype=np.int64)
        indptr, path_ids = self._incidence()
        return self._escape(path_ids[indptr[node] : indptr[node + 1]])

    def paths_through(self, node: int) -> list[int]:
        """Ids of all paths visiting ``node``."""
        return self.paths_through_array(int(node)).tolist()

    def degree(self, node: int) -> int:
        """Number of paths visiting ``node``."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            return 0
        return int(self._degrees[node])

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees (a defensive copy)."""
        return self._degrees.copy()

    # ------------------------------------------------------------------
    def _member_array(self, group) -> np.ndarray:
        members = np.unique(np.asarray(list(group), dtype=np.int64))
        if members.size and (
            members[0] < 0 or members[-1] >= self.num_nodes
        ):
            raise ParameterError("group mentions node ids outside the universe")
        return members

    def covered_mask(self, group) -> np.ndarray:
        """Boolean mask over paths: which are hit by at least one member.

        One vectorized gather over the incidence CSR, shared by
        :meth:`covered_count` and the greedy/CELF kernels.
        """
        covered = np.zeros(self._num_paths, dtype=bool)
        members = self._member_array(group)
        if members.size == 0 or self._num_paths == 0:
            return covered
        indptr, path_ids = self._incidence()
        counts = indptr[members + 1] - indptr[members]
        total = int(counts.sum())
        if total == 0:
            return covered
        starts = np.repeat(indptr[members], counts)
        shifts = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        covered[path_ids[starts + shifts]] = True
        return covered

    def covered_count(self, group) -> int:
        """How many stored paths contain at least one node of ``group``.

        This is the quantity ``L'`` in the paper's estimators
        (Eqs. 4 and 8).
        """
        return int(self.covered_mask(group).sum())

    def coverage_fraction(self, group) -> float:
        """``covered_count / num_paths`` (0 on an empty instance)."""
        if self._num_paths == 0:
            return 0.0
        return self.covered_count(group) / self._num_paths

    # ------------------------------------------------------------------
    # marginal-gain kernels (consumed by greedy_max_cover / CELF)
    # ------------------------------------------------------------------
    def marginal_gain(self, node: int, covered: np.ndarray) -> int:
        """Paths through ``node`` not yet flagged in ``covered``."""
        pids = self.paths_through_array(int(node))
        if pids.size == 0:
            return 0
        return int(np.count_nonzero(~covered[pids]))

    def mark_covered(self, node: int, covered: np.ndarray) -> None:
        """Flag every path through ``node`` in the ``covered`` mask."""
        pids = self.paths_through_array(int(node))
        if pids.size:
            covered[pids] = True

    def marginal_gains(self, nodes, covered: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`marginal_gain` for a batch of candidates."""
        nodes = np.asarray(nodes, dtype=np.int64)
        gains = np.zeros(nodes.size, dtype=np.int64)
        if nodes.size == 0 or self._num_paths == 0:
            return gains
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise ParameterError("candidates mention node ids outside the universe")
        indptr, path_ids = self._incidence()
        counts = indptr[nodes + 1] - indptr[nodes]
        total = int(counts.sum())
        if total == 0:
            return gains
        starts = np.repeat(indptr[nodes], counts)
        shifts = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        fresh = ~covered[path_ids[starts + shifts]]
        owner = np.repeat(np.arange(nodes.size), counts)
        np.add.at(gains, owner, fresh.astype(np.int64))
        return gains
