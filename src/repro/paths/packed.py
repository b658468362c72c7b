"""Samples in flat-array form — the one record a draw returns.

A sample (Sec. III-D of the paper) is an ordered pair, its distance
and one uniform shortest path.  :class:`PackedSamples` holds a run of
them as seven numpy arrays: the per-sample scalar columns plus every
path concatenated into one node array addressed by an offsets array.
Every :class:`~repro.paths.sampler.PathSampler` entry point returns
this record, the engines ship it between processes as one pickle, and
:meth:`PackedSamples.coverage` turns it into the sorted, deduplicated
node sets that :meth:`~repro.coverage.CoverageInstance.add_paths_packed`
ingests in one vectorized append.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PackedSamples"]


def _empty_int() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


class PackedSamples:
    """A run of samples as flat arrays.

    Attributes
    ----------
    sources, targets, distances, sigmas, edges:
        Per-sample columns (``distances[i] == -1``, ``sigmas[i] == 0``
        and an empty node segment mark a null sample, whose pair is
        disconnected).  ``edges`` is the traversal work of each sample.
    nodes, offsets:
        Concatenated paths in source→target order; sample ``i``'s path
        is ``nodes[offsets[i]:offsets[i + 1]]``.
    """

    __slots__ = (
        "sources",
        "targets",
        "distances",
        "sigmas",
        "edges",
        "nodes",
        "offsets",
    )

    def __init__(self, sources, targets, distances, sigmas, edges, nodes, offsets):
        self.sources = np.asarray(sources, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.distances = np.asarray(distances, dtype=np.int64)
        self.sigmas = np.asarray(sigmas, dtype=np.float64)
        self.edges = np.asarray(edges, dtype=np.int64)
        self.nodes = np.asarray(nodes, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "PackedSamples":
        return cls(*(_empty_int() for _ in range(6)), np.zeros(1, np.int64))

    @classmethod
    def from_paths(
        cls, sources, targets, distances, sigmas, edges, paths: list
    ) -> "PackedSamples":
        """Pack per-sample columns plus one node array per sample."""
        offsets = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum([p.size for p in paths], out=offsets[1:])
        nodes = np.concatenate(paths) if paths else _empty_int()
        return cls(sources, targets, distances, sigmas, edges, nodes, offsets)

    @classmethod
    def concat(cls, parts) -> "PackedSamples":
        """One record holding ``parts`` back to back, in order."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        shifts = np.cumsum([0] + [p.nodes.size for p in parts[:-1]])
        offsets = np.concatenate(
            [np.zeros(1, np.int64)]
            + [p.offsets[1:] + shift for p, shift in zip(parts, shifts)]
        )
        columns = ("sources", "targets", "distances", "sigmas", "edges", "nodes")
        return cls(
            *(np.concatenate([getattr(p, name) for p in parts]) for name in columns),
            offsets,
        )

    def __len__(self) -> int:
        return self.sources.size

    # ------------------------------------------------------------------
    def coverage(self, include_endpoints: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """The covering node set of every sample, as ``(flat, offsets)``.

        Segment ``i`` is ``np.unique`` of sample ``i``'s path — without
        its two endpoints when ``include_endpoints`` is false — which
        is the layout
        :meth:`~repro.coverage.CoverageInstance.add_paths_packed`
        ingests.  Null samples give empty segments.
        """
        count = len(self)
        lengths = np.diff(self.offsets)
        owner = np.repeat(np.arange(count, dtype=np.int64), lengths)
        nodes = self.nodes
        if not include_endpoints:
            keep = np.ones(nodes.size, dtype=bool)
            starts = self.offsets[:-1][lengths > 0]
            keep[starts] = False
            keep[self.offsets[1:][lengths > 0] - 1] = False
            nodes, owner = nodes[keep], owner[keep]
        offsets = np.zeros(count + 1, dtype=np.int64)
        if nodes.size == 0:
            return _empty_int(), offsets
        # one sort of (owner, node) keys orders every segment at once
        width = int(nodes.max()) + 1
        keys = np.sort(owner * width + nodes)
        if keys.size > 1:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        owner = keys // width
        np.cumsum(np.bincount(owner, minlength=count), out=offsets[1:])
        return keys - owner * width, offsets
