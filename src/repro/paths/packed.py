"""Samples in flat-array form — the record every draw returns.

A draw of ``count`` samples used to be ``count`` Python
:class:`~repro.paths.sampler.PathSample` objects, each with its own
node array, appended to the coverage instance one call at a time.
:class:`PackedSamples` keeps the same data as seven numpy arrays: the
per-sample scalar columns plus every path concatenated into one node
array addressed by an offsets array.  The sampler's cohort walk writes
this layout directly, the engines ship it between processes as one
pickle, and :meth:`PackedSamples.coverage` turns it into the sorted,
deduplicated node sets that
:meth:`~repro.coverage.CoverageInstance.add_paths_packed` ingests in
one vectorized append.

It is also a read-only sequence of :class:`PathSample` objects, made
on access, so callers that index or iterate a draw need not know the
layout.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ParameterError

__all__ = ["PathSample", "PackedSamples"]


@dataclass(frozen=True)
class PathSample:
    """One sampled shortest path (or a null sample).

    ``nodes`` lists the path from source to target inclusive; it is
    empty for a null sample (unreachable pair).  ``edges_explored``
    records the traversal work, which the bidirectional-vs-forward
    ablation aggregates.
    """

    source: int
    target: int
    nodes: np.ndarray = field(repr=False)
    distance: int
    sigma_st: float
    edges_explored: int

    @property
    def is_null(self) -> bool:
        """Whether the pair was disconnected (sample covers nothing)."""
        return self.nodes.size == 0


def _empty_int() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


class PackedSamples(Sequence):
    """A run of samples as flat arrays.

    Attributes
    ----------
    sources, targets, distances, sigmas, edges:
        Per-sample columns (``distances[i] == -1``, ``sigmas[i] == 0``
        and an empty node segment mark a null sample).
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
    def from_samples(cls, samples) -> "PackedSamples":
        """Pack :class:`PathSample` objects (the inverse of iterating)."""
        samples = list(samples)
        return cls.from_paths(
            [s.source for s in samples],
            [s.target for s in samples],
            [s.distance for s in samples],
            [s.sigma_st for s in samples],
            [s.edges_explored for s in samples],
            [np.asarray(s.nodes, dtype=np.int64) for s in samples],
        )

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

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.sources.size

    def _sample(self, i: int) -> PathSample:
        return PathSample(
            source=int(self.sources[i]),
            target=int(self.targets[i]),
            nodes=self.nodes[self.offsets[i] : self.offsets[i + 1]],
            distance=int(self.distances[i]),
            sigma_st=float(self.sigmas[i]),
            edges_explored=int(self.edges[i]),
        )

    def __getitem__(self, index):
        count = len(self)
        if isinstance(index, slice):
            start, stop, step = index.indices(count)
            if step != 1:
                raise ParameterError("PackedSamples slices must be contiguous")
            stop = max(start, stop)
            lo, hi = self.offsets[start], self.offsets[stop]
            return PackedSamples(
                self.sources[start:stop],
                self.targets[start:stop],
                self.distances[start:stop],
                self.sigmas[start:stop],
                self.edges[start:stop],
                self.nodes[lo:hi],
                self.offsets[start : stop + 1] - lo,
            )
        i = operator.index(index)
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError(f"sample index {index} out of range")
        return self._sample(i)

    def __iter__(self):
        return (self._sample(i) for i in range(len(self)))

    def __add__(self, other):
        if not isinstance(other, PackedSamples):
            return NotImplemented
        return PackedSamples.concat([self, other])

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
