"""The in-process engine: packed cohort draws.

:class:`SerialEngine`, the default everywhere, serves ``draw(count)``
as one packed cohort draw of the next ``count`` stream indices
(:meth:`~repro.paths.sampler.PathSampler.sample_cohort`): their pairs
are resolved in chunks by the wavefront kernel — the lock-step
bidirectional BFS (:mod:`repro.paths.wavefront`) on unweighted graphs,
the bucketed delta-stepping cohort (:mod:`repro.paths.wavefront_weighted`)
on weighted ones — and each chunk's paths are drawn by one vectorized
walk into a single :class:`~repro.paths.packed.PackedSamples` record,
which :meth:`~repro.engine.base.SampleEngine.extend` ingests with one
vectorized append.  A draw holds the sparse search state of one chunk
(the nodes its queries discovered) plus its discovered marks, one bit
per (query, node) and side — 128·n bytes per chunk of 512 samples —
never a dense row per sample.

The samples are bit-identical to the scalar oracle
:meth:`~repro.paths.sampler.PathSampler.sample_batch` of the same
indices.
"""

from __future__ import annotations

import numpy as np

from ..paths.sampler import PackedSamples
from .base import SampleEngine, sampler_work

__all__ = ["SerialEngine"]


class SerialEngine(SampleEngine):
    """Packed cohort draws through the wavefront kernel, in process."""

    name = "serial"

    def draw(self, count: int) -> PackedSamples:
        self._check_count(count)
        sampler = self._sampler
        before = sampler_work(sampler)
        packed = sampler.sample_cohort(np.arange(self.cursor, self.cursor + count))
        self.cursor += count
        self.stats.add_work(
            tuple(b - a for a, b in zip(before, sampler_work(sampler)))
        )
        self.stats.samples += count
        self.stats.draw_calls += 1
        self.stats.batches += 1 if count else 0
        return packed
