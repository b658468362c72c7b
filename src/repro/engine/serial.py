"""In-process engines: packed cohort draws.

:class:`SerialEngine`, the default everywhere, serves every draw as one
packed cohort draw
(:meth:`~repro.paths.sampler.PathSampler.sample_cohort`): the ``count``
ordered pairs are drawn up front, resolved in sample-order chunks by
the wavefront kernel — the level-synchronous bidirectional BFS
(:mod:`repro.paths.wavefront`) on unweighted graphs, the bucketed
delta-stepping cohort (:mod:`repro.paths.wavefront_weighted`) on
weighted ones — and each chunk's paths are drawn by one vectorized
walk into a single :class:`~repro.paths.packed.PackedSamples` record,
which :meth:`~repro.engine.base.SampleEngine.extend` ingests with one
vectorized append.  A draw holds the sparse search state of one chunk
(the nodes its queries discovered) plus the cohort's two
``(cohort_size, n)`` sigma planes, never a dense row per sample.

:class:`BatchEngine` is the same draw with the ``kernel`` knob exposed:
``"wavefront"`` (the default, identical to ``SerialEngine``),
``"scalar"`` — the same cohort schedule with one scalar search and one
scalar walk per sample, bit-identical samples, kept as the oracle — and
``"grouped"``, the legacy source-grouped amortization.
"""

from __future__ import annotations

from ..graph.csr import CSRGraph
from ..paths.sampler import PackedSamples, PathSampler
from .base import SampleEngine, draw_packed, resolve_kernel, sampler_work

__all__ = ["SerialEngine", "BatchEngine"]


class SerialEngine(SampleEngine):
    """Packed cohort draws through the wavefront kernel, in process.

    Samples are bit-identical to ``BatchEngine`` with
    ``kernel="wavefront"`` or ``kernel="scalar"`` for the same seed.
    The unweighted ``"forward"`` method has no cohort schedule and
    draws through the source-grouped sampler instead; ``cache_sources``
    only affects that grouped path.
    """

    name = "serial"

    def __init__(
        self,
        graph: CSRGraph,
        seed=None,
        method: str = "bidirectional",
        include_endpoints: bool = True,
        cache_sources: int = 0,
    ):
        super().__init__(
            graph,
            seed=seed,
            method=method,
            include_endpoints=include_endpoints,
            cache_sources=cache_sources,
        )
        self._sampler = PathSampler(
            graph, seed=self._rng, method=method, cache_sources=cache_sources
        )
        self.kernel = resolve_kernel("wavefront", graph, method)
        self.requested_kernel = self.kernel
        self.cohort_size: int | None = None
        self.delta: int | None = None

    def draw(self, count: int) -> PackedSamples:
        self._check_count(count)
        if count and self.kernel != self.requested_kernel:
            self._note_kernel_fallback(self.requested_kernel)
        sampler = self._sampler
        before = sampler_work(sampler)
        packed = draw_packed(
            sampler, self.kernel, count, self.cohort_size, self.delta
        )
        self.stats.add_work(
            tuple(b - a for a, b in zip(before, sampler_work(sampler)))
        )
        self.stats.samples += count
        self.stats.draw_calls += 1
        self.stats.batches += 1 if count else 0
        return packed


class BatchEngine(SerialEngine):
    """The in-process draw with the traversal kernel selectable.

    Parameters
    ----------
    kernel:
        ``"wavefront"`` (default) or ``"scalar"`` use the pair-first
        cohort schedule (bit-identical samples to each other and to
        :class:`SerialEngine`) on both unweighted and weighted graphs;
        ``"grouped"`` keeps the legacy source-grouped amortized
        sampler.  Only the unweighted ``"forward"`` method still falls
        back to ``"grouped"`` (noted via the ``paths.kernel_fallbacks``
        counter and a warning).
    cohort_size:
        Concurrent queries per wavefront cohort (``None`` = the
        kernel's default).
    delta:
        Bucket width of the weighted delta-stepping kernel
        (result-invariant; ``None`` auto-tunes from the mean edge
        weight).  Ignored on unweighted graphs.
    """

    name = "batch"

    def __init__(
        self,
        graph: CSRGraph,
        seed=None,
        method: str = "bidirectional",
        include_endpoints: bool = True,
        cache_sources: int = 0,
        kernel: str = "wavefront",
        cohort_size: int | None = None,
        delta: int | None = None,
    ):
        super().__init__(
            graph,
            seed=seed,
            method=method,
            include_endpoints=include_endpoints,
            cache_sources=cache_sources,
        )
        self.requested_kernel = kernel
        self.kernel = resolve_kernel(kernel, graph, method)
        self.cohort_size = cohort_size
        self.delta = delta
