"""Zero-copy graph distribution via POSIX shared memory.

Instead of pickling the CSR arrays into every epoch-engine worker
(once per worker under ``spawn``, copy-on-write under ``fork``), the
graph travels through :mod:`multiprocessing.shared_memory` blocks: the
parent copies each immutable array into its own named
segment **once**, workers attach by name and wrap the buffers in numpy
arrays without copying — identical cost under ``fork`` and ``spawn``,
and independent of the worker count.

Lifecycle rules (see ``docs/performance.md``):

* the **parent** that created the blocks owns them — it must call
  :meth:`SharedGraphBlocks.close` (close + unlink) when the engine
  shuts down, including after a worker crash;
* **workers** only ever attach and close; they never unlink.  The
  attach path deliberately bypasses Python's ``resource_tracker``
  registration: the tracker would otherwise unlink segments it does
  not own when the first worker exits, yanking the graph out from
  under its siblings.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.weighted import WeightedCSRGraph

__all__ = ["SharedGraphBlocks", "attach_graph"]


class SharedGraphBlocks:
    """Owner-side handle on the shared-memory copy of a graph.

    Creating the object copies every array from
    :meth:`~repro.graph.csr.CSRGraph.export_arrays` into its own
    named segment.  :attr:`spec` is the small picklable description a
    worker needs to re-attach; :meth:`close` releases everything and
    is idempotent (safe to call from ``close()`` *and* ``__del__``).
    """

    def __init__(self, graph: CSRGraph):
        self._blocks: list[shared_memory.SharedMemory] = []
        arrays = {}
        try:
            for key, array in graph.export_arrays().items():
                block = shared_memory.SharedMemory(
                    create=True, size=max(array.nbytes, 1)
                )
                self._blocks.append(block)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
                view[...] = array
                arrays[key] = (block.name, array.shape, array.dtype.str)
        except BaseException:
            self.close()
            raise
        self.spec = {
            "arrays": arrays,
            "directed": graph.directed,
            "weighted": isinstance(graph, WeightedCSRGraph),
        }

    def block_names(self) -> list[str]:
        """Segment names currently held (for leak checks in tests)."""
        return [block.name for block in self._blocks]

    def close(self) -> None:
        """Close and unlink every segment; idempotent."""
        blocks, self._blocks = self._blocks, []
        for block in blocks:
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:  # already unlinked elsewhere
                pass

    def __del__(self):  # pragma: no cover - belt-and-braces cleanup
        self.close()


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    ``SharedMemory(name, create=False)`` registers the segment with the
    per-process ``resource_tracker``, which unlinks everything it knows
    about at interpreter exit — wrong for a worker that merely borrows
    the parent's segment.  The standard workaround is to suppress
    registration for the duration of the attach (the segment kind is
    ``"shared_memory"``; every other resource registers normally).
    """
    original = resource_tracker.register

    def _skip(resource_name, rtype):
        if rtype != "shared_memory":
            original(resource_name, rtype)

    resource_tracker.register = _skip
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


def attach_graph(spec: dict) -> tuple[CSRGraph, list[shared_memory.SharedMemory]]:
    """Worker-side: rebuild the graph on top of shared buffers.

    Returns ``(graph, handles)``; the caller must keep ``handles``
    alive as long as the graph is in use (the numpy arrays are views
    into those buffers) and ``close()`` — never ``unlink()`` — them
    when done.
    """
    handles: list[shared_memory.SharedMemory] = []
    arrays: dict[str, np.ndarray] = {}
    try:
        for key, (name, shape, dtype) in spec["arrays"].items():
            block = _attach_block(name)
            handles.append(block)
            arrays[key] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
    except BaseException:
        for block in handles:
            block.close()
        raise
    cls = WeightedCSRGraph if spec["weighted"] else CSRGraph
    return cls.from_arrays(arrays, directed=spec["directed"]), handles
