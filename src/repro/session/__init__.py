"""Resumable sampling sessions (``repro.session``).

The layer between the execution engines and the sampling algorithms:
a :class:`SampleStore` is a serializable pool of sampled paths and
their pairs (a :class:`~repro.coverage.CoverageInstance` promoted to
persistable state, snapshot format documented in
``docs/architecture.md``), and a :class:`SamplingSession` drives one
or more ``(engine, store)`` lanes, exposing ``extend`` /
``checkpoint`` / ``resume``.  The four sampling algorithms are
stopping-rule policies over a session; the experiments harness reuses
sessions across sweep cells (warm starts) and the CLI checkpoints and
resumes long runs through the same seam.  When the graph changes,
:class:`ExactInvalidation` decides which samples' pairs changed, and
the session redraws exactly those in place.
"""

from .invalidation import ExactInvalidation
from .session import CHECKPOINT_FORMAT, CHECKPOINT_VERSION, SamplingSession
from .store import SampleStore

__all__ = [
    "ExactInvalidation",
    "SampleStore",
    "SamplingSession",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
]
