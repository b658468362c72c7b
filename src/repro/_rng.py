"""Random-number-generator plumbing shared by the whole package.

Every randomized component in :mod:`repro` accepts a ``seed`` argument
that may be ``None`` (fresh OS entropy), an integer, or an existing
:class:`numpy.random.Generator`.  :func:`as_generator` normalizes all
three into a `Generator`, and :func:`spawn_seeds` derives independent
child seeds so that parallel components never share a stream.

Path sampling does not draw from a `Generator` at all.  It reads a
*counter-based* stream: every random number is a pure function
``counter_words(key, index, domain, step)`` of a 64-bit stream key
(:func:`stream_key`), the sample index, a domain tag and a step within
the sample.  Sample ``i`` is then the same wherever, whenever and in
whichever batch it is drawn — the whole determinism argument of the
engines, the worker fan-out, checkpoints and in-place redraws.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .exceptions import ParameterError

#: Anything a ``seed=`` parameter accepts anywhere in the package.
SeedLike: TypeAlias = (
    "int | np.random.Generator | np.random.SeedSequence | None"
)


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None``, an ``int``, a ``SeedSequence``, or an
    existing ``Generator`` (returned unchanged so that callers can share
    a stream deliberately).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(rng: np.random.Generator, count: int) -> list[int]:
    """Derive ``count`` independent child *seeds* from ``rng``, using
    the generator's own bit stream, which keeps the derivation
    reproducible for a seeded parent."""
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [int(s) for s in seeds]


def stream_entropy(rng: np.random.Generator) -> int:
    """One entropy word drawn from ``rng``, keying an *indexed* family
    of child streams (see :func:`indexed_seed`).

    Unlike :func:`spawn_seeds`, which hands out children sequentially
    from the parent stream, an entropy word fixes the whole family at
    once: child ``i`` is addressable without having derived children
    ``0..i-1`` first (a session keys its lanes this way).
    """
    return spawn_seeds(rng, 1)[0]


def indexed_seed(entropy: int, index: int) -> int:
    """The child seed of stream ``index`` in the family keyed by
    ``entropy``.

    Built on :class:`numpy.random.SeedSequence` spawn keys, so distinct
    indices yield statistically independent streams and the mapping
    ``(entropy, index) -> seed`` is a pure function.
    """
    if index < 0:
        raise ParameterError(f"stream index must be non-negative, got {index}")
    sequence = np.random.SeedSequence(entropy=int(entropy), spawn_key=(int(index),))
    return int(sequence.generate_state(1, np.uint64)[0])


# ----------------------------------------------------------------------
# the counter-based sample stream
# ----------------------------------------------------------------------
_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))

#: Domain of the ordered-pair words (the step is the rejection attempt).
PAIR_DOMAIN = 1
#: Domain of the path-walk uniforms (the step is the walk step).
WALK_DOMAIN = 2


def stream_key(seed: SeedLike = None) -> int:
    """The 64-bit key of a counter stream for ``seed``: a non-negative
    ``int`` is the key itself, a ``Generator`` gives one entropy word
    (:func:`stream_entropy`), ``None`` or a ``SeedSequence`` is hashed."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        if not 0 <= int(seed) <= _MASK:
            raise ParameterError(f"a stream key must lie in [0, 2**64), got {seed}")
        return int(seed)
    if isinstance(seed, np.random.Generator):
        return stream_entropy(seed)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return int(seed.generate_state(1, np.uint64)[0])


def _fmix(words: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """SplitMix64's finalizer, in place on a ``uint64`` array (a
    bijection of 64-bit words; products wrap modulo ``2**64``)."""
    for shift, multiplier in zip((30, 27), _MIX):
        words ^= words >> np.uint64(shift)
        words *= multiplier
    words ^= words >> np.uint64(31)
    return words


def counter_words(
    key: int, index: ArrayLike, domain: int, step: ArrayLike = 0
) -> NDArray[np.uint64]:
    """Pseudo-random 64-bit words, one per broadcast ``(index, step)``:
    a pure function of ``(key, index, domain, step)``, ``step`` in
    ``[0, 2**48)``.  The index is mixed with the premixed key, then the
    domain and step are mixed in; for a fixed ``(key, domain, step)``
    distinct indices give distinct words (both rounds are bijections).
    """
    index_arr, step_arr = np.broadcast_arrays(
        np.asarray(index, dtype=np.int64), np.asarray(step, dtype=np.int64)
    )
    # in-place arithmetic throughout: arrays (0-d included) wrap
    # silently, where numpy scalars would warn on overflow
    words = index_arr.astype(np.uint64)
    words *= _GOLDEN
    words += _fmix(np.array([key], dtype=np.uint64) ^ _GOLDEN)[0]
    _fmix(words)
    tag = step_arr.astype(np.uint64)
    tag += np.uint64((domain << 48) + 1)
    tag *= _MIX[0]
    words += tag
    return _fmix(words)


def counter_uniforms(
    key: int, index: ArrayLike, step: ArrayLike
) -> NDArray[np.float64]:
    """Uniforms on ``[0, 1)`` with 53 random bits, one per broadcast
    ``(index, step)`` of the walk domain."""
    words = counter_words(key, index, WALK_DOMAIN, step)
    uniforms = (words >> np.uint64(11)).astype(np.float64)
    uniforms *= 1.0 / (1 << 53)
    return uniforms


def counter_below(
    key: int, index: ArrayLike, bound: int, domain: int = PAIR_DOMAIN
) -> NDArray[np.uint64]:
    """Exactly uniform integers in ``[0, bound)``, one per index.

    Rejection sampling: attempt ``a`` of an index reads the word at
    step ``a`` of ``domain`` and is accepted below the largest multiple
    of ``bound`` that fits in 64 bits, so the remainder is unbiased.
    """
    if not 1 <= bound <= _MASK:
        raise ParameterError(f"bound must lie in [1, 2**64), got {bound}")
    indices = np.asarray(index, dtype=np.int64)
    words = counter_words(key, indices, domain, 0)
    ceiling = np.uint64((_MASK + 1) // bound * bound - 1)  # last accepted
    retry = np.flatnonzero(words > ceiling)
    attempt = 0
    while retry.size:
        attempt += 1
        words[retry] = counter_words(key, indices[retry], domain, attempt)
        retry = retry[words[retry] > ceiling]
    words %= np.uint64(bound)
    return words


def counter_pairs(
    key: int, index: ArrayLike, n: int
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """The exactly uniform ordered pair ``s != t`` of every index: one
    :func:`counter_below` draw over the ``n(n-1)`` ordered pairs."""
    if n < 2:
        raise ParameterError(f"ordered pairs need n >= 2, got {n}")
    draws = counter_below(key, index, n * (n - 1)).astype(np.int64)
    sources, targets = np.divmod(draws, n - 1)
    targets += targets >= sources
    return sources.astype(np.int64, copy=False), targets.astype(np.int64, copy=False)
