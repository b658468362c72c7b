"""RNG hygiene rules (``RPR0xx``).

The paper's ``(1 - 1/e - eps)`` guarantee holds with probability
``1 - gamma`` only if every sample is drawn from the seeded generator
lineage rooted at the run's ``seed`` argument — one draw from numpy's
*global* stream, from the stdlib ``random`` module, or from a freshly
OS-seeded generator silently changes the empirical distribution and
breaks bit-identical replay across engines, worker counts, and
checkpoint/resume.  All randomness therefore flows through
:mod:`repro._rng` (``as_generator`` / ``spawn_seeds`` / the counter stream),
and these rules reject every other entry point for entropy.
"""

from __future__ import annotations

import ast

from .core import ModuleContext, Rule
from .registry import register

__all__ = ["NumpyGlobalRandom", "AmbientEntropy", "AdHocGenerator"]

#: The module the rules exempt — the one sanctioned RNG seam.
RNG_MODULE = "repro._rng"

#: Legacy module-level numpy.random functions (the hidden global
#: RandomState) plus the RandomState constructor itself.
_LEGACY_NUMPY = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "get_state",
        "set_state",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "exponential",
        "geometric",
        "beta",
        "gamma",
        "multinomial",
        "RandomState",
    }
)

#: Generator/bit-generator constructors only :mod:`repro._rng` may call.
_GENERATOR_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.MT19937",
        "numpy.random.Philox",
        "numpy.random.SFC64",
    }
)

#: Stdlib ambient-entropy calls rejected outside :data:`RNG_MODULE`.
_AMBIENT_CALLS = frozenset({"os.urandom", "os.getrandom", "uuid.uuid4"})


def _exempt(ctx: ModuleContext) -> bool:
    return ctx.in_module(RNG_MODULE)


@register
class NumpyGlobalRandom(Rule):
    """Calls into numpy's hidden global random state."""

    id = "RPR001"
    name = "numpy-global-random"
    rationale = (
        "Module-level numpy.random.* functions draw from a hidden global "
        "RandomState, so their output depends on everything else that "
        "touched it — seeded runs stop being reproducible and the "
        "sampler's eps guarantee silently degrades."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _exempt(self.ctx):
            return
        dotted = self.ctx.resolve(node.func)
        if dotted is None or not dotted.startswith("numpy.random."):
            return
        leaf = dotted.rsplit(".", 1)[1]
        if leaf in _LEGACY_NUMPY:
            self.report(
                node,
                f"call to the global numpy random state ({dotted}); draw "
                f"from a Generator threaded via {RNG_MODULE}.as_generator "
                "instead",
            )


@register
class AmbientEntropy(Rule):
    """Stdlib randomness / OS entropy outside the RNG seam."""

    id = "RPR002"
    name = "ambient-entropy"
    rationale = (
        "The stdlib random module, os.urandom, and uuid4 are ambient "
        "entropy sources outside the seeded Generator lineage — any use "
        "in library code makes runs non-replayable."
    )

    def visit_Import(self, node: ast.Import) -> None:
        if _exempt(self.ctx):
            return
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("random", "secrets"):
                self.report(
                    node,
                    f"import of stdlib {root!r}; all randomness must come "
                    f"from {RNG_MODULE}",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if _exempt(self.ctx) or node.level:
            return
        root = (node.module or "").split(".")[0]
        if root in ("random", "secrets"):
            self.report(
                node,
                f"import from stdlib {root!r}; all randomness must come "
                f"from {RNG_MODULE}",
            )

    def visit_Call(self, node: ast.Call) -> None:
        if _exempt(self.ctx):
            return
        dotted = self.ctx.resolve(node.func)
        if dotted in _AMBIENT_CALLS or (
            dotted is not None and dotted.startswith("secrets.")
        ):
            self.report(
                node,
                f"ambient entropy source {dotted}; all randomness must "
                f"come from {RNG_MODULE}",
            )


@register
class AdHocGenerator(Rule):
    """Generator construction bypassing the threaded-seed scheme."""

    id = "RPR003"
    name = "ad-hoc-generator"
    rationale = (
        "Constructing Generators outside repro._rng bypasses the child-"
        "stream derivation (spawn_seeds/stream_key) that keeps lanes, worker "
        "chunks, and resumed sessions on independent, reproducible "
        "streams; a seedless default_rng() is fresh OS entropy."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _exempt(self.ctx):
            return
        dotted = self.ctx.resolve(node.func)
        if dotted in _GENERATOR_CONSTRUCTORS:
            self.report(
                node,
                f"ad-hoc generator construction ({dotted}); accept a seed "
                f"and normalize it with {RNG_MODULE}.as_generator, or "
                f"derive children with {RNG_MODULE}.spawn_seeds",
            )
