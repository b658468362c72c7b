"""RPR302 — telemetry registry drift (the inverse of RPR301).

RPR301 pins every *emitted* counter/event/span name to the registry;
this project rule pins the registry back to the code: a name declared
in ``COUNTERS``/``EVENTS``/``SPANS`` that no checked module ever emits
is drift — usually a renamed emission whose registry entry was left
behind, which silently voids the cross-engine counter-equality
contract for that name (both sides report 0 of a counter that no
longer exists).

The rule reads the registry *module's own AST* (so fixtures can ship a
synthetic registry) and scans every checked module for the same
literal-first-argument ``.count(...)``/``.event(...)``/``.span(...)``
emissions RPR301 recognizes.  It only fires on whole-package runs — the package root
``__init__`` must be among the checked modules — because on a file
subset (``--changed-only``, single-file invocations) "nobody emits
this name" is an artifact of the subset, not drift.
"""

from __future__ import annotations

import ast

from .core import Rule, trailing_identifier
from .registry import register
from .rules_telemetry import HUB_RECEIVERS

__all__ = ["RegistryDriftRule"]


def _registry_literals(tree: ast.AST, target: str) -> dict[str, int]:
    """``name -> line`` for the string constants in the registry's
    ``<target> = frozenset({...})`` (or set/tuple/list literal)."""
    names: dict[str, int] = {}
    for node in getattr(tree, "body", []):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("frozenset", "set", "tuple")
            and value.args
        ):
            value = value.args[0]
        for constant in ast.walk(value):
            if isinstance(constant, ast.Constant) and isinstance(
                constant.value, str
            ):
                names.setdefault(constant.value, constant.lineno)
    return names


def _emitted_names(tree: ast.AST) -> dict[str, set[str]]:
    """Literal counter/event/span names one module emits (RPR301's
    shape), keyed by hub method."""
    emitted: dict[str, set[str]] = {"count": set(), "event": set(), "span": set()}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        if method not in emitted:
            continue
        if trailing_identifier(node.func.value) not in HUB_RECEIVERS:
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            emitted[method].add(first.value)
    return emitted


@register
class RegistryDriftRule(Rule):
    id = "RPR302"
    name = "registry-drift"
    rationale = (
        "A registered counter/event/span name nothing emits is a stale "
        "registry entry — usually a renamed emission — and it voids "
        "the cross-engine counter-equality contract for that name."
    )
    project = True

    def check_module(self, tree: ast.AST, project) -> None:
        # this rule speaks only from the registry module itself
        if not self.ctx.module.endswith(".obs.registry"):
            return
        checked = {record.ctx.module for record in project.records}
        package_root = self.ctx.module.split(".")[0]
        if package_root not in checked:
            return  # subset run; absence of an emitter proves nothing

        emitted: dict[str, set[str]] = {"count": set(), "event": set(), "span": set()}
        for record in project.records:
            for method, names in _emitted_names(record.tree).items():
                emitted[method] |= names

        for target, registry_kind, method in (
            ("COUNTERS", "counter", "count"),
            ("EVENTS", "event", "event"),
            ("SPANS", "span", "span"),
        ):
            declared = _registry_literals(tree, target)
            for name in sorted(set(declared) - emitted[method]):
                self.report(
                    _At(declared[name]),
                    f"registered telemetry {registry_kind} {name!r} is "
                    f"never emitted by any checked module — remove it "
                    f"from {target} or restore the emission",
                )


class _At:
    def __init__(self, lineno: int):
        self.lineno = lineno
        self.col_offset = 0
