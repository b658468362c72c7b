"""Telemetry discipline rule (``RPR3xx``).

The cross-engine equality tests (``tests/obs``) compare counter totals
*by name* between serial/batch/process runs — a typo in one engine's
counter name makes the dicts differ in keys, which a tolerant consumer
can easily read as "counter is zero here" instead of failing loudly.
This rule pins every ``telemetry.count``/``telemetry.event`` name, and
every literal ``telemetry.span`` name, to the checked-in registry
(:mod:`repro.obs.registry`), so a new or renamed name is a
compile-time conversation, not a runtime surprise.
"""

from __future__ import annotations

import ast

from ..obs.registry import COUNTERS, EVENTS, SPANS
from .core import Rule, trailing_identifier
from .registry import register

__all__ = ["UnregisteredTelemetryName"]

#: Receiver spellings treated as a telemetry hub.  The rule is
#: name-based (no type inference): any ``.count(...)``/``.event(...)``
#: whose receiver's last identifier is one of these is checked, which
#: covers every hub handle the codebase uses (``self.telemetry``,
#: ``telemetry``, ``hub``) without tripping on ``str.count`` /
#: ``list.count`` receivers.
HUB_RECEIVERS = frozenset({"telemetry", "_telemetry", "hub", "tel"})

_REGISTRY_HINT = "register it in repro.obs.registry"

#: Hub method -> the registry its literal names must appear in.
_REGISTRIES = {"count": COUNTERS, "event": EVENTS, "span": SPANS}


@register
class UnregisteredTelemetryName(Rule):
    """Counter/event names missing from the telemetry registry."""

    id = "RPR301"
    name = "unregistered-telemetry-name"
    rationale = (
        "Engines are compared by counter *name*; an unregistered or "
        "misspelled name silently breaks the cross-engine equality "
        "contract. The registry in repro.obs.registry is the single "
        "source of truth for what the package may emit."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method not in _REGISTRIES:
            return
        receiver = trailing_identifier(node.func.value)
        if receiver not in HUB_RECEIVERS:
            return
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            if method == "span":
                return  # algorithm spans are named after the algorithm
            self.report(
                node,
                f"telemetry {method} name must be a string literal so the "
                "registry check can see it",
            )
            return
        name = first.value
        if name not in _REGISTRIES[method]:
            kind = "counter" if method == "count" else method
            self.report(
                node,
                f"unregistered telemetry {kind} name {name!r}; "
                f"{_REGISTRY_HINT} ({kind.upper()}S)",
            )
