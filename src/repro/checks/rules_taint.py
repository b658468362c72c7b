"""RPR701 — RNG taint dataflow.

The reproducibility contract (PAPER.md, docs/determinism.md) is that
every sampled path derives from the seeded streams in
:mod:`repro._rng`.  PR 5's RPR001 catches a *direct* ``np.random``
call; this rule closes the laundering gap: a value produced by ambient
entropy — legacy ``np.random``, seedless ``default_rng()``, stdlib
``random``, ``os.urandom``/``uuid4``/``secrets``, wall clocks,
``id()``, ``hash()`` — is **tainted**, taint propagates through
assignments, arithmetic, containers, and (one interprocedural level)
through calls to module-local helpers whose summaries say they return
taint, and a finding fires when a tainted value reaches a
sample-producing sink: ``PathSampler``, sampler ``sample``/
``sample_pair``/``sample_batch``/``sample_cohort``, engine
``draw``/``extend``, coverage ``add_paths``/``add_paths_packed``/
``add_samples``, engine/session constructors, or any
``seed=``/``rng=`` keyword.

Anything returned by :mod:`repro._rng` itself is clean by definition —
it *is* the sanctioned seam — so ``as_generator(seed)`` sanitizes, and
the rule is inert inside ``repro._rng``.  :mod:`repro.obs` clock reads
are deliberately *not* sources: telemetry timing is sanctioned and
never feeds samplers.
"""

from __future__ import annotations

import ast

from .cfg import build_cfg
from .core import Rule, trailing_identifier
from .dataflow import Analysis, solve
from .registry import register

__all__ = ["RngTaintRule"]

_RNG_MODULE = "repro._rng"

#: dotted names (exact) that mint ambient entropy
_SOURCE_EXACT = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid4",
    "uuid.uuid1",
    "id",
    "hash",
}
#: dotted prefixes that mint ambient entropy
_SOURCE_PREFIXES = (
    "numpy.random.",
    "random.",
    "secrets.",
    "time.",
)
#: datetime constructors that read the wall clock
_SOURCE_DATETIME = {"now", "utcnow", "today"}

#: receiver tails for the receiver-gated sink methods
_SINK_RECEIVERS = {
    "engine",
    "_engine",
    "session",
    "_session",
    "sampler",
    "lane",
}
#: sink methods gated on a sampling-ish receiver
_SINK_GATED_ATTRS = {"draw", "extend", "sample", "sample_pair"}
#: sink methods distinctive enough to match on any receiver
_SINK_ATTRS = {
    "sample_batch",
    "sample_cohort",
    "add_paths",
    "add_paths_packed",
    "add_samples",
}
#: constructors whose arguments seed sampling
_SINK_CONSTRUCTORS = {
    "PathSampler",
    "create_engine",
    "EpochEngine",
    "SerialEngine",
    "SamplingSession",
}
#: keyword names that always seed randomness, on any call
_SINK_KEYWORDS = {"seed", "rng"}


class _TaintAnalysis(Analysis):
    """State: the set of tainted local names."""

    def __init__(self, ctx, summaries: dict[str, bool], collect: bool):
        self.ctx = ctx
        self.summaries = summaries
        #: whether sink checks run (off during summary computation)
        self.collect = collect
        self.returns_taint = False
        #: (line, col, message) sink hits, set-keyed across re-runs
        self.hits: set[tuple[int, int, str]] = set()

    # -- lattice -------------------------------------------------------
    def initial(self):
        return set()

    def copy(self, state):
        return set(state)

    def join(self, left, right):
        return left | right

    # -- expression taint ---------------------------------------------
    def tainted(self, expr: ast.AST | None, state: set[str]) -> bool:
        if expr is None:
            return False
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Call):
                dotted = self.ctx.resolve(node.func)
                if dotted is not None and (
                    dotted == _RNG_MODULE
                    or dotted.startswith(_RNG_MODULE + ".")
                ):
                    continue  # the sanctioned seam sanitizes
                if self._is_source(node, dotted):
                    return True
                stack.extend(ast.iter_child_nodes(node))
                continue
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in state
            ):
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False

    def _is_source(self, call: ast.Call, dotted: str | None) -> bool:
        if dotted is not None:
            if dotted in _SOURCE_EXACT:
                return True
            if dotted.startswith(_SOURCE_PREFIXES):
                # seeded construction is judged by its arguments, not
                # by being under numpy.random
                if dotted == "numpy.random.default_rng":
                    return not call.args and not call.keywords
                return True
            if (
                dotted.startswith("datetime.")
                and dotted.rsplit(".", 1)[-1] in _SOURCE_DATETIME
            ):
                return True
        # one-level interprocedural: module-local helper that returns
        # taint (by name for plain calls and self-dispatch)
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ) and func.value.id in ("self", "cls"):
            name = func.attr
        return bool(name is not None and self.summaries.get(name))

    # -- transfer ------------------------------------------------------
    def transfer(self, op, state):
        node = op.node
        if self.collect:
            for expr in _op_expressions(op):
                self._check_sinks(expr, state)
        if op.kind == "test":
            return state
        if op.kind == "for-iter":
            taint = self.tainted(node.iter, state)
            for name in _target_names(node.target):
                if taint:
                    state.add(name)
                else:
                    state.discard(name)
            return state
        if op.kind == "with-enter":
            for item in node.items:
                taint = self.tainted(item.context_expr, state)
                for name in _target_names(item.optional_vars):
                    if taint:
                        state.add(name)
                    else:
                        state.discard(name)
            return state
        if op.kind in ("with-exit", "case"):
            return state
        return self._transfer_stmt(node, state)

    def _transfer_stmt(self, stmt, state):
        if isinstance(stmt, ast.Assign):
            taint = self.tainted(stmt.value, state)
            for target in stmt.targets:
                for name in _target_names(target):
                    if taint:
                        state.add(name)
                    else:
                        state.discard(name)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            taint = self.tainted(stmt.value, state)
            for name in _target_names(stmt.target):
                if taint:
                    state.add(name)
                else:
                    state.discard(name)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name) and self.tainted(
                stmt.value, state
            ):
                state.add(stmt.target.id)
        elif isinstance(stmt, ast.Return):
            if self.tainted(stmt.value, state):
                self.returns_taint = True
        elif isinstance(stmt, ast.Delete):
            for name in _target_names(stmt):
                state.discard(name)
        return state

    # -- sinks ---------------------------------------------------------
    def _check_sinks(self, node: ast.AST | None, state: set[str]) -> None:
        if node is None:
            return
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # nested bodies run their own analysis
            stack.extend(ast.iter_child_nodes(current))
            call = current
            if not isinstance(call, ast.Call):
                continue
            sink = self._sink_label(call)
            if sink is None:
                continue
            for arg, label in _call_arguments(call, sink):
                if self.tainted(arg, state):
                    self.hits.add(
                        (
                            call.lineno,
                            call.col_offset,
                            f"value tainted by ambient entropy (not "
                            f"derived from {_RNG_MODULE}) flows into "
                            f"sampling sink {label}",
                        )
                    )
                    break

    def _sink_label(self, call: ast.Call) -> str | None:
        func = call.func
        dotted = self.ctx.resolve(func)
        tail = dotted.rsplit(".", 1)[-1] if dotted else None
        if tail in _SINK_CONSTRUCTORS:
            return f"{tail}()"
        if isinstance(func, ast.Attribute):
            if func.attr in _SINK_ATTRS:
                return f".{func.attr}()"
            if func.attr in _SINK_GATED_ATTRS:
                receiver = trailing_identifier(func.value)
                if receiver is not None and receiver.lower() in _SINK_RECEIVERS:
                    return f"{receiver}.{func.attr}()"
        if any(kw.arg in _SINK_KEYWORDS for kw in call.keywords):
            return "a seed/rng argument"
        return None


def _call_arguments(call: ast.Call, sink: str):
    """Arguments to judge for the matched sink — every positional and
    keyword for sampling sinks, just the seed/rng keywords when only
    the keyword heuristic matched."""
    if sink == "a seed/rng argument":
        for keyword in call.keywords:
            if keyword.arg in _SINK_KEYWORDS:
                yield keyword.value, sink
        return
    for arg in call.args:
        yield arg, sink
    for keyword in call.keywords:
        yield keyword.value, sink


def _op_expressions(op):
    """The expressions an op actually evaluates (sink-check scope) —
    a compound header evaluates only its own piece, not its body."""
    node = op.node
    if op.kind == "test":
        if isinstance(node, ast.Match):
            yield node.subject
        else:
            yield getattr(node, "test", None)
    elif op.kind == "for-iter":
        yield node.iter
    elif op.kind == "with-enter":
        for item in node.items:
            yield item.context_expr
    elif op.kind == "stmt":
        yield node


def _target_names(target) -> list[str]:
    if target is None:
        return []
    return [
        n.id for n in ast.walk(target) if isinstance(n, ast.Name)
    ]


@register
class RngTaintRule(Rule):
    id = "RPR701"
    name = "rng-taint-flow"
    rationale = (
        "Sampled paths must derive exclusively from repro._rng streams; "
        "ambient entropy laundered through a helper or a variable "
        "breaks exchangeability and the adaptive stopping guarantee."
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self._summaries: dict[str, bool] = {}

    def _exempt(self) -> bool:
        return self.ctx.in_module(_RNG_MODULE)

    def visit_Module(self, node: ast.Module) -> None:
        if self._exempt():
            return
        # one-level summaries: which module-local helpers return taint
        for func in _module_functions(node):
            analysis = _TaintAnalysis(self.ctx, {}, collect=False)
            solve(build_cfg(func), analysis)
            if analysis.returns_taint:
                self._summaries[func.name] = True

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    def _check_function(self, func) -> None:
        if self._exempt():
            return
        analysis = _TaintAnalysis(self.ctx, self._summaries, collect=True)
        solve(build_cfg(func), analysis)
        for line, col, message in sorted(analysis.hits):
            self.report(
                _At(line, col),
                message,
            )


class _At:
    def __init__(self, lineno: int, col_offset: int):
        self.lineno = lineno
        self.col_offset = col_offset


def _module_functions(module: ast.Module):
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item
