"""RPR5xx — resource-lifecycle typestate over the CFG.

The abstract domain maps local variable names to :class:`Res` states:
*acquired* (with an obligation set like ``{close, unlink}``),
*escaped* (ownership may have transferred — silent from then on), or
untracked.  The solver pushes this through every path; at the two
synthetic exits the rules inspect each incoming edge separately:

* **RPR501** — a *normal* path (a ``return`` or fall-off) reaches the
  function exit with obligations outstanding.
* **RPR502** — an *exception* edge escapes the function with a live
  resource: precisely the bug class ``EpochEngine._reap_on_error``
  exists to prevent (a raise between acquiring workers/segments and
  publishing them leaks OS resources no caller can reach).
* **RPR503** — ``unlink()`` called on a ``SharedMemory`` opened with
  ``create=False``: attachers must ``close()`` only; unlinking an
  attached segment destroys it under the owner (the owner/attacher
  obligation split from ``repro.engine.shm``).

Soundness choices, tuned against this tree (documented here because
they *are* the analysis):

* Ownership transfer is silent: passing a tracked name as a call
  argument, returning/yielding it, storing it into an attribute,
  subscript, or container, or aliasing it marks it *escaped* — the
  callee/holder may now own it, and both directions of guessing
  produce noise.  Escape also sticks on exception edges (the callee
  may have taken ownership before raising).
* A truthiness/None guard on a tracked name (``if shm:``, ``if fd is
  not None:``) marks it escaped: the common guarded-cleanup idiom is
  beyond a path-insensitive domain, and flagging it would train people
  to suppress.
* ``mp.Process`` obligations begin at ``.start()``, not construction —
  an unstarted Process holds no OS resources and ``join()`` on one
  raises.
* Releases survive their own exception edge (a failed ``close()`` is
  not a leak) and acquisitions do not (a constructor that raised
  acquired nothing).  Once an op released *part* of a resource, the
  whole resource is considered handled on that op's exceptional edge:
  the function is mid-cleanup there (``shm.close(); shm.unlink()``),
  not in the acquire-to-publish window this rule hunts, and the only
  "fix" would be a nested try/finally per obligation.
* ``with``-managed acquisitions are never tracked: ``__exit__`` is the
  release.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from types import SimpleNamespace

from .cfg import build_cfg
from .core import Rule, qualified_name
from .dataflow import Analysis, solve
from .registry import register

__all__ = ["ResourceLifecycleRule", "ExceptionLeakRule", "AttacherUnlinkRule"]


# ----------------------------------------------------------------------
# abstract domain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Res:
    """Typestate of one tracked local."""

    kind: str
    obligations: frozenset[str]
    line: int
    col: int
    escaped: bool = False


#: method name -> obligation it discharges
_RELEASE_ATTRS = {
    "close": "close",
    "unlink": "unlink",
    "shutdown": "shutdown",
    "join": "join",
    "terminate": "join",
    "kill": "join",
    "cleanup": "close",
}

#: human description per resource kind, for messages
_KIND_LABELS = {
    "shared-memory-owner": "owned SharedMemory segment",
    "shared-memory-attach": "attached SharedMemory segment",
    "executor": "executor",
    "process": "worker process",
    "memmap": "memory-mapped array",
    "file": "file handle",
    "tempfile": "temporary file",
    "mkstemp-fd": "mkstemp file descriptor",
    "engine": "sampling engine",
    "session": "sampling session",
    "shared-graph-blocks": "shared graph segments",
}


def _acquisition(
    call: ast.Call, imports: dict[str, str]
) -> tuple[str, frozenset[str], int] | None:
    """``(kind, obligations, tuple_index)`` if ``call`` acquires a
    tracked resource; ``tuple_index`` selects the bound element when
    the callee returns a tuple (mkstemp, ``SamplingSession.resume``)."""
    dotted = qualified_name(call.func, imports)
    tail = dotted.rsplit(".", 1)[-1] if dotted else None
    if tail is None and isinstance(call.func, ast.Attribute):
        tail = call.func.attr

    if tail == "SharedMemory":
        create = _keyword_is_true(call, "create")
        if create:
            return "shared-memory-owner", frozenset({"close", "unlink"}), -1
        return "shared-memory-attach", frozenset({"close"}), -1
    if tail in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
        return "executor", frozenset({"shutdown"}), -1
    if tail == "Process":
        return "process", frozenset(), -1  # obligations attach at .start()
    if dotted == "numpy.memmap":
        return "memmap", frozenset({"close"}), -1
    if dotted in ("open", "io.open", "os.fdopen"):
        return "file", frozenset({"close"}), -1
    if dotted in ("tempfile.NamedTemporaryFile", "tempfile.TemporaryFile"):
        return "tempfile", frozenset({"close"}), -1
    if dotted == "tempfile.mkstemp":
        return "mkstemp-fd", frozenset({"close"}), 0
    if tail == "SharedGraphBlocks":
        return "shared-graph-blocks", frozenset({"close"}), -1
    if tail in ("EpochEngine", "create_engine"):
        return "engine", frozenset({"close"}), -1
    if dotted is not None and dotted.endswith(".SamplingSession.resume"):
        return "session", frozenset({"close"}), 0
    if tail == "SamplingSession":
        return "session", frozenset({"close"}), -1
    return None


def _keyword_is_true(call: ast.Call, name: str) -> bool:
    for keyword in call.keywords:
        if keyword.arg == name:
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


def _root_name(node: ast.AST) -> str | None:
    """The root ``Name`` of an attribute chain (``shm._mmap.close`` ->
    ``shm``), or ``None``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_guard_test(test: ast.expr) -> list[str]:
    """Tracked-name truthiness/None guards (see module docstring)."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        test = test.operand
    if isinstance(test, ast.Name):
        return [test.id]
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return [test.left.id]
    return []


# ----------------------------------------------------------------------
# the analysis
# ----------------------------------------------------------------------
class _LifecycleAnalysis(Analysis):
    def __init__(self, imports: dict[str, str]):
        self.imports = imports
        #: (line, col, rule, message) found *during* transfer
        #: (RPR503; set-keyed because transfers re-run to fixpoint)
        self.immediate: set[tuple[int, int, str, str]] = set()

    # -- lattice -------------------------------------------------------
    def initial(self):
        return {}

    def copy(self, state):
        return dict(state)

    def join(self, left, right):
        out = dict(left)
        for var, res in right.items():
            prior = out.get(var)
            if prior is None:
                out[var] = res
            elif prior != res:
                if prior.escaped or res.escaped:
                    out[var] = replace(prior, escaped=True)
                else:
                    out[var] = replace(
                        prior, obligations=prior.obligations | res.obligations
                    )
        return out

    # -- transfer ------------------------------------------------------
    def transfer(self, op, state):
        node = op.node
        if op.kind == "test":
            if isinstance(node, ast.Match):
                self._scan_uses(node.subject, state, skip_calls=())
                return state
            test = node.test if hasattr(node, "test") else None
            for var in _is_guard_test(test) if test is not None else []:
                if var in state:
                    state[var] = replace(state[var], escaped=True)
            self._scan_uses(test, state, skip_calls=())
            return state
        if op.kind == "for-iter":
            self._scan_uses(node.iter, state, skip_calls=())
            for name in _target_names(node.target):
                state.pop(name, None)
            return state
        if op.kind == "with-enter":
            for item in node.items:
                self._scan_uses(item.context_expr, state, skip_calls=())
                for name in _target_names(item.optional_vars):
                    # with-managed: __exit__ releases it; never tracked
                    state.pop(name, None)
            return state
        if op.kind in ("with-exit", "case"):
            return state
        return self._transfer_stmt(node, state)

    def _transfer_stmt(self, stmt, state):
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    # refcount semantics are beyond this domain; a del
                    # of a memmap IS its release, for others we go
                    # silent rather than guess
                    state.pop(target.id, None)
            return state

        handled_calls = self._apply_releases(stmt, state)
        self._scan_uses(stmt, state, skip_calls=handled_calls)

        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            self._apply_binding(stmt.targets[0], stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._apply_binding(stmt.target, stmt.value, state)
        return state

    def _apply_binding(self, target, value, state):
        call = value
        if isinstance(call, ast.Await):
            call = call.value
        if not isinstance(call, ast.Call):
            if isinstance(target, ast.Name):
                state.pop(target.id, None)  # rebound to something else
            return
        spec = _acquisition(call, self.imports)
        if spec is None:
            if isinstance(target, ast.Name):
                state.pop(target.id, None)
            return
        kind, obligations, tuple_index = spec
        bind_to = None
        if tuple_index < 0 and isinstance(target, ast.Name):
            bind_to = target.id
        elif (
            tuple_index >= 0
            and isinstance(target, (ast.Tuple, ast.List))
            and tuple_index < len(target.elts)
            and isinstance(target.elts[tuple_index], ast.Name)
        ):
            bind_to = target.elts[tuple_index].id
        if bind_to is not None:
            state[bind_to] = Res(
                kind=kind,
                obligations=obligations,
                line=call.lineno,
                col=call.col_offset,
            )

    def _apply_releases(self, stmt, state):
        """Discharge obligations for release/start calls anywhere in
        ``stmt``; returns the set of handled Call node ids (their
        receiver roots must not count as escapes)."""
        handled: set[int] = set()
        for node in _walk_skipping_defs(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                root = _root_name(func.value)
                if root is None or root not in state:
                    continue
                res = state[root]
                if func.attr == "start" and res.kind == "process":
                    state[root] = replace(
                        res, obligations=frozenset({"join"})
                    )
                    handled.add(id(node))
                elif func.attr in _RELEASE_ATTRS:
                    if (
                        func.attr == "unlink"
                        and res.kind == "shared-memory-attach"
                    ):
                        self.immediate.add(
                            (
                                node.lineno,
                                node.col_offset,
                                "RPR503",
                                f"'{root}' attaches an existing "
                                "SharedMemory segment (create=False) but "
                                "calls unlink(); attachers must only "
                                "close() — unlinking destroys the "
                                "segment under its owner",
                            )
                        )
                    remaining = res.obligations - {
                        _RELEASE_ATTRS[func.attr]
                    }
                    if remaining:
                        state[root] = replace(res, obligations=remaining)
                    else:
                        state.pop(root, None)
                    handled.add(id(node))
        # os.close(fd)-style releases through module-level calls
        for node in _walk_skipping_defs(stmt):
            if (
                isinstance(node, ast.Call)
                and qualified_name(node.func, self.imports) == "os.close"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in state
            ):
                res = state[node.args[0].id]
                remaining = res.obligations - {"close"}
                if remaining:
                    state[node.args[0].id] = replace(
                        res, obligations=remaining
                    )
                else:
                    state.pop(node.args[0].id, None)
                handled.add(id(node))
        return handled

    def _scan_uses(self, node, state, skip_calls):
        """Mark tracked names that *escape* in ``node`` (module
        docstring lists the escape routes)."""
        if node is None:
            return
        for child in ast.walk(node):
            if not isinstance(child, ast.Name) or child.id not in state:
                continue
            if not isinstance(getattr(child, "ctx", None), ast.Load):
                continue
            parent = getattr(child, "_repro_parent", None)
            # receiver of an attribute access (shm.buf, proc.start())
            # is not an ownership transfer
            if isinstance(parent, ast.Attribute):
                continue
            if isinstance(parent, ast.Call):
                if id(parent) in skip_calls:
                    continue
                if parent.func is child:
                    continue  # calling it, not passing it
            res = state[child.id]
            if not res.escaped:
                state[child.id] = replace(res, escaped=True)

    # -- exception edges ----------------------------------------------
    def transfer_exception(self, op, before, after):
        out = {}
        for var, res in before.items():
            post = after.get(var)
            if post is None:
                continue  # released during the op — release sticks
            if post.obligations < res.obligations:
                # the op released part of this resource: mid-cleanup,
                # not the acquire-to-publish window (module docstring)
                continue
            if post.escaped:
                out[var] = post  # escape sticks
            else:
                out[var] = res  # growth (e.g. .start()) did not happen
        return out


def _target_names(target) -> list[str]:
    if target is None:
        return []
    names = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.append(node.id)
    return names


def _walk_skipping_defs(stmt):
    """Like ``ast.walk`` but does not descend into nested function or
    lambda bodies: a release inside a closure runs when the closure
    runs, not where it is defined (the capture itself still escapes
    the resource via :meth:`_LifecycleAnalysis._scan_uses`)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    if isinstance(stmt, defs):
        yield stmt
        return
    stack = [stmt]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, defs):
                continue
            stack.append(child)


# ----------------------------------------------------------------------
# the rules
# ----------------------------------------------------------------------
@register
class ResourceLifecycleRule(Rule):
    """Runs the lifecycle analysis once per function and emits all
    three RPR5xx IDs through :meth:`Rule.report_as`."""

    id = "RPR501"
    name = "resource-leak"
    rationale = (
        "Every acquired OS resource (SharedMemory, executors, worker "
        "processes, memmaps, raw file handles) must be released or "
        "handed off on every normal path out of the function."
    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Await):
            call = call.value
        if not isinstance(call, ast.Call):
            return
        spec = _acquisition(call, self.ctx.imports)
        if spec is None:
            return
        kind, obligations, _ = spec
        if not obligations:
            return
        self.report(
            node,
            f"{_KIND_LABELS.get(kind, kind)} acquired and immediately "
            "discarded — bind it and release it, or use a with block",
        )

    # ------------------------------------------------------------------
    def _check_function(self, func) -> None:
        cfg = build_cfg(func)
        analysis = _LifecycleAnalysis(self.ctx.imports)
        states = solve(cfg, analysis)

        for line, col, rule_id, message in sorted(analysis.immediate):
            self.report_as(
                rule_id,
                "attacher-unlink",
                SimpleNamespace(lineno=line, col_offset=col),
                message,
            )

        seen: set[tuple[str, int, str]] = set()
        for exit_block, rule_id, name in (
            (cfg.exit, "RPR501", self.name),
            (cfg.raise_exit, "RPR502", "resource-leak-on-raise"),
        ):
            for pred, kind in exit_block.pred:
                entry = states.get(pred.index)
                if entry is None:
                    continue
                _in, out, exc = entry
                flowing = exc if kind == "except" else out
                if not flowing:
                    continue
                edge_line = _block_line(pred)
                for var, res in sorted(flowing.items()):
                    if res.escaped or not res.obligations:
                        continue
                    key = (var, res.line, rule_id)
                    if key in seen:
                        continue
                    seen.add(key)
                    label = _KIND_LABELS.get(res.kind, res.kind)
                    need = "/".join(sorted(res.obligations))
                    if rule_id == "RPR502":
                        message = (
                            f"{label} '{var}' (acquired line {res.line}) "
                            f"leaks when the exception raised around "
                            f"line {edge_line} escapes "
                            f"'{func.name}' — outstanding: {need}"
                        )
                    else:
                        message = (
                            f"{label} '{var}' (acquired line {res.line}) "
                            f"reaches the exit of '{func.name}' near "
                            f"line {edge_line} without {need}"
                        )
                    self.report_as(
                        rule_id,
                        name,
                        SimpleNamespace(lineno=res.line, col_offset=res.col),
                        message,
                    )


def _block_line(block) -> int:
    for op in block.ops:
        line = getattr(op.node, "lineno", None)
        if line is not None:
            return line
    for pred, _ in block.pred:
        line = _block_line(pred)
        if line:
            return line
    return 0


@register
class ExceptionLeakRule(Rule):
    """Metadata holder for RPR502 (emitted by RPR501's analysis)."""

    id = "RPR502"
    name = "resource-leak-on-raise"
    rationale = (
        "An exception edge must not escape a function while an acquired "
        "resource is still live — the bug class EpochEngine's "
        "_reap_on_error guards against, generalized to every function."
    )


@register
class AttacherUnlinkRule(Rule):
    """Metadata holder for RPR503 (emitted by RPR501's analysis)."""

    id = "RPR503"
    name = "attacher-unlink"
    rationale = (
        "A SharedMemory segment opened with create=False is borrowed: "
        "close() detaches it, unlink() would destroy the owner's "
        "segment (the owner/attacher split in repro.engine.shm)."
    )
