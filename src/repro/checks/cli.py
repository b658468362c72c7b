"""Command-line front end of the checker.

Two spellings, one implementation: ``python -m repro.checks`` and
``repro-gbc check`` both land in :func:`run_cli`.

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage errors
(argparse, unknown ``--rules`` selectors, unusable ``--changed-only``
ref).  Parse failures of *checked* files are reported as ``RPR000``
findings (exit ``1``), not crashes — a broken file in the tree is a
finding like any other.

``--changed-only`` restricts the run to ``.py`` files that differ from
a git ref (default ``origin/main``, falling back to ``main`` then
``HEAD`` when absent, e.g. in shallow CI clones) plus untracked files —
the fast lane the pre-commit hook uses.  Note the project rules
(RPR302 registry drift) deliberately stay quiet on subset runs; the
full-tree CI job remains the source of truth.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from ..exceptions import ParameterError
from .core import Report, Rule, iter_python_files, run_checks
from .registry import all_rules

__all__ = [
    "main",
    "run_cli",
    "add_arguments",
    "build_parser",
    "render_text",
    "render_json",
    "changed_files",
    "select_rules",
]

_DEFAULT_REF = "origin/main"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-checks",
        description=(
            "Project-specific static analysis: determinism, RNG hygiene, "
            "cross-process safety, telemetry and exception discipline, "
            "plus the flow-sensitive tier (resource lifecycle, event-loop "
            "hygiene, RNG taint) — see docs/static-analysis.md"
        ),
    )
    add_arguments(parser)
    return parser


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The checker's arguments, shared by ``python -m repro.checks``
    and the ``repro-gbc check`` subcommand."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help=(
            "comma-separated rule IDs or prefixes to run "
            "(e.g. 'RPR501,RPR7' runs RPR501 and every RPR7xx rule)"
        ),
    )
    parser.add_argument(
        "--changed-only",
        nargs="?",
        const=_DEFAULT_REF,
        default=None,
        metavar="REF",
        help=(
            "only check .py files changed vs the given git ref "
            f"(default when flag is bare: {_DEFAULT_REF}, falling back "
            "to main, then HEAD) plus untracked files"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )


def render_text(report: Report) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in report.findings]
    noun = "finding" if len(report.findings) == 1 else "findings"
    summary = (
        f"{len(report.findings)} {noun} in {report.files_checked} file(s)"
    )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: Report) -> str:
    """The stable machine-readable report (schema ``version`` 1)."""
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)


def _render_rules() -> str:
    lines = []
    for cls in all_rules():
        lines.append(f"{cls.id} {cls.name}")
        lines.append(f"    {cls.rationale}")
    return "\n".join(lines)


def select_rules(spec: str) -> list[type[Rule]]:
    """Rule classes matching a comma list of IDs/prefixes.

    Raises :class:`~repro.exceptions.ParameterError` for a selector
    that matches nothing — a typo in ``--rules`` silently running zero
    rules would read as "clean".
    """
    selectors = [part.strip() for part in spec.split(",") if part.strip()]
    if not selectors:
        raise ParameterError("--rules got an empty selector list")
    selected: list[type[Rule]] = []
    for selector in selectors:
        matches = [
            cls
            for cls in all_rules()
            if cls.id == selector or cls.id.startswith(selector)
        ]
        if not matches:
            raise ParameterError(
                f"--rules selector {selector!r} matches no rule"
            )
        for cls in matches:
            if cls not in selected:
                selected.append(cls)
    return selected


# ----------------------------------------------------------------------
# --changed-only support
# ----------------------------------------------------------------------
def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def _resolve_ref(ref: str) -> str:
    """First usable ref among ``ref`` and the documented fallbacks."""
    candidates = [ref]
    for fallback in (_DEFAULT_REF, "main", "HEAD"):
        if fallback not in candidates:
            candidates.append(fallback)
    for candidate in candidates:
        probe = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{candidate}^{{commit}}"],
            capture_output=True,
            text=True,
        )
        if probe.returncode == 0:
            return candidate
    raise ParameterError(f"no usable git ref among {candidates}")


def changed_files(ref: str, paths: list[str]) -> list[Path]:
    """``.py`` files under ``paths`` changed vs ``ref`` or untracked.

    Raises :class:`~repro.exceptions.ParameterError` when git is
    unavailable or no candidate ref resolves (the caller maps that to
    exit code 2).
    """
    try:
        root = Path(_git("rev-parse", "--show-toplevel").strip())
        resolved = _resolve_ref(ref)
        diffed = _git("diff", "--name-only", resolved)
        untracked = _git("ls-files", "--others", "--exclude-standard")
    except (OSError, subprocess.CalledProcessError) as exc:
        raise ParameterError(
            f"git unavailable for --changed-only: {exc}"
        ) from exc
    changed = {
        (root / line).resolve()
        for line in (diffed + untracked).splitlines()
        if line.strip().endswith(".py")
    }
    requested = {path.resolve() for path in iter_python_files(list(paths))}
    return sorted(requested & changed)


def run_cli(args: argparse.Namespace) -> int:
    """Execute a parsed invocation; returns the process exit code."""
    if args.list_rules:
        print(_render_rules())
        return 0
    rules = None
    if args.rules:
        try:
            rules = select_rules(args.rules)
        except ParameterError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    paths = list(args.paths)
    if args.changed_only is not None:
        try:
            paths = changed_files(args.changed_only, paths)
        except ParameterError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    report = run_checks(paths, rules=rules)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(report))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.checks``."""
    return run_cli(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
