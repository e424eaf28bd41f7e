#!/usr/bin/env python
"""Lint: one function outside the runner sequences the benchmark stages.

The suite functions (:data:`SUITES`) run one stage each.  Which stages a
run makes, which names they resolve to, how detection runs become repair
input and which guards each suite gets are decided in one place, the
stage driver ``repro.benchmark.config.run_stages``.  The CLI, service
jobs and declared experiments go through it.  A second caller is a
second copy of that wiring, and copies drift apart.

This script walks ``src/repro`` (skipping ``benchmark/runner.py``, where
the suites live) and records every function that calls a suite, by
plain name or as an attribute.  Calls at module level count as the
function ``<module>``; a nested function counts on its own.  More than
one calling function is a violation, reported at each call site.

Usage::

    python tools/check_stage_calls.py [src-root]

Exit status 0 means clean; 1 means violations (printed one per line
as ``path:lineno: message``); 2 means the src root is not a directory.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: The stage suites; only the driver may call them.
SUITES = ("run_detection_suite", "run_repair_suite", "evaluate_scenarios")

#: Where the suites are defined (relative to the src root).
RUNNER = Path("repro/benchmark/runner.py")


class _CallSites(ast.NodeVisitor):
    """Collect ``(function qualname, lineno, suite)`` per suite call."""

    def __init__(self) -> None:
        self.scope: List[str] = []
        self.sites: List[Tuple[str, int, str]] = []

    def _visit_scope(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_ClassDef = _visit_scope

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name in SUITES:
            where = ".".join(self.scope) or "<module>"
            self.sites.append((where, node.lineno, name))
        self.generic_visit(node)


def suite_callers(
    src_root: Path,
) -> Dict[Tuple[Path, str], List[Tuple[int, str]]]:
    """``(file, function) -> [(lineno, suite)]`` outside the runner."""
    callers: Dict[Tuple[Path, str], List[Tuple[int, str]]] = {}
    for path in sorted((src_root / "repro").rglob("*.py")):
        if path.relative_to(src_root) == RUNNER:
            continue
        visitor = _CallSites()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        for where, lineno, suite in visitor.sites:
            callers.setdefault((path, where), []).append((lineno, suite))
    return callers


def check_tree(src_root: Path) -> List[str]:
    callers = suite_callers(src_root)
    if len(callers) <= 1:
        return []
    names = ", ".join(f"{path.name}:{where}" for path, where in callers)
    return [
        f"{path}:{lineno}: {where} calls {suite}; only one function "
        f"outside {RUNNER} may call the stage suites (callers: {names})"
        for (path, where), sites in callers.items()
        for lineno, suite in sites
    ]


def main(argv: List[str]) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else Path("src")
    if not src_root.is_dir():
        print(f"error: {src_root} is not a directory", file=sys.stderr)
        return 2
    violations = check_tree(src_root)
    for line in violations:
        print(line)
    if violations:
        print(
            f"{len(violations)} stage-suite call site(s) outside the "
            "one stage driver",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
