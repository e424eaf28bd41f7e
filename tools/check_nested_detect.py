#!/usr/bin/env python
"""Lint: nested detector calls go through ``nested_cells``.

Methods that run other detectors inside their own unit (the Min-K, Max
Entropy and Metadata-driven ensembles, BoostClean's detector library)
read those detectors' cells through one helper,
``repro.detectors.base.nested_cells``, which memoizes them in the
artifact cache.  A direct ``<detector>.detect(...)`` call beside it is a
second path: it reruns the detector on every call, warm cache or not.

This script walks ``src/repro/detectors`` and ``src/repro/repair`` and
reports every call of an attribute named ``detect`` outside the helper.

Usage::

    python tools/check_nested_detect.py [src-root]

Exit status 0 means clean; 1 means violations (printed one per line
as ``path:lineno: message``); 2 means the src root is not a directory.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

#: The trees whose methods may run other detectors.
SCOPES = ("repro/detectors", "repro/repair")

#: The one function allowed to call ``detect`` there.
HELPER = (Path("repro/detectors/base.py"), "nested_cells")


class _DetectCalls(ast.NodeVisitor):
    """Collect ``(lineno, enclosing function)`` per ``.detect(`` call."""

    def __init__(self) -> None:
        self.scope: List[str] = []
        self.sites: List[Tuple[int, str]] = []

    def _visit_scope(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_ClassDef = _visit_scope

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "detect":
            self.sites.append((node.lineno, ".".join(self.scope)))
        self.generic_visit(node)


def check_tree(src_root: Path) -> List[str]:
    violations = []
    for scope in SCOPES:
        for path in sorted((src_root / scope).rglob("*.py")):
            relative = path.relative_to(src_root)
            visitor = _DetectCalls()
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
            for lineno, where in visitor.sites:
                if (relative, where) == HELPER:
                    continue
                violations.append(
                    f"{path}:{lineno}: {where or '<module>'} calls "
                    "<detector>.detect(...); run nested detectors "
                    "through repro.detectors.base.nested_cells"
                )
    return violations


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
            f"{len(violations)} nested detect call(s) outside "
            "nested_cells",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
