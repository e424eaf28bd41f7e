#!/usr/bin/env python
"""Lint: every ``src/repro`` module is reachable from the CLI.

Code that no pipeline path imports is code nobody runs: it drifts from
the live implementation, and its tests keep it looking alive.  This
script walks the import graph from the program's entry points
(:data:`ROOTS`) and flags every module under ``src/repro`` it never
reaches.

The walk reads each module's AST and follows every ``import`` and
``from ... import`` statement, including ones inside functions (the
CLI defers heavy imports that way).  Importing ``repro.a.b`` also runs
``repro/__init__.py`` and ``repro/a/__init__.py``, so parent packages
count as reached, and ``from repro.a import b`` reaches ``repro.a.b``
when ``b`` is a submodule.  Imports the program makes by string (e.g.
``importlib``) are not followed.

A module that is deliberately library-only goes on :data:`ALLOWLIST`
with its reason.  Allowlisted modules are walked as roots too, so the
code they import is kept alive with them.

Usage::

    python tools/check_reachable.py [src-root]

Exit status 0 means clean; 1 means unreachable modules (printed one per
line as ``path:1: message``); 2 means the src root is not a directory.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set

#: The program's entry points: ``repro`` console script and
#: ``python -m repro``.
ROOTS = ("repro.cli", "repro.__main__")

#: Paper-facing modules no CLI path imports, each with its reason.
ALLOWLIST: Dict[str, str] = {
    "repro.ml.automl": (
        "Section 6.5 AutoML comparison, driven by benchmarks/test_automl.py"
    ),
    "repro.profiling": (
        "the paper's suggestion #4 (profile data before cleaning), "
        "a library API"
    ),
    "repro.profiling.profiler": "implementation of repro.profiling",
}


def module_paths(src_root: Path) -> Dict[str, Path]:
    """Dotted module name -> file, for every module under ``repro/``."""
    modules: Dict[str, Path] = {}
    for path in sorted((src_root / "repro").rglob("*.py")):
        parts = list(path.relative_to(src_root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _absolute(
    node: ast.ImportFrom, module: str, is_package: bool
) -> Optional[str]:
    """The absolute module a ``from`` import names (resolving dots)."""
    if node.level == 0:
        return node.module
    package = module.split(".")
    if not is_package:
        package.pop()
    if node.level > 1:
        package = package[: len(package) - (node.level - 1)]
    if node.module:
        package.append(node.module)
    return ".".join(package) or None


def imported_names(path: Path, module: str) -> Set[str]:
    """Every module a file's import statements could name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    is_package = path.name == "__init__.py"
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node, module, is_package)
            if base is None:
                continue
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _with_parents(name: str) -> List[str]:
    """``a.b.c`` -> ``[a, a.b, a.b.c]``: importing a module runs its
    parent packages' ``__init__`` first."""
    parts = name.split(".")
    return [".".join(parts[:depth]) for depth in range(1, len(parts) + 1)]


def reachable(modules: Dict[str, Path], roots: List[str]) -> Set[str]:
    """Modules reached from ``roots``, parent packages included."""
    seen: Set[str] = set()
    stack = [name for root in roots for name in _with_parents(root)]
    while stack:
        module = stack.pop()
        if module in seen or module not in modules:
            continue
        seen.add(module)
        for name in imported_names(modules[module], module):
            stack.extend(_with_parents(name))
    return seen


def check_tree(src_root: Path) -> List[str]:
    modules = module_paths(src_root)
    roots = list(ROOTS) + sorted(ALLOWLIST)
    reached = reachable(modules, roots)
    return [
        f"{path}:1: module {name} is not reachable from "
        f"{' or '.join(ROOTS)}; delete it, or add it to ALLOWLIST in "
        "tools/check_reachable.py with a reason"
        for name, path in modules.items()
        if name not in reached and name not in ALLOWLIST
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
            f"{len(violations)} unreachable module(s) found", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
