#!/usr/bin/env python
"""Lint: forbid broad exception handlers outside sanctioned sites.

The resilience layer funnels every benchmark failure through
``repro.resilience.guards.guarded_call`` so it can be classified,
timed and recorded.  A stray ``except Exception`` (or a bare
``except:``) anywhere else swallows failures before the guard sees
them, producing exactly the unexplained NaNs the layer exists to
eliminate.  This script walks ``src/`` and fails if a broad handler
appears outside the allowlist below.

Usage::

    python tools/check_exceptions.py [src-root]

Exit status 0 means clean; 1 means violations (printed one per line
as ``path:lineno: message``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

# Files allowed to contain broad handlers, relative to the src root.
# Each entry documents why the site is sanctioned.
ALLOWLIST = {
    # The single designated failure boundary: classifies, times and
    # records every exception as a FailureRecord.
    "repro/resilience/guards.py",
    # Evaluates user-supplied denial-constraint expressions; any raise
    # simply means "constraint not violated for this row".
    "repro/repair/holistic.py",
    # Applies user-derived transformation lambdas speculatively; a raise
    # means the candidate transformation does not apply.
    "repro/repair/baran.py",
    # The service worker's designated failure boundary: every job
    # execution failure becomes a categorized FailureRecord on the queue.
    "repro/service/workers.py",
    # The HTTP dispatch boundary: every handler failure is mapped through
    # the taxonomy to a status code (check_service_endpoints.py enforces
    # the mapping's presence).
    "repro/service/api.py",
}

BROAD_NAMES = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:  # bare except:
        return True
    if isinstance(node, ast.Name):
        return node.id in BROAD_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(
            isinstance(elt, (ast.Name, ast.Attribute))
            and (elt.id if isinstance(elt, ast.Name) else elt.attr)
            in BROAD_NAMES
            for elt in node.elts
        )
    return False


def check_file(path: Path) -> Iterator[Tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and _is_broad(node):
            what = "bare except" if node.type is None else "broad except"
            yield node.lineno, (
                f"{what} outside a sanctioned site; route failures "
                "through repro.resilience.guards.guarded_call instead"
            )


def check_tree(src_root: Path) -> List[str]:
    violations: List[str] = []
    for path in sorted(src_root.rglob("*.py")):
        relative = path.relative_to(src_root).as_posix()
        if relative in ALLOWLIST:
            continue
        for lineno, message in check_file(path):
            violations.append(f"{path}:{lineno}: {message}")
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
            f"{len(violations)} broad exception handler(s) found",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
