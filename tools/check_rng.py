#!/usr/bin/env python
"""Lint: forbid process-global randomness in model, repair and tuning code.

``repro.ml.base.fit_predict`` memoizes fit->predict calls in the artifact
cache, so a cache hit *skips* a fit.  That is only sound if every fit is
a pure function of its hyperparameters and data.  A fit that drew from a
process-wide random stream would make skipping it shift every later
draw, and a cached run would stop matching an uncached one.  Every model,
repair and tuner therefore draws from its own seeded generator
(``np.random.default_rng(seed)``).  This script walks
``src/repro/{ml,repair,tuning}`` and flags:

1. **legacy numpy samplers** -- any ``np.random.<name>`` /
   ``numpy.random.<name>`` access (or ``from numpy.random import
   <name>``) other than the generator constructors in
   ``NUMPY_ALLOWED`` (``np.random.rand``, ``np.random.seed``,
   ``np.random.choice`` ... all share one global ``RandomState``);
2. **unseeded generators** -- ``default_rng()`` called with no seed or a
   literal ``None``;
3. **the stdlib ``random`` module** -- any ``random.<name>`` function
   or ``from random import <name>`` other than the seeded ``Random``
   class.

Usage::

    python tools/check_rng.py [src-root]

Exit status 0 means clean; 1 means violations (printed one per line
as ``path:lineno: message``); 2 means the src root is not a directory.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Only these subtrees are linted: the code a memoized fit can reach.
SCOPE = ("repro/ml", "repro/repair", "repro/tuning")

#: Seeded-generator constructors; everything else under numpy.random
#: draws from (or reseeds) the process-global legacy stream.
NUMPY_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: The stdlib's seeded instance class; the module functions are global.
STDLIB_ALLOWED = {"Random"}


def _module_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to ``numpy``, ``numpy.random`` or ``random``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("numpy", "numpy.random", "random"):
                    if alias.asname is not None:
                        aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    aliases[alias.asname or "random"] = "numpy.random"
    return aliases


def _qualified(node: ast.AST, aliases: Dict[str, str]) -> str:
    """Dotted module path an expression names, or '' if not a module."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, "")
    if isinstance(node, ast.Attribute):
        base = _qualified(node.value, aliases)
        if base == "numpy" and node.attr == "random":
            return "numpy.random"
    return ""


def _unseeded(call: ast.Call) -> bool:
    if call.keywords:
        return False
    if not call.args:
        return True
    first = call.args[0]
    return isinstance(first, ast.Constant) and first.value is None


def check_file(path: Path) -> Iterator[Tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _module_aliases(tree)
    default_rng_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
            "numpy.random", "random"
        ):
            allowed = (
                NUMPY_ALLOWED if node.module == "numpy.random"
                else STDLIB_ALLOWED
            )
            for alias in node.names:
                if alias.name == "default_rng":
                    default_rng_names.add(alias.asname or alias.name)
                if alias.name not in allowed:
                    yield node.lineno, (
                        f"'from {node.module} import {alias.name}' uses "
                        "process-global randomness; draw from a seeded "
                        "np.random.default_rng(seed)"
                    )
        elif isinstance(node, ast.Attribute):
            module = _qualified(node.value, aliases)
            if module == "numpy.random" and node.attr not in NUMPY_ALLOWED:
                yield node.lineno, (
                    f"np.random.{node.attr} draws from numpy's global "
                    "stream; use a seeded np.random.default_rng(seed)"
                )
            elif module == "random" and node.attr not in STDLIB_ALLOWED:
                yield node.lineno, (
                    f"random.{node.attr} draws from the stdlib's global "
                    "stream; use a seeded np.random.default_rng(seed)"
                )
        elif isinstance(node, ast.Call) and _unseeded(node):
            func = node.func
            named = (
                isinstance(func, ast.Attribute)
                and func.attr == "default_rng"
                and _qualified(func.value, aliases) == "numpy.random"
            ) or (isinstance(func, ast.Name) and func.id in default_rng_names)
            if named:
                yield node.lineno, (
                    "default_rng() without a seed is nondeterministic; "
                    "pass the estimator's seed"
                )


def check_tree(src_root: Path) -> List[str]:
    violations: List[str] = []
    for scope in SCOPE:
        for path in sorted((src_root / scope).rglob("*.py")):
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
            f"{len(violations)} process-global randomness site(s) found",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
