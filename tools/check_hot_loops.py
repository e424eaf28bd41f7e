#!/usr/bin/env python
"""Lint: forbid scalar-regression patterns in the vectorized kernels.

The ML kernels under ``src/repro/ml/`` and the cleaning kernels under
``src/repro/detectors/``, ``src/repro/constraints/`` and
``src/repro/repair/`` were vectorized deliberately (presorted split
scans, batched tree routing, blocked distance GEMMs, hash-group
constraint joins, batched repair scoring); this lint keeps the
patterns that historically made them slow from creeping back in:

1. **per-node sorting in split search** -- any ``np.argsort`` /
   ``numpy.argsort`` call inside a function named ``_best_split``.  The
   builder presorts every feature once at the root and threads the
   order down the recursion; re-sorting per node turns an O(n) scan
   back into O(n log n) per node.
2. **per-row Python loops** -- ``for row in features`` /
   ``for i, row in enumerate(features)`` anywhere in scope, where the
   iterable is a matrix-like collection (``features``, ``matrix``,
   ``rows``, ``vectors``, ``samples``).  Detection, constraint
   checking, repair scoring and prediction are batched; a per-row loop
   reintroduces ~10^5 Python-level iterations per call.  Iterating a
   *sparse* set (``for row, column in detections``) is fine: that work
   is proportional to the error count, not the table size.
3. **quadratic pair enumeration outside blocking** -- two nested
   ``for`` loops over the *same* bare-name iterable.  All-pairs work is
   only legal inside the blocking machinery (functions whose name
   mentions ``block`` or ``pair``), where block size caps the square.
   Nested loops over column collections (``categorical``, ``columns``,
   ``names``, ``attrs``) are exempt: schema width bounds them, not row
   count.
4. **per-cell type tables outside the column view** -- a dict keyed by
   ``type(None)``, or a ``map(type, ...)`` call, anywhere under
   ``src/repro`` except ``repro/dataset/columnar.py``.  A cell's type
   tag and identity have one definition, ``ColumnView``; a second
   table lets the fingerprint, the codec, the kernels and the store
   disagree on what a cell is, and brings back a per-cell pass that
   the memoized view already made.

Intentional exceptions to rules 1-3 live in ``ALLOWLIST`` with the
reason recorded next to each entry.  The tier-1 suite asserts ``check_tree`` is clean
(see ``tests/test_lint.py``), mirroring ``check_clocks.py``.

Usage::

    python tools/check_hot_loops.py [src-root]

Exit status 0 means clean; 1 means violations (printed one per line
as ``path:lineno: message``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

# Files allowed to contain the forbidden patterns, relative to the src
# root.  Each entry must document why.
ALLOWLIST = {
    # Birch's CF-tree insertion is an inherently sequential streaming
    # pass: each row's placement depends on the tree built so far.
    "repro/ml/cluster.py",
}

#: Only these subtrees are linted; scalar loops elsewhere are not hot.
SCOPE = (
    "repro/ml",
    "repro/detectors",
    "repro/constraints",
    "repro/repair",
)

#: The one module allowed a per-cell type table (rule 4).
TYPE_TABLE_HOME = "repro/dataset/columnar.py"

#: Iterable names that denote column collections: nesting over them is
#: O(schema width^2), not O(rows^2).
COLUMN_COLLECTIONS = {"categorical", "columns", "names", "attrs"}

#: Iterable names that denote dense row-major collections.  A ``row``
#: loop over one of these scans the whole table in Python; a ``row``
#: loop over anything else (``detections``, ``holes``) is sparse.
MATRIX_COLLECTIONS = {"features", "matrix", "rows", "vectors", "samples"}


def _is_argsort(node: ast.AST) -> bool:
    """True for ``np.argsort`` / ``numpy.argsort`` attribute access."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "argsort"
        and isinstance(node.value, ast.Name)
        and node.value.id in {"np", "numpy"}
    )


def _is_per_row_loop(node: ast.AST) -> bool:
    """True for ``for row in features`` / ``for i, row in enumerate(features)``.

    Matched structurally: a ``for`` whose iterable is a matrix-like bare
    name (or an ``enumerate(...)`` of one), where the row variable is
    literally named ``row`` -- the codebase's idiom for per-row scalar
    work on a feature matrix.  Sparse iteration (``for row, column in
    detections``) deliberately does not match: the iterable name is not
    in ``MATRIX_COLLECTIONS``.
    """
    if not isinstance(node, ast.For):
        return False
    target = node.target
    names = []
    if isinstance(target, ast.Name):
        names = [target.id]
    elif isinstance(target, ast.Tuple):
        names = [e.id for e in target.elts if isinstance(e, ast.Name)]
    if "row" not in names:
        return False
    return _loop_iterable_name(node) in MATRIX_COLLECTIONS


def _loop_iterable_name(node: ast.For) -> str:
    """The bare name a ``for`` iterates, unwrapping ``enumerate``; ``""``
    when the iterable is any other expression."""
    iterable = node.iter
    if (
        isinstance(iterable, ast.Call)
        and isinstance(iterable.func, ast.Name)
        and iterable.func.id == "enumerate"
        and iterable.args
    ):
        iterable = iterable.args[0]
    return iterable.id if isinstance(iterable, ast.Name) else ""


def _pair_enumeration_sites(
    function: ast.AST,
) -> Iterator[ast.For]:
    """Inner loops of same-iterable nested ``for`` pairs inside one
    function (not descending into nested function definitions)."""

    def walk(node: ast.AST, open_names: Tuple[str, ...]) -> Iterator[ast.For]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            names = open_names
            if isinstance(child, ast.For):
                name = _loop_iterable_name(child)
                if name and name not in COLUMN_COLLECTIONS:
                    if name in open_names:
                        yield child
                    names = open_names + (name,)
            yield from walk(child, names)

    yield from walk(function, ())


def check_file(path: Path) -> Iterator[Tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_best_split":
                for inner in ast.walk(node):
                    if _is_argsort(inner):
                        yield inner.lineno, (
                            "np.argsort inside _best_split: the builder "
                            "presorts once at the root and threads the "
                            "order down; per-node sorting is O(n log n) "
                            "per node"
                        )
            lowered = node.name.lower()
            if "block" not in lowered and "pair" not in lowered:
                for site in _pair_enumeration_sites(node):
                    yield site.lineno, (
                        "nested loops over the same iterable enumerate "
                        "all pairs in Python: route the work through "
                        "the blocking machinery or a vectorized "
                        "pairwise kernel"
                    )
        if _is_per_row_loop(node):
            yield node.lineno, (
                "per-row Python loop over a feature matrix: use the "
                "batched/vectorized kernel instead"
            )


def _is_type_of_none(node: ast.AST) -> bool:
    """True for the expression ``type(None)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value is None
    )


def _is_map_type(node: ast.AST) -> bool:
    """True for ``map(type, ...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "map"
        and bool(node.args)
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "type"
    )


def check_type_tables(src_root: Path) -> List[str]:
    """Rule 4: per-cell type tables outside :data:`TYPE_TABLE_HOME`."""
    violations: List[str] = []
    for path in sorted((src_root / "repro").rglob("*.py")):
        if path.relative_to(src_root).as_posix() == TYPE_TABLE_HOME:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Dict)
                and any(_is_type_of_none(key) for key in node.keys)
            ) or _is_map_type(node):
                violations.append(
                    f"{path}:{node.lineno}: per-cell type table: read "
                    f"cell tags from {TYPE_TABLE_HOME}'s ColumnView "
                    "(Table.column_view) instead"
                )
    return violations


def check_tree(src_root: Path) -> List[str]:
    violations: List[str] = []
    for scope in SCOPE:
        for path in sorted((src_root / scope).rglob("*.py")):
            relative = path.relative_to(src_root).as_posix()
            if relative in ALLOWLIST:
                continue
            for lineno, message in check_file(path):
                violations.append(f"{path}:{lineno}: {message}")
    return violations + check_type_tables(src_root)


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
            f"{len(violations)} scalar hot-loop site(s) found",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
