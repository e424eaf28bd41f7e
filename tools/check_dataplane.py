#!/usr/bin/env python
"""Lint: keep the shared-memory data plane leak-free and zero-copy.

Three invariants, all easy to break silently in review:

1. **Segment lifecycle**: ``SharedMemory(create=True)`` allocates a
   named ``/dev/shm`` file that outlives the process unless someone
   calls ``unlink()``.  Creation is therefore confined to the data
   plane's lifecycle modules (``LIFECYCLE_MODULES``), which pair every
   create with an ``unlink`` in their teardown path; a create anywhere
   else has no owner and leaks on the first crash.  A lifecycle module
   must itself contain an ``.unlink(`` call, or it is flagged too.

2. **Zero-copy, plan-scoped dispatch**: the whole point of the data
   plane is that ``plan.shared`` (with its embedded tables) never rides
   the pickle stream per worker or per task.  In the dispatch hot path
   (``DISPATCH_MODULES``), the ``initargs=`` of a pool constructor and
   the iterable handed to ``imap``/``imap_unordered``/``map_async``
   must not reference ``shared`` or ``plan.shared`` -- only the packed
   shipment (segment names + small shell) may cross.  And since a pool
   outlives the plan it started on, ``initargs=`` may not reference
   anything plan-scoped either (``PLAN_SCOPED_NAMES``: the plan, its
   adapter, its shipment) -- it would be stale for every later plan;
   plan-scoped data rides the per-plan task header.

3. **Memo hits resolve in the driver**: a stage adapter's ``lookup``
   hook is called only by ``execute_plan`` (``LOOKUP_CALLER``), next to
   the checkpoint loads.  A lookup anywhere else -- inside a unit, in a
   worker -- would read entries the driver already read, or dispatch a
   hit to a pool.  Flagged: ``<...adapter>.lookup(...)`` outside that
   function, and any direct call of a function some ``StageAdapter(...)``
   registers as its ``lookup=``.

Intentional exceptions live in ``ALLOWLIST`` as ``(module, lineno-name)``
entries with the reason recorded next to each.  The tier-1 suite asserts
``check_tree`` is clean (see ``tests/test_lint.py``).

Usage::

    python tools/check_dataplane.py [src-root]

Exit status 0 means clean; 1 means violations (printed one per line as
``path:lineno: message``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Modules allowed to create shared-memory segments; each must pair the
#: create with an unlink-bearing teardown path.
LIFECYCLE_MODULES = {
    "repro/dataplane/segments.py",
}

#: Modules whose pool dispatch is held to the zero-copy contract.
DISPATCH_MODULES = {
    "repro/parallel/engine.py",
}

#: Names of plan-scoped data, which must not ride a pool's initargs.
PLAN_SCOPED_NAMES = {"plan", "adapter", "shipment"}

#: Pool methods whose iterable is a per-task pickle stream.
DISPATCH_METHODS = {"imap", "imap_unordered", "map", "map_async", "starmap"}

#: (module, top-level function) of the one caller of adapter lookups.
LOOKUP_CALLER = ("repro/parallel/engine.py", "execute_plan")

# (module, function-name) pairs allowed to break the rules.  Each entry
# must document why.
ALLOWLIST: set = set()


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _is_shared_memory_create(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name != "SharedMemory":
        return False
    for keyword in call.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _references(node: ast.AST, names) -> bool:
    """True when an expression mentions one of ``names`` as a name or
    an attribute (``shared`` / ``*.shared``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in names:
            return True
    return False


def _has_unlink(tree: ast.AST) -> bool:
    for call in _calls(tree):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "unlink":
            return True
    return False


def _iter_sources(src_root: Path) -> Iterator[Tuple[Path, str]]:
    for path in sorted(src_root.rglob("*.py")):
        yield path, path.relative_to(src_root).as_posix()


def check_creates(src_root: Path) -> List[str]:
    """Rule 1: segment creation confined to unlink-paired lifecycle."""
    violations: List[str] = []
    for path, relative in _iter_sources(src_root):
        tree = ast.parse(path.read_text(), filename=str(path))
        creates = [
            call for call in _calls(tree) if _is_shared_memory_create(call)
        ]
        if not creates:
            continue
        if relative not in LIFECYCLE_MODULES:
            for call in creates:
                violations.append(
                    f"{path}:{call.lineno}: SharedMemory(create=True) "
                    f"outside the lifecycle modules -- segments created "
                    f"here have no unlink owner and leak on crash; "
                    f"allocate through repro.dataplane.segments"
                )
        elif not _has_unlink(tree):
            violations.append(
                f"{path}:{creates[0].lineno}: lifecycle module creates "
                f"segments but never calls unlink(); every create needs "
                f"a teardown path"
            )
    return violations


def _name_bindings(tree: ast.AST) -> dict:
    """Last simple ``name = expr`` binding per name, for one-hop lookup."""
    bindings: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                bindings[target.id] = node.value
    return bindings


def check_dispatch(src_root: Path) -> List[str]:
    """Rule 2: no ``shared`` context in initargs / dispatch iterables,
    no plan-scoped data in initargs."""
    violations: List[str] = []
    for relative in sorted(DISPATCH_MODULES):
        path = src_root / relative
        if not path.exists():
            violations.append(f"{path}:0: declared dispatch module missing")
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bindings = _name_bindings(tree)

        def _expression_ships(node: ast.AST, names) -> bool:
            if _references(node, names):
                return True
            # One hop through a simple local binding: the iterable is
            # often built first (``units = [... shared ...]``) and
            # dispatched by name.
            if isinstance(node, ast.Name) and node.id in bindings:
                return _references(bindings[node.id], names)
            return False

        for call in _calls(tree):
            for keyword in call.keywords:
                if keyword.arg != "initargs":
                    continue
                if _expression_ships(keyword.value, {"shared"}):
                    violations.append(
                        f"{path}:{keyword.value.lineno}: initargs "
                        f"references the shared context; send the packed "
                        f"shipment in the per-plan task header instead "
                        f"(tables ride segments, not the pickle stream)"
                    )
                elif _expression_ships(keyword.value, PLAN_SCOPED_NAMES):
                    violations.append(
                        f"{path}:{keyword.value.lineno}: initargs "
                        f"references plan-scoped data; the pool outlives "
                        f"the plan, so send it in the per-plan task "
                        f"header instead"
                    )
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in DISPATCH_METHODS
                and len(call.args) >= 2
                and _expression_ships(call.args[1], {"shared"})
            ):
                violations.append(
                    f"{path}:{call.args[1].lineno}: {func.attr} iterable "
                    f"references the shared context; each task would "
                    f"re-pickle it -- dispatch unit specs only"
                )
    return violations


def _calls_by_function(tree: ast.Module) -> Iterator[Tuple[str, ast.Call]]:
    """Every call with the top-level function it sits in ('' outside)."""
    for node in tree.body:
        owner = (
            node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else ""
        )
        for call in _calls(node):
            yield owner, call


def check_lookups(src_root: Path) -> List[str]:
    """Rule 3: adapter ``lookup`` hooks are called by the driver only."""
    trees = [
        (path, relative, ast.parse(path.read_text(), filename=str(path)))
        for path, relative in _iter_sources(src_root)
    ]
    hooks = {
        keyword.value.id
        for _, _, tree in trees
        for call in _calls(tree)
        if isinstance(call.func, ast.Name) and call.func.id == "StageAdapter"
        for keyword in call.keywords
        if keyword.arg == "lookup" and isinstance(keyword.value, ast.Name)
    }
    violations: List[str] = []
    for path, relative, tree in trees:
        for owner, call in _calls_by_function(tree):
            func = call.func
            if isinstance(func, ast.Name) and func.id in hooks:
                violations.append(
                    f"{path}:{call.lineno}: {func.id}() is a stage "
                    f"adapter's lookup hook; only execute_plan calls it, "
                    f"through the adapter"
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "lookup"
                and _references(func.value, {"adapter"})
                and (relative, owner) != LOOKUP_CALLER
            ):
                violations.append(
                    f"{path}:{call.lineno}: adapter lookup outside "
                    f"execute_plan; memo hits resolve in the driver, next "
                    f"to the checkpoint loads"
                )
    return violations


def check_tree(src_root: Path) -> List[str]:
    return (
        check_creates(src_root)
        + check_dispatch(src_root)
        + check_lookups(src_root)
    )


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
            f"{len(violations)} data-plane violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
