#!/usr/bin/env python
"""Lint: the cache has one invalidation rule, written in one place.

``repro.cache.keys.artifact_key`` names the digest of the package's
sources and numpy's version in every key, so an edit to any ``repro``
source retires every entry of every kind.  A key that names them
itself beside that would be a second rule, and code that reads them
for anything else would not be covered by it.

This script walks ``src/repro`` and reports every line outside
``repro/cache/keys.py`` that names ``source_digest`` or numpy's
``__version__`` (as ``np.__version__`` or ``numpy.__version__``),
comments and docstrings included.

Usage::

    python tools/check_memo_keys.py [src-root]

Exit status 0 means clean; 1 means violations (printed one per line
as ``path:lineno: message``); 2 means the src root is not a directory.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List

#: The one module that may name them.
KEYS = Path("repro/cache/keys.py")

_NAMED = re.compile(r"\bsource_digest\b|\b(?:np|numpy)\s*\.\s*__version__\b")


def check_tree(src_root: Path) -> List[str]:
    violations = []
    for path in sorted((src_root / "repro").rglob("*.py")):
        if path.relative_to(src_root) == KEYS:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = _NAMED.search(line)
            if match:
                violations.append(
                    f"{path}:{lineno}: names {match.group(0)!r}; only "
                    "repro.cache.keys.artifact_key puts the code's "
                    "identity into a cache key"
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
            f"{len(violations)} line(s) name the code's identity outside "
            "repro/cache/keys.py",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
