"""Disk-backed, content-addressed artifact cache with atomic writes.

One :class:`ArtifactCache` memoizes the benchmark's expensive derived
artifacts -- encoded feature matrices, fitted encoder state, detector
feature blocks -- under content-addressed keys (:mod:`repro.cache.keys`).
Entries are single ``.npz`` files holding named numpy arrays plus one
JSON metadata blob, written atomically: a writer streams into a
process-unique temporary file and ``os.replace``s it into place, so a
reader can never observe a torn entry and a crash mid-write leaves only
ignorable ``*.tmp`` debris.

That write discipline is what makes the cache safe under the process
pool without any locking: concurrent writers of the same key are, by
construction, writing byte-identical content (the key *is* the content
hash of the inputs and configuration), so whichever ``os.replace`` lands
last wins and nothing is lost.  Reads open only finalized files.

Counters (hits / misses / puts / bytes) are tracked on the cache object
and mirrored into the installed telemetry's metrics registry, so cache
behaviour shows up in ``--verbose`` summaries and, via the CLI's
``cache_summary`` event, in the run ledger.

The process-wide *current cache* hook mirrors the telemetry facade:
instrumented code asks :func:`current_cache` and computes from scratch
when the answer is ``None`` -- the zero-cost default.  Worker processes
get the driver's cache re-installed from its picklable :meth:`spec`.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.observability.telemetry import current_telemetry


@dataclass
class CacheEntry:
    """One loaded artifact: named arrays plus a JSON metadata mapping."""

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any] = field(default_factory=dict)


class ArtifactCache:
    """Content-addressed single-directory artifact store.

    Layout: ``<root>/<key[:2]>/<key>.npz`` -- the two-hex-digit shard
    keeps directory listings short on large caches.  Keys are opaque hex
    strings produced by :func:`repro.cache.keys.artifact_key`.
    """

    _tmp_counter = itertools.count()

    def __init__(self, root: str) -> None:
        self.root = str(root)
        Path(self.root).mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Worker transport
    # ------------------------------------------------------------------
    def spec(self) -> Dict[str, Any]:
        """Picklable recipe to rebuild an equivalent cache in a worker."""
        return {"root": self.root}

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "ArtifactCache":
        return cls(spec["root"])

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return Path(self.root) / key[:2] / f"{key}.npz"

    def _tmp_path(self, key: str) -> Path:
        token = next(self._tmp_counter)
        return Path(self.root) / key[:2] / (
            f"{key}.{os.getpid()}.{token}.tmp"
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[CacheEntry]:
        """Load one entry, or None on miss (corrupt entries count as
        misses -- a torn or truncated file must never poison a run)."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
            with np.load(io.BytesIO(raw), allow_pickle=False) as bundle:
                arrays = {
                    name: bundle[name]
                    for name in bundle.files
                    if name != "__meta__"
                }
                meta_blob = bundle["__meta__"] if "__meta__" in bundle.files else None
            meta = (
                json.loads(bytes(meta_blob.tobytes()).decode("utf-8"))
                if meta_blob is not None
                else {}
            )
        except FileNotFoundError:
            self._book_miss()
            return None
        except (OSError, ValueError, KeyError, zipfile.BadZipFile,
                json.JSONDecodeError):
            self.corrupt += 1
            self._count("cache.corrupt")
            self._book_miss()
            return None
        self.hits += 1
        self.bytes_read += len(raw)
        self._count("cache.hits")
        self._count("cache.bytes_read", len(raw))
        return CacheEntry(arrays=arrays, meta=meta)

    def _book_miss(self) -> None:
        self.misses += 1
        self._count("cache.misses")

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Atomically store one entry; returns the bytes written.

        Arrays must have non-object dtypes (``np.load`` runs with
        ``allow_pickle=False`` so a cache file can never execute code).
        """
        payload: Dict[str, np.ndarray] = {}
        for name, array in (arrays or {}).items():
            array = np.asarray(array)
            if array.dtype == object:
                raise ValueError(
                    f"cache array {name!r} has object dtype; encode it "
                    "into the JSON meta instead"
                )
            payload[name] = array
        meta_text = json.dumps(
            dict(meta or {}), sort_keys=True, allow_nan=False
        )
        payload["__meta__"] = np.frombuffer(
            meta_text.encode("utf-8"), dtype=np.uint8
        )
        final = self._path(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(key)
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        blob = buffer.getvalue()
        with open(tmp, "wb") as fh:
            fh.write(blob)
        self._finalize(tmp, final)
        self.puts += 1
        self.bytes_written += len(blob)
        self._count("cache.puts")
        self._count("cache.bytes_written", len(blob))
        return len(blob)

    def _finalize(self, tmp: Path, final: Path) -> None:
        """Atomically publish a finished temporary file.

        A separate method so the chaos suite can inject a kill between
        the temporary write and the publish -- the window in which a real
        worker death would leave debris.
        """
        os.replace(tmp, final)

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "corrupt": self.corrupt,
        }

    def entries(self) -> List[str]:
        """Keys of every finalized entry on disk (sorted)."""
        keys = []
        for path in Path(self.root).glob("*/*.npz"):
            keys.append(path.stem)
        return sorted(keys)

    def debris(self) -> List[str]:
        """Leftover ``*.tmp`` files from writers that died mid-write."""
        return sorted(
            str(p) for p in Path(self.root).glob("*/*.tmp")
        )

    def sweep(self) -> int:
        """Delete write debris; returns the number of files removed.

        Safe to run concurrently with writers only in the trivial sense
        that finalized entries are never touched; callers should sweep
        between runs, not during them.
        """
        removed = 0
        for path in list(Path(self.root).glob("*/*.tmp")):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
        return removed

    def _count(self, name: str, amount: int = 1) -> None:
        telemetry = current_telemetry()
        if telemetry is not None and amount:
            telemetry.count(name, amount)

    def __repr__(self) -> str:
        return f"ArtifactCache(root={self.root!r})"


# ----------------------------------------------------------------------
# The process-wide current-cache hook (mirrors current_telemetry)
# ----------------------------------------------------------------------
_ACTIVE: List[ArtifactCache] = []


def current_cache() -> Optional[ArtifactCache]:
    """The innermost installed cache, or None (compute from scratch)."""
    return _ACTIVE[-1] if _ACTIVE else None


def install_cache(cache: Optional[ArtifactCache]) -> None:
    """Make ``cache`` (None: nothing) the whole process stack.

    For pool workers, which own their stack and reconcile it with every
    plan they serve; a forked worker's inherited stack is replaced.
    """
    _ACTIVE[:] = [] if cache is None else [cache]


@contextmanager
def cache_scope(cache: Optional[ArtifactCache]) -> Iterator[Optional[ArtifactCache]]:
    """Install ``cache`` for the duration of a block; None is a no-op."""
    if cache is None:
        yield None
        return
    _ACTIVE.append(cache)
    try:
        yield cache
    finally:
        _ACTIVE.pop()
