"""Content-addressed artifact cache for the benchmark's hot artifacts.

See :mod:`repro.cache.keys` for the key scheme and
:mod:`repro.cache.store` for the disk format, atomicity guarantees, and
the process-wide ``current_cache`` hook.
"""

from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    array_fingerprint,
    artifact_key,
    canonical_cell,
    config_fingerprint,
    table_block_fingerprint,
    table_fingerprint,
)
from repro.cache.store import (
    ArtifactCache,
    CacheEntry,
    cache_scope,
    current_cache,
    install_cache,
)

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CACHE_SCHEMA_VERSION",
    "array_fingerprint",
    "artifact_key",
    "cache_scope",
    "canonical_cell",
    "config_fingerprint",
    "current_cache",
    "install_cache",
    "table_block_fingerprint",
    "table_fingerprint",
]
