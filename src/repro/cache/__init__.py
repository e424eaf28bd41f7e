"""Content-addressed artifact cache for the benchmark's hot artifacts.

See :mod:`repro.cache.keys` for the key scheme and
:mod:`repro.cache.store` for the disk format, atomicity guarantees, and
the process-wide ``current_cache`` hook.
"""

from repro.cache.keys import (
    array_fingerprint,
    artifact_key,
    canonical_cell,
    canonical_config,
    config_fingerprint,
    table_block_fingerprint,
    table_fingerprint,
    table_identity,
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
    "array_fingerprint",
    "artifact_key",
    "cache_scope",
    "canonical_cell",
    "canonical_config",
    "config_fingerprint",
    "current_cache",
    "install_cache",
    "table_block_fingerprint",
    "table_fingerprint",
    "table_identity",
]
