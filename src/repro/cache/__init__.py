"""Compile-once: the persistent, content-addressed artifact cache.

See :mod:`repro.cache.store` for the on-disk layout and key anatomy,
:mod:`repro.cache.service` for the key and build helpers, and
``docs/SERVING.md`` for the full story (the serve daemon is its main
consumer).
"""

from repro.cache.store import (ArtifactCache, CacheEntry, CacheError,
                               artifact_key, cache_dir, default_max_bytes)
from repro.cache.service import (BACKENDS, build_native,
                                 codegen_fingerprint, native_key)

__all__ = [
    "ArtifactCache", "BACKENDS", "CacheEntry", "CacheError",
    "artifact_key", "build_native", "cache_dir", "codegen_fingerprint",
    "default_max_bytes", "native_key",
]
