"""The persistent, content-addressed artifact cache.

LaminarIR's premise is that queue reasoning is paid **once at compile
time** — this module makes "once" mean once per *machine*, not once per
process.  Every native build (scheduled program dump, optimized LIR,
generated C, compiled binary) is published under
``.repro/cache/`` (override with ``REPRO_CACHE_DIR``), keyed by the
sha256 of a canonical component dict::

    {
      "spec_sha256":  sha256 of the source text,
      "options":      normalized lowering+opt options key
                      (repro.api.options_fingerprint),
      "backend":      "laminar-c" | "fifo-c",
      "compiler":     "<cc path> <cc --version line>",
      "cflags":       "-O3 -fwrapv -std=gnu11",
      "codegen":      backend codegen_fingerprint(),
    }

Layout::

    <root>/objects/<key[:2]>/<key>/   one entry: meta.json + artifacts
    <root>/tmp/                       in-progress publishes
    <root>/quarantine/                corrupted entries, moved aside

Entries are immutable once published; publish is atomic (write into
``tmp/``, then one ``rename`` into place), so readers never observe a
half-written entry and concurrent publishers of the same key are
harmless — the loser discards its copy.  A byte-size cap (default 512
MiB, ``REPRO_CACHE_MAX_BYTES``) is enforced at publish time by evicting
least-recently-used entries; ``python -m repro cache {stats,gc,clear}``
manages the store from the command line.  Hits, misses, evictions,
publishes and quarantines are counted in the metrics registry
(``cache.*`` — scrapeable via the serve daemon's ``/metrics``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.obs import metrics as obs_metrics

CACHE_ENV = "REPRO_CACHE_DIR"
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
DEFAULT_CACHE_DIR = Path(".repro") / "cache"
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

META_NAME = "meta.json"
LAST_USED_NAME = ".last_used"


class CacheError(Exception):
    """A cache operation failed in a way the caller should hear about."""


def cache_dir() -> Path:
    """The active cache root (not necessarily existing yet)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return DEFAULT_CACHE_DIR


def default_max_bytes() -> int:
    override = os.environ.get(CACHE_MAX_BYTES_ENV)
    if override:
        try:
            return max(0, int(override))
        except ValueError:
            pass
    return DEFAULT_MAX_BYTES


def canonical_components(components: dict) -> str:
    return json.dumps(components, sort_keys=True, separators=(",", ":"))


def artifact_key(components: dict) -> str:
    """sha256 over the canonical JSON of the key components."""
    return hashlib.sha256(
        canonical_components(components).encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """One published cache entry: its key, directory and metadata."""

    key: str
    path: Path
    meta: dict

    def artifact(self, name: str) -> Path:
        return self.path / name

    @property
    def binary(self) -> Path | None:
        name = self.meta.get("binary")
        return self.path / name if name else None

    @property
    def components(self) -> dict:
        return self.meta.get("components", {})


class ArtifactCache:
    """Filesystem-backed artifact store with LRU eviction.

    Thread- and process-safe by construction: entries are immutable,
    publish is one atomic rename, and eviction only removes whole entry
    directories.  All methods are cheap enough for per-request use —
    ``lookup`` is two stats and one small JSON read.
    """

    def __init__(self, root: Path | None = None,
                 max_bytes: int | None = None):
        self.root = Path(root) if root is not None else cache_dir()
        self.max_bytes = max_bytes if max_bytes is not None \
            else default_max_bytes()

    # -- paths ----------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def tmp_dir(self) -> Path:
        return self.root / "tmp"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def entry_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / key

    # -- lookup ---------------------------------------------------------------

    def lookup(self, key: str) -> CacheEntry | None:
        """The entry for ``key``, or ``None`` (counted as hit/miss).

        A directory that exists but fails validation — unreadable
        ``meta.json``, a listed artifact missing — is *quarantined*
        (moved aside, never trusted again) and reported as a miss, so
        one torn write or disk hiccup cannot keep serving garbage.
        """
        path = self.entry_path(key)
        if not path.is_dir():
            obs_metrics.counter("cache.miss").inc()
            return None
        entry = self._load_entry(key, path)
        if entry is None:
            if not path.is_dir():
                # The entry vanished mid-validation: a concurrent gc or
                # LRU eviction (another process, or a `cache gc` racing
                # a live daemon) removed it.  A plain miss, not
                # corruption — the builder will simply republish.
                obs_metrics.counter("cache.miss").inc()
                return None
            self._quarantine(key, path)
            obs_metrics.counter("cache.miss").inc()
            return None
        obs_metrics.counter("cache.hit").inc()
        self._touch(path)
        return entry

    def _load_entry(self, key: str, path: Path) -> CacheEntry | None:
        try:
            meta = json.loads((path / META_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(meta, dict):
            return None
        for name in meta.get("artifacts", []):
            if not (path / name).is_file():
                return None
        return CacheEntry(key=key, path=path, meta=meta)

    def _touch(self, path: Path) -> None:
        try:
            (path / LAST_USED_NAME).touch()
        except OSError:
            pass  # LRU precision is not worth failing a hit

    def _quarantine(self, key: str, path: Path) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / f"{key}-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(path, target)
        except OSError:
            shutil.rmtree(path, ignore_errors=True)
        obs_metrics.counter("cache.corrupt").inc()

    # -- publish --------------------------------------------------------------

    def publish(self, key: str, components: dict,
                artifacts: dict[str, "bytes | str | Path"],
                meta: dict | None = None) -> CacheEntry:
        """Atomically publish one entry; returns the stored entry.

        ``artifacts`` maps entry-relative names to contents (text or
        bytes) or to source :class:`Path`\\ s to copy (permissions
        preserved — that is how the executable bit survives).  Racing
        publishers of the same key are fine: whoever renames first wins
        and the loser adopts the published copy.
        """
        stage = self.tmp_dir / uuid.uuid4().hex
        stage.mkdir(parents=True)
        try:
            names = []
            for name, content in artifacts.items():
                if content is None:
                    continue
                target = stage / name
                if isinstance(content, Path):
                    shutil.copy2(content, target)
                elif isinstance(content, bytes):
                    target.write_bytes(content)
                else:
                    target.write_text(content)
                names.append(name)
            full_meta = dict(meta or {})
            full_meta.update(key=key, components=components,
                             artifacts=sorted(names),
                             created=time.time())
            (stage / META_NAME).write_text(
                json.dumps(full_meta, indent=1, sort_keys=True) + "\n")
            # Crash safety: the rename must not become durable before
            # the entry's contents do, or a power cut could publish a
            # directory of empty files.  Data first, then the rename's
            # parent directory below.
            for name in [*names, META_NAME]:
                _fsync_path(stage / name)
            _fsync_path(stage)
            path = self.entry_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(stage, path)
            except OSError:
                # Lost the publish race (or a corrupt dir squats on the
                # key): adopt whatever is there if it validates.
                shutil.rmtree(stage, ignore_errors=True)
                entry = self._load_entry(key, path)
                if entry is not None:
                    return entry
                raise CacheError(
                    f"cache entry {key[:12]} exists but does not "
                    "validate; run `python -m repro cache gc`")
        except BaseException:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        _fsync_path(path.parent)
        obs_metrics.counter("cache.publish").inc()
        if self.max_bytes:
            self.gc(self.max_bytes, protect=key)
        return CacheEntry(key=key, path=path, meta=full_meta)

    # -- maintenance ----------------------------------------------------------

    def _entries(self) -> list[tuple[float, str, Path, int]]:
        """(last_used, key, path, bytes) per entry, least recent first.

        Tolerates entries (and whole shards) vanishing mid-walk: a
        concurrent ``cache gc`` / eviction racing a live daemon must
        degrade to "that entry no longer exists", never to ENOENT.
        """
        out = []
        for shard in _safe_iterdir(self.objects_dir):
            if not shard.is_dir():
                continue
            for path in _safe_iterdir(shard):
                if not path.is_dir():
                    continue
                stamp = _last_used(path)
                out.append((stamp, path.name, path, _dir_bytes(path)))
        out.sort(key=lambda item: (item[0], item[1]))
        return out

    def size(self) -> tuple[int, int]:
        """``(entries, bytes)`` without reading any ``meta.json`` —
        cheap enough for every ``/healthz`` probe."""
        entries = self._entries()
        return len(entries), sum(size for *_rest, size in entries)

    def stats(self) -> dict:
        """Filesystem-derived store statistics plus in-process counters."""
        entries = self._entries()
        backends: dict[str, int] = {}
        for _stamp, key, path, _size in entries:
            entry = self._load_entry(key, path)
            backend = (entry.components.get("backend", "?")
                       if entry else "corrupt")
            backends[backend] = backends.get(backend, 0) + 1
        registry = obs_metrics.registry().as_dict()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for *_rest, size in entries),
            "max_bytes": self.max_bytes,
            "backends": backends,
            "quarantined": len(_safe_iterdir(self.quarantine_dir)),
            "counters": {name: value
                         for name, value in registry.items()
                         if name.startswith("cache.")},
        }

    def gc(self, max_bytes: int | None = None,
           protect: str | None = None) -> dict:
        """Evict least-recently-used entries until ≤ ``max_bytes``.

        ``protect`` names one key never evicted (the entry just
        published).  Staging dirs under ``tmp/`` are left alone: they
        may be other threads' or processes' publishes in flight, and
        :meth:`scrub` at daemon start owns the abandoned ones.  Returns
        ``{"evicted": n, "bytes": remaining, "entries": remaining}``.
        """
        if max_bytes is None:
            max_bytes = self.max_bytes
        entries = self._entries()
        total = sum(size for *_rest, size in entries)
        evicted = 0
        for _stamp, key, path, size in entries:
            if total <= max_bytes:
                break
            if key == protect:
                continue
            shutil.rmtree(path, ignore_errors=True)
            total -= size
            evicted += 1
            obs_metrics.counter("cache.evict").inc()
        return {"evicted": evicted, "bytes": total,
                "entries": len(entries) - evicted}

    def scrub(self) -> dict:
        """Startup integrity pass: quarantine partial publishes.

        Stage directories left under ``tmp/`` are the footprint of a
        process that died mid-publish; entry directories that fail
        validation are torn writes that landed before their fsync.
        Both are moved aside so the store starts clean — the serve
        daemon runs this before accepting its first request — and
        counted (``cache.stale_tmp``, ``cache.corrupt``).  Returns
        ``{"stale_tmp": n, "quarantined": n}``.
        """
        stale = 0
        for leftover in _safe_iterdir(self.tmp_dir):
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / f"tmp-{leftover.name}"
            try:
                os.rename(leftover, target)
            except OSError:
                shutil.rmtree(leftover, ignore_errors=True)
            obs_metrics.counter("cache.stale_tmp").inc()
            stale += 1
        corrupt = 0
        for _stamp, key, path, _size in self._entries():
            if self._load_entry(key, path) is None and path.is_dir():
                self._quarantine(key, path)
                corrupt += 1
        return {"stale_tmp": stale, "quarantined": corrupt}

    def clear(self) -> int:
        """Remove every entry (and staging/quarantine debris)."""
        count = len(self._entries())
        for sub in (self.objects_dir, self.tmp_dir, self.quarantine_dir):
            shutil.rmtree(sub, ignore_errors=True)
        return count


def _safe_iterdir(path: Path) -> list[Path]:
    """Sorted children of ``path``; a vanished directory is just empty."""
    try:
        return sorted(path.iterdir())
    except OSError:
        return []


def _fsync_path(path: Path) -> None:
    """Best-effort fsync of a file or directory (crash durability)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _last_used(path: Path) -> float:
    for name in (LAST_USED_NAME, META_NAME):
        try:
            return (path / name).stat().st_mtime
        except OSError:
            continue
    return 0.0


def _dir_bytes(path: Path) -> int:
    total = 0
    try:
        for entry in path.iterdir():
            try:
                if entry.is_file():
                    total += entry.stat().st_size
            except OSError:
                continue
    except OSError:
        pass
    return total
