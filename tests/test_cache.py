"""The persistent artifact cache: keys, publish/lookup, GC, quarantine."""

from __future__ import annotations

import json
import os
import stat
import threading

import pytest

from repro import OptOptions, compile_source
from repro.api import options_fingerprint
from repro.cache import (ArtifactCache, artifact_key, cache_dir,
                         codegen_fingerprint, ensure_native, native_key,
                         run_native_cached)
from repro.cache.store import LAST_USED_NAME, META_NAME
from repro.lir import LoweringOptions

from .conftest import TINY_PROGRAM, requires_cc


def _components(n: int = 0) -> dict:
    return {"spec_sha256": f"spec{n}", "options": "()",
            "backend": "laminar-c", "compiler": "cc 1.0",
            "cflags": "-O3", "codegen": "laminar-c/1+abc"}


class TestKeys:
    def test_key_is_deterministic(self):
        assert artifact_key(_components()) == artifact_key(_components())

    def test_key_ignores_dict_order(self):
        shuffled = dict(reversed(list(_components().items())))
        assert artifact_key(shuffled) == artifact_key(_components())

    def test_key_changes_with_any_component(self):
        base = artifact_key(_components())
        for field in _components():
            bumped = _components()
            bumped[field] = bumped[field] + "x"
            assert artifact_key(bumped) != base, field

    def test_options_fingerprint_distinguishes_pipelines(self):
        default = options_fingerprint()
        explicit = options_fingerprint(
            None, OptOptions(pipeline=("constant_folding", "cse")))
        none = options_fingerprint(None, OptOptions(pipeline=()))
        assert len({default, explicit, none}) == 3

    def test_options_fingerprint_accepts_list_pipeline(self):
        # The satellite bug: list-valued options used to raise
        # "unhashable type" in _options_key.
        opt = OptOptions(pipeline=["fold", "cse"])
        assert options_fingerprint(None, opt) == options_fingerprint(
            None, OptOptions(pipeline=("constant_folding", "cse")))

    def test_native_key_components(self, tiny_stream):
        key, components = native_key(tiny_stream)
        assert key == artifact_key(components)
        assert components["spec_sha256"] == tiny_stream.source_hash
        assert components["backend"] == "laminar-c"
        assert components["codegen"] == codegen_fingerprint("laminar-c")

    def test_codegen_fingerprints_differ_per_backend(self):
        assert codegen_fingerprint("laminar-c") != \
            codegen_fingerprint("fifo-c")
        with pytest.raises(ValueError):
            codegen_fingerprint("jit")

    def test_codegen_version_bump_invalidates(self, tiny_stream,
                                              tmp_path, monkeypatch):
        """A CODEGEN_VERSION bump must *miss* (never corrupt or reuse):
        the stale artifact stays intact under its old key and becomes
        GC-eligible, while the new generator gets a fresh slot."""
        import repro.backend.laminar_c as laminar_c

        cache = ArtifactCache(tmp_path, max_bytes=0)
        monkeypatch.setattr(laminar_c, "CODEGEN_VERSION", 1)
        old_key, old_components = native_key(tiny_stream)
        cache.publish(old_key, old_components,
                      {"prog.c": "/* built by codegen v1 */"})

        monkeypatch.setattr(laminar_c, "CODEGEN_VERSION", 2)
        new_key, new_components = native_key(tiny_stream)
        assert new_key != old_key
        assert new_components["codegen"] != old_components["codegen"]
        # New generator misses; the old bundle is untouched.
        assert cache.lookup(new_key) is None
        stale = cache.lookup(old_key)
        assert stale is not None
        assert stale.artifact("prog.c").read_text() \
            == "/* built by codegen v1 */"
        # The orphaned entry is ordinary LRU fodder once a new build
        # is published and protected.
        cache.publish(new_key, new_components,
                      {"prog.c": "/* built by codegen v2 */"})
        result = cache.gc(max_bytes=0, protect=new_key)
        assert result["evicted"] >= 1
        assert cache.lookup(old_key) is None
        assert cache.lookup(new_key) is not None

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert cache_dir() == tmp_path / "alt"
        assert ArtifactCache().root == tmp_path / "alt"


class TestStore:
    def test_miss_then_publish_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = artifact_key(_components())
        assert cache.lookup(key) is None
        cache.publish(key, _components(), {"prog.c": "int main;"})
        entry = cache.lookup(key)
        assert entry is not None
        assert entry.artifact("prog.c").read_text() == "int main;"
        assert entry.components == _components()

    def test_publish_is_atomic_no_partials_visible(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = artifact_key(_components())
        cache.publish(key, _components(), {"a.txt": "a", "b.txt": "b"})
        # Everything under objects/ validates; tmp/ holds no leftovers.
        assert not list(cache.tmp_dir.iterdir()) \
            if cache.tmp_dir.is_dir() else True
        entry = cache.lookup(key)
        assert sorted(entry.meta["artifacts"]) == [
            "a.txt", "b.txt"]

    def test_publish_race_loser_adopts_winner(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = artifact_key(_components())
        first = cache.publish(key, _components(), {"x": "winner"})
        second = cache.publish(key, _components(), {"x": "loser"})
        assert second.artifact("x").read_text() == "winner"
        assert first.path == second.path

    def test_path_artifact_preserves_exec_bit(self, tmp_path):
        source = tmp_path / "bin"
        source.write_bytes(b"\x7fELF")
        source.chmod(0o755)
        cache = ArtifactCache(tmp_path / "cache")
        key = artifact_key(_components())
        entry = cache.publish(key, _components(), {"prog": source},
                              meta={"binary": "prog"})
        assert entry.binary.read_bytes() == b"\x7fELF"
        assert stat.S_IMODE(entry.binary.stat().st_mode) & 0o111

    def test_corrupt_meta_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = artifact_key(_components())
        path = cache.publish(key, _components(), {"a": "a"}).path
        (path / META_NAME).write_text("{not json")
        assert cache.lookup(key) is None
        assert not path.exists()
        assert list(cache.quarantine_dir.iterdir())
        # The key is usable again after re-publish.
        cache.publish(key, _components(), {"a": "a"})
        assert cache.lookup(key) is not None

    def test_missing_listed_artifact_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = artifact_key(_components())
        path = cache.publish(key, _components(),
                             {"a": "a", "b": "b"}).path
        (path / "b").unlink()
        assert cache.lookup(key) is None
        assert not path.exists()

    def test_gc_evicts_lru_down_to_cap(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=0)  # manual gc only
        cache.max_bytes = 0
        keys = []
        for n in range(4):
            key = artifact_key(_components(n))
            cache.publish(key, _components(n), {"blob": "x" * 1000})
            keys.append(key)
        # Pin distinct last-used stamps: entry 0 most recent, then 3,
        # 2, 1 (publish order is within mtime granularity otherwise).
        for age, key in enumerate([keys[0], keys[3], keys[2], keys[1]]):
            meta = cache.entry_path(key) / META_NAME
            stamp = meta.stat().st_mtime - 10 * age
            os.utime(meta, times=(stamp, stamp))
            last_used = cache.entry_path(key) / LAST_USED_NAME
            if last_used.exists():
                os.utime(last_used, times=(stamp, stamp))
        result = cache.gc(max_bytes=2500)
        assert result["evicted"] >= 1
        assert result["bytes"] <= 2500
        assert cache.lookup(keys[0]) is not None  # MRU survived

    def test_publish_enforces_size_cap(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=1500)
        for n in range(3):
            cache.publish(artifact_key(_components(n)), _components(n),
                          {"blob": "x" * 1000})
        stats = cache.stats()
        assert stats["bytes"] <= 1500
        # The just-published entry is protected from its own gc.
        assert cache.lookup(artifact_key(_components(2))) is not None

    def test_publish_gc_spares_concurrent_stage(self, tmp_path,
                                                monkeypatch):
        # Thread "b" stops with its stage dir written but not renamed;
        # thread "a" publishes (and so gcs, under a tiny cap) meanwhile.
        from repro.cache import store
        cache = ArtifactCache(tmp_path, max_bytes=1)
        barrier = threading.Barrier(2, timeout=30)
        fsync = store._fsync_path
        paused = []

        def fsync_then_wait(path):
            fsync(path)
            if threading.current_thread().name == "b" and not paused:
                paused.append(path)
                barrier.wait()  # b's stage exists
                barrier.wait()  # a's publish and gc are done

        monkeypatch.setattr(store, "_fsync_path", fsync_then_wait)
        errors = []

        def publish(n):
            try:
                cache.publish(artifact_key(_components(n)), _components(n),
                              {"blob": "x" * 100})
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def first():
            barrier.wait()
            publish(0)
            barrier.wait()

        threads = [threading.Thread(target=first, name="a"),
                   threading.Thread(target=publish, args=(1,), name="b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert paused and not errors
        assert cache.lookup(artifact_key(_components(1))) is not None

    def test_clear_removes_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.publish(artifact_key(_components()), _components(),
                      {"a": "a"})
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_stats_shape(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.publish(artifact_key(_components()), _components(),
                      {"a": "a"})
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["backends"] == {"laminar-c": 1}
        assert stats["bytes"] > 0
        assert json.dumps(stats)  # JSON-serializable for the CLI


@requires_cc
class TestService:
    def test_build_then_hit_bit_exact(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stream = compile_source(TINY_PROGRAM, "tiny.str")
        run_cold, hit_cold = run_native_cached(stream, 16, cache=cache)
        assert hit_cold is False
        run_hot, hit_hot = run_native_cached(stream, 16, cache=cache)
        assert hit_hot is True
        assert run_hot.checksum == run_cold.checksum
        assert run_hot.output_count == run_cold.output_count
        # Bit-exact against the interpreter route too.
        from repro.backend.common import checksum_outputs
        interp = stream.run_laminar(16)
        assert checksum_outputs(interp.outputs) == run_cold.checksum

    def test_entry_carries_full_bundle(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stream = compile_source(TINY_PROGRAM, "tiny.str")
        entry, hit = ensure_native(stream, cache=cache)
        assert hit is False
        assert entry.artifact("prog.c").is_file()
        assert entry.artifact("lir.txt").is_file()
        assert entry.binary.is_file()
        schedule = json.loads(entry.artifact("schedule.json").read_text())
        assert schedule == stream.stats()
        assert entry.meta["stream"] == stream.name

    def test_distinct_options_distinct_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stream = compile_source(TINY_PROGRAM, "tiny.str")
        ensure_native(stream, cache=cache)
        entry2, hit2 = ensure_native(stream, opt=OptOptions(pipeline=()),
                                     cache=cache)
        assert hit2 is False
        assert cache.stats()["entries"] == 2

    def test_fifo_backend_cached_too(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stream = compile_source(TINY_PROGRAM, "tiny.str")
        run_a, hit_a = run_native_cached(stream, 8, backend="fifo-c",
                                         cache=cache)
        run_b, hit_b = run_native_cached(stream, 8, backend="fifo-c",
                                         cache=cache)
        assert (hit_a, hit_b) == (False, True)
        assert run_a.checksum == run_b.checksum

    def test_corrupted_binary_rebuilds(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stream = compile_source(TINY_PROGRAM, "tiny.str")
        entry, _hit = ensure_native(stream, cache=cache)
        entry.binary.unlink()  # violates the meta manifest
        entry2, hit2 = ensure_native(stream, cache=cache)
        assert hit2 is False
        assert entry2.binary.is_file()
