"""Compile-once helpers: build-or-reuse native artifacts via the cache.

The glue between :class:`repro.api.CompiledStream`, the C backends, the
hardened native runner and the persistent :class:`ArtifactCache`:

* :func:`native_key` — the full cache-key component dict for one
  (stream, backend, options, toolchain) combination, plus its digest;
* :func:`build_native` — unconditionally generate + compile and publish
  the artifact bundle (generated C, optimized LIR dump, schedule stats,
  binary);
* :func:`ensure_native` — lookup-or-build;
* :func:`run_native_cached` — execute the (possibly cached) binary.

The serve daemon layers in-flight deduplication on top of these; the
CLI and benchmarks call them directly.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.backend import fifo_c as fifo_backend
from repro.backend import laminar_c as laminar_backend
from repro.backend import runner
from repro.cache.store import ArtifactCache, CacheEntry, artifact_key
from repro.obs import trace

BACKENDS = ("laminar-c", "fifo-c")

CODE_NAME = "prog.c"
BINARY_NAME = "prog"
LIR_NAME = "lir.txt"
SCHEDULE_NAME = "schedule.json"


def codegen_fingerprint(backend: str) -> str:
    if backend == "laminar-c":
        return laminar_backend.codegen_fingerprint()
    if backend == "fifo-c":
        return fifo_backend.codegen_fingerprint()
    raise ValueError(f"unknown backend {backend!r}; expected one of "
                     f"{', '.join(BACKENDS)}")


def native_key(stream, *, backend: str = "laminar-c", lowering=None,
               opt=None,
               cflags: tuple[str, ...] = runner.DEFAULT_CFLAGS
               ) -> tuple[str, dict]:
    """``(key digest, components)`` for one native artifact.

    The components are exactly what the module docstring of
    :mod:`repro.cache.store` lists: spec hash, normalized options key,
    backend, compiler fingerprint + flags, codegen fingerprint.
    """
    from repro.api import options_fingerprint

    components = {
        "spec_sha256": stream.source_hash,
        "options": options_fingerprint(lowering, opt),
        "backend": backend,
        "compiler": runner.compiler_fingerprint() or "none",
        "cflags": " ".join(cflags),
        "codegen": codegen_fingerprint(backend),
    }
    return artifact_key(components), components


def build_native(stream, key: str, components: dict, *,
                 backend: str = "laminar-c", lowering=None, opt=None,
                 cflags: tuple[str, ...] = runner.DEFAULT_CFLAGS,
                 cache: ArtifactCache | None = None) -> CacheEntry:
    """Generate, compile and publish one artifact bundle (a cache miss).

    Raises :class:`repro.backend.runner.NativeCompileError` when the
    toolchain is missing or rejects the code — nothing is published in
    that case.
    """
    cache = cache or ArtifactCache()
    with trace.span("cache.build", key=key[:12], backend=backend,
                    stream=stream.name) as span:
        started = time.monotonic()
        lir_dump = None
        if backend == "laminar-c":
            lowered = stream.lower(lowering, opt)
            code = laminar_backend.generate_laminar_c(lowered.program)
            lir_dump = lowered.program.dump()
        else:
            code = stream.fifo_c()
        workdir = Path(tempfile.mkdtemp(prefix="repro_cache_build_"))
        try:
            binary = runner.compile_c(code, workdir=workdir,
                                      cflags=cflags, name=BINARY_NAME)
            entry = cache.publish(
                key, components,
                artifacts={CODE_NAME: code, BINARY_NAME: binary,
                           LIR_NAME: lir_dump,
                           SCHEDULE_NAME: json.dumps(stream.stats(),
                                                     sort_keys=True)},
                meta={"stream": stream.name, "binary": BINARY_NAME,
                      "build_seconds": time.monotonic() - started})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        span.annotate(build_seconds=entry.meta.get("build_seconds"))
    return entry


def ensure_native(stream, *, backend: str = "laminar-c", lowering=None,
                  opt=None,
                  cflags: tuple[str, ...] = runner.DEFAULT_CFLAGS,
                  cache: ArtifactCache | None = None
                  ) -> tuple[CacheEntry, bool]:
    """Lookup-or-build; returns ``(entry, hit)``."""
    cache = cache or ArtifactCache()
    key, components = native_key(stream, backend=backend,
                                 lowering=lowering, opt=opt, cflags=cflags)
    entry = cache.lookup(key)
    if entry is not None:
        return entry, True
    return build_native(stream, key, components, backend=backend,
                        lowering=lowering, opt=opt, cflags=cflags,
                        cache=cache), False


def run_native_cached(stream, iterations: int, *,
                      backend: str = "laminar-c", lowering=None, opt=None,
                      print_outputs: bool = False,
                      cflags: tuple[str, ...] = runner.DEFAULT_CFLAGS,
                      cache: ArtifactCache | None = None
                      ) -> tuple[runner.NativeRun, bool]:
    """Run a (possibly cached) native binary; returns ``(run, hit)``.

    The hot path touches no compiler and no codegen: one cache lookup,
    then :func:`repro.backend.runner.run_binary` on the prebuilt binary.
    """
    entry, hit = ensure_native(stream, backend=backend, lowering=lowering,
                               opt=opt, cflags=cflags, cache=cache)
    run = runner.run_binary(entry.binary, iterations,
                            print_outputs=print_outputs)
    return run, hit
