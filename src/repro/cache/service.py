"""Compile-once helpers: key and build native artifacts for the cache.

The glue between :class:`repro.api.CompiledStream`, the C backends, the
hardened native runner and the persistent :class:`ArtifactCache`:

* :func:`native_key` — the full cache-key component dict for one
  (stream, backend, options, toolchain) combination, plus its digest;
* :func:`build_native` — unconditionally generate + compile and publish
  the artifact bundle (generated C, optimized LIR dump, schedule stats,
  binary).

Artifacts are built with :data:`repro.backend.runner.DEFAULT_CFLAGS`.
The one lookup-or-build is the serve daemon's ``_ensure_entry``, which
adds in-flight deduplication and a circuit breaker around these two.
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
from repro.lir import collector_paused
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
               opt=None) -> tuple[str, dict]:
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
        "cflags": " ".join(runner.DEFAULT_CFLAGS),
        "codegen": codegen_fingerprint(backend),
    }
    return artifact_key(components), components


def build_native(stream, key: str, components: dict, *,
                 backend: str = "laminar-c", lowering=None, opt=None,
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
            with collector_paused():
                lowered = stream.lower(lowering, opt)
                code = laminar_backend.generate_laminar_c(lowered.program)
                lir_dump = lowered.program.dump()
        else:
            code = stream.fifo_c()
        workdir = Path(tempfile.mkdtemp(prefix="repro_cache_build_"))
        try:
            binary = runner.compile_c(code, workdir=workdir,
                                      name=BINARY_NAME)
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
