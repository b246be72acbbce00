"""E12 (extension) — the compile-once daemon's hot-cache payoff.

LaminarIR's pitch is paying for queue reasoning once at compile time;
the serve daemon extends "once" across requests and processes.  This
driver starts a daemon on a Unix socket with a cold artifact cache and
measures, for ``filterbank``:

* **cold** — first ``/run`` requests at never-seen cache keys (three
  copies of the benchmark's source that differ by a trailing comment,
  so the cold distribution has more than one sample): frontend + schedule + lower + optimize + codegen +
  ``cc`` + execute, end to end;
* **hot** — subsequent ``/run`` requests at a cached key: one cache
  lookup plus one ``exec`` of the prebuilt binary.

Both phases record per-request latency and report p50/p90/p99, which
``emit(...)`` persists as the ``BENCH_serve.json`` trajectory (and a
ledger record), so serving latency regressions show up in ``python -m
repro history serve``.

Every request's checksum must be bit-exact against the first cold one
(and against the in-process interpreter).  ``--check`` enforces the
PR's acceptance bar: hot throughput >= 10x cold throughput.

Needs a C toolchain; skipped under pytest when none is available.
"""

import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest

from benchmarks.common import emit
from repro.backend.runner import find_compiler
from repro.evaluation import format_table
from repro.obs.metrics import percentile
from repro.suite import benchmark_source

BENCHMARK = "filterbank"
ITERATIONS = 32
HOT_REQUESTS = 25
# A trailing comment changes the source text (hence its sha256 and the
# cache key) without changing the program: three genuinely cold
# compiles of the same benchmark.
COLD_VARIANTS = tuple(f"{benchmark_source(BENCHMARK)}\n/* variant {n} */\n"
                      for n in range(3))


def _timed_run(client, source: str) -> tuple[float, dict]:
    started = time.perf_counter()
    response = client.run(source=source, iterations=ITERATIONS,
                          route="native")
    seconds = time.perf_counter() - started
    assert response.ok, response.text
    return seconds, response.json


def measure() -> dict:
    from repro.cache import ArtifactCache
    from repro.serve import ServeClient, ServeServer

    with tempfile.TemporaryDirectory(prefix="bench_serve_") as tmp:
        server = ServeServer(socket_path=Path(tmp) / "d.sock",
                             cache=ArtifactCache(Path(tmp) / "cache"))
        server.start()
        try:
            client = ServeClient(socket_path=server.socket_path)
            assert client.wait_ready(), "daemon did not come up"

            cold_latencies = []
            checksums = set()
            for source in COLD_VARIANTS:
                seconds, body = _timed_run(client, source)
                assert body["cache_hit"] is False, \
                    "expected a cold compile"
                cold_latencies.append(seconds)
                checksums.add(body["checksum"])

            hot_latencies = []
            for _ in range(HOT_REQUESTS):
                seconds, body = _timed_run(client, COLD_VARIANTS[0])
                assert body["cache_hit"] is True, "expected a cache hit"
                hot_latencies.append(seconds)
                checksums.add(body["checksum"])

            interp = client.run(benchmark=BENCHMARK,
                                iterations=ITERATIONS, route="interp")
            assert interp.ok, interp.text
        finally:
            server.stop()

    assert len(checksums) == 1, \
        "responses diverged across cold variants / hot requests"
    checksum = checksums.pop()
    assert interp.json["checksum"] == checksum, \
        "native route diverged from the interpreter"
    cold_mean = sum(cold_latencies) / len(cold_latencies)
    hot_mean = sum(hot_latencies) / len(hot_latencies)
    cold_rps = 1.0 / cold_mean
    hot_rps = 1.0 / hot_mean
    return {
        "cold_requests": len(cold_latencies),
        "hot_requests": len(hot_latencies),
        "cold_seconds": cold_mean,
        "hot_seconds_per_request": hot_mean,
        "cold_p50_ms": percentile(cold_latencies, 50) * 1e3,
        "cold_p90_ms": percentile(cold_latencies, 90) * 1e3,
        "cold_p99_ms": percentile(cold_latencies, 99) * 1e3,
        "hot_p50_ms": percentile(hot_latencies, 50) * 1e3,
        "hot_p90_ms": percentile(hot_latencies, 90) * 1e3,
        "hot_p99_ms": percentile(hot_latencies, 99) * 1e3,
        "cold_requests_per_second": cold_rps,
        "hot_requests_per_second": hot_rps,
        "speedup": hot_rps / cold_rps,
        "checksum": checksum,
    }


def build_report() -> tuple[str, dict]:
    data = measure()
    rows = [
        ["cold (compile+run)", str(data["cold_requests"]),
         f"{data['cold_p50_ms']:.1f}", f"{data['cold_p90_ms']:.1f}",
         f"{data['cold_p99_ms']:.1f}",
         f"{data['cold_requests_per_second']:.2f}"],
        ["hot (cached binary)", str(data["hot_requests"]),
         f"{data['hot_p50_ms']:.1f}", f"{data['hot_p90_ms']:.1f}",
         f"{data['hot_p99_ms']:.1f}",
         f"{data['hot_requests_per_second']:.2f}"],
    ]
    table = format_table(
        ["request", "n", "p50 ms", "p90 ms", "p99 ms", "requests/s"],
        rows,
        title=f"serve daemon on {BENCHMARK} ({ITERATIONS} iterations, "
              f"checksum {data['checksum']}, bit-exact): "
              f"{data['speedup']:.1f}x hot-over-cold")
    return table, data


def test_serve_hot_cache(benchmark):
    if find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    table, data = build_report()
    emit("serve", table, data)
    # The tentpole's acceptance bar: compiling once must buy at least
    # an order of magnitude in request throughput.
    assert data["speedup"] >= 10.0
    assert data["checksum"] == data["checksum"].lower()
    benchmark(lambda: data["speedup"])


if __name__ == "__main__":
    table, data = build_report()
    print()
    print(table)
    if "--check" in sys.argv:
        if data["speedup"] < 10.0:
            print(f"FAIL: hot/cold speedup {data['speedup']:.1f}x < 10x")
            raise SystemExit(1)
        print(f"OK: hot/cold speedup {data['speedup']:.1f}x >= 10x, "
              "checksums bit-exact")
