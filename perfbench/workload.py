"""One workload of the repository benchmark, run in a process of its own.

Normally started by ``perfbench/run.py``::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --scratch DIR

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value).
With ``--trace 1`` the layer wrappers of ``layers.py`` are installed and
the program's tracer is on, so the metrics include the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

from repro.backend import runner  # noqa: E402
from repro.backend.common import checksum_outputs  # noqa: E402
from repro.suite import benchmark_names, load_benchmark  # noqa: E402

# suite-native: schedule iterations per program for one timed native
# run.  Each binary runs NATIVE_RUNS times, interleaved with its
# counterpart, and the fastest run counts: on a shared host, noise only
# adds time, in episodes that last seconds.  Each LaminarIR-C binary's
# steady loop takes 15-30 ms per run at the reference speed (2-core
# x86-64 host, gcc 12 -O3); the FIFO-C binary runs the same count,
# 1.1x-11x longer.
NATIVE_RUNS = 2
NATIVE_ITERATIONS = {
    "autocor": 200_000, "beamformer": 75_000, "bitonic_sort": 300_000,
    "channel_vocoder": 65_000, "dct": 60_000, "fft": 200_000,
    "filterbank": 35_000, "fm_radio": 35_000, "lattice": 3_000_000,
    "matrixmult": 200_000, "rate_convert": 450_000, "tde": 150_000,
}
# Schedule iterations of the printed-output check against the FIFO
# interpreter (suite-native) and of the interpreter runs (scale-lower).
PRINT_ITERATIONS = 2
SCALE_CHECK_ITERATIONS = 1
# Seconds one repetition takes at the reference speed.
SUITE_REP_SECONDS = 18.0
SCALE_REP_SECONDS = 7.5

# scale-lower: the compile-cost sweep's programs at its largest scale.
SCALE_PROGRAMS = ("fft", "bitonic_sort", "matrixmult", "autocor",
                  "filterbank")
SCALE = 4

# serve-warm: closed-loop clients, the daemon's pool workers (its
# default), iterations per request (both routes) and the share of
# requests that take the native route.  One client: with two, client,
# daemon and both workers contend for the two cores, and the latency
# measured the scheduler more than the daemon.
SERVE_CLIENTS = 1
POOL_WORKERS = 2
SERVE_ITERATIONS = 4
NATIVE_SHARE = 0.75
# Length of the windows the timed region is cut into for medians.
SERVE_WINDOW = 1.0
# Direct calls per layer in the traced serve-warm run.
DIRECT_ROUNDS = 5

# /metrics counter families read before and after the timed region.
SERVE_COUNTERS = {
    "cache.hits": "repro_cache_hit_total",
    "cache.misses": "repro_cache_miss_total",
    "serve.pool.jobs": "repro_serve_pool_jobs_total",
    "serve.pool.retries": "repro_serve_pool_retry_total",
    "serve.pool.crashes": "repro_serve_pool_crash_total",
    "serve.shed": "repro_serve_admission_rejected_total",
}


class Mismatch(Exception):
    """An output check failed."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


class Context:
    """What every workload step shares: seed, scratch dir, checks."""

    def __init__(self, seed: int, scratch: Path, traced: bool):
        self.seed = seed
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.traced = traced
        self.rec = layers.Recorder()
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def attempt(self, what: str):
        """One checked operation: an exception or mismatch fails it."""
        with self._lock:
            self.attempted += 1
        try:
            yield
        except Exception:  # noqa: BLE001 - every failure is counted
            with self._lock:
                self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    @contextlib.contextmanager
    def measured(self, program: str | None = None):
        """Timed work between two samples of the host-speed reference.

        Everything recorded inside is committed scaled to the reference
        speed, and the yielded dict gets the ``factor`` that scales a
        duration taken inside.  A shared host can run at about half
        speed for minutes at a time; the scaling cancels that, leaving
        the program's own changes in the numbers.  The heap is collected
        first, so the collector's pauses inside do not depend on what
        ran before.
        """
        gc.collect()
        window = {"before": layers.reference_seconds()}
        if program is not None:
            self.rec.start_program(program)
        try:
            yield window
        finally:
            reference = (window["before"] + layers.reference_seconds()) / 2
            window["factor"] = layers.REFERENCE_SECONDS / reference
            self.rec.commit(window["factor"], reference)

    @contextlib.contextmanager
    def unrecorded(self):
        """Work outside the measurement (output checks, references)."""
        previous, self.rec.phase = self.rec.phase, "check"
        try:
            yield
        finally:
            self.rec.phase = previous


def same_tokens(reference: list, printed: list) -> bool:
    """Bit-exact token equality against a native run's printed outputs.

    ``%.17g`` prints a whole double without a point, which the runner
    parses as an int; such a token is lifted back to float (lossless).
    """
    lifted = [float(got) if isinstance(ref, float) and isinstance(got, int)
              else got for ref, got in zip(reference, printed)]
    return len(reference) == len(printed) \
        and checksum_outputs(reference) == checksum_outputs(lifted)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fresh_temp_names() -> None:
    """Restart the LaminarIR temp counter, as in a fresh process.

    Temp ids come from a process-global counter, so without this a
    program's emitted code (its names, size, ``cc`` time and run time)
    would depend on what the process compiled before it.
    """
    from repro.lir import ops
    if hasattr(ops, "_temp_ids"):
        ops._temp_ids = itertools.count()


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repetitions(seconds: float, rep_seconds: float) -> int:
    """How many repetitions fill ``seconds`` at the reference speed.

    A fixed count, not a clock: on a host whose speed changes, every
    run then does the same work.
    """
    return max(1, round(seconds / rep_seconds))


# -- suite-native -------------------------------------------------------------

def suite_setup(ctx: Context, index: int) -> dict:
    """Build the FIFO-C baselines; take the FIFO interpreter's outputs."""
    workdir = ctx.scratch / f"fifo{index}"
    workdir.mkdir()

    def build(name):
        stream = load_benchmark(name)
        binary = runner.compile_c(stream.fifo_c(), workdir=workdir,
                                  name=f"{name}_fifo")
        return name, binary, stream.run_fifo(PRINT_ITERATIONS).outputs

    with ThreadPoolExecutor(2) as pool:
        built = list(pool.map(build, benchmark_names()))
    return {"fifo": {name: binary for name, binary, _ in built},
            "reference": {name: ref for name, _, ref in built}}


def suite_run(ctx: Context, state: dict, seconds: float) -> dict:
    rec = ctx.rec
    workdir = ctx.scratch / "laminar"
    workdir.mkdir()

    def rep(index: int):
        speedups = []
        names = benchmark_names()
        for name in ctx.rng.sample(names, len(names)):
            with ctx.attempt(f"suite-native {name}"), ctx.measured(name):
                fresh_temp_names()
                started = time.perf_counter()
                stream = load_benchmark(name)
                code = stream.laminar_c()
                generated = time.perf_counter()
                binary = runner.compile_c(code, workdir=workdir,
                                          name=f"{name}_laminar")
                compiled = time.perf_counter()
                rec.add("compile.unattributed_s",
                        compiled - started - rec.layer_total)
                # cc's time swings by a third from run to run on a shared
                # host, and only upwards: it runs twice and the faster
                # run counts.  The layers split the first compile.
                with ctx.unrecorded():
                    again = time.perf_counter()
                    runner.compile_c(code, workdir=workdir,
                                     name=f"{name}_laminar_again")
                    cc_again = time.perf_counter() - again
                rec.add("compile_s", generated - started
                        + min(compiled - generated, cc_again))
                rec.add("laminar_c_bytes", len(code))
                if index == 0:
                    with ctx.unrecorded():
                        printed = runner.run_binary(
                            binary, PRINT_ITERATIONS, print_outputs=True)
                    expect(same_tokens(state["reference"][name],
                                       printed.outputs),
                           "LaminarIR-C printed outputs differ from the "
                           "FIFO interpreter")
                iterations = NATIVE_ITERATIONS[name]
                laminar, fifo = [], []
                for _ in range(NATIVE_RUNS):
                    laminar.append(runner.run_binary(binary, iterations))
                    fifo.append(runner.run_binary(state["fifo"][name],
                                                  iterations))
                expect(len({run.checksum for run in laminar + fifo}) == 1,
                       "LaminarIR-C and FIFO-C checksums differ")
                laminar_s = min(run.seconds for run in laminar)
                fifo_s = min(run.seconds for run in fifo)
                rec.add("laminar_exec_s", laminar_s)
                rec.add("fifo_exec_s", fifo_s)
                rec.add(f"backend.exec_laminar_s.{name}", laminar_s)
                rec.add(f"backend.exec_fifo_s.{name}", fifo_s)
                rec.add(f"backend.speedup.{name}", fifo_s / laminar_s)
                speedups.append(fifo_s / laminar_s)
        if speedups:
            rec.add("speedup", geomean(speedups))
        rec.end_rep()

    for index in range(repetitions(seconds, SUITE_REP_SECONDS)):
        rep(index)
    return {"peak_rss_mb": peak_rss_mb()}


# -- scale-lower --------------------------------------------------------------

def scale_setup(ctx: Context, index: int) -> dict:
    """The FIFO interpreter's outputs for one schedule iteration."""
    references = {}
    for name in SCALE_PROGRAMS:
        references[name] = load_benchmark(name, scale=SCALE).run_fifo(
            SCALE_CHECK_ITERATIONS).outputs
    return {"reference": references}


def scale_run(ctx: Context, state: dict, seconds: float) -> dict:
    rec = ctx.rec

    def rep():
        speedups = []
        for name in ctx.rng.sample(SCALE_PROGRAMS, len(SCALE_PROGRAMS)):
            with ctx.attempt(f"scale-lower {name}"):
                with ctx.measured(name):
                    fresh_temp_names()
                    started = time.perf_counter()
                    stream = load_benchmark(name, scale=SCALE)
                    code = stream.laminar_c()
                    wall = time.perf_counter() - started
                    rec.add("compile_s", wall)
                    rec.add("compile.unattributed_s",
                            wall - rec.layer_total)
                    rec.add("laminar_c_bytes", len(code))
                # The optimized program against the FIFO baseline, both
                # in the interpreter.  The (longer) FIFO run sits between
                # two LaminarIR runs; a ratio of neighbouring runs
                # cancels the host's speed.
                gc.collect()
                with ctx.unrecorded():
                    laminar_s = []
                    for index in range(2):
                        started = time.perf_counter()
                        outputs = stream.run_laminar(
                            SCALE_CHECK_ITERATIONS).outputs
                        laminar_s.append(time.perf_counter() - started)
                        expect(same_tokens(state["reference"][name],
                                           outputs),
                               "optimized LaminarIR differs from the FIFO "
                               "interpreter")
                        if index == 0:
                            started = time.perf_counter()
                            stream.run_fifo(SCALE_CHECK_ITERATIONS)
                            fifo_s = time.perf_counter() - started
                speedups.append(fifo_s / statistics.mean(laminar_s))
        if speedups:
            rec.add("speedup", geomean(speedups))
        rec.end_rep()

    for _ in range(repetitions(seconds, SCALE_REP_SECONDS)):
        rep()
    return {"peak_rss_mb": peak_rss_mb()}


# -- serve-warm ---------------------------------------------------------------

def _scrape(client) -> dict[str, float]:
    """Counter totals from the daemon's OpenMetrics exposition."""
    totals: dict[str, float] = {}
    for line in client.metrics().splitlines():
        match = re.match(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})? (\S+)$", line)
        if match:
            family = match.group(1)
            totals[family] = totals.get(family, 0.0) + float(match.group(3))
    return totals


def serve_setup(ctx: Context, index: int) -> dict:
    """Start a daemon on a fresh cache and connect a client."""
    from repro.serve import ServeClient

    root = ctx.scratch / f"serve{index}"
    root.mkdir()
    # AF_UNIX paths are short; a path relative to the shared working
    # directory keeps the socket bindable from any checkout location.
    socket_path = os.path.relpath(root / "d.sock")
    daemon = subprocess.Popen(
        [sys.executable, str(HERE / "serve_daemon.py"), socket_path,
         str(root / "cache")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    state = {"daemon": daemon, "root": root}
    try:
        if daemon.stdout.readline().strip() != "ready":
            raise RuntimeError("serve daemon did not start")
        state["client"] = ServeClient(socket_path=socket_path)
    except BaseException:
        serve_teardown(state)
        raise
    return state


def serve_build(ctx: Context, state: dict) -> dict:
    """Take the reference checksums, build every key cold, and warm both
    workers' interpreter route.  Returns ``compile_s`` (the cold builds,
    client-side) and ``laminar_c_bytes`` (the C the daemon stored)."""
    from repro.cache import ArtifactCache
    from repro.cache.service import CODE_NAME

    client = state["client"]
    names = benchmark_names()
    references = {}
    for name in names:
        outputs = load_benchmark(name).run_fifo(SERVE_ITERATIONS).outputs
        references[name] = f"{checksum_outputs(outputs):016x}"

    # One cold build at a time, each in a host-speed window of its own,
    # as in the compile workloads.
    keys = {}
    compile_s = 0.0
    for name in names:
        with ctx.attempt(f"serve-warm /compile {name}"):
            with ctx.measured() as window:
                started = time.perf_counter()
                response = client.compile(benchmark=name)
                elapsed = time.perf_counter() - started
            compile_s += elapsed * window["factor"]
            expect(response.ok, f"HTTP {response.status}")
            keys[name] = response.json["key"]
    cache = ArtifactCache(state["root"] / "cache")
    c_bytes = sum(cache.lookup(key).artifact(CODE_NAME).stat().st_size
                  for key in keys.values())

    def warm(name, route, barrier):
        barrier.wait()
        response = client.run(benchmark=name, route=route,
                              iterations=SERVE_ITERATIONS)
        if not response.ok \
                or response.json["checksum"] != references[name]:
            raise RuntimeError(f"warm-up {name} {route}: {response.text}")

    with ThreadPoolExecutor(POOL_WORKERS) as pool:
        # Concurrent pairs occupy both workers, so each worker lowers
        # every program once before the timed region.
        for name in names:
            for route in ("interp", "native"):
                barrier = threading.Barrier(POOL_WORKERS)
                list(pool.map(lambda _: warm(name, route, barrier),
                              range(POOL_WORKERS)))
    state.update(keys=keys, references=references)
    return {"compile_s": compile_s, "laminar_c_bytes": c_bytes}


def serve_teardown(state: dict) -> dict:
    """Stop the daemon; returns its peak resident memory."""
    daemon = state["daemon"]
    daemon.stdin.close()
    try:
        daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(daemon.pid, signal.SIGKILL)
        daemon.wait()
    # The daemon prints its peak RSS (KiB) as its last line on exit.
    lines = daemon.stdout.read().split()
    daemon.stdout.close()
    return {"peak_rss_mb": int(lines[-1]) / 1024} if lines else {}


class Served(NamedTuple):
    name: str
    route: str
    latency: float
    body: dict
    window: int  # index of the SERVE_WINDOW the request completed in


def serve_run(ctx: Context, state: dict, seconds: float) -> dict:
    built = serve_build(ctx, state)
    client, references = state["client"], state["references"]
    names = benchmark_names()
    before = _scrape(client)

    def closed_loop(index: int) -> list[Served]:
        rng = random.Random(f"{ctx.seed}:{index}")
        done = []
        while time.perf_counter() < deadline:
            name = rng.choice(names)
            route = "native" if rng.random() < NATIVE_SHARE else "interp"
            with ctx.attempt(f"serve-warm {name} {route}"):
                sent = time.perf_counter()
                response = client.run(benchmark=name, route=route,
                                      iterations=SERVE_ITERATIONS)
                now = time.perf_counter()
                expect(response.ok, f"HTTP {response.status}")
                body = response.json
                expect(body["checksum"] == references[name],
                       "checksum differs from the FIFO interpreter")
                expect(body["route"] == route, "served by another route")
                done.append(Served(name, route, now - sent, body,
                                   int((now - started) / SERVE_WINDOW)))
        return done

    with ctx.measured() as window, ThreadPoolExecutor(SERVE_CLIENTS) as pool:
        started = time.perf_counter()
        deadline = started + seconds
        done = [served for batch in pool.map(closed_loop,
                                             range(SERVE_CLIENTS))
                for served in batch]
    factor = window["factor"]
    after = _scrape(client)

    native = [served for served in done if served.route == "native"]
    interp = [served for served in done if served.route == "interp"]
    metrics = {
        **built,
        "serve.native_requests": len(native),
        "serve.interp_requests": len(interp),
        "serve.exec_ms": statistics.median(
            served.body["seconds"] for served in native) * 1e3 * factor,
        "serve.daemon_ms": statistics.median(
            served.body["wall_seconds"] - served.body["seconds"]
            for served in native) * 1e3 * factor,
        "serve.transport_ms": statistics.median(
            served.latency - served.body["wall_seconds"]
            for served in native) * 1e3 * factor,
    }
    # Host noise comes in slow episodes that last seconds.  The timed
    # region is cut into windows; the quieter half of them (by native
    # median latency) gives every latency and throughput figure.
    # Requests that end after the deadline fall outside every window.
    def native_p50(window: int) -> float:
        latencies = [served.latency for served in native
                     if served.window == window]
        return percentile(latencies, 50) if latencies else math.inf

    windows = sorted(range(int(seconds / SERVE_WINDOW)), key=native_p50)
    quiet = set(windows[:math.ceil(len(windows) / 2)])
    kept = [served for served in done if served.window in quiet]
    metrics["serve_rps"] = len(kept) / (len(quiet) * SERVE_WINDOW) / factor
    # Each route's tail is the highest percentile with at least ten
    # samples beyond it even when the host runs slow: the quiet windows
    # of a 10 s run hold >= 300 native and >= 100 interp requests.
    for route, tail in (("native", 95), ("interp", 90)):
        latencies = [served.latency for served in kept
                     if served.route == route]
        metrics[f"serve_{route}_p50_ms"] = \
            percentile(latencies, 50) * 1e3 * factor
        metrics[f"serve_{route}_p{tail}_ms"] = \
            percentile(latencies, tail) * 1e3 * factor
    # The compiled route's gain over the interpreter route, both timed
    # in the same windows.
    metrics["speedup"] = \
        metrics["serve_interp_p50_ms"] / metrics["serve_native_p50_ms"]
    for metric, family in SERVE_COUNTERS.items():
        metrics[metric] = after.get(family, 0.0) - before.get(family, 0.0)
    with ctx.attempt("serve-warm: every timed lookup hits the cache"):
        expect(metrics["cache.misses"] == 0, "cache misses while warm")
    if ctx.traced:
        with ctx.measured():
            serve_direct_calls(ctx, state,
                               [served.name for served in interp])
    return metrics


def serve_direct_calls(ctx: Context, state: dict,
                       interp_jobs: list[str]) -> None:
    """Direct calls into the layers under the serve path, sampled by
    the wrappers: cache lookup, pool submit, binary run, interpreter."""
    from repro.cache import ArtifactCache
    from repro.interp import LaminarInterpreter
    from repro.serve.pool import WorkerPool

    references = state["references"]
    cache = ArtifactCache(state["root"] / "cache")
    binaries = {}
    for _ in range(DIRECT_ROUNDS):
        for name, key in state["keys"].items():
            binaries[name] = cache.lookup(key).binary
    pool = WorkerPool(POOL_WORKERS)
    try:
        for _ in range(DIRECT_ROUNDS):
            for name, binary in binaries.items():
                with ctx.attempt(f"direct pool submit {name}"):
                    reply = pool.submit({
                        "kind": "native", "binary": str(binary),
                        "iterations": SERVE_ITERATIONS, "limits": ""})
                    expect(reply.get("checksum") == references[name],
                           "pool reply checksum differs")
    finally:
        pool.close()
    for _ in range(DIRECT_ROUNDS):
        for name, binary in binaries.items():
            runner.run_binary(binary, SERVE_ITERATIONS)
    with ctx.unrecorded():
        programs = {name: load_benchmark(name).lower().program
                    for name in set(interp_jobs)}
    for name in interp_jobs[:DIRECT_ROUNDS * len(binaries)]:
        with ctx.attempt(f"direct interpreter run {name}"):
            outputs = LaminarInterpreter(programs[name]).run(
                SERVE_ITERATIONS).outputs
            expect(f"{checksum_outputs(outputs):016x}" == references[name],
                   "interpreter checksum differs")


# -- entry point --------------------------------------------------------------

class Workload(NamedTuple):
    setup: Callable[[Context, int], dict]
    run: Callable[[Context, dict, float], dict]
    teardown: Callable[[dict], dict] | None
    setups: int  # set-ups per run; setup_s is their median
    fastest_by: str | None  # the repetition reported, see Recorder


WORKLOADS = {
    "suite-native": Workload(suite_setup, suite_run, None, 2,
                             "compile_s"),
    "scale-lower": Workload(scale_setup, scale_run, None, 2,
                            "compile_s"),
    # A serve set-up (a daemon start) takes ~0.3 s: three of them.
    "serve-warm": Workload(serve_setup, serve_run, serve_teardown, 3, None),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setups", type=int,
                        help="set-ups per run (default: the workload's)")
    args = parser.parse_args(argv)

    ctx = Context(args.seed, args.scratch.resolve(), bool(args.trace))
    if ctx.traced:
        layers.install(ctx.rec)
    workload = WORKLOADS[args.workload]
    setup_seconds = []
    state = None
    for index in range(args.setups or workload.setups):
        if state is not None and workload.teardown is not None:
            workload.teardown(state)
        with ctx.measured() as window:
            started = time.perf_counter()
            state = workload.setup(ctx, index)
            elapsed = time.perf_counter() - started
        setup_seconds.append(elapsed * window["factor"])
        ctx.rec.end_rep()
    ctx.rec.phase = "run"
    ended = {}
    try:
        extra = workload.run(ctx, state, args.seconds)
    finally:
        if workload.teardown is not None:
            ended = workload.teardown(state)

    metrics = ctx.rec.summary("run", workload.fastest_by)
    metrics.update(extra)
    metrics.update(ended)
    metrics["setup_s"] = statistics.median(setup_seconds)
    # compile_c runs on LaminarIR C in the timed region and on FIFO C
    # only in set-up.
    if "backend.cc_s" in metrics:
        metrics["backend.cc_laminar_s"] = metrics.pop("backend.cc_s")
    in_setup = ctx.rec.summary("setup")
    for name, renamed in (("backend.cc_s", "backend.cc_fifo_s"),
                          ("backend.fifo_codegen_s",
                           "backend.fifo_codegen_s")):
        if name in in_setup:
            metrics[renamed] = in_setup[name]
    metrics["failed_frac"] = ctx.failed / max(1, ctx.attempted)
    print(json.dumps({"correct": ctx.failed == 0 and ctx.attempted > 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
