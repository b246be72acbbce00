"""Process-isolated execution workers for the serve daemon.

The daemon must survive anything a single request can do: a segfaulting
native binary, an OOM-killed interpreter run, a wedged execution.  The
:class:`WorkerPool` therefore runs every native/interp execution in a
small pool of long-lived **worker processes**, supervised by the daemon:

* the protocol is one JSON line per job on the worker's stdin and one
  JSON line per reply on a dedicated protocol fd (the worker re-points
  its real stdout at stderr so stray prints cannot corrupt framing);
* a worker that dies mid-job (pipe EOF / nonzero exit status — the
  ``worker-kill`` fault site fabricates exactly this) is reaped and
  respawned, and the job is **retried once** on a fresh worker before
  the failure surfaces as a 503;
* a worker that stops replying (the ``worker-hang`` fault site) is
  caught by the per-job deadline, killed together with its whole
  process group, and handled the same way;
* workers exit on stdin EOF, so a crashed daemon cannot leak them, and
  :meth:`WorkerPool.close` SIGKILLs any straggler process group.

Workers are spawned lazily (the first job pays the interpreter startup)
and each keeps a small memo of frontend-compiled streams, so the hot
path through a worker is one pipe round-trip plus the execution itself
— cheap enough that ``bench_serve.py``'s hot ≥ 10× cold gate holds with
isolation on.

Fault-site draws happen in the *daemon* (per dispatch attempt, from the
ambient :class:`repro.faults.plan.FaultPlan`); the worker merely enacts
the injected outcome (``os._exit`` / sleeping forever), so the real
crash-detection, respawn and retry machinery runs end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path

from repro.api import CompiledStream, compile_source
from repro.backend import runner
from repro.backend.common import checksum_outputs
from repro.faults import ResourceExhausted, ResourceLimits, use_limits
from repro.faults import plan as fault_plan
from repro.frontend.errors import CompileError
from repro.knobs import KNOBS, compile_options
from repro.obs import metrics as obs_metrics
from repro.suite import load_benchmark

DEFAULT_WORKERS = 2
# Outer per-job deadline: exceeds the native runner's own run timeout
# so the inner, better-diagnosed timeout fires first.
DEFAULT_JOB_TIMEOUT = runner.DEFAULT_RUN_TIMEOUT + 30.0
# How many frontend-compiled streams a StreamMemo keeps.
STREAM_MEMO_SIZE = 128
# The raw spec fields an interp job carries: the stream and its options.
SPEC_FIELDS = ("source", "benchmark") + tuple(knob.key for knob in KNOBS)
# How many trailing stderr lines to keep per worker for crash reports.
_STDERR_KEEP = 30
_READ_CHUNK = 65536


class WorkerError(RuntimeError):
    """Base class for pool-level failures (not job-level errors)."""


class WorkerCrashed(WorkerError):
    """The worker process died mid-job (pipe EOF / exit status)."""

    def __init__(self, message: str, exit_code: int | None = None):
        super().__init__(message)
        self.exit_code = exit_code


class WorkerHung(WorkerError):
    """No reply arrived within the job deadline; the worker was killed."""


class PoolExhausted(WorkerError):
    """The job failed on a fresh worker even after the retry."""


class _Worker:
    """One supervised worker process and its pipe protocol state."""

    def __init__(self, index: int):
        self.index = index
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in sys.path if p]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
               if p])
        # The worker writes no record of its own (the daemon's access
        # record is the request's one record) and must not inherit a
        # fault-injection spec: injection decisions are drawn once, in
        # the daemon.
        env.pop("REPRO_INJECT", None)
        # Not `-m repro.serve.pool`: runpy would import the package
        # (which itself imports this module) and then re-execute the
        # module as __main__, warning about the double import.
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.serve.pool import worker_main; "
             "sys.exit(worker_main())"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True, env=env)
        self.pid = self.proc.pid
        self._buf = b""
        self.jobs = 0
        self.stderr_tail: "deque[str]" = deque(maxlen=_STDERR_KEEP)
        self._stderr_thread = threading.Thread(
            target=self._drain_stderr, daemon=True,
            name=f"repro-pool-stderr-{index}")
        self._stderr_thread.start()

    def _drain_stderr(self) -> None:
        stream = self.proc.stderr
        try:
            for line in iter(stream.readline, b""):
                self.stderr_tail.append(
                    line.decode("utf-8", "replace").rstrip("\n"))
        except (OSError, ValueError):
            pass
        finally:
            # The reader closes the pipe: closing it from another thread
            # would block on the reader's buffer lock until EOF anyway.
            stream.close()

    def alive(self) -> bool:
        return self.proc.poll() is None

    def call(self, job: dict, timeout: float) -> dict:
        """One job round-trip; raises on crash/hang, never on job errors."""
        line = json.dumps(job, sort_keys=True).encode("utf-8") + b"\n"
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
        except (OSError, ValueError) as error:
            raise WorkerCrashed(
                f"worker {self.pid} pipe closed while sending job: "
                f"{error}", self.proc.poll()) from None
        raw = self._read_line(time.monotonic() + timeout)
        try:
            reply = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WorkerCrashed(
                f"worker {self.pid} wrote an unparseable reply: "
                f"{error}") from None
        if not isinstance(reply, dict):
            raise WorkerCrashed(
                f"worker {self.pid} replied with a non-object")
        self.jobs += 1
        return reply

    def _read_line(self, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line, self._buf = self._buf[:newline], \
                    self._buf[newline + 1:]
                return line
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerHung(
                    f"worker {self.pid} sent no reply within the job "
                    "deadline")
            ready, _, _ = select.select([fd], [], [],
                                        min(remaining, 0.05))
            if ready:
                try:
                    chunk = os.read(fd, _READ_CHUNK)
                except OSError as error:  # EIO from a dying worker
                    raise WorkerCrashed(
                        f"worker {self.pid} pipe failed mid-job: "
                        f"{error}", self.proc.poll()) from None
                if not chunk:
                    try:
                        status = self.proc.wait(timeout=0.5)
                    except subprocess.TimeoutExpired:
                        status = self.proc.poll()
                    detail = "; ".join(list(self.stderr_tail)[-3:])
                    raise WorkerCrashed(
                        f"worker {self.pid} died mid-job "
                        f"(exit status {status})"
                        + (f": {detail}" if detail else ""), status)
                self._buf += chunk
            elif self.proc.poll() is not None and not self._buf:
                status = self.proc.poll()
                raise WorkerCrashed(
                    f"worker {self.pid} died mid-job "
                    f"(exit status {status})", status)

    def close(self, grace: float = 0.5) -> None:
        try:
            self.proc.stdin.close()  # stdin EOF: workers exit cleanly
        except (OSError, ValueError):
            pass
        deadline = time.monotonic() + grace
        while self.proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        if self.proc.poll() is None:
            runner.kill_process_group(self.proc)
            self.proc.wait()
        try:
            self.proc.stdout.close()
        except (OSError, ValueError):
            pass
        # The worker has exited, so the drain thread reads EOF and closes
        # stderr.  Bounded: a stray grandchild may hold the pipe open.
        self._stderr_thread.join(timeout=0.5)


class WorkerPool:
    """A supervised pool of execution workers with retry-once semantics."""

    def __init__(self, size: int = DEFAULT_WORKERS,
                 job_timeout: float = DEFAULT_JOB_TIMEOUT):
        self.size = max(1, size)
        self.job_timeout = job_timeout
        self._idle: list[_Worker] = []
        self._count = 0
        self._spawned = 0
        self._lock = threading.Lock()
        self._free = threading.Condition(self._lock)
        self._closed = False
        # Every pid the pool ever spawned: the chaos harness asserts
        # none survive close().
        self.all_pids: list[int] = []
        self.crashes = 0
        self.hangs = 0
        self.retries = 0

    # -- worker lifecycle -----------------------------------------------------

    def _spawn(self) -> _Worker:
        worker = _Worker(self._spawned)
        with self._lock:
            self._spawned += 1
            self.all_pids.append(worker.pid)
        obs_metrics.counter("serve.pool.spawn").inc()
        return worker

    def _checkout(self) -> _Worker:
        with self._free:
            while True:
                if self._closed:
                    raise WorkerError("worker pool is closed")
                while self._idle:
                    worker = self._idle.pop()
                    if worker.alive():
                        return worker
                    # Died while idle (OOM killer, injected kill that
                    # landed between jobs): reap silently and respawn.
                    self._count -= 1
                    worker.close(grace=0.0)
                if self._count < self.size:
                    self._count += 1
                    break
                self._free.wait(timeout=0.5)
        try:
            return self._spawn()
        except BaseException:
            with self._free:
                self._count -= 1
                self._free.notify()
            raise

    def _checkin(self, worker: _Worker) -> None:
        with self._free:
            if self._closed:
                worker.close(grace=0.0)
                self._count -= 1
            else:
                self._idle.append(worker)
            self._free.notify()

    def _discard(self, worker: _Worker) -> None:
        worker.close(grace=0.0)
        with self._free:
            self._count -= 1
            self._free.notify()

    # -- job dispatch ---------------------------------------------------------

    def submit(self, job: dict) -> dict:
        """Run one job on a worker; crash/hang → respawn + retry once.

        Each attempt is bounded by ``job_timeout``.  Returns the worker's
        reply dict (``{"ok": true, ...}`` or a structured job-level error
        — the caller maps those to its own error model).  Raises
        :class:`PoolExhausted` when the job failed a second time on a
        fresh worker.
        """
        plan = fault_plan.current_plan()
        last_error: WorkerError | None = None
        for attempt in range(2):
            dispatch = dict(job)
            # One injection draw per dispatch attempt, in the daemon:
            # the retry is a fresh draw, so a campaign at kill-rate r
            # loses a request only with probability ~r².
            if plan.should_fire("worker-kill"):
                dispatch["inject"] = "kill"
            elif plan.should_fire("worker-hang"):
                dispatch["inject"] = "hang"
            worker = self._checkout()
            try:
                reply = worker.call(dispatch, self.job_timeout)
            except WorkerCrashed as error:
                self._discard(worker)
                self.crashes += 1
                last_error = error
                obs_metrics.counter("serve.pool.crash").inc()
            except WorkerHung as error:
                self._discard(worker)
                self.hangs += 1
                last_error = error
                obs_metrics.counter("serve.pool.hang").inc()
            else:
                self._checkin(worker)
                obs_metrics.counter("serve.pool.jobs").inc()
                if attempt:
                    obs_metrics.counter("serve.pool.retry.success").inc()
                return reply
            if attempt == 0:
                self.retries += 1
                obs_metrics.counter("serve.pool.retry").inc()
        assert last_error is not None
        raise PoolExhausted(
            f"job failed on two workers in a row: {last_error}")

    # -- introspection / shutdown ---------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {"size": self.size, "alive": self._count,
                    "spawned": self._spawned, "crashes": self.crashes,
                    "hangs": self.hangs, "retries": self.retries}

    def live_pids(self) -> list[int]:
        """Spawned worker pids whose process still exists (diagnostics)."""
        alive = []
        for pid in self.all_pids:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            alive.append(pid)
        return alive

    def close(self) -> None:
        with self._free:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._free.notify_all()
        for worker in idle:
            worker.close()
        # Belt and braces: no worker process group may outlive the pool.
        deadline = time.monotonic() + 2.0
        while self.live_pids() and time.monotonic() < deadline:
            time.sleep(0.02)
        for pid in self.live_pids():
            try:
                os.killpg(os.getpgid(pid), signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass


# -- spec parsing and the stream memo (daemon and worker) ---------------------

class StreamMemo:
    """Frontend-compiled streams keyed by benchmark name or source hash,
    least recently used evicted first, so the hot path touches neither
    the parser nor the scheduler."""

    def __init__(self):
        self._streams: "OrderedDict[str, CompiledStream]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, spec: dict) -> tuple[CompiledStream, bool]:
        """The spec's stream and whether it was already memoized."""
        benchmark = spec.get("benchmark")
        if benchmark is not None:
            key = f"benchmark:{benchmark}"
        else:
            key = hashlib.sha256(spec["source"].encode("utf-8")).hexdigest()
        with self._lock:
            stream = self._streams.get(key)
            if stream is not None:
                self._streams.move_to_end(key)
                return stream, True
        if benchmark is not None:
            stream = load_benchmark(benchmark)
        else:
            stream = compile_source(spec["source"], "<serve>")
        with self._lock:
            self._streams[key] = stream
            while len(self._streams) > STREAM_MEMO_SIZE:
                self._streams.popitem(last=False)
        return stream, False


# -- the worker side ----------------------------------------------------------

def _execute_job(job: dict, streams: StreamMemo) -> dict:
    """Run one job; returns the success payload (exceptions propagate)."""
    iterations = int(job["iterations"])
    if job["kind"] == "native":
        run = runner.run_binary(Path(job["binary"]), iterations)
        return {"ok": True, "checksum": f"{run.checksum:016x}",
                "outputs": run.output_count, "seconds": run.seconds}
    if job["kind"] == "interp":
        started = time.monotonic()
        stream, _ = streams.get(job)
        lowering, opt = compile_options(job)
        outputs = stream.run_laminar(iterations, lowering, opt).outputs
        return {"ok": True,
                "checksum": f"{checksum_outputs(outputs):016x}",
                "outputs": len(outputs),
                "seconds": time.monotonic() - started}
    raise ValueError(f"unknown job kind {job.get('kind')!r}")


def _job_error(error: BaseException) -> dict:
    """Map one job-level exception to a structured reply."""
    if isinstance(error, ResourceExhausted):
        return {"ok": False, "kind": "resource-exhausted",
                "error": error.message, "resource": error.resource,
                "limit": error.limit, "actual": error.actual,
                "where": error.where}
    if isinstance(error, runner.NativeToolchainError):
        return {"ok": False, "kind": "native", "stage": error.stage,
                "error": str(error)}
    if isinstance(error, CompileError):
        return {"ok": False, "kind": "compile-error",
                "error": error.format()}
    return {"ok": False, "kind": "internal",
            "error": f"{type(error).__name__}: {error}"}


def worker_main() -> int:
    """The worker loop: JSON jobs on stdin, JSON replies on stdout.

    The protocol fd is a dup of the original stdout; the real fd 1 is
    re-pointed at stderr so that any stray ``print`` in library code
    cannot corrupt the framing.  Exits 0 on stdin EOF.
    """
    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    streams = StreamMemo()
    for raw in sys.stdin.buffer:
        try:
            job = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            proto.write(json.dumps(
                {"ok": False, "kind": "internal",
                 "error": f"bad job line: {error}"}) + "\n")
            continue
        inject = job.get("inject")
        if inject == "kill":
            # Enact the injected crash exactly as the OOM killer would:
            # no cleanup, no reply, a bare SIGKILL-style exit.
            os._exit(137)
        if inject == "hang":
            time.sleep(3600)
        try:
            limits = ResourceLimits.parse(job["limits"]) \
                if job.get("limits") else ResourceLimits()
            with use_limits(limits):
                reply = _execute_job(job, streams)
        except BaseException as error:  # noqa: BLE001 - the job boundary
            reply = _job_error(error)
        proto.write(json.dumps(reply, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(worker_main())
