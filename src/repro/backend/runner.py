"""Native harness: compile generated C with the host compiler and run it.

Used by the correctness tests (native output == interpreter output) and by
the host-platform column of the speedup experiment (E3).

Hardened against a hostile toolchain (see ``docs/ROBUSTNESS.md``):

* ``cc`` and the binary both run under one supervision loop
  (:func:`_supervise`) with a wall-clock timeout; a timed-out subprocess
  is killed together with its whole process group (``cc`` forks
  ``cc1``/``ld``; killing only the leader leaves orphans), and a
  heartbeat run can arm a stall watchdog that names the hot filter;
* transient compile failures (spawn errors, a compiler killed by a
  signal) are retried a bounded number of times with exponential
  backoff, while real diagnostics (nonzero exit with errors) fail fast;
* the stderr side-channel (``checksum``/``outputs``/``seconds`` lines)
  is parsed strictly — a missing or duplicated field raises
  :class:`NativeProtocolError` instead of silently defaulting to 0,
  which previously made a crashed-but-exit-0 binary look bit-exact;
* auto-created ``repro_native_*`` temp dirs are deleted on success and
  kept (with the path appended to the diagnostic) on real failures;
  ``keep_artifacts`` / ``REPRO_KEEP_ARTIFACTS`` keeps them always.

Every seam consults the ambient :class:`repro.faults.plan.FaultPlan`, so
fault-injection campaigns exercise these paths deterministically without
a hostile machine.
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults import plan as fault_plan
from repro.obs import bus as obs_bus
from repro.obs import metrics as obs_metrics
from repro.obs import trace

# -fopenmp-simd activates ``#pragma omp simd`` on re-rolled loop bodies
# without pulling in the OpenMP runtime (gcc and clang both honor it; on
# compilers that ignore it the pragma is inert and the code is still
# correct).
DEFAULT_CFLAGS = ("-O3", "-fwrapv", "-std=gnu11", "-fopenmp-simd")

# Wall-clock budgets per subprocess step, read at call time (tests
# shrink them).  Compiling one generated translation unit takes seconds;
# a minute-plus compile means a wedged toolchain, not a slow one.
DEFAULT_COMPILE_TIMEOUT = 120.0
DEFAULT_RUN_TIMEOUT = 300.0

# Bounded retries for *transient* compile failures (spawn errors, the
# compiler killed by a signal).  Scripted to base * 2**attempt seconds;
# tests shrink the base to keep injected-crash campaigns fast.
TRANSIENT_RETRIES = 2
RETRY_BACKOFF_SECONDS = 0.05


class NativeToolchainError(RuntimeError):
    """Base class for every native-harness failure.

    ``stage`` names the seam, ``injected`` marks failures fabricated by
    the ambient fault plan (their artifacts are not worth keeping), and
    ``artifacts`` carries the kept build directory, when any.
    """

    stage = "native"

    def __init__(self, message: str, *, injected: bool = False,
                 artifacts: str | None = None):
        super().__init__(message)
        self.injected = injected
        self.artifacts = artifacts


class NativeCompileError(NativeToolchainError):
    """The toolchain itself failed: compiler missing, crashed, timed out,
    or rejected the generated C.  Degradable — the interpreter can stand
    in for the native backend (see :mod:`repro.faults.degrade`)."""

    stage = "compile"


class NativeRunError(NativeToolchainError):
    """The generated binary failed: nonzero exit or timeout.  Not
    degradable in differential contexts — a crashing binary is a finding,
    not an environment problem."""

    stage = "run"


class NativeProtocolError(NativeRunError):
    """The binary exited 0 but violated the output protocol (missing,
    duplicated or unparseable ``checksum``/``outputs``/``seconds``
    lines).  Raised instead of defaulting fields to 0, which would make
    a crashed-but-exit-0 binary look like a bit-exact match."""

    stage = "protocol"


class NativeStallError(NativeRunError):
    """The heartbeat watchdog killed a binary that stopped making
    progress: no ``heartbeat-json`` line arrived within the stall
    window.  Fires *before* the hard run timeout, and names the filter
    the binary was last spending time in (from the final heartbeat's
    per-filter accumulators)."""

    stage = "stall"


def find_compiler() -> str | None:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path is not None:
            return path
    return None


# compiler path -> fingerprint, so hot cache lookups don't re-exec
# ``cc --version`` per request.
_compiler_fingerprints: dict[str, str] = {}


def compiler_fingerprint() -> str | None:
    """Stable identity of the host toolchain, for artifact cache keys.

    ``<compiler path> <first line of --version>`` — enough that a
    compiler upgrade (or switching cc → clang) changes every cache key
    built with it.  ``None`` when no compiler is on PATH.
    """
    compiler = find_compiler()
    if compiler is None:
        return None
    cached = _compiler_fingerprints.get(compiler)
    if cached is not None:
        return cached
    try:
        result = subprocess.run([compiler, "--version"],
                                capture_output=True, text=True, timeout=30)
        version = result.stdout.splitlines()[0].strip() \
            if result.stdout else "unknown-version"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown-version"
    fingerprint = f"{compiler} {version}"
    _compiler_fingerprints[compiler] = fingerprint
    return fingerprint


# -- artifact lifecycle -------------------------------------------------------

# CLI-installed override for keep-on-success; None defers to the
# REPRO_KEEP_ARTIFACTS environment variable.
_keep_artifacts_override: bool | None = None


def set_keep_artifacts(value: bool | None) -> None:
    """Override the keep-on-success policy (the CLI's ``--keep-artifacts``)."""
    global _keep_artifacts_override
    _keep_artifacts_override = value


def default_keep_artifacts() -> bool:
    if _keep_artifacts_override is not None:
        return _keep_artifacts_override
    return os.environ.get("REPRO_KEEP_ARTIFACTS", "").lower() in (
        "1", "true", "yes", "on")


def _finish_workdir(workdir: Path, owned: bool,
                    error: NativeToolchainError | None,
                    keep: bool) -> str | None:
    """Apply the temp-dir policy; returns the path when it was kept.

    Caller-supplied workdirs are never touched.  Auto-created dirs are
    deleted on success (unless ``keep``), kept on *real* failures so the
    generated C and binary stay available for debugging, and deleted on
    injected failures (there is nothing real to debug).
    """
    if not owned:
        return None
    if error is None:
        if keep:
            obs_metrics.counter("native.artifacts.kept").inc()
            return str(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        return None
    if keep or not error.injected:
        obs_metrics.counter("native.artifacts.kept").inc()
        return str(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    return None


def _with_artifacts(error: NativeToolchainError,
                    kept: str | None) -> NativeToolchainError:
    """Re-raiseable copy of ``error`` with the kept-artifacts path logged."""
    if kept is None:
        return error
    fresh = type(error)(f"{error}; build artifacts kept at {kept}",
                        injected=error.injected, artifacts=kept)
    fresh.__cause__ = error.__cause__
    return fresh


# -- subprocess supervision ---------------------------------------------------

_READ_CHUNK = 65536


def kill_process_group(proc: subprocess.Popen) -> None:
    """SIGKILL the process group ``proc`` leads (it runs in its own session).

    Killing only the leader leaves ``cc1``/``ld`` (or a binary's own
    children) orphaned, holding the pipes and the workdir open.
    """
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            proc.kill()
        except OSError:
            pass


@dataclass
class _Supervised:
    """What :func:`_supervise` saw of one child process."""

    returncode: int
    stdout: str
    stderr: str
    # "timeout" or "stall" when the child was killed at that deadline.
    killed: str | None = None


def _supervise(cmd: list[str], timeout: float, *,
               env: dict[str, str] | None = None,
               stall_timeout: float | None = None) -> _Supervised:
    """Run ``cmd`` to completion under supervision, in the calling thread.

    The child leads its own session.  One selector reads its stdout and
    stderr to EOF, publishing each ``heartbeat-json`` stderr line as it
    arrives (so the telemetry lands in the caller's request context).
    The whole process group is killed at the hard ``timeout`` or, when
    ``stall_timeout`` is armed, once no heartbeat has arrived for that
    long.  Raises ``OSError`` only when the spawn itself fails.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env,
                            start_new_session=True)
    out, err = bytearray(), bytearray()
    scanned = 0  # err[:scanned] is whole lines, already scanned for beats
    killed: str | None = None
    last_beat = time.monotonic()
    deadline = last_beat + timeout
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ, out)
            selector.register(proc.stderr, selectors.EVENT_READ, err)
            while selector.get_map():
                wake = deadline if stall_timeout is None \
                    else min(deadline, last_beat + stall_timeout)
                now = time.monotonic()
                if now >= wake:
                    killed = "timeout" if now >= deadline else "stall"
                    break
                for key, _ in selector.select(wake - now):
                    chunk = os.read(key.fd, _READ_CHUNK)
                    if not chunk:
                        selector.unregister(key.fileobj)
                        continue
                    key.data.extend(chunk)
                    if key.data is not err:
                        continue
                    end = err.rfind(b"\n") + 1
                    for line in err[scanned:end].split(b"\n"):
                        beat = parse_heartbeat(
                            line.decode("utf-8", "replace"))
                        if beat is not None:
                            last_beat = time.monotonic()
                            _publish_heartbeat(beat)
                    scanned = end
        if killed is None:
            # Both pipes are at EOF; a child that closed them early
            # still answers to the hard deadline.
            try:
                proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                killed = "timeout"
    finally:
        if killed is not None or proc.returncode is None:
            kill_process_group(proc)
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return _Supervised(proc.returncode, out.decode("utf-8", "replace"),
                       err.decode("utf-8", "replace"), killed)


@dataclass
class NativeRun:
    """Result of one native execution."""

    checksum: int
    output_count: int
    seconds: float
    outputs: list[float | int]  # populated only in print mode
    # Parsed ``profile-json`` side channel: present only when the binary
    # was generated with ``profile=True``.  Shape:
    # {"iterations": int, "filters": [{"name","ns","ops","calls"}...],
    #  "hist": [int, ...]} (log2-ns buckets of whole steady iterations).
    profile: dict | None = None
    # Parsed ``heartbeat-json`` lines, in arrival order (profile builds
    # run with heartbeat_ms set; empty otherwise).
    heartbeats: list[dict] = field(default_factory=list)


# -- heartbeat side channel ---------------------------------------------------

HEARTBEAT_PREFIX = "heartbeat-json "


def parse_heartbeat(line: str) -> dict | None:
    """Parse one ``heartbeat-json`` stderr line; ``None`` if it isn't one.

    Unparseable heartbeat lines are dropped rather than raised: a killed
    binary can tear its final beat mid-line, and losing one progress
    sample must not fail the run.
    """
    if not line.startswith(HEARTBEAT_PREFIX):
        return None
    try:
        beat = json.loads(line[len(HEARTBEAT_PREFIX):])
    except json.JSONDecodeError:
        return None
    return beat if isinstance(beat, dict) else None


def hot_filter(beat: dict | None) -> str | None:
    """The filter with the most accumulated ns in a heartbeat, if any."""
    if not beat:
        return None
    filters = [entry for entry in beat.get("filters", [])
               if isinstance(entry, dict) and "name" in entry]
    if not filters:
        return None
    return max(filters, key=lambda entry: entry.get("ns", 0))["name"]


def _publish_heartbeat(beat: dict) -> None:
    """Mirror one live beat into the ``native.heartbeat.*`` metrics."""
    obs_metrics.counter("native.heartbeat.count").inc()
    if "iter" in beat:
        obs_metrics.gauge("native.heartbeat.iterations").set(beat["iter"])
    if "outputs" in beat:
        obs_metrics.gauge("native.heartbeat.outputs").set(beat["outputs"])
    if "ns" in beat:
        obs_metrics.gauge("native.heartbeat.ns").set(beat["ns"])
    for entry in beat.get("filters", []):
        if isinstance(entry, dict) and "name" in entry:
            obs_metrics.gauge(
                f"native.heartbeat.filter.{entry['name']}.ns").set(
                entry.get("ns", 0))


def _check_watchdog(heartbeat_ms: int | None,
                    stall_timeout: float | None) -> None:
    if stall_timeout is not None and heartbeat_ms is None:
        raise ValueError(
            "stall_timeout arms the heartbeat watchdog and needs "
            "heartbeat_ms; a binary without heartbeats is bounded by "
            "DEFAULT_RUN_TIMEOUT alone")


# A stand-in for a wedged binary (the bin-hang fault site): one valid
# heartbeat, then no progress until the watchdog kills it.
_HANG_SCRIPT = (
    "import sys, time\n"
    "sys.stderr.write('heartbeat-json {\"iter\":1,\"outputs\":0,"
    "\"ns\":1000,\"filters\":[{\"name\":\"injected-hang\",\"ns\":1000}]}"
    "\\n')\n"
    "sys.stderr.flush()\n"
    "time.sleep(600)\n")


def compile_c(code: str, workdir: Path | None = None,
              cflags: tuple[str, ...] = DEFAULT_CFLAGS,
              name: str = "prog",
              keep_artifacts: bool | None = None) -> Path:
    """Compile ``code`` and return the binary path.

    Raises :class:`NativeCompileError` on any toolchain failure.  When
    no ``workdir`` is given, the auto-created temp dir is kept on real
    failures (path appended to the diagnostic) and deleted on injected
    ones; success leaves it in place for the caller (``compile_and_run``
    owns the delete-on-success policy).
    """
    plan = fault_plan.current_plan()
    if plan.should_fire("cc-missing"):
        raise NativeCompileError(
            "no C compiler found on PATH (injected cc-missing)",
            injected=True)
    compiler = find_compiler()
    if compiler is None:
        raise NativeCompileError("no C compiler found on PATH")
    keep = keep_artifacts if keep_artifacts is not None \
        else default_keep_artifacts()
    owned = workdir is None
    if owned:
        workdir = Path(tempfile.mkdtemp(prefix="repro_native_"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _compile_into(code, workdir, compiler, cflags, name, plan)
    except NativeToolchainError as error:
        kept = _finish_workdir(workdir, owned, error, keep)
        raise _with_artifacts(error, kept) from error.__cause__


def _compile_into(code: str, workdir: Path, compiler: str,
                  cflags: tuple[str, ...], name: str,
                  plan: fault_plan.FaultPlan) -> Path:
    src = workdir / f"{name}.c"
    binary = workdir / name
    src.write_text(code)
    cmd = [compiler, *cflags, str(src), "-o", str(binary), "-lm"]
    timeout = DEFAULT_COMPILE_TIMEOUT
    if plan.should_fire("cc-timeout"):
        raise NativeCompileError(
            f"C compilation timed out after {timeout:g}s "
            "(injected cc-timeout)", injected=True)
    attempts = max(0, TRANSIENT_RETRIES) + 1
    last_error: NativeCompileError | None = None
    with trace.span("native.compile", name=name, compiler=compiler,
                    flags=" ".join(cflags), code_bytes=len(code)) as span:
        for attempt in range(attempts):
            if attempt:
                obs_metrics.counter("native.compile.retries").inc()
                time.sleep(RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1)))
            if plan.should_fire("cc-crash"):
                result = _Supervised(
                    -int(signal.SIGSEGV), "",
                    "injected fault: compiler killed by signal")
                injected = True
            else:
                injected = False
                try:
                    result = _supervise(cmd, timeout)
                except OSError as error:
                    # Spawn failure (EAGAIN, ENOMEM, ...): transient.
                    last_error = NativeCompileError(
                        f"failed to spawn compiler: {error}")
                    continue
                if result.killed:
                    raise NativeCompileError(
                        f"C compilation timed out after {timeout:g}s")
            if result.returncode == 0:
                warnings = result.stderr.count("warning:")
                if warnings:
                    obs_metrics.counter("native.compile.warnings").inc(
                        warnings)
                span.annotate(attempts=attempt + 1)
                return binary
            if result.returncode < 0:
                # Killed by a signal: transient (OOM killer, injected
                # crash); retry with backoff.
                last_error = NativeCompileError(
                    f"compiler killed by signal {-result.returncode}:\n"
                    f"{result.stderr[:2000]}", injected=injected)
                continue
            # A real diagnostic (exit > 0): retrying cannot help.
            raise NativeCompileError(
                f"C compilation failed:\n{result.stderr[:4000]}")
    assert last_error is not None
    raise NativeCompileError(
        f"{last_error} (after {attempts} attempt(s))",
        injected=last_error.injected)


def run_binary(binary: Path, iterations: int,
               print_outputs: bool = False,
               heartbeat_ms: int | None = None,
               stall_timeout: float | None = None) -> NativeRun:
    """Run the compiled binary and strictly parse its output protocol.

    ``heartbeat_ms`` sets ``REPRO_HEARTBEAT_MS`` in the child's
    environment (profile builds then emit ``heartbeat-json`` progress
    lines; 0 = every iteration), published live as ``native.heartbeat.*``
    metrics and collected into :attr:`NativeRun.heartbeats`.
    ``stall_timeout`` arms the watchdog and needs ``heartbeat_ms``
    (``ValueError`` otherwise): when no heartbeat arrives within that
    many seconds the process group is killed and
    :class:`NativeStallError` raised, naming the hot filter.  Every run
    is bounded by ``DEFAULT_RUN_TIMEOUT``.
    """
    _check_watchdog(heartbeat_ms, stall_timeout)
    plan = fault_plan.current_plan()
    mode = "print" if print_outputs else "time"
    cmd = [str(binary), str(iterations), mode]
    timeout = DEFAULT_RUN_TIMEOUT
    injected = False
    with trace.span("native.run", name=binary.name, iterations=iterations,
                    mode=mode):
        if plan.should_fire("bin-timeout"):
            raise NativeRunError(
                f"native run timed out after {timeout:g}s "
                "(injected bin-timeout)", injected=True)
        hang = plan.should_fire("bin-hang")
        if hang and stall_timeout is None:
            # Without a watchdog a hung binary only dies at the hard
            # timeout; don't make injection campaigns wait for that.
            raise NativeStallError(
                "binary stopped making progress and no heartbeat "
                "watchdog was armed (injected bin-hang)", injected=True)
        if plan.should_fire("bin-nonzero"):
            result = _Supervised(1, "", "injected fault: binary exited "
                                        "nonzero")
            injected = True
        elif plan.should_fire("bin-garbage"):
            result = _Supervised(
                0, "not-a-number\n",
                "checksum zzzz\nchecksum 0\noutputs many\nseconds soon\n")
            injected = True
        elif plan.should_fire("malformed-stdout"):
            # Exit 0 with the protocol lines missing — exactly what a
            # crashed-after-exec or truncated binary produces.
            result = _Supervised(0, "", "checksum 00000000deadbeef\n")
            injected = True
        else:
            if hang:
                # Swap in a wedge that emits one beat then goes silent,
                # so the real watchdog path runs end to end.
                cmd = [sys.executable, "-c", _HANG_SCRIPT]
                injected = True
            env = None
            if heartbeat_ms is not None:
                env = {**os.environ,
                       "REPRO_HEARTBEAT_MS": str(heartbeat_ms)}
            result = _supervise(cmd, timeout, env=env,
                                stall_timeout=stall_timeout)
            if result.killed == "stall":
                raise _stalled(binary.name, stall_timeout, result,
                               injected)
            if result.killed:
                raise NativeRunError(
                    f"native run timed out after {timeout:g}s")
    if result.returncode != 0:
        raise NativeRunError(
            f"native run failed (exit {result.returncode}):\n"
            f"{result.stderr[:2000]}", injected=injected)
    return parse_run_output(result.stdout, result.stderr, print_outputs,
                            injected=injected)


def _stalled(name: str, stall_timeout: float, result: _Supervised,
             injected: bool) -> NativeStallError:
    """Record a watchdog kill and describe it by its last heartbeat."""
    beats = [beat for beat in map(parse_heartbeat,
                                  result.stderr.splitlines()) if beat]
    beat = beats[-1] if beats else {}
    last_filter = hot_filter(beat)
    obs_metrics.counter("native.stall").inc()
    obs_bus.emit_event(
        "native.stall", binary=name, stall_timeout=stall_timeout,
        beats=len(beats), last_iter=beat.get("iter"),
        last_filter=last_filter, injected=injected)
    where = f" in filter {last_filter!r}" if last_filter else ""
    return NativeStallError(
        f"no heartbeat within {stall_timeout:g}s "
        f"(last beat: iteration {beat.get('iter', 'none')}"
        f"{where}, {len(beats)} beat(s) total)"
        + (" (injected bin-hang)" if injected else ""),
        injected=injected)


def parse_run_output(stdout: str, stderr: str, print_outputs: bool,
                     injected: bool = False) -> NativeRun:
    """Parse the stderr side channel, rejecting protocol violations.

    Every required field (``checksum``, ``outputs``, ``seconds``) must
    appear exactly once; unknown lines are ignored (compilers and libcs
    chat on stderr), but a missing, duplicated or unparseable field
    raises :class:`NativeProtocolError` — never a silent default of 0.
    """
    seen: dict[str, list[str]] = {"checksum": [], "outputs": [],
                                  "seconds": []}
    profile: dict | None = None
    profile_lines = 0
    heartbeats: list[dict] = []
    for line in stderr.splitlines():
        if line.startswith(HEARTBEAT_PREFIX):
            beat = parse_heartbeat(line)
            if beat is not None:
                heartbeats.append(beat)
            continue
        if line.startswith("profile-json "):
            profile_lines += 1
            try:
                profile = json.loads(line[len("profile-json "):])
            except json.JSONDecodeError as error:
                raise NativeProtocolError(
                    f"unparseable profile-json line: {error}",
                    injected=injected) from None
            continue
        parts = line.split()
        if len(parts) == 2 and parts[0] in seen:
            seen[parts[0]].append(parts[1])
    problems = []
    for key in ("checksum", "outputs", "seconds"):
        count = len(seen[key])
        if count == 0:
            problems.append(f"missing '{key}' line")
        elif count > 1:
            problems.append(f"'{key}' line appears {count} times")
    if profile_lines > 1:
        problems.append(f"profile-json line appears {profile_lines} times")
    if problems:
        excerpt = stderr.strip()[:500] or "<empty>"
        raise NativeProtocolError(
            "native output protocol violated: " + "; ".join(problems)
            + f"; stderr was:\n{excerpt}", injected=injected)
    try:
        checksum = int(seen["checksum"][0], 16)
        count = int(seen["outputs"][0])
        seconds = float(seen["seconds"][0])
    except ValueError as error:
        raise NativeProtocolError(
            f"unparseable protocol field: {error}",
            injected=injected) from None
    outputs: list[float | int] = []
    if print_outputs:
        for line in stdout.splitlines():
            text = line.strip()
            if not text:
                continue
            try:
                outputs.append(int(text) if _is_int(text)
                               else float(text))
            except ValueError:
                raise NativeProtocolError(
                    f"unparseable output token {text!r}",
                    injected=injected) from None
    return NativeRun(checksum=checksum, output_count=count,
                     seconds=seconds, outputs=outputs, profile=profile,
                     heartbeats=heartbeats)


def _is_int(text: str) -> bool:
    if text == "-0":
        # %d never prints "-0"; this is %.17g rendering a negative zero,
        # and parsing it as int 0 would lose the sign bit.
        return False
    if text.startswith("-"):
        text = text[1:]
    return text.isdigit()


def compile_and_run(code: str, iterations: int,
                    print_outputs: bool = False,
                    workdir: Path | None = None,
                    name: str = "prog",
                    keep_artifacts: bool | None = None,
                    heartbeat_ms: int | None = None,
                    stall_timeout: float | None = None) -> NativeRun:
    """Compile and run with full temp-dir lifecycle management.

    Auto-created workdirs are deleted on success, kept on real failures
    (the path is appended to the diagnostic) and deleted on injected
    ones; ``keep_artifacts`` (or ``REPRO_KEEP_ARTIFACTS=1``) keeps them
    unconditionally.  Caller-supplied ``workdir``s are never removed.
    ``heartbeat_ms``/``stall_timeout`` are :func:`run_binary`'s.
    """
    _check_watchdog(heartbeat_ms, stall_timeout)
    keep = keep_artifacts if keep_artifacts is not None \
        else default_keep_artifacts()
    owned = workdir is None
    with trace.span("native", name=name) as span:
        # compile_c applies the failure policy for the dir it creates.
        binary = compile_c(code, workdir=workdir, name=name,
                           keep_artifacts=keep)
        workdir = binary.parent
        try:
            run = run_binary(binary, iterations,
                             print_outputs=print_outputs,
                             heartbeat_ms=heartbeat_ms,
                             stall_timeout=stall_timeout)
        except NativeToolchainError as error:
            kept = _finish_workdir(workdir, owned, error, keep)
            raise _with_artifacts(error, kept) from error.__cause__
        kept = _finish_workdir(workdir, owned, None, keep)
        if kept is not None:
            span.annotate(artifacts=kept)
        return run
