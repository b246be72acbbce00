"""A seeded chaos campaign against a live serve daemon.

``python -m repro chaos`` stands up a real :class:`ServeServer` (Unix
socket, worker pool on), points ``--clients`` concurrent
:class:`ServeClient` threads at it, and — while they hammer ``/run`` —
injects failures through the ambient fault plan: ``worker-kill`` dies
mid-job exactly like the OOM killer, ``worker-hang`` wedges a worker
until the pool's deadline fires, and any extra ``--inject`` sites
(``cc-crash``, ``bin-garbage``, …) exercise the PR 5 seams underneath.

The harness then asserts the crash-safety contract end to end:

* **zero bit-wrong responses** — every 200 carries exactly the oracle
  checksum (computed once, in-process, before any fault is armed);
* **bounded availability loss** — each logical request may retry
  (honouring ``Retry-After``), and ≥ 99% must eventually succeed;
* **the daemon never restarts** — one process, one server object,
  answering ``/healthz`` after the storm;
* **zero leaks** — no surviving worker processes and no new
  ``repro_native_*`` / ``repro_cache_build_*`` temp directories.

Chaos engineering only earns its keep when runs are comparable, so the
campaign is seeded: the fault plan's per-site RNG streams and the
request mix both derive from ``--seed``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import compile_source
from repro.backend.common import checksum_outputs
from repro.cache import ArtifactCache
from repro.faults import FaultPlan, inject
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeServer

__all__ = ["ChaosReport", "run_campaign"]

DEFAULT_REQUESTS = 200
DEFAULT_CLIENTS = 8
DEFAULT_KILL_RATE = 0.1
DEFAULT_ITERATIONS = 8
MIN_SUCCESS_RATE = 0.99
# Attempts per logical request: first try + retries.  Generous on
# purpose — the contract is *eventual* success under injected faults.
MAX_ATTEMPTS = 6

# Temp-dir prefixes that indicate a leak when they survive the campaign
# (native build dirs and cache publish stages).
LEAK_PREFIXES = ("repro_native_", "repro_cache_build_")

_CHAOS_TEMPLATE = """
void->int filter Count%(tag)s() {
  int x;
  init { x = %(start)s; }
  work push 1 {
    push(x);
    x = x + 2;
  }
}

int->void filter Drop%(tag)s() {
  work pop 1 { println(pop()); }
}

void->void pipeline Chaos%(tag)s {
  add Count%(tag)s();
  add Drop%(tag)s();
}
"""


@dataclass
class ChaosReport:
    """Outcome of one campaign; ``ok`` is the pass/fail verdict."""

    seed: int
    requests: int
    issued: int = 0
    succeeded: int = 0
    failed: int = 0
    bit_wrong: int = 0
    retries: int = 0
    status_counts: dict = field(default_factory=dict)
    injected: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    orphan_workers: int = 0
    leaked_dirs: list = field(default_factory=list)
    daemon_alive_after: bool = False
    wall_seconds: float = 0.0

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.issued if self.issued else 1.0

    @property
    def ok(self) -> bool:
        return (self.bit_wrong == 0
                and self.success_rate >= MIN_SUCCESS_RATE
                and self.orphan_workers == 0
                and not self.leaked_dirs
                and self.daemon_alive_after)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed, "requests": self.requests,
            "issued": self.issued, "succeeded": self.succeeded,
            "failed": self.failed, "bit_wrong": self.bit_wrong,
            "retries": self.retries,
            "success_rate": round(self.success_rate, 5),
            "status_counts": dict(sorted(self.status_counts.items())),
            "injected": self.injected, "pool": self.pool,
            "orphan_workers": self.orphan_workers,
            "leaked_dirs": self.leaked_dirs,
            "daemon_alive_after": self.daemon_alive_after,
            "wall_seconds": round(self.wall_seconds, 3),
            "ok": self.ok,
        }


def _snapshot_tmp() -> set[str]:
    tmp = Path(tempfile.gettempdir())
    try:
        return {entry.name for entry in tmp.iterdir()
                if entry.name.startswith(LEAK_PREFIXES)}
    except OSError:
        return set()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def run_campaign(*, seed: int = 0, requests: int = DEFAULT_REQUESTS,
                 clients: int = DEFAULT_CLIENTS,
                 kill_rate: float = DEFAULT_KILL_RATE,
                 hang_rate: float = 0.0,
                 duration: float | None = None,
                 iterations: int = DEFAULT_ITERATIONS,
                 workers: int = 2, variants: int = 4,
                 route: str = "auto", extra_inject: str = "",
                 progress=None) -> ChaosReport:
    """Run one seeded chaos campaign; returns its :class:`ChaosReport`.

    ``duration`` optionally caps the issuing phase in wall-clock
    seconds (requests not yet started by then are simply not issued —
    they do not count against availability).  ``extra_inject`` is a
    ``site:rate`` spec layered on top of the worker sites.
    """
    report = ChaosReport(seed=seed, requests=requests)
    started = time.monotonic()
    tmp_before = _snapshot_tmp()

    # The oracle: ground-truth checksums straight from the interpreter,
    # computed before any fault plan is armed.
    sources = [_CHAOS_TEMPLATE % {"tag": f"V{index}",
                                  "start": seed % 97 + index}
               for index in range(max(1, variants))]
    oracle = {}
    for source in sources:
        outputs = compile_source(source, "<chaos>") \
            .run_laminar(iterations).outputs
        oracle[source] = f"{checksum_outputs(outputs):016x}"

    spec_parts = []
    if kill_rate > 0:
        spec_parts.append(f"worker-kill:{kill_rate}")
    if hang_rate > 0:
        spec_parts.append(f"worker-hang:{hang_rate}")
    if extra_inject:
        spec_parts.append(extra_inject)
    plan = FaultPlan.parse(",".join(spec_parts), seed=seed) \
        if spec_parts else FaultPlan(seed=seed)

    root = Path(tempfile.mkdtemp(prefix="repro_chaos_"))
    # A short pool job deadline keeps injected worker-hangs from
    # stalling the campaign: a hang costs seconds, not the production
    # ``pool.DEFAULT_JOB_TIMEOUT``.  It undercuts the runner's own run
    # timeout, which is safe only because the campaign's programs run
    # for milliseconds.
    server = ServeServer(socket_path=root / "chaos.sock",
                         cache=ArtifactCache(root / "cache"),
                         workers=workers,
                         job_timeout=10.0).start()
    lock = threading.Lock()
    next_index = 0
    stop_at = started + duration if duration is not None else None

    def take_index() -> int | None:
        nonlocal next_index
        with lock:
            if next_index >= requests:
                return None
            if stop_at is not None and time.monotonic() >= stop_at:
                return None
            index = next_index
            next_index += 1
        return index

    def count_status(status: int) -> None:
        with lock:
            key = str(status)
            report.status_counts[key] = \
                report.status_counts.get(key, 0) + 1

    def client_loop() -> None:
        handle = ServeClient(socket_path=server.socket_path,
                             read_timeout=60.0)
        while True:
            index = take_index()
            if index is None:
                return
            source = sources[index % len(sources)]
            outcome = "failed"
            for attempt in range(MAX_ATTEMPTS):
                if attempt:
                    with lock:
                        report.retries += 1
                try:
                    response = handle.run(source=source, route=route,
                                          iterations=iterations)
                except OSError:
                    time.sleep(0.05 * (attempt + 1))
                    continue
                count_status(response.status)
                if response.ok:
                    if response.json["checksum"] != oracle[source]:
                        outcome = "bit_wrong"
                    else:
                        outcome = "succeeded"
                    break
                retry_after = response.headers.get("retry-after")
                try:
                    pause = min(float(retry_after), 1.0) \
                        if retry_after else 0.05 * (attempt + 1)
                except ValueError:
                    pause = 0.05 * (attempt + 1)
                time.sleep(pause)
            with lock:
                report.issued += 1
                if outcome == "succeeded":
                    report.succeeded += 1
                elif outcome == "bit_wrong":
                    report.bit_wrong += 1
                    report.failed += 1
                else:
                    report.failed += 1
            if progress is not None and report.issued % 25 == 0:
                progress(report)

    with inject(plan):
        threads = [threading.Thread(target=client_loop,
                                    name=f"chaos-client-{index}",
                                    daemon=True)
                   for index in range(max(1, clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # The daemon must still be the same live process/server: one last
    # health probe before teardown (a restarted daemon would have lost
    # the Unix socket and its in-memory counters).
    try:
        health = ServeClient(socket_path=server.socket_path).healthz()
        report.daemon_alive_after = health.ok
        report.pool = health.json.get("pool", {})
    except OSError:
        report.daemon_alive_after = False

    worker_pids = list(server.pool.all_pids)
    server.stop()
    deadline = time.monotonic() + 2.0
    while any(_pid_alive(pid) for pid in worker_pids) \
            and time.monotonic() < deadline:
        time.sleep(0.02)
    report.orphan_workers = sum(1 for pid in worker_pids
                                if _pid_alive(pid))
    report.injected = dict(plan.fired)
    shutil.rmtree(root, ignore_errors=True)

    # Leak check: new native/build temp dirs that survived the campaign
    # (give unlinks a moment to land on slow filesystems).
    time.sleep(0.1)
    report.leaked_dirs = sorted(_snapshot_tmp() - tmp_before)
    report.wall_seconds = time.monotonic() - started
    return report
