"""Crash-safe serving: worker pool, admission, breaker, drain, chaos."""

from __future__ import annotations

import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.api import compile_source
from repro.backend.common import checksum_outputs
from repro.cache import ArtifactCache
from repro.faults import FaultPlan, inject
from repro.obs import ledger as obs_ledger
from repro.serve import (AdmissionQueue, CircuitBreaker, CircuitOpenError,
                         ServeClient, ServeServer, ShedRequest, WorkerPool)
from repro.serve import pool as pool_mod

COUNTER_PROGRAM = """
void->int filter CountCS() {
  int x;
  init { x = 3; }
  work push 1 {
    push(x);
    x = x + 1;
  }
}

int->void filter DropCS() {
  work pop 1 { println(pop()); }
}

void->void pipeline CountingCS {
  add CountCS();
  add DropCS();
}
"""


def _oracle(iterations: int) -> str:
    outputs = compile_source(COUNTER_PROGRAM, "<oracle>") \
        .run_laminar(iterations).outputs
    return f"{checksum_outputs(outputs):016x}"


class _OneShotPlan(FaultPlan):
    """Fires ``site`` exactly ``times`` times, then never again."""

    def __init__(self, site: str, times: int = 1):
        super().__init__(rates={site: 1.0})
        self._site = site
        self._left = times

    def should_fire(self, site: str) -> bool:
        if site == self._site and self._left > 0:
            self._left -= 1
            self.fired[site] = self.fired.get(site, 0) + 1
            return True
        return False


# -- the worker pool ----------------------------------------------------------

class TestWorkerPool:
    def test_interp_round_trip(self):
        pool = WorkerPool(size=1, job_timeout=60)
        try:
            reply = pool.submit({"kind": "interp",
                                 "source": COUNTER_PROGRAM,
                                 "iterations": 5})
            assert reply["ok"] is True
            assert reply["checksum"] == _oracle(5)
            assert reply["outputs"] == 5
        finally:
            pool.close()

    def test_injected_kill_is_retried_once(self):
        pool = WorkerPool(size=1, job_timeout=60)
        try:
            with inject(_OneShotPlan("worker-kill")):
                reply = pool.submit({"kind": "interp",
                                     "source": COUNTER_PROGRAM,
                                     "iterations": 4})
            assert reply["ok"] is True
            assert reply["checksum"] == _oracle(4)
            assert pool.crashes == 1
            assert pool.retries == 1
        finally:
            pool.close()

    def test_kill_on_both_attempts_is_pool_exhausted(self):
        pool = WorkerPool(size=1, job_timeout=60)
        try:
            with inject(FaultPlan.parse("worker-kill:1")):
                with pytest.raises(pool_mod.PoolExhausted):
                    pool.submit({"kind": "interp",
                                 "source": COUNTER_PROGRAM,
                                 "iterations": 4})
            assert pool.crashes == 2
        finally:
            pool.close()

    def test_hang_is_caught_by_deadline_and_retried(self):
        pool = WorkerPool(size=1, job_timeout=1.5)
        try:
            with inject(_OneShotPlan("worker-hang")):
                reply = pool.submit({"kind": "interp",
                                     "source": COUNTER_PROGRAM,
                                     "iterations": 4})
            assert reply["ok"] is True
            assert pool.hangs == 1
        finally:
            pool.close()

    def test_close_leaves_no_worker_processes(self):
        pool = WorkerPool(size=2, job_timeout=60)
        pool.submit({"kind": "interp", "source": COUNTER_PROGRAM,
                     "iterations": 2})
        pids = list(pool.all_pids)
        assert pids
        pool.close()
        deadline = time.monotonic() + 3.0
        while pool.live_pids() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert pool.live_pids() == []
        for pid in pids:
            with pytest.raises((ProcessLookupError, PermissionError)):
                os.kill(pid, 0)

    def test_close_releases_every_pipe(self, monkeypatch):
        # An unclosed pipe warns from its finalizer, where the error
        # filter turns the ResourceWarning into an unraisable exception.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            pool = WorkerPool(size=1, job_timeout=60)
            pool.submit({"kind": "interp", "source": COUNTER_PROGRAM,
                         "iterations": 2})
            pool.close()
            deadline = time.monotonic() + 3.0
            while any(thread.name.startswith("repro-pool-stderr-")
                      for thread in threading.enumerate()) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            del pool
            gc.collect()
        assert [str(record.exc_value) for record in unraisable] == []

    def test_job_level_compile_error_is_structured_not_a_crash(self):
        pool = WorkerPool(size=1, job_timeout=60)
        try:
            reply = pool.submit({"kind": "interp",
                                 "source": "this is not a program",
                                 "iterations": 2})
            assert reply["ok"] is False
            assert reply["kind"] == "compile-error"
            assert pool.crashes == 0  # the worker survived the bad job
            # ...and is still serviceable afterwards.
            again = pool.submit({"kind": "interp",
                                 "source": COUNTER_PROGRAM,
                                 "iterations": 3})
            assert again["ok"] is True
        finally:
            pool.close()

    def test_resource_exhausted_crosses_the_pipe(self):
        pool = WorkerPool(size=1, job_timeout=60)
        try:
            reply = pool.submit({"kind": "interp",
                                 "source": COUNTER_PROGRAM,
                                 "iterations": 3, "limits": "ops=1"})
            assert reply["ok"] is False
            assert reply["kind"] == "resource-exhausted"
            assert reply["resource"]
        finally:
            pool.close()


# -- admission queue + circuit breaker ---------------------------------------

class TestAdmissionQueue:
    def test_admits_within_capacity(self):
        queue = AdmissionQueue(capacity=2)
        with queue.admit():
            with queue.admit():
                assert queue.stats()["active"] == 2

    def test_sheds_when_queue_full(self):
        queue = AdmissionQueue(capacity=1, queue_limit=0)
        release = threading.Event()

        def hold():
            with queue.admit():
                release.wait(timeout=5)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        deadline = time.monotonic() + 2
        while queue.stats()["active"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        with pytest.raises(ShedRequest) as info:
            with queue.admit():
                pass
        assert info.value.retry_after > 0
        release.set()
        holder.join()

    def test_deadline_expiry_sheds_while_queued(self):
        queue = AdmissionQueue(capacity=1, queue_limit=4)
        release = threading.Event()

        def hold():
            with queue.admit():
                release.wait(timeout=5)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        deadline = time.monotonic() + 2
        while queue.stats()["active"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        started = time.monotonic()
        with pytest.raises(ShedRequest):
            with queue.admit(deadline=0.1):
                pass
        assert time.monotonic() - started < 2.0
        release.set()
        holder.join()

    def test_service_estimate_tracks_completions(self):
        queue = AdmissionQueue(capacity=1)
        before = queue.service_estimate()
        with queue.admit():
            time.sleep(0.05)
        assert queue.service_estimate() != before


class TestCircuitBreaker:
    def test_opens_after_threshold_and_caches_the_error(self):
        breaker = CircuitBreaker(threshold=3, cooldown=60)
        for _ in range(3):
            breaker.failure("key1", "cc exploded")
        with pytest.raises(CircuitOpenError) as info:
            breaker.check("key1")
        assert "cc exploded" in str(info.value)
        assert info.value.retry_after > 0
        assert breaker.state("key1") == "open"
        # Other keys are unaffected.
        breaker.check("key2")

    def test_below_threshold_stays_closed(self):
        breaker = CircuitBreaker(threshold=3, cooldown=60)
        breaker.failure("key", "boom")
        breaker.failure("key", "boom")
        breaker.check("key")
        assert breaker.state("key") == "closed"

    def test_half_open_probe_then_close_on_success(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.05)
        breaker.failure("key", "boom")
        with pytest.raises(CircuitOpenError):
            breaker.check("key")
        time.sleep(0.08)
        breaker.check("key")  # the half-open probe gets through...
        with pytest.raises(CircuitOpenError):
            breaker.check("key")  # ...but only one of them
        breaker.success("key")
        breaker.check("key")
        assert breaker.state("key") == "closed"

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.05)
        breaker.failure("key", "boom")
        time.sleep(0.08)
        breaker.check("key")
        breaker.failure("key", "boom again")
        with pytest.raises(CircuitOpenError) as info:
            breaker.check("key")
        assert "boom again" in str(info.value)


# -- the daemon under injected worker faults ----------------------------------

class TestServeUnderFaults:
    @pytest.fixture()
    def server(self, tmp_path):
        instance = ServeServer(socket_path=tmp_path / "d.sock",
                               cache=ArtifactCache(tmp_path / "cache"),
                               workers=1, job_timeout=20).start()
        yield instance
        instance.stop()

    @pytest.fixture()
    def client(self, server):
        handle = ServeClient(socket_path=server.socket_path)
        assert handle.wait_ready()
        return handle

    def test_worker_kill_recovery(self, server, client):
        with inject(_OneShotPlan("worker-kill")):
            response = client.run(source=COUNTER_PROGRAM, route="interp",
                                  iterations=6)
        assert response.status == 200
        assert response.json["checksum"] == _oracle(6)
        health = client.healthz().json
        assert health["pool"]["crashes"] == 1
        assert health["pool"]["retries"] == 1

    def test_worker_kill_exhausted_maps_to_503(self, server, client):
        with inject(FaultPlan.parse("worker-kill:1")):
            response = client.run(source=COUNTER_PROGRAM, route="interp",
                                  iterations=6)
        assert response.status == 503
        body = response.json
        assert body["kind"] == "worker-crashed"
        assert body["exit_code"] == 4
        record = client.debug_trace(response.request_id).json["record"]
        assert record["status"] == 503
        assert record["error"] == "worker-crashed"
        # The daemon survives and serves the next request normally.
        ok = client.run(source=COUNTER_PROGRAM, route="interp",
                        iterations=6)
        assert ok.status == 200
        assert ok.json["checksum"] == _oracle(6)

    def test_healthz_reports_supervision_state(self, client):
        body = client.healthz().json
        assert body["status"] == "ok"
        for section in ("pool", "admission", "breaker"):
            assert section in body
        assert body["admission"]["capacity"] >= 1

    def test_bad_deadline_ms_is_a_usage_error(self, client):
        response = client.run(source=COUNTER_PROGRAM, iterations=2,
                              deadline_ms=-5)
        assert response.status == 400

    def test_shed_carries_retry_after_header(self, server, client):
        class _AlwaysShed:
            def admit(self, deadline=None):
                raise ShedRequest("overloaded (test)", retry_after=2.2)

            def stats(self):
                return {"capacity": 0}

        original = server.admission
        server.admission = _AlwaysShed()
        try:
            response = client.run(source=COUNTER_PROGRAM, iterations=2)
        finally:
            server.admission = original
        assert response.status == 429
        assert response.json["kind"] == "shed"
        assert response.headers.get("retry-after") == "3"

    def test_circuit_opens_on_repeated_build_failures(self, server,
                                                      client):
        with inject(FaultPlan.parse("cc-missing:1")):
            for _ in range(server.breaker.threshold):
                response = client.run(source=COUNTER_PROGRAM,
                                      route="native", iterations=2)
                assert response.status == 503
                assert response.json["kind"] == "native-compile"
            # The circuit is open now: fail fast, cached error, hint.
            response = client.run(source=COUNTER_PROGRAM, route="native",
                                  iterations=2)
            assert response.status == 503
            assert response.json["kind"] == "circuit-open"
            assert "retry-after" in response.headers
            # auto degrades through the open circuit to the interpreter.
            degraded = client.run(source=COUNTER_PROGRAM, route="auto",
                                  iterations=3)
            assert degraded.status == 200
            assert degraded.json["route"] == "interp"
            assert degraded.json["degraded"] is True
            assert degraded.json["checksum"] == _oracle(3)


# -- the pool is the only execution path -------------------------------------

class TestPoolOnly:
    def test_zero_workers_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ServeServer(socket_path=tmp_path / "d.sock",
                        cache=ArtifactCache(tmp_path / "cache"), workers=0)

    @pytest.mark.parametrize("command", ["serve", "chaos"])
    def test_cli_zero_workers_is_a_usage_error(self, command):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                                / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", command, "--workers", "0"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "--workers" in proc.stderr

    def test_run_after_stop_is_503_draining(self, tmp_path):
        server = ServeServer(socket_path=tmp_path / "d.sock",
                             cache=ArtifactCache(tmp_path / "cache")).start()
        server.stop()
        status, _, body, _ = server.handle(
            "POST", "/run", json.dumps({"source": COUNTER_PROGRAM,
                                        "route": "interp"}).encode())
        assert status == 503
        payload = json.loads(body)
        assert payload["kind"] == "draining"
        assert payload["exit_code"] == 4
        assert server.pool.all_pids == []  # nothing ran anywhere


# -- graceful drain -----------------------------------------------------------

SLOW_ITERATIONS = 400_000  # ~1.5 s of interpreter work


class TestDrain:
    def test_drain_waits_for_inflight(self, tmp_path):
        server = ServeServer(socket_path=tmp_path / "d.sock",
                             cache=ArtifactCache(tmp_path / "cache"),
                             workers=1, max_iterations=SLOW_ITERATIONS).start()
        client = ServeClient(socket_path=server.socket_path)
        assert client.wait_ready()
        result = {}

        def slow_run():
            result["response"] = client.run(source=COUNTER_PROGRAM,
                                            route="interp",
                                            iterations=SLOW_ITERATIONS)

        thread = threading.Thread(target=slow_run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            # /healthz counts itself, so "something else in flight" is 2.
            if client.healthz().json["inflight"] >= 2:
                break
            time.sleep(0.01)
        else:
            pytest.fail("slow request never showed up in flight")
        assert server.drain(timeout=30) is True
        thread.join(timeout=30)
        response = result["response"]
        assert response.status == 200
        assert response.json["checksum"] == _oracle(SLOW_ITERATIONS)
        # The listener is gone: new connections are refused outright.
        with pytest.raises(OSError):
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                raw.connect(str(server.socket_path))
            finally:
                raw.close()
        server.stop()  # idempotent after drain

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        sock = tmp_path / "daemon.sock"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
               if p])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             str(sock), "--no-access-log", "--workers", "1",
             "--drain-timeout", "30",
             "--max-iterations", str(SLOW_ITERATIONS),
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            client = ServeClient(socket_path=sock)
            assert client.wait_ready(timeout=30)
            result = {}

            def slow_run():
                result["response"] = client.run(
                    source=COUNTER_PROGRAM, route="interp",
                    iterations=SLOW_ITERATIONS)

            thread = threading.Thread(target=slow_run, daemon=True)
            thread.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.healthz().json["inflight"] >= 2:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("slow request never showed up in flight")
            proc.send_signal(signal.SIGTERM)
            stderr = proc.communicate(timeout=60)[1].decode()
            # Full drain → deterministic exit 0, and the in-flight
            # request completed with the right bits.
            assert proc.returncode == 0, stderr
            assert "draining" in stderr
            thread.join(timeout=30)
            response = result["response"]
            assert response.status == 200
            assert response.json["checksum"] == _oracle(SLOW_ITERATIONS)
            assert not sock.exists()  # socket unlinked on the way out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# -- crash-safe persistent state ----------------------------------------------

class TestCacheCrashSafety:
    def test_scrub_quarantines_partial_publish(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stage = cache.tmp_dir / "deadbeef"
        stage.mkdir(parents=True)
        (stage / "prog.c").write_text("int main(){}")
        report = cache.scrub()
        assert report["stale_tmp"] == 1
        assert not stage.exists()
        assert cache.tmp_dir.is_dir() or not list(
            cache.tmp_dir.iterdir() if cache.tmp_dir.is_dir() else [])

    def test_scrub_quarantines_torn_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        entry = cache.entry_path("ab" * 32)
        entry.mkdir(parents=True)
        (entry / "meta.json").write_text('{"artifacts": ["missing.bin"]')
        report = cache.scrub()
        assert report["quarantined"] == 1
        assert not entry.exists()

    def test_daemon_start_counts_what_its_scrub_moves(self, tmp_path):
        """The daemon's start-up scrub shows on /metrics: tracing is on
        before it runs, and stale staging dirs have a counter too."""
        from repro.obs import metrics as obs_metrics

        cache = ArtifactCache(tmp_path / "cache")
        (cache.tmp_dir / "stage-x").mkdir(parents=True)
        entry = cache.entry_path("ab" * 32)
        entry.mkdir(parents=True)
        (entry / "meta.json").write_text('{"artifacts": ["missing.bin"]')
        obs_metrics.registry().reset()
        server = ServeServer(socket_path=tmp_path / "d.sock", cache=cache,
                             workers=1).start()
        try:
            handle = ServeClient(socket_path=server.socket_path)
            assert handle.wait_ready()
            lines = handle.metrics().splitlines()
        finally:
            server.stop()
        assert "repro_cache_corrupt_total 1" in lines
        assert "repro_cache_stale_tmp_total 1" in lines
        assert len(list(cache.quarantine_dir.iterdir())) == 2

    def test_lookup_tolerates_concurrent_eviction(self, tmp_path):
        import shutil

        cache = ArtifactCache(tmp_path)
        key = "cd" * 32
        cache.publish(key, {"backend": "laminar-c"},
                      {"prog.c": "int main(){}"})
        assert cache.lookup(key) is not None
        # Simulate `cache gc` racing a live daemon: the entry vanishes
        # between requests; the next lookup is a plain miss, not an
        # exception and not a quarantine.
        shutil.rmtree(cache.entry_path(key))
        assert cache.lookup(key) is None

    def test_entries_tolerate_vanishing_dirs(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache._entries() == []
        assert cache.size() == (0, 0)

    def test_publish_survives_fsync_failures(self, tmp_path,
                                             monkeypatch):
        from repro.cache import store

        monkeypatch.setattr(store.os, "fsync",
                            lambda fd: (_ for _ in ()).throw(
                                OSError("no fsync here")))
        cache = ArtifactCache(tmp_path)
        entry = cache.publish("ef" * 32, {"backend": "laminar-c"},
                              {"prog.c": "int main(){}"})
        assert entry is not None
        assert cache.lookup("ef" * 32) is not None


class TestLedgerCrashSafety:
    def test_truncated_record_warns_and_is_skipped(self, tmp_path):
        good = obs_ledger.append(
            obs_ledger.make_body("run", "t1", checksum="00"),
            tmp_path)
        # A crash mid-append leaves a half-written claim file.
        (tmp_path / "000002.json").write_text('{"record_id": "tr')
        with pytest.warns(RuntimeWarning, match="unparseable"):
            records = obs_ledger.load_records(tmp_path)
        assert [env["record_id"] for env in records] \
            == [good["record_id"]]

    def test_append_then_load_roundtrip(self, tmp_path):
        body = obs_ledger.make_body("run", "t2", checksum="ff")
        envelope = obs_ledger.append(body, tmp_path)
        records = obs_ledger.load_records(tmp_path)
        assert records[-1]["record_id"] == envelope["record_id"]


class TestTailTruncation:
    def test_truncated_trailing_line_warns(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "access.jsonl"
        record = {"type": "access", "wall_time": 0.0, "request_id": "r1",
                  "method": "POST", "route": "/run", "status": 200,
                  "duration_ms": 1.0}
        log.write_text(json.dumps(record) + "\n"
                       + json.dumps(record)[:25])
        assert main(["tail", str(log), "--color", "never"]) == 0
        captured = capsys.readouterr()
        assert "r1" in captured.out
        assert "truncated" in captured.err

    def test_unparseable_middle_line_warns_and_continues(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        log = tmp_path / "access.jsonl"
        record = {"type": "access", "wall_time": 0.0, "request_id": "r2",
                  "method": "POST", "route": "/run", "status": 200,
                  "duration_ms": 1.0}
        log.write_text('{"half a rec\n' + json.dumps(record) + "\n")
        assert main(["tail", str(log), "--color", "never"]) == 0
        captured = capsys.readouterr()
        assert "r2" in captured.out
        assert "unparseable" in captured.err


# -- client retry -------------------------------------------------------------

class TestClientRetry:
    def test_connection_refused_is_retried_once(self, tmp_path):
        server = ServeServer(socket_path=tmp_path / "d.sock",
                             cache=ArtifactCache(tmp_path / "cache")).start()
        try:
            client = ServeClient(socket_path=server.socket_path)
            real = client._connection
            attempts = []

            def flaky():
                attempts.append(1)
                if len(attempts) == 1:
                    raise ConnectionRefusedError("starting up")
                return real()

            client._connection = flaky
            response = client.healthz()
            assert response.ok
            assert len(attempts) == 2
            assert response.json["pool"]["spawned"] == 0
        finally:
            server.stop()

    def test_gives_up_after_one_retry(self, tmp_path):
        client = ServeClient(socket_path=tmp_path / "never.sock",
                             connect_timeout=0.5)
        started = time.monotonic()
        with pytest.raises((ConnectionRefusedError, FileNotFoundError)):
            client.request("GET", "/healthz")
        assert time.monotonic() - started < 5.0

    def test_timeout_knobs(self):
        client = ServeClient(port=1, connect_timeout=3.5,
                             read_timeout=7.5)
        assert client.connect_timeout == 3.5
        assert client.timeout == 7.5
        connection = client._connection()
        assert connection.connect_timeout == 3.5
        assert connection.timeout == 7.5


# -- the chaos harness (smoke-sized) ------------------------------------------

class TestChaosHarness:
    def test_small_campaign_is_clean(self):
        from repro.serve import chaos

        report = chaos.run_campaign(seed=7, requests=20, clients=4,
                                    kill_rate=0.3, route="interp",
                                    iterations=4, workers=2, variants=2)
        assert report.ok, report.to_dict()
        assert report.issued == 20
        assert report.bit_wrong == 0
        assert report.orphan_workers == 0
        assert report.leaked_dirs == []
        assert report.injected.get("worker-kill", 0) > 0

    def test_report_shape(self):
        from repro.serve.chaos import ChaosReport

        report = ChaosReport(seed=1, requests=10)
        summary = report.to_dict()
        for field in ("seed", "requests", "succeeded", "bit_wrong",
                      "success_rate", "orphan_workers", "leaked_dirs",
                      "ok"):
            assert field in summary
