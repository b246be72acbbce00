"""The serve daemon: round-trips over a Unix socket, errors, dedup."""

from __future__ import annotations

import json
import threading

import pytest

from repro.backend.common import checksum_outputs
from repro.cache import ArtifactCache
from repro.serve import ServeClient, ServeServer

from .conftest import DEMO_PROGRAM, TINY_PROGRAM, requires_cc

COUNTER_PROGRAM_TEMPLATE = """
void->int filter Count%(tag)s() {
  int x;
  init { x = %(start)s; }
  work push 1 {
    push(x);
    x = x + 1;
  }
}

int->void filter Drop%(tag)s() {
  work pop 1 { println(pop()); }
}

void->void pipeline Counting%(tag)s {
  add Count%(tag)s();
  add Drop%(tag)s();
}
"""


def _program(tag: str, start: int = 0) -> str:
    return COUNTER_PROGRAM_TEMPLATE % {"tag": tag, "start": start}


def _record(client, response) -> dict:
    """The access record the daemon kept for ``response``."""
    return client.debug_trace(response.request_id).json["record"]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    instance = ServeServer(socket_path=root / "d.sock",
                           cache=ArtifactCache(root / "cache"),
                           max_iterations=4096).start()
    yield instance
    instance.stop()


@pytest.fixture(scope="module")
def client(server):
    handle = ServeClient(socket_path=server.socket_path)
    assert handle.wait_ready()
    return handle


class TestPlumbing:
    def test_healthz(self, client):
        body = client.healthz().json
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0

    def test_unknown_endpoint_404(self, client):
        response = client.request("GET", "/nope")
        assert response.status == 404
        assert response.json["exit_code"] == 2
        assert _record(client, response)["error"] == "usage"

    def test_metrics_exposition(self, client):
        text = client.metrics()
        assert text.rstrip().endswith("# EOF")
        assert "repro_serve_requests_total" in text

    def test_cache_stats_endpoint(self, client, server):
        stats = client.cache_stats()
        assert stats["root"] == str(server.cache.root)
        assert "entries" in stats and "bytes" in stats

    def test_tcp_transport_too(self, tmp_path):
        instance = ServeServer(port=0,
                               cache=ArtifactCache(tmp_path)).start()
        try:
            tcp = ServeClient(host=instance.host, port=instance.port)
            assert tcp.wait_ready()
            assert tcp.healthz().json["status"] == "ok"
        finally:
            instance.stop()


class TestValidation:
    def test_body_must_be_json(self, client):
        response = client.request("POST", "/run", None)
        assert response.status == 400

    def test_source_xor_benchmark(self, client):
        response = client.run(source="x", benchmark="filterbank",
                              iterations=4)
        assert (response.status, response.json["exit_code"]) == (400, 2)
        response = client.run(iterations=4)
        assert response.status == 400

    def test_unknown_benchmark(self, client):
        response = client.run(benchmark="quicksort", iterations=4)
        assert response.status == 400
        assert "quicksort" in response.json["error"]

    def test_unknown_backend_and_route(self, client):
        assert client.run(benchmark="autocor", backend="jit",
                          iterations=4).status == 400
        assert client.run(benchmark="autocor", route="carrier-pigeon",
                          iterations=4).status == 400

    def test_bad_pipeline_rejected(self, client):
        response = client.compile(benchmark="autocor",
                                  pipeline="fold,launder")
        assert response.status == 400
        assert "launder" in response.json["error"]

    def test_bad_iterations(self, client):
        assert client.run(benchmark="autocor",
                          iterations=-1).status == 400
        assert client.run(benchmark="autocor",
                          iterations="many").status == 400
        assert client.run(benchmark="autocor",
                          iterations=True).status == 400

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, client, server,
                                             length):
        import socket

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(server.socket_path)
            sock.sendall(f"POST /run HTTP/1.1\r\nHost: d\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode().split("\r\n")
        assert status_line.split()[1] == "400"
        payload = json.loads(body)
        assert payload["kind"] == "usage"
        assert payload["exit_code"] == 2
        headers = {name.lower(): value for name, value
                   in (line.split(": ", 1) for line in header_lines)}
        assert headers["connection"] == "close"
        # Counted and recorded like any other request.
        record = client.debug_trace(headers["x-request-id"]).json["record"]
        assert record["route"] == "/run"
        assert record["status"] == 400

    def test_compile_error_maps_to_422(self, client):
        response = client.compile(source="void->void pipeline P { }")
        assert response.status == 422
        assert response.json["exit_code"] == 1
        assert response.json["kind"] == "compile-error"


class TestAdmission:
    def test_iterations_cap_rejected_429(self, client):
        response = client.run(benchmark="autocor", iterations=5000)
        assert response.status == 429
        body = response.json
        assert body["kind"] == "resource-exhausted"
        assert body["exit_code"] == 3

    def test_request_limits_reject_cold_compile(self, client):
        response = client.run(source=_program("Admit"), iterations=4,
                              route="interp", limits="ops=1")
        assert response.status == 429
        body = response.json
        assert body["exit_code"] == 3
        assert body["resource"] == "max_unrolled_ops"
        assert _record(client, response)["error"] == "resource-exhausted"

    def test_bad_limits_spec_is_usage(self, client):
        response = client.run(benchmark="autocor", iterations=4,
                              limits="volts=9")
        assert response.status == 400


class TestInterpRoute:
    def test_run_interp(self, client):
        response = client.run(source=_program("Interp"), iterations=8,
                              route="interp")
        assert response.ok, response.text
        body = response.json
        assert body["route"] == "interp"
        assert body["outputs"] == 8
        assert len(body["checksum"]) == 16

    def test_stream_memo_hit_on_second_request(self, client):
        first = client.run(source=_program("Memo"), iterations=4,
                           route="interp").json
        second = client.run(source=_program("Memo"), iterations=4,
                            route="interp").json
        assert first["stream_cached"] is False
        assert second["stream_cached"] is True
        assert first["checksum"] == second["checksum"]


@requires_cc
class TestNativeRoute:
    def test_cold_then_hot_compile(self, client):
        source = _program("Native")
        cold = client.compile(source=source)
        assert cold.ok, cold.text
        assert cold.json["cache_hit"] is False
        assert _record(client, cold)["cache_hit"] is False
        hot = client.compile(source=source)
        assert hot.json["cache_hit"] is True
        assert _record(client, hot)["cache_hit"] is True
        assert hot.json["key"] == cold.json["key"]
        assert hot.json["components"]["backend"] == "laminar-c"

    def test_run_native_bit_exact_vs_interp(self, client):
        source = _program("Exact")
        native = client.run(source=source, iterations=16).json
        interp = client.run(source=source, iterations=16,
                            route="interp").json
        assert native["route"] == "native"
        assert native["degraded"] is False
        assert native["checksum"] == interp["checksum"]
        assert native["outputs"] == interp["outputs"]

    def test_distinct_options_distinct_keys(self, client):
        source = _program("Opts")
        default = client.compile(source=source).json
        unopt = client.compile(source=source, no_opt=True).json
        assert default["key"] != unopt["key"]

    def test_concurrent_compiles_build_once(self, client, server):
        source = _program("Flight")
        results = []
        barrier = threading.Barrier(4)

        def spin():
            # One connection per thread; all fire together at a cold key.
            mine = ServeClient(socket_path=server.socket_path)
            barrier.wait()
            results.append(mine.compile(source=source))

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        assert len({response.json["key"] for response in results}) == 1
        misses = [response for response in results
                  if not response.json["cache_hit"]]
        assert len(misses) == 1, "single-flight dedup built more than once"
        # The access records say the same: one miss that built, and the
        # requests that waited on its build (the build runs cc, far
        # longer than the others take to arrive) marked dedup.
        records = [_record(client, response) for response in results]
        assert [record["cache_hit"] for record in records] == \
            [response.json["cache_hit"] for response in results]
        assert not _record(client, misses[0])["dedup"]
        assert any(record["dedup"] for record in records)

    def test_fifo_backend_round_trip(self, client):
        response = client.run(source=_program("Fifo"), iterations=8,
                              backend="fifo-c").json
        assert response["route"] == "native"
        assert response["backend"] == "fifo-c"


@requires_cc
@pytest.mark.parametrize("options", [
    {"no_opt": True}, {"no_elim": True}, {"pipeline": "cp,fold,dce"},
    {"pipeline": "cp,promote,fold,carry,cse,dce,schedule"},
], ids=["no_opt", "no_elim", "pipeline", "unrolled"])
@pytest.mark.parametrize("route", ["native", "interp"])
def test_spec_options_bit_exact_on_both_routes(client, demo_stream,
                                               route, options):
    """Each spec option reaches the worker (which re-parses the raw
    fields of an interp job) and leaves the output bits unchanged."""
    outputs = demo_stream.run_laminar(8).outputs
    response = client.run(source=DEMO_PROGRAM, iterations=8, route=route,
                          **options)
    assert response.ok, response.text
    assert response.json["route"] == route
    assert response.json["checksum"] == \
        f"{checksum_outputs(outputs):016x}"


@pytest.mark.parametrize("options,message", [
    ({"no_opt": True, "pipeline": "fold"},
     "'no_opt' cannot be combined with 'pipeline'"),
    ({"no_opt": "false"}, "'no_opt' must be true or false, got 'false'"),
    ({"no_elim": "no"}, "'no_elim' must be true or false, got 'no'"),
    ({"pipeline": "cp,reroll"}, "unknown optimizer pass 'reroll'"),
], ids=["no-opt-with-pipeline", "no-opt-string", "no-elim-string",
        "reroll-is-not-a-pass"])
def test_contradictory_spec_options_are_400(client, options, message):
    """The same contradictions the CLI exits 2 on, with its message; an
    on/off knob takes a JSON boolean, so a truthy string is refused
    rather than turning the optimizer or elimination off."""
    response = client.run(source=DEMO_PROGRAM, iterations=4, **options)
    assert response.status == 400
    assert response.json["exit_code"] == 2
    assert message in response.json["error"]


@pytest.mark.parametrize("field", ["reroll", "reroll_min_repeat"])
@pytest.mark.parametrize("endpoint", ["compile", "run"])
def test_unknown_spec_fields_are_400(client, endpoint, field):
    """A field neither endpoint reads is refused by name, not ignored:
    a client still sending a removed knob learns it has no effect."""
    response = getattr(client, endpoint)(source=DEMO_PROGRAM,
                                         iterations=4, **{field: 8})
    assert response.status == 400
    assert response.json["exit_code"] == 2
    assert f"unknown spec field(s) {field};" in response.json["error"]


class TestCliSurface:
    def test_cache_stats_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "entries:     0" in text

    def test_cache_stats_cli_json(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--json",
                     "--dir", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        assert stats["root"] == str(tmp_path)

    def test_cache_gc_and_clear_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "gc", "--dir", str(tmp_path),
                     "--max-bytes", "0"]) == 0
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "cache clear" in capsys.readouterr().err

    @requires_cc
    def test_serve_self_check_cli(self, tmp_path):
        from repro.cli import main

        assert main(["serve", "--socket", str(tmp_path / "s.sock"),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--self-check"]) == 0


def _flatten_spans(nodes):
    for node in nodes:
        yield node
        yield from _flatten_spans(node["children"])


class TestObservability:
    def test_response_carries_request_identity(self, client):
        from repro.obs import reqctx

        response = client.healthz()
        rid = response.request_id
        assert rid is not None and len(rid) == 16
        assert int(rid, 16) is not None  # hex
        parsed = reqctx.parse_traceparent(response.headers["traceparent"])
        assert parsed is not None
        assert parsed[1] == rid  # the request id is the new parent-id

    def test_traceparent_round_trip_to_debug_trace(self, client):
        trace_id = "ab" * 16
        header = f"00-{trace_id}-{'cd' * 8}-01"
        response = client.run(source=_program("TraceRt"), iterations=4,
                              route="interp", traceparent=header)
        assert response.ok, response.text
        rid = response.request_id
        assert response.headers["traceparent"] == \
            f"00-{trace_id}-{rid}-01"
        entry = client.debug_trace(rid).json
        record = entry["record"]
        assert record["request_id"] == rid
        assert record["trace_id"] == trace_id
        assert record["traceparent_in"] == header
        assert record["route"] == "/run"
        assert record["run_route"] == "interp"
        assert record["status"] == 200
        roots = entry["spans"]
        assert [root["name"] for root in roots] == ["serve.request"]
        spans = list(_flatten_spans(roots))
        assert all(span["attrs"]["request_id"] == rid for span in spans)
        assert all(span["attrs"]["trace_id"] == trace_id
                   for span in spans)

    def test_invalid_traceparent_mints_fresh_ids(self, client):
        from repro.obs import reqctx

        response = client.request("GET", "/healthz",
                                  traceparent="00-banana-xyz-01")
        parsed = reqctx.parse_traceparent(response.headers["traceparent"])
        assert parsed is not None  # fresh, valid identity
        entry = client.debug_trace(response.request_id).json
        assert entry["record"]["traceparent_in"] is None

    def test_debug_requests_most_recent_first(self, client):
        first = client.healthz()
        second = client.request("GET", "/cache/stats")
        ids = [entry["record"]["request_id"]
               for entry in client.debug_requests()]
        assert ids.index(second.request_id) < ids.index(first.request_id)

    def test_debug_trace_unknown_is_404(self, client):
        response = client.debug_trace("ffffffffffffffff")
        assert response.status == 404
        assert response.json["exit_code"] == 2

    def test_healthz_enriched(self, client, server):
        body = client.healthz().json
        assert body["status"] == "ok"
        assert body["inflight"] >= 1  # at least this very request
        assert body["requests_total"] >= 1
        assert body["cache_root"] == str(server.cache.root)
        assert body["cache"]["entries"] >= 0
        assert body["cache"]["bytes"] >= 0

    def test_metrics_labeled_histogram_and_unit(self, client):
        import re

        from repro.obs.sinks import OPENMETRICS_CONTENT_TYPE

        client.run(source=_program("Mtr"), iterations=4, route="interp")
        response = client.request("GET", "/metrics")
        assert response.content_type == OPENMETRICS_CONTENT_TYPE
        text = response.text
        assert "# TYPE repro_serve_request_seconds summary" in text
        assert "# UNIT repro_serve_request_seconds seconds" in text
        assert re.search(r'repro_serve_request_seconds_count'
                         r'\{[^}]*route="/run"[^}]*\} \d+', text)
        # The in-flight gauge sees the scrape itself being served.
        assert 'repro_serve_inflight{route="/metrics"} 1' in text

    def test_access_log_written_and_flushed(self, tmp_path, capsys):
        from repro.cli import main

        log_path = tmp_path / "access.jsonl"
        instance = ServeServer(socket_path=tmp_path / "a.sock",
                               cache=ArtifactCache(tmp_path / "cache"),
                               access_log=log_path).start()
        try:
            handle = ServeClient(socket_path=instance.socket_path)
            assert handle.wait_ready()
            response = handle.run(
                source=_program("Logged"), iterations=4, route="interp",
                traceparent=f"00-{'ab' * 16}-{'cd' * 8}-01")
            assert response.ok, response.text
            # Flushed per line: readable before the server stops.
            lines = [json.loads(line) for line
                     in log_path.read_text().splitlines()]
            traced = handle.debug_trace(response.request_id).json
            recent = handle.debug_requests()
        finally:
            instance.stop()
        runs = [record for record in lines if record["route"] == "/run"]
        assert len(runs) == 1
        record = runs[0]
        assert record["type"] == "access"
        assert record["request_id"] == response.request_id
        assert record["status"] == 200
        assert record["run_route"] == "interp"
        assert record["backend"] == "laminar-c"
        assert record["duration_ms"] >= 0
        assert record["bytes_out"] > 0
        assert record["traceparent"] == response.headers["traceparent"]
        assert record["error"] is None
        # One record: the access-log line and the flight recorder's
        # record are the same dict...
        assert traced["record"] == record
        # ...the flight recorder still serves its span tree...
        mine = [entry for entry in recent
                if entry["record"]["request_id"] == response.request_id]
        assert [set(entry) for entry in mine] == [{"record", "spans"}]
        assert [root["name"] for root in mine[0]["spans"]] == \
            ["serve.request"]
        # ...and `repro tail` renders it.
        capsys.readouterr()
        assert main(["tail", str(log_path), "--route", "/run"]) == 0
        assert response.request_id in capsys.readouterr().out


@pytest.mark.parametrize("route", [
    "interp", pytest.param("native", marks=requires_cc)])
def test_hot_run_syncs_nothing_to_disk(tmp_path, monkeypatch, route):
    """A served request's one record is its access-log line, flushed
    but not synced: a hot /run calls no fsync and leaves no ledger
    record.  A cold build's publish does fsync, so the key is warmed
    first."""
    import os

    from repro.obs import ledger as obs_ledger

    def ledger_files() -> list:
        directory = obs_ledger.ledger_dir()
        return sorted(directory.iterdir()) if directory.is_dir() else []

    instance = ServeServer(socket_path=tmp_path / "s.sock",
                           cache=ArtifactCache(tmp_path / "cache"),
                           access_log=tmp_path / "access.jsonl").start()
    try:
        handle = ServeClient(socket_path=instance.socket_path)
        assert handle.wait_ready()
        spec = {"source": _program("Unsynced"), "iterations": 4,
                "route": route}
        assert handle.run(**spec).ok
        before = ledger_files()
        syncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            syncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        for _ in range(3):
            response = handle.run(**spec)
            assert response.ok, response.text
            assert response.json["route"] == route
            assert response.json["stream_cached"] is True
            if route == "native":
                assert response.json["cache_hit"] is True
        after = ledger_files()
    finally:
        instance.stop()
    assert syncs == []
    assert after == before
    runs = [line for line in (tmp_path / "access.jsonl").read_text()
            .splitlines() if '"/run"' in line]
    assert len(runs) == 4


class TestConcurrency:
    REQUESTS = 16

    @staticmethod
    def _counts(handle) -> dict:
        """Label-summed serve counters from the /metrics exposition."""
        run_seconds = 0.0
        run_interp = 0.0
        for line in handle.metrics().splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if name.startswith("repro_serve_request_seconds_count") \
                    and 'route="/run"' in name:
                run_seconds += float(value)
            elif name.startswith("repro_serve_run_interp_total"):
                run_interp += float(value)
        return {"run_seconds_count": run_seconds,
                "run_interp": run_interp}

    def test_overlapping_requests_stay_isolated(self, tmp_path):
        import concurrent.futures

        instance = ServeServer(socket_path=tmp_path / "c.sock",
                               cache=ArtifactCache(tmp_path / "cache"),
                               max_iterations=4096).start()
        try:
            probe = ServeClient(socket_path=instance.socket_path)
            assert probe.wait_ready()
            source = _program("Storm")
            before = self._counts(probe)

            def one_run(index):
                mine = ServeClient(socket_path=instance.socket_path)
                return mine.run(source=source, iterations=8 + index,
                                route="interp")

            def one_scrape(_index):
                return ServeClient(
                    socket_path=instance.socket_path).metrics()

            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.REQUESTS + 4) as pool:
                run_futures = [pool.submit(one_run, index)
                               for index in range(self.REQUESTS)]
                scrape_futures = [pool.submit(one_scrape, index)
                                  for index in range(4)]
                responses = [future.result() for future in run_futures]
                scrapes = [future.result() for future in scrape_futures]
            assert all(response.ok for response in responses)
            # Concurrent scrapes saw complete, well-formed expositions.
            assert all(text.rstrip().endswith("# EOF")
                       for text in scrapes)
            # Every request got its own id.
            ids = {response.request_id for response in responses}
            assert len(ids) == self.REQUESTS
            # Per-request metric deltas merged without loss: the
            # label-summed aggregates advanced by exactly one per call.
            after = self._counts(probe)
            assert after["run_seconds_count"] - \
                before["run_seconds_count"] == self.REQUESTS
            assert after["run_interp"] - before["run_interp"] == \
                self.REQUESTS
            # Zero cross-request bleed: each recorded /run request has
            # exactly one root span, and every span in its tree carries
            # that request's id.
            entries = [entry for entry in probe.debug_requests()
                       if entry["record"]["request_id"] in ids]
            assert len(entries) == self.REQUESTS
            for entry in entries:
                rid = entry["record"]["request_id"]
                roots = entry["spans"]
                assert [root["name"] for root in roots] == \
                    ["serve.request"]
                for span in _flatten_spans(roots):
                    assert span["attrs"]["request_id"] == rid
        finally:
            instance.stop()
