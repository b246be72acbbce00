"""Tests for the command-line interface."""

import json

import pytest

import repro.cli
from repro.cli import main
from tests.conftest import TINY_PROGRAM


@pytest.fixture()
def tiny_file(tmp_path):
    path = tmp_path / "tiny.str"
    path.write_text(TINY_PROGRAM)
    return str(path)


class TestRun:
    def test_run_prints_outputs(self, tiny_file, capsys):
        assert main(["run", tiny_file, "-n", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["0.0", "2.5", "5.0"]
        assert "checksum" in captured.err

    def test_run_quiet(self, tiny_file, capsys):
        assert main(["run", tiny_file, "-n", "2", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_run_with_ablation_flags(self, tiny_file, capsys):
        assert main(["run", tiny_file, "-n", "2", "--no-elim",
                     "--no-opt", "--quiet"]) == 0

    def test_missing_file(self, capsys):
        assert main(["run", "/does/not/exist.str"]) == 1
        assert "error" in capsys.readouterr().err

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.str"
        path.write_text("void->void pipeline P { }")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_divergence_returns_1(self, tiny_file, monkeypatch,
                                      capsys):
        real = repro.cli.check_equivalence

        def diverging(*args, **kwargs):
            report = real(*args, **kwargs)
            report.matches = False
            return report

        monkeypatch.setattr(repro.cli, "check_equivalence", diverging)
        assert main(["run", tiny_file, "-n", "2", "--quiet"]) == 1
        assert "diverge" in capsys.readouterr().err

    def test_run_trace_flag(self, tiny_file, capsys):
        assert main(["run", tiny_file, "-n", "2", "--quiet",
                     "--trace"]) == 0
        err = capsys.readouterr().err
        assert "pipeline trace" in err
        assert "compile" in err
        assert "optimize" in err
        assert "metrics:" in err

    def test_event_log_without_trace(self, tiny_file, tmp_path, capsys):
        from repro.obs import trace

        log = tmp_path / "events.jsonl"
        assert main(["run", tiny_file, "-n", "2", "--quiet",
                     "--event-log", str(log)]) == 0
        assert not trace.is_enabled()
        assert "pipeline trace" not in capsys.readouterr().err
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert {line["type"] for line in lines} == {"span", "metrics"}
        spans = {line["name"]: line for line in lines
                 if line["type"] == "span"}
        assert {"compile", "lower", "optimize"} <= set(spans)
        compiled = spans["compile"]["attrs"]
        assert compiled["stream"] == "Tiny"
        assert len(compiled["spec_hash"]) == 64
        assert compiled["filters"] == 3
        assert lines[-1]["type"] == "metrics"
        assert lines[-1]["metrics"]


class TestEmit:
    def test_emit_lir(self, tiny_file, capsys):
        assert main(["emit", tiny_file, "--form", "lir"]) == 0
        out = capsys.readouterr().out
        assert "program Tiny" in out
        assert "steady" in out

    def test_emit_c(self, tiny_file, capsys):
        assert main(["emit", tiny_file, "--form", "c"]) == 0
        out = capsys.readouterr().out
        assert "repro_steady" in out
        assert "int main" in out

    def test_emit_fifo_c(self, tiny_file, capsys):
        assert main(["emit", tiny_file, "--form", "fifo-c"]) == 0
        out = capsys.readouterr().out
        assert "_push(" in out


class TestGraph:
    def test_graph_text(self, tiny_file, capsys):
        assert main(["graph", tiny_file]) == 0
        out = capsys.readouterr().out
        assert "Ramp" in out
        assert "schedule:" in out

    def test_graph_dot(self, tiny_file, capsys):
        assert main(["graph", tiny_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "shape=box" in out


class TestSuiteCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fm_radio" in out
        assert "bitonic_sort" in out

    def test_report(self, capsys):
        assert main(["report", "lattice", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "outputs match: True" in out
        assert "Intel i7-2600K" in out

    def test_report_unknown(self, capsys):
        assert main(["report", "nope"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_report_trace_flag(self, capsys):
        assert main(["report", "lattice", "-n", "2", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "outputs match: True" in captured.out
        assert "pipeline trace" in captured.err


PIPELINE_STAGES = ("compile", "parse", "elaborate", "flatten", "schedule",
                   "lower", "optimize", "run.fifo", "run.laminar")


class TestProfile:
    def test_profile_text_covers_every_stage(self, tiny_file, capsys):
        assert main(["profile", tiny_file, "-n", "2"]) == 0
        out = capsys.readouterr().out
        for stage in PIPELINE_STAGES:
            assert stage in out, f"missing stage {stage}"
        # per-pass optimizer metrics surface in the metric section
        assert "opt.dead_code_elimination.ops" in out
        assert "opt.fixpoint_rounds" in out
        assert "metrics:" in out

    def test_profile_suite_benchmark_by_name(self, capsys):
        assert main(["profile", "lattice", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "profile of Lattice" in out

    def test_profile_json_parses(self, tiny_file, capsys):
        assert main(["profile", tiny_file, "-n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        top_names = [span["name"] for span in payload["spans"]]
        assert "compile" in top_names
        assert payload["metrics"]["schedule.steady_firings"] >= 1
        assert "interp.laminar.steady.total_ops" in payload["metrics"]

    def test_profile_chrome_trace_structurally_valid(self, tiny_file,
                                                     tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["profile", tiny_file, "-n", "2",
                     "--chrome-trace", str(path)]) == 0
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events
        names = {event["name"] for event in events}
        assert "compile" in names and "optimize" in names
        for event in events:
            assert event["ph"] in ("X", "M", "C")
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
            if event["ph"] == "C":
                # Per-filter counter tracks from the metrics registry.
                assert event["args"]
                assert all(isinstance(v, (int, float))
                           for v in event["args"].values())

    def test_profile_unknown_target(self, capsys):
        assert main(["profile", "no_such_thing"]) == 1
        assert "error" in capsys.readouterr().err

    def test_profile_compile_error(self, tmp_path, capsys):
        path = tmp_path / "bad.str"
        path.write_text("void->void pipeline P { }")
        assert main(["profile", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_profile_divergence_returns_1(self, tiny_file, monkeypatch,
                                          capsys):
        real = repro.cli.check_equivalence

        def diverging(*args, **kwargs):
            report = real(*args, **kwargs)
            report.matches = False
            return report

        monkeypatch.setattr(repro.cli, "check_equivalence", diverging)
        assert main(["profile", tiny_file, "-n", "2"]) == 1
        assert "diverge" in capsys.readouterr().err

    def test_profile_leaves_tracing_disabled(self, tiny_file, capsys):
        from repro.obs import trace
        was = trace.is_enabled()
        assert main(["profile", tiny_file, "-n", "2"]) == 0
        capsys.readouterr()
        assert trace.is_enabled() == was


class TestFuzz:
    def test_fuzz_smoke(self, capsys):
        assert main(["fuzz", "--seed", "cli", "--runs", "3", "-n", "2"]) \
            == 0
        err = capsys.readouterr().err
        assert "3 programs" in err
        assert "0 divergence" in err

    def test_fuzz_reports_divergence(self, monkeypatch, capsys):
        import repro.fuzz.driver
        from repro.fuzz.oracle import Divergence, OracleReport

        def always_diverges(source, **kwargs):
            return OracleReport(Divergence(
                kind="output-mismatch", route="laminar-opt",
                detail="synthetic"))

        monkeypatch.setattr(repro.fuzz.driver, "run_source",
                            always_diverges)
        assert main(["fuzz", "--seed", "cli", "--runs", "2"]) == 1
        captured = capsys.readouterr()
        assert "output-mismatch" in captured.out
        assert "2 divergence" in captured.err

    def test_fuzz_writes_corpus(self, monkeypatch, tmp_path, capsys):
        import repro.fuzz.driver
        from repro.fuzz.oracle import Divergence, OracleReport

        monkeypatch.setattr(
            repro.fuzz.driver, "run_source",
            lambda source, **kwargs: OracleReport(Divergence(
                kind="output-mismatch", route="laminar-opt",
                detail="synthetic")))
        corpus = tmp_path / "corpus"
        assert main(["fuzz", "--seed", "x", "--runs", "1",
                     "--corpus-dir", str(corpus)]) == 1
        capsys.readouterr()
        files = list(corpus.glob("*.str"))
        assert len(files) == 1
        assert "Shrunk fuzz reproducer" in files[0].read_text()


class TestNonConvergenceNotice:
    def test_run_notices_nonconvergent_optimizer(self, tiny_file,
                                                 monkeypatch, capsys):
        import repro.opt.pipeline as pipeline
        monkeypatch.setattr(pipeline, "_FIXPOINT_ROUNDS", 0)
        with pytest.warns(RuntimeWarning):
            assert main(["run", tiny_file, "-n", "2", "--quiet"]) == 0
        err = capsys.readouterr().err
        assert "notice: optimizer did not reach a fixpoint" in err

    def test_run_is_quiet_when_converged(self, tiny_file, capsys):
        assert main(["run", tiny_file, "-n", "2", "--quiet"]) == 0
        assert "notice:" not in capsys.readouterr().err


class TestOptPipelineFlags:
    def test_run_with_custom_pipeline(self, tiny_file, capsys):
        assert main(["run", tiny_file, "-n", "2", "--quiet",
                     "--opt-pipeline", "cp,fold,dce"]) == 0
        assert "checksum" in capsys.readouterr().err

    def test_run_with_max_rounds(self, tiny_file, capsys):
        assert main(["run", tiny_file, "-n", "2", "--quiet",
                     "--opt-max-rounds", "8"]) == 0
        assert "checksum" in capsys.readouterr().err

    def test_unknown_pass_rejected_up_front(self, tiny_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", tiny_file, "--opt-pipeline", "cp,frobnicate"])
        assert excinfo.value.code == 2
        assert "unknown optimizer pass" in capsys.readouterr().err

    def test_emit_respects_pipeline(self, tiny_file, capsys):
        assert main(["emit", tiny_file, "--form", "lir",
                     "--opt-pipeline", "cp"]) == 0
        assert "steady" in capsys.readouterr().out

    def test_report_prints_pass_table(self, capsys):
        assert main(["report", "lattice", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimizer pass" in out
        assert "dead_code_elimination" in out
        assert "fixpoint round(s)" in out

    def test_report_with_max_rounds_caps_fixpoint(self, capsys):
        # A cap of 0 deterministically hits the give-up path; small
        # programs can genuinely converge within a single capped round.
        with pytest.warns(RuntimeWarning):
            assert main(["report", "lattice", "-n", "2",
                         "--opt-max-rounds", "0"]) == 0
        captured = capsys.readouterr()
        assert "notice: optimizer did not reach a fixpoint" in captured.err
        assert "0 fixpoint round(s), gave up" in captured.out


class TestKnobs:
    @pytest.mark.parametrize("flags,message", [
        (["--no-opt", "--opt-pipeline", "fold"],
         "'no_opt' cannot be combined with 'pipeline'"),
    ], ids=["no-opt-with-pipeline"])
    def test_contradictory_knobs_are_usage_errors(self, tiny_file, flags,
                                                  message, capsys):
        # The daemon answers 400 with the same messages
        # (test_serve.test_contradictory_spec_options_are_400).
        with pytest.raises(SystemExit) as exit_info:
            main(["run", tiny_file, "-n", "2", *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_ledger_records_no_reroll(self, monkeypatch, tmp_path):
        from repro.obs import ledger

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        unrolled = "cp,promote,fold,carry,cse,dce,schedule"
        assert main(["report", "lattice", "-n", "2"]) == 0
        assert main(["report", "lattice", "-n", "2", "--opt-pipeline",
                     unrolled, "--opt-max-rounds", "8"]) == 0
        default, explicit = [record["body"] for record
                             in ledger.load_records(target="lattice")]
        assert (default["pipeline"], default["flags"]) == ("default", {})
        assert explicit["pipeline"] == (
            "copy_propagation,promote_state,constant_folding,carries,"
            "common_subexpression_elimination,dead_code_elimination,"
            "schedule_for_pressure")
        assert explicit["flags"] == {"max_rounds": 8}


class TestExitCodes:
    """Every ``except`` branch in ``main`` maps to a documented exit code
    (docs/ROBUSTNESS.md), checked end to end through a real subprocess so
    no in-process state can mask a raw traceback."""

    def cli(self, *argv, env_extra=None):
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        if env_extra:
            env.update(env_extra)
        return subprocess.run([sys.executable, "-m", "repro", *argv],
                              env=env, cwd=repo, capture_output=True,
                              text=True, timeout=120)

    def test_success_is_zero(self, tiny_file):
        proc = self.cli("run", tiny_file, "-n", "2", "--quiet")
        assert proc.returncode == 0

    def test_missing_file_is_one(self):
        proc = self.cli("run", "/does/not/exist.str")
        assert proc.returncode == 1
        assert "error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_compile_error_is_one(self, tmp_path):
        path = tmp_path / "bad.str"
        path.write_text("void->void pipeline P { }")
        proc = self.cli("run", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    def test_usage_error_is_two(self):
        proc = self.cli("run")  # missing the file operand
        assert proc.returncode == 2

    def test_bad_limits_spec_is_two(self, tiny_file):
        proc = self.cli("run", tiny_file, "--limits", "bogus=1")
        assert proc.returncode == 2
        assert "unknown resource limit" in proc.stderr

    def test_resource_exhausted_is_three(self, tiny_file):
        proc = self.cli("run", tiny_file, "--limits", "tokens=0")
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1  # one structured line
        assert "resource exhausted" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_native_toolchain_failure_is_four(self, tiny_file):
        pytest.importorskip("repro.backend.runner")
        from repro.backend.runner import find_compiler
        if find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        proc = self.cli("run", tiny_file, "-n", "2", "--quiet",
                        "--native", "--inject", "bin-nonzero:1")
        assert proc.returncode == 4
        assert "native run failure" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_degradation_is_zero(self, tiny_file):
        proc = self.cli("run", tiny_file, "-n", "2", "--quiet",
                        "--native", "--inject", "cc-timeout:1")
        assert proc.returncode == 0
        assert "degraded to interpreter results" in proc.stderr


class TestLedgerExitCodes:
    """``history``/``compare`` subprocess coverage: 0 ok, 1 regression,
    2 usage or unresolvable/missing ledger — never a raw traceback."""

    cli = TestExitCodes.cli

    @pytest.fixture()
    def seeded_ledger(self, tmp_path):
        """A ledger with a fast and a 2x-slower record for one target."""
        from repro.obs import ledger
        directory = tmp_path / "ledger"
        ledger.append(ledger.make_body("run", "tiny", seconds=1.0,
                                       checksum="aa"), directory)
        ledger.append(ledger.make_body("run", "tiny", seconds=2.0,
                                       checksum="aa"), directory)
        return {"REPRO_LEDGER_DIR": str(directory)}

    def test_history_after_runs_is_zero(self, tiny_file, tmp_path):
        env = {"REPRO_LEDGER_DIR": str(tmp_path / "ledger")}
        assert self.cli("run", tiny_file, "-n", "2", "--quiet",
                        env_extra=env).returncode == 0
        proc = self.cli("history", "tiny", env_extra=env)
        assert proc.returncode == 0
        assert "~0" in proc.stdout

    def test_history_json(self, seeded_ledger):
        proc = self.cli("history", "tiny", "--json",
                        env_extra=seeded_ledger)
        assert proc.returncode == 0
        records = json.loads(proc.stdout)
        assert len(records) == 2
        assert records[-1]["body"]["seconds"] == 2.0

    def test_compare_identical_is_zero(self, seeded_ledger):
        proc = self.cli("compare", "tiny~1", "tiny~1",
                        env_extra=seeded_ledger)
        assert proc.returncode == 0
        assert "regression: no" in proc.stdout

    def test_compare_2x_slowdown_is_one(self, seeded_ledger):
        proc = self.cli("compare", "tiny~1", "tiny~0",
                        env_extra=seeded_ledger)
        assert proc.returncode == 1
        assert "regression: YES" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_compare_threshold_overrides(self, seeded_ledger):
        proc = self.cli("compare", "tiny~1", "tiny~0",
                        "--threshold", "1.5", env_extra=seeded_ledger)
        assert proc.returncode == 0

    def test_compare_json_output(self, seeded_ledger):
        proc = self.cli("compare", "tiny~1", "tiny~0", "--json",
                        env_extra=seeded_ledger)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["regression"] is True
        assert payload["metric_before"] == 1.0
        assert payload["metric_after"] == 2.0

    def test_history_usage_error_is_two(self):
        proc = self.cli("history")  # missing the target operand
        assert proc.returncode == 2

    def test_compare_usage_error_is_two(self):
        proc = self.cli("compare", "only-one-ref")
        assert proc.returncode == 2

    def test_unknown_ref_is_two(self, seeded_ledger):
        proc = self.cli("compare", "tiny", "no-such-target",
                        env_extra=seeded_ledger)
        assert proc.returncode == 2
        assert "no ledger record" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_ledger_is_two(self, tmp_path):
        env = {"REPRO_LEDGER_DIR": str(tmp_path / "never-created")}
        proc = self.cli("history", "tiny", env_extra=env)
        assert proc.returncode == 2
        assert "no ledger at" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_history_past_end_ref_is_two(self, seeded_ledger):
        proc = self.cli("compare", "tiny~9", "tiny",
                        env_extra=seeded_ledger)
        assert proc.returncode == 2
        assert "past the ledger" in proc.stderr


class TestServeSelfCheck:
    cli = TestExitCodes.cli

    def test_self_check_prints_exposition(self, tmp_path):
        proc = self.cli("serve", "--port", "0", "--no-access-log",
                        "--self-check", "--cache-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "repro_serve_requests_total" in proc.stdout
        assert "repro_serve_run_" in proc.stdout
        assert proc.stdout.rstrip().endswith("# EOF")


class TestTail:
    @staticmethod
    def _write(path, *records):
        with path.open("a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    @staticmethod
    def _access(**overrides):
        record = {"type": "access", "wall_time": 1700000000.25,
                  "request_id": "deadbeefcafe0001", "method": "POST",
                  "path": "/run", "route": "/run", "status": 200,
                  "backend": "laminar-c", "cache_hit": True,
                  "dedup": False, "degraded": False, "error": None,
                  "run_route": "interp", "stream": "CountingTail",
                  "duration_ms": 12.5, "bytes_out": 128}
        record.update(overrides)
        return record

    def test_renders_access_records(self, tmp_path, capsys):
        log = tmp_path / "access.jsonl"
        self._write(log, self._access(),
                    self._access(request_id="deadbeefcafe0002",
                                 route="/metrics", method="GET",
                                 cache_hit=None, run_route=None,
                                 stream=None, duration_ms=1.0))
        assert main(["tail", str(log)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "deadbeefcafe0001" in lines[0]
        assert "POST" in lines[0]
        assert "/run" in lines[0]
        assert "200" in lines[0]
        assert "12.5ms" in lines[0]
        assert "hit" in lines[0]
        assert "interp" in lines[0]
        assert "CountingTail" in lines[0]
        assert "/metrics" in lines[1]

    def test_route_and_min_ms_filters(self, tmp_path, capsys):
        log = tmp_path / "access.jsonl"
        self._write(log,
                    self._access(request_id="a" * 16, duration_ms=5.0),
                    self._access(request_id="b" * 16, duration_ms=80.0),
                    self._access(request_id="c" * 16, route="/healthz",
                                 method="GET", duration_ms=500.0))
        assert main(["tail", str(log), "--route", "/run",
                     "--min-ms", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert "b" * 16 in lines[0]

    def test_skips_garbage_and_reads_event_logs(self, tmp_path, capsys):
        # Only access lines render: garbage, the span and metrics lines
        # of an --event-log, and any other record type are skipped.
        log = tmp_path / "mixed.jsonl"
        with log.open("w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        self._write(log,
                    {"type": "span", "name": "serve.request",
                     "duration_s": 1.0, "attrs": {"route": "/run"}},
                    {"type": "metrics", "metrics": {}},
                    {"type": "event", "name": "serve.request",
                     "attrs": self._access(request_id="0" * 16)},
                    self._access(request_id="feedface00000001",
                                 duration_ms=3.25))
        assert main(["tail", str(log)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert "feedface00000001" in lines[0]
        assert "/run" in lines[0]
        assert "3.2ms" in lines[0] or "3.3ms" in lines[0]

    def test_slow_requests_colored_when_forced(self, tmp_path, capsys):
        log = tmp_path / "access.jsonl"
        self._write(log, self._access(duration_ms=900.0),
                    self._access(request_id="deadbeefcafe0002",
                                 duration_ms=2.0))
        assert main(["tail", str(log), "--color", "always",
                     "--slow-ms", "500"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("\x1b[31m")
        assert lines[0].endswith("\x1b[0m")
        assert not lines[1].startswith("\x1b[")

    def test_no_matching_records_notice(self, tmp_path, capsys):
        log = tmp_path / "access.jsonl"
        self._write(log, self._access(duration_ms=1.0))
        assert main(["tail", str(log), "--min-ms", "1000"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no matching records" in captured.err

    def test_missing_log_is_usage_error(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such log" in capsys.readouterr().err
