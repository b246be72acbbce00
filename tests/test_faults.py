"""Fault injection, resource guardrails and graceful degradation.

Proves the robustness contract of ``docs/ROBUSTNESS.md``: every
injectable fault produces a structured diagnostic (never a raw
traceback or a silently-zero checksum), guardrail violations raise
:class:`ResourceExhausted` with provenance, temp build dirs never leak,
and every native consumer degrades to the interpreter when the
toolchain — not the generated program — fails.
"""

from __future__ import annotations

import glob
import os
import time

import pytest

from repro import compile_source
from repro.backend import runner
from repro.backend.runner import (NativeCompileError, NativeProtocolError,
                                  NativeRunError, compile_and_run,
                                  parse_run_output)
from repro.cli import main
from repro.faults import (FaultPlan, ResourceExhausted, ResourceLimits,
                          active_limits, inject, use_limits)
from repro.faults import limits as faults_limits
from repro.fuzz.oracle import run_source
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from tests.conftest import DEMO_PROGRAM, TINY_PROGRAM, requires_cc

GOOD_STDERR = "checksum 00000000deadbeef\noutputs 12\nseconds 0.5\n"


@pytest.fixture()
def tiny_file(tmp_path):
    path = tmp_path / "tiny.str"
    path.write_text(TINY_PROGRAM)
    return str(path)


@pytest.fixture()
def metrics():
    """Enable tracing so counters record; reset around the test."""
    was_enabled = obs_trace.is_enabled()
    obs_trace.enable()
    obs_metrics.registry().reset()
    yield obs_metrics.registry()
    obs_metrics.registry().reset()
    if not was_enabled:
        obs_trace.disable()


def no_leaked_dirs() -> bool:
    import tempfile
    return not glob.glob(f"{tempfile.gettempdir()}/repro_native_*")


# -- ResourceLimits ----------------------------------------------------------

class TestResourceLimits:
    def test_parse_full_spec(self):
        limits = ResourceLimits.parse(
            "ops=200000,tokens=4096,solver=200,seconds=30")
        assert limits.max_unrolled_ops == 200000
        assert limits.max_steady_tokens_per_channel == 4096
        assert limits.max_solver_iterations == 200
        assert limits.compile_seconds == 30.0

    def test_parse_long_aliases(self):
        limits = ResourceLimits.parse(
            "max_unrolled_ops=7,compile_seconds=1.5")
        assert limits.max_unrolled_ops == 7
        assert limits.compile_seconds == 1.5

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="unknown resource limit"):
            ResourceLimits.parse("bogus=1")
        with pytest.raises(ValueError, match="expected key=value"):
            ResourceLimits.parse("ops")
        with pytest.raises(ValueError, match="bad value"):
            ResourceLimits.parse("ops=lots")
        with pytest.raises(ValueError, match=">= 0"):
            ResourceLimits.parse("ops=-1")

    def test_merged_overrides_set_fields_only(self):
        base = ResourceLimits.parse("ops=100,seconds=10")
        merged = base.merged(ResourceLimits.parse("ops=5"))
        assert merged.max_unrolled_ops == 5
        assert merged.compile_seconds == 10.0

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIMITS", "tokens=99")
        assert active_limits().max_steady_tokens_per_channel == 99
        monkeypatch.setenv("REPRO_LIMITS", "tokens=42")
        assert active_limits().max_steady_tokens_per_channel == 42

    def test_use_limits_wins_over_env_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIMITS", "tokens=99")
        with use_limits(ResourceLimits(max_steady_tokens_per_channel=1)):
            assert active_limits().max_steady_tokens_per_channel == 1
        assert active_limits().max_steady_tokens_per_channel == 99


# -- guardrail enforcement ---------------------------------------------------

class TestGuardrails:
    def test_steady_token_cap_names_channel(self):
        with use_limits(ResourceLimits(max_steady_tokens_per_channel=0)):
            with pytest.raises(ResourceExhausted) as excinfo:
                compile_source(TINY_PROGRAM)
        error = excinfo.value
        assert error.resource == "max_steady_tokens_per_channel"
        assert error.limit == 0
        assert "channel" in error.message
        assert "->" in error.message  # src -> dst provenance

    def test_solver_iteration_cap(self):
        with use_limits(ResourceLimits(max_solver_iterations=1)):
            with pytest.raises(ResourceExhausted) as excinfo:
                compile_source(DEMO_PROGRAM)
        assert excinfo.value.resource == "max_solver_iterations"
        assert "solver" in str(excinfo.value) \
            or "fixpoint" in str(excinfo.value)

    def test_unrolled_op_cap_names_filter(self):
        stream = compile_source(DEMO_PROGRAM)
        with use_limits(ResourceLimits(max_unrolled_ops=10)):
            with pytest.raises(ResourceExhausted) as excinfo:
                stream.lower()
        error = excinfo.value
        assert error.resource == "max_unrolled_ops"
        assert "filter" in error.where  # offending filter's provenance
        assert error.actual > 10

    def test_zero_wall_clock_budget(self):
        with use_limits(ResourceLimits(compile_seconds=0.0)):
            with pytest.raises(ResourceExhausted) as excinfo:
                compile_source(DEMO_PROGRAM)
        assert excinfo.value.resource == "compile_seconds"
        assert "wall-clock" in str(excinfo.value)

    def test_generous_limits_change_nothing(self):
        generous = ResourceLimits.parse(
            "ops=10000000,tokens=1000000,solver=100000,seconds=600")
        baseline = compile_source(TINY_PROGRAM).run_laminar(4).outputs
        with use_limits(generous):
            guarded = compile_source(TINY_PROGRAM).run_laminar(4).outputs
        assert guarded == baseline

    def test_oracle_skips_resource_exhausted(self):
        with use_limits(ResourceLimits(max_steady_tokens_per_channel=0)):
            report = run_source(TINY_PROGRAM)
        assert report.divergence is None
        assert report.skipped is not None
        assert "resource exhausted" in report.skipped


# -- FaultPlan ---------------------------------------------------------------

class TestFaultPlan:
    def test_parse_rates_and_bare_sites(self):
        plan = FaultPlan.parse("cc-timeout:0.3,malformed-stdout:1")
        assert plan.rates == {"cc-timeout": 0.3, "malformed-stdout": 1.0}
        assert FaultPlan.parse("cc-missing").rates == {"cc-missing": 1.0}

    def test_parse_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("cc-explode:1")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.parse("cc-timeout:2.0")
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.parse("cc-timeout:x")

    def test_deterministic_per_seed(self):
        first = FaultPlan.parse("cc-crash:0.5", seed=11)
        replay = FaultPlan.parse("cc-crash:0.5", seed=11)
        other = FaultPlan.parse("cc-crash:0.5", seed=12)
        decisions = [first.should_fire("cc-crash") for _ in range(40)]
        assert decisions == [replay.should_fire("cc-crash")
                             for _ in range(40)]
        assert decisions != [other.should_fire("cc-crash")
                             for _ in range(40)]

    def test_sites_draw_independent_streams(self):
        # Interleaving bin-nonzero draws must not perturb cc-crash's
        # decision sequence: each site has its own seeded stream.
        noisy = FaultPlan.parse("cc-crash:0.5,bin-nonzero:0.5", seed=3)
        crash = []
        for _ in range(50):
            noisy.should_fire("bin-nonzero")
            crash.append(noisy.should_fire("cc-crash"))
        solo = FaultPlan.parse("cc-crash:0.5", seed=3)
        assert crash == [solo.should_fire("cc-crash") for _ in range(50)]

    def test_rate_one_always_fires_and_counts(self):
        plan = FaultPlan.parse("cc-missing:1")
        assert all(plan.should_fire("cc-missing") for _ in range(5))
        assert plan.fired["cc-missing"] == 5

    def test_unlisted_site_never_fires(self):
        plan = FaultPlan.parse("cc-missing:1")
        assert not plan.should_fire("bin-timeout")

    def test_null_plan_is_inactive(self):
        from repro.faults.plan import current_plan
        assert not current_plan().active
        assert not current_plan().should_fire("cc-missing")


# -- strict output-protocol parsing ------------------------------------------

class TestStrictProtocol:
    def test_good_output_parses(self):
        run = parse_run_output("1\n2.5\n", GOOD_STDERR, True)
        assert run.checksum == 0xDEADBEEF
        assert run.output_count == 12
        assert run.seconds == 0.5
        assert run.outputs == [1, 2.5]

    @pytest.mark.parametrize("missing", ["checksum", "outputs", "seconds"])
    def test_missing_field_rejected(self, missing):
        stderr = "\n".join(line for line in GOOD_STDERR.splitlines()
                           if not line.startswith(missing))
        with pytest.raises(NativeProtocolError,
                           match=f"missing '{missing}'"):
            parse_run_output("", stderr, False)

    def test_duplicate_field_rejected(self):
        with pytest.raises(NativeProtocolError, match="appears 2 times"):
            parse_run_output("", GOOD_STDERR + "checksum 1\n", False)

    def test_unparseable_field_rejected(self):
        stderr = GOOD_STDERR.replace("seconds 0.5", "seconds soon")
        with pytest.raises(NativeProtocolError, match="unparseable"):
            parse_run_output("", stderr, False)

    def test_unparseable_output_token_rejected(self):
        with pytest.raises(NativeProtocolError, match="output token"):
            parse_run_output("wat\n", GOOD_STDERR, True)

    def test_chatty_stderr_tolerated(self):
        stderr = "ld.so: preload warning\n" + GOOD_STDERR + "glibc note\n"
        assert parse_run_output("", stderr, False).output_count == 12

    def test_negative_zero_stays_float(self):
        run = parse_run_output("-0\n", GOOD_STDERR, True)
        assert isinstance(run.outputs[0], float)


# -- injected toolchain faults -----------------------------------------------

class TestInjection:
    def test_cc_missing_fires_before_any_dir(self):
        with inject(FaultPlan.parse("cc-missing:1")):
            with pytest.raises(NativeCompileError) as excinfo:
                compile_and_run("int main(void){return 0;}", 1)
        assert excinfo.value.injected
        assert "injected cc-missing" in str(excinfo.value)
        assert no_leaked_dirs()

    def test_cc_timeout_degradable_and_clean(self):
        with inject(FaultPlan.parse("cc-timeout:1")):
            with pytest.raises(NativeCompileError, match="timed out"):
                compile_and_run("int main(void){return 0;}", 1)
        assert no_leaked_dirs()

    @requires_cc
    def test_cc_crash_exhausts_bounded_retries(self, monkeypatch,
                                               metrics):
        monkeypatch.setattr(runner, "RETRY_BACKOFF_SECONDS", 0.0)
        with inject(FaultPlan.parse("cc-crash:1")):
            with pytest.raises(NativeCompileError,
                               match="killed by signal") as excinfo:
                compile_and_run("int main(void){return 0;}", 1)
        assert "attempt" in str(excinfo.value)
        assert metrics.counter("native.compile.retries").value \
            == runner.TRANSIENT_RETRIES
        assert no_leaked_dirs()

    @requires_cc
    def test_transient_crash_then_success(self, monkeypatch, metrics):
        monkeypatch.setattr(runner, "RETRY_BACKOFF_SECONDS", 0.0)
        # Pick a seed whose first draw fires but some draw within the
        # retry budget does not: the loop must recover and produce a
        # working binary.
        plan = None
        for seed in range(64):
            probe = FaultPlan.parse("cc-crash:0.4", seed=seed)
            draws = [probe.should_fire("cc-crash")
                     for _ in range(runner.TRANSIENT_RETRIES + 1)]
            if draws[0] and not all(draws):
                plan = FaultPlan.parse("cc-crash:0.4", seed=seed)
                break
        assert plan is not None
        code = ("#include <stdio.h>\n"
                "int main(int argc, char **argv){"
                "fprintf(stderr, \"checksum 1\\noutputs 0\\n"
                "seconds 0.0\\n\"); return 0;}")
        with inject(plan):
            run = compile_and_run(code, 1)
        assert run.checksum == 1
        assert no_leaked_dirs()

    @requires_cc
    def test_bin_nonzero_is_run_error_not_degradable(self):
        code = ("#include <stdio.h>\n"
                "int main(void){fprintf(stderr, \"checksum 1\\n"
                "outputs 0\\nseconds 0.0\\n\"); return 0;}")
        with inject(FaultPlan.parse("bin-nonzero:1")):
            with pytest.raises(NativeRunError, match="exit 1") as excinfo:
                compile_and_run(code, 1)
        assert excinfo.value.injected
        assert not isinstance(excinfo.value, NativeCompileError)
        assert no_leaked_dirs()

    def test_opt_nonconverge_surfaces_notice(self, capsys):
        with pytest.warns(RuntimeWarning, match="fixpoint"):
            code = main(["report", "lattice", "-n", "2",
                         "--inject", "opt-nonconverge:1"])
        assert code == 0  # under-optimized, never incorrect
        captured = capsys.readouterr()
        assert "did not reach a fixpoint" in captured.err
        assert "gave up" in captured.out

    @requires_cc
    def test_malformed_stdout_never_defaults_checksum(self):
        code = ("#include <stdio.h>\n"
                "int main(void){fprintf(stderr, \"checksum 1\\n"
                "outputs 0\\nseconds 0.0\\n\"); return 0;}")
        with inject(FaultPlan.parse("malformed-stdout:1")):
            with pytest.raises(NativeProtocolError, match="missing"):
                compile_and_run(code, 1)
        assert no_leaked_dirs()


# -- real hard timeouts (no fault plan) ---------------------------------------

def _process_gone(pid: int, within: float = 5.0) -> bool:
    """True once ``pid`` no longer runs (absent, or a zombie awaiting
    an init that does not reap)."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return True
        except OSError:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            state = "R"
        if state in ("Z", "X"):
            return True
        time.sleep(0.05)
    return False


class TestRealTimeouts:
    def test_binary_timeout_kills_the_process_group(self, tmp_path,
                                                    monkeypatch):
        pidfile = tmp_path / "child.pid"
        binary = tmp_path / "wedged"
        binary.write_text("#!/bin/sh\n"
                          f"sleep 60 &\necho $! > {pidfile}\nwait\n")
        binary.chmod(0o755)
        monkeypatch.setattr(runner, "DEFAULT_RUN_TIMEOUT", 0.5)
        started = time.monotonic()
        with pytest.raises(NativeRunError, match="timed out") as excinfo:
            runner.run_binary(binary, 1)
        assert time.monotonic() - started < 10
        assert not excinfo.value.injected
        # The backgrounded grandchild died with its group, not just the
        # shell that started it.
        assert _process_gone(int(pidfile.read_text()))

    def test_compiler_timeout(self, tmp_path, monkeypatch):
        fake_bin = tmp_path / "bin"
        fake_bin.mkdir()
        fake_cc = fake_bin / "cc"
        fake_cc.write_text("#!/bin/sh\nsleep 60\n")
        fake_cc.chmod(0o755)
        monkeypatch.setenv("PATH", f"{fake_bin}{os.pathsep}"
                                   f"{os.environ.get('PATH', '')}")
        monkeypatch.setattr(runner, "DEFAULT_COMPILE_TIMEOUT", 0.5)
        started = time.monotonic()
        with pytest.raises(NativeCompileError, match="timed out") \
                as excinfo:
            runner.compile_c("int main(void){return 0;}",
                             workdir=tmp_path / "build")
        assert time.monotonic() - started < 10
        assert not excinfo.value.injected


# -- temp-dir lifecycle ------------------------------------------------------

@requires_cc
class TestArtifactLifecycle:
    GOOD = ("#include <stdio.h>\n"
            "int main(void){fprintf(stderr, \"checksum 1\\noutputs 0\\n"
            "seconds 0.0\\n\"); return 0;}")

    def test_success_deletes_workdir(self):
        compile_and_run(self.GOOD, 1)
        assert no_leaked_dirs()

    def test_real_failure_keeps_workdir_and_logs_path(self, tmp_path):
        with pytest.raises(NativeCompileError,
                           match="artifacts kept at") as excinfo:
            compile_and_run("this is not C", 1)
        kept = excinfo.value.artifacts
        assert kept is not None
        import shutil
        shutil.rmtree(kept, ignore_errors=True)

    def test_keep_artifacts_keeps_on_success(self):
        import shutil
        import tempfile
        before = set(glob.glob(f"{tempfile.gettempdir()}/repro_native_*"))
        compile_and_run(self.GOOD, 1, keep_artifacts=True)
        kept = set(glob.glob(
            f"{tempfile.gettempdir()}/repro_native_*")) - before
        assert len(kept) == 1
        for path in kept:
            shutil.rmtree(path, ignore_errors=True)

    def test_caller_workdir_never_removed(self, tmp_path):
        workdir = tmp_path / "build"
        compile_and_run(self.GOOD, 1, workdir=workdir)
        assert workdir.is_dir()
        with pytest.raises(NativeCompileError):
            compile_and_run("nope", 1, workdir=workdir)
        assert workdir.is_dir()


# -- graceful degradation end to end -----------------------------------------

class TestDegradation:
    def test_run_native_degrades_to_exit_zero(self, tiny_file, capsys,
                                              metrics):
        code = main(["run", tiny_file, "-n", "2", "--quiet", "--native",
                     "--inject", "cc-timeout:1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "degraded to interpreter results" in err
        assert metrics.counter("native.fallback").value == 1
        assert no_leaked_dirs()

    def test_report_native_degrades(self, capsys, metrics):
        code = main(["report", "lattice", "-n", "4", "--native",
                     "--inject", "cc-missing:1"])
        assert code == 0
        assert "interpreter-only results" in capsys.readouterr().err
        assert metrics.counter("native.fallback").value == 1

    def test_profile_native_degrades(self, capsys, metrics):
        code = main(["profile", "lattice", "-n", "2", "--native",
                     "--inject", "cc-timeout:1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "printing interpreter profile only" in captured.err
        assert "profile of" in captured.out  # interpreter profile printed
        assert metrics.counter("native.fallback").value == 1

    @requires_cc  # the oracle gates native routes on find_compiler()
    def test_fuzz_campaign_counts_degraded_runs(self, capsys, metrics):
        code = main(["fuzz", "--seed", "7", "-k", "3", "-n", "2",
                     "--native", "--inject", "cc-timeout:1"])
        assert code == 0
        assert "3 degraded" in capsys.readouterr().err
        assert metrics.counter("fuzz.degraded").value == 3
        assert no_leaked_dirs()

    @requires_cc
    def test_bin_fault_is_exit_four_not_degradation(self, tiny_file,
                                                    capsys):
        code = main(["run", tiny_file, "-n", "2", "--quiet", "--native",
                     "--inject", "bin-nonzero:1"])
        assert code == 4
        err = capsys.readouterr().err
        assert "native run failure" in err
        assert "Traceback" not in err
        assert no_leaked_dirs()

    def test_evaluate_stream_records_degradation(self, metrics):
        from repro.evaluation import evaluate_stream
        stream = compile_source(TINY_PROGRAM)
        with inject(FaultPlan.parse("cc-missing:1")):
            record = evaluate_stream("tiny", stream, iterations=4,
                                     native=True)
        assert record.degraded
        assert record.degraded_reason is not None
        assert record.native_seconds is None
        assert record.outputs_match  # interpreter verdict still present


# -- CLI limit handling ------------------------------------------------------

class TestCliLimits:
    def test_limits_exit_code_three_one_line(self, tiny_file, capsys):
        code = main(["run", tiny_file, "--limits", "tokens=0"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "resource exhausted" in err
        assert "Traceback" not in err

    def test_bad_limits_spec_rejected_by_argparse(self, tiny_file,
                                                  capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", tiny_file, "--limits", "bogus=1"])
        assert excinfo.value.code == 2

    def test_bad_inject_spec_rejected_by_argparse(self, tiny_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", tiny_file, "--inject", "cc-explode:1"])
        assert excinfo.value.code == 2

    def test_env_limits_apply(self, tiny_file, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LIMITS", "tokens=0")
        assert main(["run", tiny_file]) == 3

    def test_cli_limits_merge_over_env(self, tiny_file, monkeypatch):
        monkeypatch.setenv("REPRO_LIMITS", "tokens=0")
        # CLI override lifts the env cap: the run succeeds again.
        assert main(["run", tiny_file, "--quiet", "--limits",
                     "tokens=100000"]) == 0

    def test_env_inject_plan(self, tiny_file, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INJECT", "cc-timeout:1")
        monkeypatch.setenv("REPRO_INJECT_SEED", "5")
        assert main(["run", tiny_file, "-n", "2", "--quiet",
                     "--native"]) == 0
        assert "degraded" in capsys.readouterr().err

    def test_malformed_env_inject_is_usage_error(self, tiny_file,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INJECT", "nope:1")
        assert main(["run", tiny_file]) == 2
        assert "unknown fault site" in capsys.readouterr().err
