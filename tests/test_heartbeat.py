"""Tests for the native heartbeat side channel and stall watchdog."""

import json

import pytest

from repro.backend import runner
from repro.backend.common import C_MAIN, c_main
from repro.backend.laminar_c import generate_laminar_c
from repro.cli import main
from repro.faults.plan import FaultPlan, inject
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from tests.conftest import requires_cc


@pytest.fixture(autouse=True)
def clean_obs():
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


class TestByteIdentity:
    def test_plain_main_is_the_seed_main(self):
        # The non-profile C main must stay byte-identical to the
        # pre-heartbeat seed: profiling off means *no* new code.
        assert c_main(False) == C_MAIN
        assert c_main() == C_MAIN

    def test_profile_main_differs_and_beats(self):
        profiled = c_main(True)
        assert profiled != C_MAIN
        assert "repro_hb_maybe" in profiled
        assert "repro_hb_emit" in profiled

    def test_plain_codegen_has_no_heartbeat_runtime(self, tiny_stream):
        code = generate_laminar_c(tiny_stream.lower().program)
        assert "repro_hb_" not in code
        assert "heartbeat-json" not in code

    def test_profile_codegen_has_heartbeat_runtime(self, tiny_stream):
        code = generate_laminar_c(tiny_stream.lower().program,
                                  profile=True)
        assert "repro_hb_init" in code
        assert "REPRO_HEARTBEAT_MS" in code
        assert "heartbeat-json" in code


class TestParseHeartbeat:
    def test_parses_a_valid_beat(self):
        line = ('heartbeat-json {"iter": 3, "outputs": 12, "ns": 500.0, '
                '"filters": [{"name": "Src", "ns": 100}]}')
        beat = runner.parse_heartbeat(line)
        assert beat == {"iter": 3, "outputs": 12, "ns": 500.0,
                        "filters": [{"name": "Src", "ns": 100}]}

    def test_non_heartbeat_lines_pass_through(self):
        assert runner.parse_heartbeat("checksum deadbeef") is None
        assert runner.parse_heartbeat("") is None

    def test_torn_beat_is_dropped_not_raised(self):
        # A killed binary can tear its final line mid-write.
        assert runner.parse_heartbeat('heartbeat-json {"iter": 3') is None
        assert runner.parse_heartbeat("heartbeat-json [1,2]") is None

    def test_hot_filter(self):
        beat = {"filters": [{"name": "a", "ns": 10},
                            {"name": "b", "ns": 90}]}
        assert runner.hot_filter(beat) == "b"
        assert runner.hot_filter({"filters": []}) is None
        assert runner.hot_filter(None) is None
        assert runner.hot_filter({}) is None

    def test_run_output_collects_heartbeats(self):
        stderr = "\n".join([
            'heartbeat-json {"iter": 1, "ns": 10}',
            'heartbeat-json {"iter": 2, "ns": 20}',
            "checksum 00000000000000aa",
            "outputs 4",
            "seconds 0.001",
        ])
        run = runner.parse_run_output("", stderr, print_outputs=False)
        assert [b["iter"] for b in run.heartbeats] == [1, 2]
        assert run.checksum == 0xAA


class TestWatchdogInjection:
    def test_bin_hang_without_watchdog_raises_immediately(self, tmp_path):
        binary = tmp_path / "prog"
        binary.write_text("")
        with inject(FaultPlan.parse("bin-hang:1")):
            with pytest.raises(runner.NativeStallError,
                               match="no heartbeat watchdog"):
                runner.run_binary(binary, 4)

    def test_bin_hang_trips_the_watchdog(self, tmp_path):
        trace.enable()
        binary = tmp_path / "prog"
        binary.write_text("")
        with inject(FaultPlan.parse("bin-hang:1")):
            with pytest.raises(runner.NativeStallError,
                               match="injected-hang") as info:
                runner.run_binary(binary, 4, heartbeat_ms=0,
                                  stall_timeout=0.3)
        assert info.value.injected
        assert info.value.stage == "stall"
        # The stall fired well before the hard run timeout; the message,
        # the native.run span and the counter record the last beat.
        assert "iteration 1 in filter 'injected-hang', 1 beat(s)" \
            in str(info.value)
        (run,) = [span for span in trace.get_trace()
                  if span.name == "native.run"]
        assert {key: run.attrs[key] for key in
                ("beats", "last_iter", "last_filter", "injected")} == {
            "beats": 1, "last_iter": 1, "last_filter": "injected-hang",
            "injected": True}
        snapshot = obs_metrics.registry().as_dict()
        assert snapshot["native.stall"] == 1
        assert snapshot["native.heartbeat.count"] == 1


class TestWatchdogNeedsHeartbeats:
    """Without heartbeats the watchdog could only be a second hard
    timeout that names no hot filter, so arming it alone is an error."""

    def test_run_binary_rejects_stall_timeout_alone(self, tmp_path):
        binary = tmp_path / "prog"
        binary.write_text("")
        with pytest.raises(ValueError, match="heartbeat_ms"):
            runner.run_binary(binary, 4, stall_timeout=1.0)

    def test_compile_and_run_rejects_before_compiling(self, tmp_path):
        workdir = tmp_path / "never"
        with pytest.raises(ValueError, match="heartbeat_ms"):
            runner.compile_and_run("int main(void){return 0;}", 4,
                                   workdir=workdir, stall_timeout=1.0)
        assert not workdir.exists()

    def test_profile_stall_timeout_without_heartbeat_exits_2(self,
                                                             capsys):
        code = main(["profile", "lattice", "-n", "2", "--native",
                     "--stall-timeout", "2"])
        assert code == 2
        assert "--stall-timeout needs --heartbeat" in capsys.readouterr().err


@requires_cc
class TestNativeHeartbeats:
    def test_profile_run_emits_live_heartbeats(self, tiny_stream,
                                               tmp_path):
        trace.enable()
        obs_metrics.registry().reset()
        code = generate_laminar_c(tiny_stream.lower().program,
                                  profile=True)
        run = runner.compile_and_run(code, 4, workdir=tmp_path,
                                     name="tiny_hb", heartbeat_ms=0)
        # REPRO_HEARTBEAT_MS=0 beats every iteration plus one final
        # beat after the loop: deterministic iterations + 1.
        assert len(run.heartbeats) == 5
        assert run.heartbeats[-1]["iter"] == 4
        assert run.heartbeats[-1]["outputs"] == run.output_count
        names = {f["name"] for f in run.heartbeats[-1]["filters"]}
        assert names  # per-filter accumulators present
        snapshot = obs_metrics.registry().as_dict()
        assert snapshot["native.heartbeat.count"] == 5
        assert snapshot["native.heartbeat.iterations"] == 4
        gauges = [k for k in snapshot
                  if k.startswith("native.heartbeat.filter.")]
        assert gauges

    def test_heartbeats_off_by_default(self, tiny_stream, tmp_path):
        code = generate_laminar_c(tiny_stream.lower().program,
                                  profile=True)
        run = runner.compile_and_run(code, 4, workdir=tmp_path,
                                     name="tiny_quiet")
        assert run.heartbeats == []

    def test_checksum_unchanged_by_heartbeats(self, tiny_stream,
                                              tmp_path):
        lowered = tiny_stream.lower().program
        plain = runner.compile_and_run(
            generate_laminar_c(lowered), 4,
            workdir=tmp_path / "plain", name="tiny_plain")
        beating = runner.compile_and_run(
            generate_laminar_c(lowered, profile=True), 4,
            workdir=tmp_path / "hb", name="tiny_hb", heartbeat_ms=0)
        assert plain.checksum == beating.checksum
        assert plain.output_count == beating.output_count
