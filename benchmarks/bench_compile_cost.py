"""E11 (extension) — the cost of compile-time queues.

LaminarIR trades run-time bookkeeping for compile time and code size:
the whole steady state is executed symbolically, so both grow with the
schedule.  This driver sweeps benchmark problem sizes (scale 1x/2x/4x)
and reports, per stage, lowering (symbolic execution) wall time and
*optimize* wall time (timed by the pass manager), the ops lowered, the
LaminarIR steady-section size, generated C size for both backends, and
the modeled speedup — showing that the win persists while the
compile-side costs grow roughly linearly with the steady state.  It
lowers the way ``CompiledStream.lower`` does: demand-driven, since the
default pipeline prunes dead code, and with loop regions from the
schedule's firing runs, as the default lowering forms them.

Both stages are compared against the committed per-stage baseline
``results/compile_cost_baseline.json`` in CI's regression gates:
``--check NAME [NAME...]`` re-measures just those benchmarks and fails
if either stage's time exceeds 2x its baseline, if filterbank x4 lowers
other than exactly its baseline op count or needs more than 3 optimizer
fixpoint rounds (both deterministic, so any host can gate them), or if
its ``tracemalloc`` heap peak across lower plus optimize exceeds 1.25x
its baseline.

A full run writes ``results/compile_cost.txt``, the raw measurements in
``results/compile_cost.json`` and the headline numbers in the
``results/BENCH_compile_cost.json`` trajectory (also appended to the run
ledger).
"""

import argparse
import json
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import RESULTS_DIR, emit
from repro.backend.laminar_c import generate_laminar_c
from repro.evaluation import evaluate_stream, format_table
from repro.lir import LoweringOptions, collector_paused, lower
from repro.lir.ops import fresh_temp_ids
from repro.machine import I7_2600K
from repro.opt import OptOptions, optimize
from repro.suite import load_benchmark

SWEEP_NAMES = ("fft", "bitonic_sort", "matrixmult", "autocor", "filterbank")
SCALES = (1, 2, 4)
# The gated stages: baseline key -> label.
STAGES = {"lower_s": "lowering", "optimize_s": "optimize"}

# CI regression gate: fail --check when a stage's time exceeds this
# multiple of the committed baseline (generous — CI machines are noisy;
# losing the firing templates costs lowering ~2.5x, and resolving one
# link of a carry chain per fixpoint round instead of whole chains in
# one call of the carries pass costs filterbank x4's optimize ~6x).
CHECK_TOLERANCE = 2.0
# Stages shorter than this are not gated: at a few milliseconds the
# timer's and the host's noise exceed any regression worth reporting.
CHECK_FLOOR_S = 0.05

# Codegen-size gate: re-rolling must shrink the emitted laminar C for
# filterbank x4 (the largest unrolled steady state in the sweep) by at
# least this factor versus the fully-unrolled build.  The same program's
# lowered-op count is gated exactly: demand-driven lowering leaves out
# its ~80% dead firings, and the loop regions formed at lowering hold
# ~60% of the rest (its steady FIR runs stay unrolled, so that the
# upsampler zeros in their windows fold).
CODEGEN_SIZE_RATIO = 3.0
_CODEGEN_SIZE_BENCH = ("filterbank", 4)

# Round gate: filterbank x4 must reach the optimizer's fixpoint within
# this many rounds.  Its upsampler peek windows are 16-deep chains of
# constant carries, which the carries pass resolves whole in one call;
# resolving a chain one link per round took 17 rounds.
MAX_FIXPOINT_ROUNDS = 3

# Memory gate: filterbank x4's Python heap peak across lower plus
# optimize (tracemalloc, so independent of the allocator and of other
# processes) may not exceed this multiple of its baseline.  The peak is
# set by the size of an IR op and by the optimizer's per-temp tables:
# losing any one of the slotted IR, dead-code elimination's dense
# liveness table or re-roll's use counts breaks the gate.
PEAK_KEY = "traced_peak_mib"
PEAK_TOLERANCE = 1.25

_CURRENT_BASELINE = RESULTS_DIR / "compile_cost_baseline.json"


def _load_baseline(path) -> dict:
    data = json.loads(path.read_text())
    return {key: value for key, value in data.items()
            if not key.startswith("_")}


def _static_len(ops) -> int:
    """Structural op count: a loop region is 1 + its body, once."""
    from repro.lir.ops import LoopRegion
    return sum(1 + len(op.body) if isinstance(op, LoopRegion) else 1
               for op in ops)


def measure(name: str, scale: int, full: bool = True) -> dict:
    """Compile one benchmark at one scale and time each stage.

    ``full=False`` (the CI check path) stops after optimizing: code
    generation and interpretation are not part of the stage gates.
    """
    start = time.perf_counter()
    stream = load_benchmark(name, scale=scale)
    frontend_seconds = time.perf_counter() - start

    opt = OptOptions()
    # One collector pause over lower plus optimize, as in a compile.
    with fresh_temp_ids(), collector_paused():
        start = time.perf_counter()
        program = lower(stream.schedule, stream.source,
                        demand=opt.prunes_dead_code())
        lower_seconds = time.perf_counter() - start
        ops_lowered = sum(len(ops) for _, ops in program.sections())
        opt_stats = optimize(program, opt)
    result = {
        "frontend_s": frontend_seconds,
        "lower_s": lower_seconds,
        "ops_lowered": ops_lowered,
        "optimize_s": opt_stats.optimize_seconds,
        "fixpoint_rounds": opt_stats.fixpoint_rounds,
        "converged": opt_stats.converged,
        # Executed steady ops per iteration (loop regions expanded):
        # comparable across re-rolled and unrolled builds.
        "steady_ops": program.steady_op_count_expanded,
        # Structural size — what the backends actually emit code for
        # (a region's body counts once, not per trip).
        "steady_ops_static": _static_len(program.steady),
        "regions": opt_stats.regions_rerolled,
    }
    if not full:
        return result
    fifo_c = stream.fifo_c()
    laminar_c = generate_laminar_c(program)
    record = evaluate_stream(name, stream, iterations=2)
    assert record.outputs_match, (name, scale)
    result.update({
        "fifo_c_kb": len(fifo_c) / 1024,
        "laminar_c_kb": len(laminar_c) / 1024,
        "speedup": record.speedup(I7_2600K),
    })
    return result


def traced_peak_mib(name: str, scale: int) -> float:
    """Python heap peak (MiB) while lowering and optimizing one program."""
    stream = load_benchmark(name, scale=scale)
    opt = OptOptions()
    tracemalloc.start()
    try:
        with fresh_temp_ids(), collector_paused():
            program = lower(stream.schedule, stream.source,
                            demand=opt.prunes_dead_code())
            optimize(program, opt)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def codegen_size_ratio(name: str, scale: int) -> float:
    """Emitted laminar C bytes, fully unrolled (the lowering without
    loop regions) over re-rolled."""
    stream = load_benchmark(name, scale=scale)
    rerolled = len(stream.laminar_c())
    unrolled = len(stream.laminar_c(LoweringOptions(regions=False)))
    return unrolled / rerolled


def build_report() -> tuple[str, dict]:
    rows = []
    data: dict[tuple[str, int], dict] = {}
    for name in SWEEP_NAMES:
        for scale in SCALES:
            result = measure(name, scale)
            data[(name, scale)] = result
            rows.append([
                f"{name} x{scale}",
                str(result["ops_lowered"]),
                str(result["steady_ops"]),
                str(result["steady_ops_static"]),
                f"{result['lower_s'] * 1000:.0f} ms",
                f"{result['optimize_s'] * 1000:.0f} ms",
                str(result["fixpoint_rounds"]),
                f"{result['fifo_c_kb']:.1f} KB",
                f"{result['laminar_c_kb']:.1f} KB",
                f"{result['speedup']:.2f}x",
            ])
    table = format_table(
        ["benchmark/scale", "ops lowered", "steady ops (exec)",
         "steady ops (emitted)",
         "lowering time", "optimize time", "fixpoint rounds",
         "FIFO C size", "LaminarIR C size", "modeled speedup (i7)"],
        rows,
        title="Extension: compile-time and code-size cost of the "
              "steady state (firing templates, demand-driven replay, "
              "re-rolled loop regions)")
    return table, data


def _headline(data: dict, size_ratio: float) -> dict:
    bench, scale = _CODEGEN_SIZE_BENCH
    headline = data[(bench, scale)]
    return {
        "filterbank4_lower_s": headline["lower_s"],
        "filterbank4_ops_lowered": headline["ops_lowered"],
        "filterbank4_optimize_s": headline["optimize_s"],
        "filterbank4_fixpoint_rounds": headline["fixpoint_rounds"],
        "filterbank4_steady_ops": headline["steady_ops"],
        "filterbank4_steady_ops_static": headline["steady_ops_static"],
        "filterbank4_laminar_c_kb": headline["laminar_c_kb"],
        "filterbank4_regions": headline["regions"],
        "filterbank4_codegen_size_ratio": round(size_ratio, 2),
        "sweep_x4_lower_s": sum(data[(name, 4)]["lower_s"]
                                for name in SWEEP_NAMES),
        "sweep_x4_optimize_s": sum(data[(name, 4)]["optimize_s"]
                                   for name in SWEEP_NAMES),
    }


def _write_json(data: dict) -> None:
    payload = {f"{name}@{scale}": result
               for (name, scale), result in data.items()}
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "compile_cost.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")


def report() -> tuple[str, dict, float]:
    """Run the sweep; write the table, raw data and trajectory."""
    table, data = build_report()
    size_ratio = codegen_size_ratio(*_CODEGEN_SIZE_BENCH)
    emit("compile_cost", table, data=_headline(data, size_ratio))
    _write_json(data)
    return table, data, size_ratio


def check(names: list[str]) -> int:
    """CI smoke: re-measure ``names`` and gate each stage on the baseline.

    Measures every swept scale of each benchmark (lower+optimize only)
    and fails when a stage's time exceeds ``CHECK_TOLERANCE`` times its
    committed value: the lowering gate catches a lost firing-template
    fast path, the optimize gate a pass manager that stops paying for
    itself.  filterbank x4's lowered-op count must equal its baseline:
    that catches lost demand-driven replay or lost loop regions at
    lowering on any machine.  Its optimizer must converge within
    ``MAX_FIXPOINT_ROUNDS`` rounds, and its traced heap peak may not
    exceed ``PEAK_TOLERANCE`` times its baseline.
    """
    baseline = _load_baseline(_CURRENT_BASELINE)
    failures = []
    ops_lowered = {}
    rounds = {}
    for name in names:
        for scale in SCALES:
            key = f"{name}@{scale}"
            expected = baseline.get(key)
            required = {*STAGES, "ops_lowered"}
            if (name, scale) == _CODEGEN_SIZE_BENCH:
                required.add(PEAK_KEY)
            if not isinstance(expected, dict) \
                    or not required <= set(expected):
                print(f"compile-cost check: no baseline for {key}; "
                      f"regenerate {_CURRENT_BASELINE.name}",
                      file=sys.stderr)
                return 2
            result = measure(name, scale, full=False)
            assert result["converged"], key
            ops_lowered[key] = result["ops_lowered"]
            rounds[key] = result["fixpoint_rounds"]
            for stage, label in STAGES.items():
                actual, limit = result[stage], expected[stage]
                status = "ok"
                if actual > max(limit * CHECK_TOLERANCE, CHECK_FLOOR_S):
                    status = "FAIL"
                    failures.append(f"{key} {label}")
                print(f"{key}: {label} {actual * 1000:.0f} ms "
                      f"(baseline {limit * 1000:.0f} ms, "
                      f"tolerance {CHECK_TOLERANCE:.0f}x) {status}")
    bench, scale = _CODEGEN_SIZE_BENCH
    if bench in names:
        key = f"{bench}@{scale}"
        actual, expected = ops_lowered[key], baseline[key]["ops_lowered"]
        status = "ok" if actual == expected else "FAIL"
        print(f"{key}: {actual} ops lowered (baseline {expected}, "
              f"gated exactly) {status}")
        if status == "FAIL":
            failures.append(f"{key} ops lowered")
        status = "ok" if rounds[key] <= MAX_FIXPOINT_ROUNDS else "FAIL"
        print(f"{key}: {rounds[key]} fixpoint rounds "
              f"(gate ≤ {MAX_FIXPOINT_ROUNDS}) {status}")
        if status == "FAIL":
            failures.append(f"{key} fixpoint rounds")
        ratio = codegen_size_ratio(bench, scale)
        status = "ok" if ratio >= CODEGEN_SIZE_RATIO else "FAIL"
        print(f"{bench}@{scale}: laminar C unrolled/re-rolled "
              f"{ratio:.2f}x (gate {CODEGEN_SIZE_RATIO:.0f}x) {status}")
        if status == "FAIL":
            failures.append(f"{bench}@{scale} codegen size")
        peak, limit = traced_peak_mib(bench, scale), baseline[key][PEAK_KEY]
        status = "ok" if peak <= limit * PEAK_TOLERANCE else "FAIL"
        print(f"{key}: traced heap peak {peak:.1f} MiB (baseline "
              f"{limit:.1f} MiB, tolerance {PEAK_TOLERANCE}x) {status}")
        if status == "FAIL":
            failures.append(f"{key} heap peak")
    if failures:
        print(f"compile-cost check failed for: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def update_baseline() -> int:
    """Re-measure the whole sweep and rewrite the committed baseline."""
    comment = json.loads(_CURRENT_BASELINE.read_text()).get("_comment")
    data = {}
    for name in SWEEP_NAMES:
        for scale in SCALES:
            result = measure(name, scale, full=False)
            data[f"{name}@{scale}"] = {
                **{stage: round(result[stage], 4) for stage in STAGES},
                "ops_lowered": result["ops_lowered"]}
            if (name, scale) == _CODEGEN_SIZE_BENCH:
                data[f"{name}@{scale}"][PEAK_KEY] = round(
                    traced_peak_mib(name, scale), 1)
            print(f"{name}@{scale}: " + ", ".join(
                f"{label} {result[stage]:.4f}s"
                for stage, label in STAGES.items()))
    payload = {"_comment": comment, **data} if comment else data
    _CURRENT_BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {_CURRENT_BASELINE}")
    return 0


def test_compile_cost(benchmark):
    benchmark(lambda: load_benchmark("fft", scale=2).lower())
    _table, data, size_ratio = report()
    for name in SWEEP_NAMES:
        # executed work grows with the problem...
        assert data[(name, 4)]["steady_ops"] >= \
            data[(name, 1)]["steady_ops"]
        # ...but the speedup does not collapse
        assert data[(name, 4)]["speedup"] > 1.0
    # Carry chains resolve in one call, so the largest steady state
    # (filterbank) reaches the fixpoint in a few rounds.
    assert data[("filterbank", 4)]["fixpoint_rounds"] <= \
        MAX_FIXPOINT_ROUNDS
    # Re-rolling shrinks what the C backend emits for that same state.
    assert size_ratio >= CODEGEN_SIZE_RATIO, size_ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", nargs="+", metavar="NAME",
        help="CI smoke mode: measure just these benchmarks and fail on "
             f"a >{CHECK_TOLERANCE:.0f}x lowering- or optimize-time "
             "regression, a changed filterbank x4 lowered-op count, more "
             f"than {MAX_FIXPOINT_ROUNDS} filterbank x4 fixpoint rounds "
             f"or a >{PEAK_TOLERANCE}x filterbank x4 heap-peak regression")
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="re-measure the sweep and rewrite "
             "results/compile_cost_baseline.json")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if args.update_baseline:
        return update_baseline()
    report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
