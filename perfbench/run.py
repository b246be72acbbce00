"""The repository benchmark: one command, every metric, outputs checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite-native|scale-lower|serve-warm \\
        --seed N --seconds S --trace 0|1

Each workload runs in a child process of its own (``workload.py``), so
tracing state, memoized compiles and peak memory never carry over from
one workload or mode to the next.  ``--trace 0`` runs it once with
tracing off and reports the end-to-end metrics.  ``--trace 1`` runs it
twice, untraced and then traced, each with a single set-up to stay
within the time a run may take, and reports the per-layer metrics of
the traced run, each end-to-end metric as measured under tracing
(``traced.<name>``) and the tracing overhead (``trace_overhead.<name>``,
traced minus untraced).  Metric names and units come from
``BENCHMARK.json``.  Every workload reports every end-to-end metric; a
per-layer metric of a layer the workload does not exercise reads 0.
Every file the run writes (binaries, the serve daemon's cache and
ledger, temp files) lives under ``.perfbench_tmp/`` in the checkout and
is removed at exit.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# A run may take 180 s; --trace 1 runs two children in that time.
RUN_DEADLINE = 170.0
# Environment that would change what the program does under test.
_DROPPED_ENV = ("REPRO_TRACE", "REPRO_INJECT", "REPRO_LIMITS",
                "REPRO_KEEP_ARTIFACTS", "REPRO_ACCESS_LOG",
                "REPRO_CACHE_MAX_BYTES")


def run_child(args, trace: int, scratch: Path, deadline: float) -> dict:
    """Run one workload process; returns its parsed result line."""
    scratch.mkdir(parents=True)
    (scratch / "tmp").mkdir()
    env = {key: value for key, value in os.environ.items()
           if key not in _DROPPED_ENV}
    # A fixed hash seed keeps set and dict orders, and so the work the
    # program does, the same from run to run.
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(scratch / "tmp"),
               REPRO_LEDGER_DIR=str(scratch / "ledger"),
               REPRO_CACHE_DIR=str(scratch / "cache"))
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scratch", str(scratch)]
    if args.trace:
        command += ["--setups", "1"]
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        # The child's own subprocesses (compilers, binaries, the serve
        # daemon) share its process group; none may outlive the run.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if child.returncode != 0:
        raise SystemExit(f"workload process exited {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit("workload process printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("no src/repro here: run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + RUN_DEADLINE
    try:
        untraced = run_child(args, 0, scratch / "untraced", deadline)
        results = [untraced]
        if args.trace:
            traced = run_child(args, 1, scratch / "traced", deadline)
            results.append(traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    for result in results:
        missing = [name for name in end_to_end
                   if name not in result["metrics"]]
        if missing:
            raise SystemExit(f"workload reported no {', '.join(missing)}")
    if args.trace:
        values = dict(traced["metrics"])
        for name in end_to_end:
            values[f"traced.{name}"] = traced["metrics"][name]
            values[f"trace_overhead.{name}"] = \
                traced["metrics"][name] - untraced["metrics"][name]
        wanted = spec["per_layer"]
    else:
        values = untraced["metrics"]
        wanted = spec["end_to_end"]
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0.0),
                                "unit": metric["unit"]}
               for metric in wanted}
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
