"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run FILE -n N``
    Execute a program through both routes, verify equivalence, print the
    output stream.
``emit FILE --form lir|c|fifo-c``
    Print the LaminarIR text form or either generated C program.
``graph FILE``
    Print the flat stream graph and schedule summary.
``report NAME``
    Evaluate one suite benchmark and print the paper's metrics for it.
    ``--attribution`` adds the per-filter provenance table (op counts
    before/after optimization, steady share, tokens moved).
``profile TARGET``
    Trace the whole pipeline (a ``.str`` file or suite benchmark name)
    and print the span tree plus collected metrics; ``--json`` emits the
    same machine-readably and ``--chrome-trace PATH`` writes a
    ``chrome://tracing`` / Perfetto trace-event file.  ``--native``
    additionally compiles the laminar C backend with ``REPRO_PROFILE``
    instrumentation and reports per-filter native ns/iteration (outputs
    are checked bit-exact against the uninstrumented build).
``fuzz --seed N --runs K``
    Differential fuzzing: generate random programs and check that every
    execution route agrees (see ``docs/FUZZING.md``).  ``--native`` adds
    both C backends, ``--shrink`` minimizes diverging programs, and
    ``--corpus-dir`` checks reproducers in as regression tests.
``history TARGET``
    List the persistent run ledger's records for a target (every
    ``run``/``report``/``profile``/``fuzz`` invocation appends one under
    ``.repro/ledger/``; override with ``REPRO_LEDGER_DIR``).
``compare RUN_A RUN_B [--threshold F] [--metric M]``
    Diff two ledger records; exits 1 when the primary metric regressed
    past the threshold, 2 on a bad reference or missing ledger.
``cache stats|gc|clear``
    Manage the persistent native-artifact cache under ``.repro/cache/``
    (override with ``REPRO_CACHE_DIR``; size cap via
    ``REPRO_CACHE_MAX_BYTES``).  Every native build is content-addressed
    by (spec, options, backend, compiler, codegen version) and reused
    across processes — see ``docs/SERVING.md``.
``serve [--socket PATH | --port N]``
    The compile-once daemon: a threaded HTTP API (``POST /compile``,
    ``POST /run``, ``GET /metrics``, ``GET /cache/stats``,
    ``GET /debug/requests``) over the artifact cache, with single-flight
    compilation dedup, per-request admission control (``--limits``,
    ``--max-iterations``), per-request trace contexts with W3C
    ``traceparent`` propagation, and a structured JSONL access log
    (``--access-log``/``--no-access-log``).  Every execution runs in a
    pool of ``--workers N`` (N ≥ 1) isolated worker processes.
    ``--self-check`` round-trips one ``/run``, then scrapes ``/metrics``
    and prints the OpenMetrics exposition.
``tail [LOG] [--follow] [--route SUBSTR] [--min-ms MS]``
    Render the daemon's access log as aligned per-request lines —
    request id, route, status, latency, cache hit/dedup/degraded flags
    — highlighting slow requests; ``--follow`` streams new records
    live.
``chaos [--seed N] [--requests N] [--kill-rate R] [--duration S]``
    Seeded chaos campaign: stand up a real daemon, hammer it with
    concurrent clients while pool workers are killed/hung (and any
    extra ``--inject`` sites fire), then assert zero bit-wrong
    responses, ≥ 99% eventual success, the daemon never restarting,
    and zero leaked worker processes or temp dirs.  Exit 1 when any
    invariant fails.
``list``
    List the benchmark suite.

``run``, ``report``, ``profile`` and ``fuzz`` accept ``--event-log
PATH``: tracing is on for the command, and every closed span plus a
final metrics snapshot is appended to a JSONL file.  ``profile
--native`` accepts ``--heartbeat MS`` for live native heartbeats and,
with it, ``--stall-timeout S`` for the stall watchdog (see
``docs/OBSERVABILITY.md``).

``run`` and ``report`` also accept ``--trace`` to print the span tree
to stderr after the normal output.  ``run``, ``emit``, ``report`` and
``profile`` accept ``--opt-pipeline cp,promote,fold,cse,dce`` (the
pass list, the one way to choose the optimizer; ``--no-opt`` is the
empty list, and the two together are a usage error) and
``--opt-max-rounds N`` (the fixpoint round cap); see
``docs/OPTIMIZER.md``.

Robustness flags (see ``docs/ROBUSTNESS.md``): every compiling command
accepts ``--limits ops=200000,tokens=4096,solver=200,seconds=30``
(resource guardrails; merged over ``REPRO_LIMITS``), ``--inject
cc-timeout:0.3,malformed-stdout:1`` with ``--inject-seed N``
(deterministic fault injection), and ``--keep-artifacts`` (keep
``repro_native_*`` build dirs even on success).  ``run`` and ``report``
take ``--native`` to also build and verify/time the laminar C backend;
all native paths degrade gracefully to interpreter results when the
toolchain fails.

Exit codes: 0 success (including graceful degradation), 1 compile
error / divergence / generic failure, 2 usage error, 3 resource limit
exhausted, 4 native toolchain failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro.api import (CompiledStream, check_equivalence, compile_file)
from repro.backend.runner import NativeToolchainError, set_keep_artifacts
from repro.evaluation import evaluate_stream, format_table
from repro.faults import (FaultPlan, ResourceExhausted, ResourceLimits,
                          active_limits, inject, use_limits)
from repro.frontend.errors import CompileError
from repro.knobs import KNOBS, Knob, compile_options, ledger_fields
from repro.lir import LoweringOptions
from repro.machine import PLATFORMS
from repro.obs import export as obs_export
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.sinks import JsonlAppender, OPENMETRICS_CONTENT_TYPE
from repro.opt import OptOptions
from repro.suite import BENCHMARKS, benchmark_names, load_benchmark


def _knob_values(args: argparse.Namespace) -> dict[str, object]:
    return {knob.key: getattr(args, knob.key, None) for knob in KNOBS}


def _options(args: argparse.Namespace) -> tuple[LoweringOptions,
                                                OptOptions]:
    lowering, opt = compile_options(_knob_values(args))
    max_rounds = getattr(args, "opt_max_rounds", None)
    if max_rounds is not None:
        opt.max_rounds = max_rounds
    return lowering, opt


def _knob_type(knob: Knob):
    """argparse type for a valued knob: the check the daemon runs."""
    def parse(text: str) -> object:
        try:
            return knob.check(knob.text(text))
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return parse


def _add_opt_arguments(parser: argparse.ArgumentParser,
                       switches: bool = True) -> None:
    """The compile knobs as flags; ``switches=False`` leaves out
    ``--no-opt`` and ``--no-elim``."""
    for knob in KNOBS:
        if knob.text is None:
            if switches:
                parser.add_argument(knob.flag, dest=knob.key,
                                    action="store_true", help=knob.help)
        else:
            parser.add_argument(knob.flag, dest=knob.key,
                                type=_knob_type(knob),
                                metavar=knob.metavar, help=knob.help)
    parser.add_argument(
        "--opt-max-rounds", type=int, metavar="N",
        help="cap the optimizer's fixpoint rounds (default 64)")


def _limits_spec(spec: str) -> ResourceLimits:
    """argparse type for --limits: validate the spec up front."""
    try:
        return ResourceLimits.parse(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _workers_count(text: str) -> int:
    """argparse type for --workers: a pool needs at least one worker."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def _inject_spec(spec: str) -> FaultPlan:
    """argparse type for --inject: validate site names and rates."""
    try:
        return FaultPlan.parse(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_robustness_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--limits", type=_limits_spec, metavar="SPEC",
        help="resource guardrails, e.g. 'ops=200000,tokens=4096,"
             "solver=200,seconds=30' (merged over REPRO_LIMITS; "
             "see docs/ROBUSTNESS.md)")
    parser.add_argument(
        "--inject", type=_inject_spec, metavar="PLAN",
        help="deterministic fault injection, e.g. "
             "'cc-timeout:0.3,malformed-stdout:1' (site[:rate] list)")
    parser.add_argument(
        "--inject-seed", default="0", metavar="SEED",
        help="seed for the --inject fault plan (default 0)")
    parser.add_argument(
        "--keep-artifacts", action="store_true",
        help="keep repro_native_* build dirs even on success")


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--event-log", metavar="PATH",
        help="append every closed span and a final metrics snapshot to "
             "PATH as JSONL (turns tracing on for the command)")


def _ledger_note(kind: str, target: str, args: argparse.Namespace, *,
                 spec_hash: str | None = None, backend: str | None = None,
                 checksum: int | None = None, seconds: float | None = None,
                 metrics: dict | None = None) -> dict | None:
    """Best-effort ledger append; a full disk must not fail the command."""
    pipeline, flags = ledger_fields(
        _knob_values(args), getattr(args, "opt_max_rounds", None))
    for key in ("native", "attribution", "shrink"):
        if getattr(args, key, False):
            flags[key] = True
    body = obs_ledger.make_body(
        kind, target, spec_hash=spec_hash, backend=backend,
        pipeline=pipeline,
        iterations=getattr(args, "iterations", None), flags=flags,
        checksum=f"{checksum:016x}" if checksum is not None else None,
        seconds=seconds, metrics=metrics)
    try:
        return obs_ledger.append(body)
    except OSError as error:
        print(f"warning: could not append to run ledger: {error}",
              file=sys.stderr)
        return None


def _install_robustness(args: argparse.Namespace,
                        stack: contextlib.ExitStack) -> None:
    """Install the ambient limits / fault plan / artifact policy.

    ``--limits`` merges over ``REPRO_LIMITS`` (CLI keys win); ``--inject``
    wins over ``REPRO_INJECT``/``REPRO_INJECT_SEED``.  May raise
    ``ValueError`` on a malformed environment spec (the CLI flags are
    validated by argparse already).
    """
    limits = getattr(args, "limits", None)
    if limits is not None:
        stack.enter_context(use_limits(active_limits().merged(limits)))
    plan = getattr(args, "inject", None)
    if plan is not None:
        plan.reseed(getattr(args, "inject_seed", "0"))
    else:
        spec = os.environ.get("REPRO_INJECT")
        if spec:
            plan = FaultPlan.parse(
                spec, seed=os.environ.get("REPRO_INJECT_SEED", "0"))
    if plan is not None:
        stack.enter_context(inject(plan))
    if getattr(args, "keep_artifacts", False):
        set_keep_artifacts(True)
        stack.callback(set_keep_artifacts, None)


def _notice_nonconvergence(stream: CompiledStream,
                           lowering: LoweringOptions | None = None,
                           opt: OptOptions | None = None) -> None:
    """One-line stderr notice when the optimizer gave up before a fixpoint.

    ``opt.pipeline`` already warns and bumps ``opt.nonconvergent``, but
    warnings are easy to miss in CLI output — surface it explicitly.
    """
    stats = stream.lower(lowering, opt).opt_stats
    if not stats.converged:
        print(f"notice: optimizer did not reach a fixpoint on "
              f"{stream.name!r} ({stats.fixpoint_rounds} rounds); output "
              "is correct but possibly under-optimized", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    started = time.monotonic()
    stream = compile_file(args.file)
    lowering, opt = _options(args)
    report = check_equivalence(stream, iterations=args.iterations,
                               lowering=lowering, opt=opt)
    _notice_nonconvergence(stream, lowering, opt)
    if not report.matches:
        print("error: FIFO and LaminarIR outputs diverge", file=sys.stderr)
        return 1
    if not args.quiet:
        for value in report.laminar.outputs:
            print(value)
    fifo = report.fifo.steady_counters
    laminar = report.laminar.steady_counters
    print(f"# {len(report.laminar.outputs)} outputs over "
          f"{args.iterations} iterations; checksum "
          f"{report.checksum:016x}", file=sys.stderr)
    print(f"# steady ops/iter: fifo={fifo.total_ops / args.iterations:.0f} "
          f"laminar={laminar.total_ops / args.iterations:.0f}; "
          f"memory: {fifo.memory_accesses / args.iterations:.0f} -> "
          f"{laminar.memory_accesses / args.iterations:.0f}",
          file=sys.stderr)
    native_seconds = None
    backend = "interp"
    if getattr(args, "native", False):
        from repro.faults import degrade
        attempt = degrade.native_or_fallback(
            stream.laminar_c(lowering, opt), args.iterations,
            name=stream.name, where="run --native",
            log=lambda message: print(message, file=sys.stderr))
        if not attempt.degraded:
            assert attempt.run is not None
            if attempt.run.checksum != report.checksum:
                print(f"error: native checksum "
                      f"{attempt.run.checksum:016x} != interpreter "
                      f"{report.checksum:016x}", file=sys.stderr)
                return 1
            print(f"# native: checksum verified, "
                  f"{attempt.run.seconds:.3f}s", file=sys.stderr)
            native_seconds = attempt.run.seconds
            backend = "laminar-c"
    _ledger_note(
        "run", Path(args.file).stem, args,
        spec_hash=stream.source_hash, backend=backend,
        checksum=report.checksum,
        seconds=native_seconds if native_seconds is not None
        else time.monotonic() - started,
        metrics={
            "outputs": len(report.laminar.outputs),
            "fifo_ops_per_iter": fifo.total_ops / args.iterations,
            "laminar_ops_per_iter": laminar.total_ops / args.iterations,
            "fifo_mem_per_iter": fifo.memory_accesses / args.iterations,
            "laminar_mem_per_iter":
                laminar.memory_accesses / args.iterations,
            **({"native_seconds": native_seconds}
               if native_seconds is not None else {}),
        })
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    stream = compile_file(args.file)
    lowering, opt = _options(args)
    if args.form == "lir":
        print(stream.lower(lowering, opt).program.dump())
    elif args.form == "c":
        print(stream.laminar_c(lowering, opt))
    elif args.form == "fifo-c":
        print(stream.fifo_c())
    return 0


def _print_graph(stream: CompiledStream) -> None:
    print(f"stream graph of {stream.name}:")
    reps = stream.schedule.reps
    for vertex in stream.graph.topological_order():
        kind = vertex.kind.replace("Vertex", "").lower()
        print(f"  [{kind:8s}] {vertex.name}  x{reps[vertex]}/iter")
    print("channels:")
    for channel in stream.graph.channels:
        extra = f" (+{len(channel.initial)} initial)" if channel.initial \
            else ""
        print(f"  {channel.name}: {channel.src.name} -> "
              f"{channel.dst.name} : {channel.ty}{extra}")
    stats = stream.stats()
    print(f"schedule: {stats['init_firings']} init firings, "
          f"{stats['steady_firings']} steady firings")


def cmd_graph(args: argparse.Namespace) -> int:
    stream = compile_file(args.file)
    if args.dot:
        from repro.graph import to_dot
        print(to_dot(stream.graph, stream.schedule.reps))
    else:
        _print_graph(stream)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}; see `python -m repro "
              "list`", file=sys.stderr)
        return 1
    stream = load_benchmark(args.name)
    lowering, opt = _options(args)
    record = evaluate_stream(args.name, stream,
                             iterations=args.iterations,
                             lowering=lowering, opt=opt,
                             native=getattr(args, "native", False))
    _notice_nonconvergence(stream, lowering, opt)
    print(f"benchmark: {args.name} — {BENCHMARKS[args.name].description}")
    print(f"outputs match: {record.outputs_match}")
    if getattr(args, "native", False):
        if record.degraded:
            reason = (record.degraded_reason or "").splitlines()
            print("notice: native toolchain unavailable "
                  f"({reason[0] if reason else 'unknown'}); reporting "
                  "interpreter-only results", file=sys.stderr)
        elif record.native_seconds is not None:
            print(f"native run time: {record.native_seconds:.3f}s "
                  f"({args.iterations} iterations)")
    print(f"data communication: -{record.comm.reduction * 100:.1f}%")
    print(f"memory accesses:    -{record.memory_reduction * 100:.1f}% "
          "(counted)")
    rows = []
    for model in PLATFORMS.values():
        rows.append([model.name,
                     f"{record.speedup(model):.2f}x",
                     f"-{record.energy_saving(model) * 100:.1f}%",
                     str(record.spills.get(model.name, 0))])
    print(format_table(["platform (modeled)", "speedup", "energy",
                        "spilled values"], rows))
    stats = record.opt_stats
    if stats is not None and stats.pass_stats:
        print()
        convergence = "converged" if stats.converged else "gave up"
        print(format_table(
            ["optimizer pass", "runs", "changes"],
            [[stat.name, str(stat.runs), str(stat.changes)]
             for stat in stats.pass_stats],
            title=f"optimizer: {stats.fixpoint_rounds} fixpoint round(s), "
                  f"{convergence}, {stats.optimize_seconds * 1000:.1f} ms"))
    if getattr(args, "attribution", False):
        print()
        print(_attribution_table(stream, lowering, opt))
    metrics: dict[str, object] = {
        "comm_reduction": record.comm.reduction,
        "memory_reduction": record.memory_reduction,
        "outputs_match": record.outputs_match,
    }
    for model in PLATFORMS.values():
        metrics[f"speedup.{model.name}"] = record.speedup(model)
    if record.native_seconds is not None:
        metrics["native_seconds"] = record.native_seconds
    _ledger_note(
        "report", args.name, args, spec_hash=stream.source_hash,
        backend="laminar-c" if record.native_seconds is not None
        else "interp",
        seconds=record.native_seconds if record.native_seconds is not None
        else time.monotonic() - started,
        metrics=metrics)
    return 0


def _attribution_table(stream: CompiledStream, lowering: LoweringOptions,
                       opt: OptOptions) -> str:
    """Per-filter provenance attribution, before vs after optimization."""
    from repro.lir import attribute_program, steady_share

    before_rows = attribute_program(
        stream.lower(lowering, OptOptions(pipeline=())).program)
    after_rows = attribute_program(stream.lower(lowering, opt).program)
    before_by = {row.name: row for row in before_rows}
    share = steady_share(after_rows)
    rows = []
    for row in after_rows:
        before = before_by.get(row.name)
        rows.append([row.name, row.kind,
                     str(before.total_ops if before else 0),
                     str(row.total_ops),
                     f"{share.get(row.name, 0.0) * 100:.1f}%",
                     str(row.tokens_per_iter),
                     str(row.firings_per_iter)])
    rows.append(["(total)", "",
                 str(sum(row.total_ops for row in before_rows)),
                 str(sum(row.total_ops for row in after_rows)),
                 "100.0%",
                 str(sum(row.tokens_per_iter for row in after_rows)),
                 str(sum(row.firings_per_iter for row in after_rows))])
    return format_table(
        ["filter", "kind", "ops before", "ops after", "% steady",
         "tokens/iter", "firings/iter"], rows,
        title="per-filter attribution (op provenance, steady share of "
              "the optimized program)")


def _load_target(target: str) -> CompiledStream | None:
    """Compile a ``.str`` file path or a suite benchmark by name."""
    path = Path(target)
    if path.is_file():
        return compile_file(path)
    if target in BENCHMARKS:
        return load_benchmark(target)
    return None


def cmd_profile(args: argparse.Namespace) -> int:
    if args.stall_timeout is not None and args.heartbeat is None:
        print("error: --stall-timeout needs --heartbeat: the watchdog "
              "only watches heartbeats", file=sys.stderr)
        return 2
    started = time.monotonic()
    was_enabled = obs_trace.is_enabled()
    obs_trace.enable()
    try:
        stream = _load_target(args.target)
        if stream is None:
            print(f"error: {args.target!r} is neither a .str file nor a "
                  "suite benchmark; see `python -m repro list`",
                  file=sys.stderr)
            return 1
        lowering, opt = _options(args)
        report = check_equivalence(stream, iterations=args.iterations,
                                   lowering=lowering, opt=opt)
        native_table = None
        if getattr(args, "native", False):
            native_table, native_code = _native_profile(
                stream, lowering, opt, args.iterations,
                heartbeat_ms=args.heartbeat,
                stall_timeout=args.stall_timeout)
            if native_code != 0:
                return native_code
        roots = obs_trace.get_trace()
        metric_values = obs_metrics.registry().as_dict()
        if args.chrome_trace:
            obs_export.write_chrome_trace(roots, args.chrome_trace,
                                          metrics=metric_values)
            print(f"wrote Chrome trace-event JSON to {args.chrome_trace} "
                  "(load in chrome://tracing or ui.perfetto.dev)",
                  file=sys.stderr)
        if args.json:
            print(json.dumps(obs_export.to_json(roots, metric_values),
                             indent=2))
        elif not args.chrome_trace:
            print(obs_export.format_tree(
                roots, metric_values,
                title=f"profile of {stream.name} "
                      f"({args.iterations} iterations)"))
        if native_table is not None and not args.json:
            print()
            print(native_table)
        if not report.matches:
            print("error: FIFO and LaminarIR outputs diverge",
                  file=sys.stderr)
            return 1
        _ledger_note("profile", stream.name, args,
                     spec_hash=stream.source_hash,
                     backend="laminar-c" if native_table is not None
                     else "interp",
                     checksum=report.checksum,
                     seconds=time.monotonic() - started,
                     metrics=metric_values)
        return 0
    finally:
        if not was_enabled:
            obs_trace.disable()


def _native_profile(stream: CompiledStream, lowering: LoweringOptions,
                    opt: OptOptions, iterations: int,
                    heartbeat_ms: int | None = None,
                    stall_timeout: float | None = None
                    ) -> tuple[str | None, int]:
    """Run the laminar C backend plain and instrumented.

    Compiles the program twice — uninstrumented and with
    ``REPRO_PROFILE`` — asserts the outputs are bit-exact, publishes the
    parsed per-filter timings into the metrics registry (so they reach
    the text/JSON/Chrome-trace exporters), and renders the per-filter
    native table.  ``heartbeat_ms``/``stall_timeout`` arm the
    instrumented run's live progress side channel and stall watchdog
    (``--heartbeat`` / ``--stall-timeout``).  Returns ``(table, 0)`` on
    success, ``(None, 0)`` when the toolchain failed (graceful
    degradation: the interpreter profile still prints), and ``(None, 1)``
    when the instrumented build diverged or violated the profile
    protocol.  A failure of the generated *binary* propagates as
    :class:`NativeToolchainError`.
    """
    from repro.backend.laminar_c import generate_laminar_c
    from repro.backend.runner import NativeCompileError, compile_and_run
    from repro.faults import degrade

    program = stream.lower(lowering, opt).program
    try:
        # Instrumented build first: it is the one with the heartbeat
        # side channel, so an injected/real hang is caught by the live
        # stall watchdog rather than the unwatched plain run.
        profiled = compile_and_run(
            generate_laminar_c(program, profile=True), iterations,
            name="laminar_profiled", heartbeat_ms=heartbeat_ms,
            stall_timeout=stall_timeout)
        plain = compile_and_run(generate_laminar_c(program), iterations,
                                name="laminar")
    except NativeCompileError as error:
        degrade.record_fallback("profile --native", str(error))
        print(f"notice: native toolchain unavailable "
              f"({str(error).splitlines()[0]}); printing interpreter "
              "profile only", file=sys.stderr)
        return None, 0
    if plain.checksum != profiled.checksum:
        print(f"error: instrumented binary diverged from plain build "
              f"(checksum {profiled.checksum:016x} != "
              f"{plain.checksum:016x})", file=sys.stderr)
        return None, 1
    if not profiled.profile:
        print("error: instrumented binary emitted no profile-json line",
              file=sys.stderr)
        return None, 1
    if profiled.heartbeats:
        print(f"# native: {len(profiled.heartbeats)} heartbeat(s) "
              f"(REPRO_HEARTBEAT_MS={heartbeat_ms})", file=sys.stderr)
    iters = max(profiled.profile.get("iterations", iterations), 1)
    filters = profiled.profile.get("filters", [])
    total_ns = sum(entry["ns"] for entry in filters) or 1.0
    iter_hist = obs_metrics.histogram("native.steady.iter_ns")
    for bucket, count in enumerate(profiled.profile.get("hist", [])):
        # Bucket b holds iterations in [2^b, 2^(b+1)) ns; replay the
        # midpoint so the histogram summary approximates the run.
        for _ in range(count):
            iter_hist.observe(1.5 * (1 << bucket))
    rows = []
    for entry in filters:
        name = entry["name"]
        ns_per_iter = entry["ns"] / iters
        ops_per_iter = entry["ops"] / iters
        obs_metrics.gauge(
            f"native.filter.{name}.ns_per_iter").set(ns_per_iter)
        obs_metrics.gauge(
            f"native.filter.{name}.ops_per_iter").set(ops_per_iter)
        tokens = program.filter_tokens.get(name, 0)
        rows.append([name, f"{ns_per_iter:.1f}", f"{ops_per_iter:.0f}",
                     f"{entry['calls'] / iters:.0f}", str(tokens),
                     f"{entry['ns'] / total_ns * 100:.1f}%"])
    return format_table(
        ["filter", "ns/iter", "ops/iter", "calls/iter", "tokens/iter",
         "% time"], rows,
        title=f"native per-filter profile ({iters} iterations, "
              f"checksum {profiled.checksum:016x}, bit-exact vs "
              "uninstrumented)"), 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import fuzz_campaign

    started = time.monotonic()
    corpus = Path(args.corpus_dir) if args.corpus_dir else None
    result = fuzz_campaign(
        seed=args.seed, runs=args.runs, iterations=args.iterations,
        native=args.native, shrink=args.shrink, corpus_dir=corpus,
        log=lambda message: print(message, file=sys.stderr))
    for finding in result.findings:
        print(f"seed {finding.seed}: {finding.divergence}")
        if finding.shrunk_source is not None:
            print(finding.shrunk_source)
    print(f"# fuzz: {result.programs} programs from seed {args.seed}, "
          f"{result.skipped} skipped, {result.degraded} degraded, "
          f"{len(result.findings)} divergence(s), "
          f"{len(result.features)} generator features covered",
          file=sys.stderr)
    _ledger_note("fuzz", f"fuzz-seed-{args.seed}", args,
                 seconds=time.monotonic() - started,
                 metrics={"programs": result.programs,
                          "skipped": result.skipped,
                          "degraded": result.degraded,
                          "findings": len(result.findings),
                          "features": len(result.features)})
    return 1 if result.findings else 0


def cmd_history(args: argparse.Namespace) -> int:
    records = obs_ledger.load_records(target=args.target)
    if not records:
        raise obs_ledger.LedgerError(
            f"no ledger records for target {args.target!r} in "
            f"{obs_ledger.ledger_dir()}")
    if args.limit:
        records = records[-args.limit:]
    if args.json:
        print(json.dumps(records, indent=2))
    else:
        print(f"ledger history for {args.target!r} "
              f"({len(records)} record(s), newest first):")
        print(obs_ledger.format_history(records))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    before = obs_ledger.resolve(args.run_a)
    after = obs_ledger.resolve(args.run_b)
    result = obs_ledger.compare(before, after, metric=args.metric,
                                threshold=args.threshold)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(obs_ledger.format_comparison(result))
    return 1 if result.regression else 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ArtifactCache

    cache = ArtifactCache(Path(args.dir) if args.dir else None)
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        cap = stats["max_bytes"]
        print(f"root:        {stats['root']}")
        print(f"entries:     {stats['entries']}")
        print(f"bytes:       {stats['bytes']}"
              + (f" / {cap}" if cap else ""))
        print(f"quarantined: {stats['quarantined']}")
        for backend in sorted(stats["backends"]):
            print(f"backend {backend}: {stats['backends'][backend]}")
        for name in sorted(stats["counters"]):
            print(f"{name}: {stats['counters'][name]}")
        return 0
    if args.action == "gc":
        result = cache.gc(args.max_bytes)
        print(f"# cache gc: evicted {result['evicted']} entr"
              f"{'y' if result['evicted'] == 1 else 'ies'}, "
              f"{result['entries']} left ({result['bytes']} bytes)",
              file=sys.stderr)
        return 0
    removed = cache.clear()
    print(f"# cache clear: removed {removed} entr"
          f"{'y' if removed == 1 else 'ies'} from {cache.root}",
          file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.cache import ArtifactCache
    from repro.serve import ACCESS_LOG_ENV, DEFAULT_ACCESS_LOG, ServeServer

    cache = ArtifactCache(Path(args.cache_dir) if args.cache_dir else None)
    limits = getattr(args, "limits", None)
    if limits is not None:
        limits = active_limits().merged(limits)
    elif active_limits() != ResourceLimits():
        limits = active_limits()
    if args.no_access_log:
        access_log = None
    else:
        access_log = args.access_log or os.environ.get(ACCESS_LOG_ENV)
        if access_log is None and not args.self_check:
            access_log = DEFAULT_ACCESS_LOG
    server = ServeServer(
        host=args.host, port=args.port,
        socket_path=args.socket, cache=cache, limits=limits,
        max_iterations=args.max_iterations,
        access_log=access_log, workers=args.workers).start()
    print(f"serving compile/run API at {server.url} "
          "(POST /compile, POST /run, GET /metrics, GET /cache/stats, "
          "GET /debug/requests; see docs/SERVING.md)", file=sys.stderr)
    if access_log is not None:
        print(f"access log: {access_log} "
              "(tail it with `python -m repro tail --follow`)",
              file=sys.stderr)
    try:
        if args.self_check:
            from repro.serve import ServeClient
            client = (ServeClient(socket_path=args.socket)
                      if args.socket else
                      ServeClient(host=server.host, port=server.port))
            if not client.wait_ready():
                print("error: daemon did not answer /healthz",
                      file=sys.stderr)
                return 1
            response = client.run(benchmark="autocor", iterations=4)
            if not response.ok:
                print(f"error: self-check run failed: {response.text}",
                      file=sys.stderr)
                return 1
            body = response.json
            scrape = client.request("GET", "/metrics")
            exposition = scrape.text
            sys.stdout.write(exposition)
            if scrape.content_type != OPENMETRICS_CONTENT_TYPE \
                    or "repro_" not in exposition \
                    or not exposition.rstrip().endswith("# EOF"):
                print("error: /metrics lacks the OpenMetrics content "
                      "type, a repro_ family or the # EOF terminator",
                      file=sys.stderr)
                return 1
            print(f"# self-check ok: {body['stream']} checksum "
                  f"{body['checksum']} via {body['route']}; /metrics "
                  f"{len(exposition)} bytes", file=sys.stderr)
            return 0
        # Serve until SIGTERM/SIGINT, then drain gracefully: stop
        # accepting, let in-flight requests finish inside the deadline,
        # flush the access log / pool / socket.  Exit 0 only on a full
        # drain so supervisors can tell clean restarts from abandoned
        # requests.
        stop_signal = threading.Event()
        received: dict[str, int] = {}

        def _on_signal(signum, _frame):  # pragma: no cover - signals
            received["signum"] = signum
            stop_signal.set()

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _on_signal)
        stop_signal.wait()
        name = signal.Signals(received.get("signum",
                                           signal.SIGTERM)).name
        print(f"# {name} received: draining "
              f"(inflight={server.inflight()}, "
              f"timeout={args.drain_timeout:g}s)", file=sys.stderr)
        drained = server.drain(args.drain_timeout)
        print(f"# drain {'complete' if drained else 'timed out'}",
              file=sys.stderr)
        return 0 if drained else 1
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0
    finally:
        server.stop()


def _tail_record(raw: str) -> dict | None:
    """The access record on one JSONL line (``type: access``), or
    ``None`` for any other line.  Raises ``json.JSONDecodeError`` on an
    unparseable line (a torn write) so the caller can warn instead of
    silently dropping it.
    """
    record = json.loads(raw)
    if isinstance(record, dict) and record.get("type") == "access":
        return record
    return None


def _render_tail_line(record: dict, use_color: bool,
                      slow_ms: float) -> str:
    wall = float(record.get("wall_time") or 0.0)
    stamp = time.strftime("%H:%M:%S", time.localtime(wall))
    stamp += f".{int(wall % 1 * 1000):03d}"
    ms = float(record.get("duration_ms") or 0.0)
    flags = []
    hit = record.get("cache_hit")
    if hit is True:
        flags.append("hit")
    elif hit is False:
        flags.append("miss")
    if record.get("dedup"):
        flags.append("dedup")
    if record.get("degraded"):
        flags.append("degraded")
    line = (f"{stamp}  {str(record.get('request_id') or '-'):<16}  "
            f"{str(record.get('method') or '-'):<4} "
            f"{str(record.get('route') or '-'):<15} "
            f"{str(record.get('status') or '-'):>3}  "
            f"{ms:>8.1f}ms  "
            f"{','.join(flags) or '-':<10} "
            f"{str(record.get('run_route') or '-'):<7} "
            f"{record.get('stream') or ''}").rstrip()
    if use_color and ms >= slow_ms:
        return f"\x1b[31m{line}\x1b[0m"
    return line


def cmd_tail(args: argparse.Namespace) -> int:
    path = Path(args.log)
    if not path.exists() and not args.follow:
        print(f"error: no such log: {path} (start the daemon with an "
              "access log)", file=sys.stderr)
        return 2
    use_color = args.color == "always" or \
        (args.color == "auto" and sys.stdout.isatty())
    offset = 0
    pending = ""
    shown = 0

    def drain() -> None:
        nonlocal offset, pending, shown
        if not path.exists():
            return
        try:
            with path.open("r", encoding="utf-8") as handle:
                handle.seek(offset)
                pending += handle.read()
                offset = handle.tell()
        except OSError:
            return
        while "\n" in pending:
            raw, pending = pending.split("\n", 1)
            if not raw.strip():
                continue
            try:
                record = _tail_record(raw)
            except json.JSONDecodeError:
                # A torn write (daemon crashed mid-append): warn and
                # keep going rather than dying on the whole log.
                print(f"# warning: skipping unparseable log line "
                      f"({raw[:60]!r}…)", file=sys.stderr)
                continue
            if record is None:
                continue
            if args.route and args.route not in str(record.get("route")):
                continue
            if float(record.get("duration_ms") or 0.0) < args.min_ms:
                continue
            print(_render_tail_line(record, use_color, args.slow_ms),
                  flush=True)
            shown += 1

    drain()
    if not args.follow:
        if pending.strip():
            print("# warning: log ends with a truncated record "
                  "(crash mid-write?); ignoring the partial line",
                  file=sys.stderr)
        if shown == 0:
            print("# no matching records", file=sys.stderr)
        return 0
    try:
        while True:  # pragma: no cover - interactive follow loop
            time.sleep(0.25)
            drain()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.serve import chaos

    if args.extra_inject:
        try:
            FaultPlan.parse(args.extra_inject)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    def progress(report):
        print(f"# chaos: {report.issued}/{args.requests} issued, "
              f"{report.succeeded} ok, {report.failed} failed, "
              f"{report.retries} retries", file=sys.stderr)

    report = chaos.run_campaign(
        seed=args.seed, requests=args.requests, clients=args.clients,
        kill_rate=args.kill_rate, hang_rate=args.hang_rate,
        duration=args.duration, iterations=args.iterations,
        workers=args.workers, route=args.route,
        extra_inject=args.extra_inject,
        progress=None if args.json else progress)
    summary = report.to_dict()
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(f"# chaos campaign: seed={report.seed} "
              f"requests={report.issued} wall={report.wall_seconds:.1f}s")
        print(f"#   succeeded={report.succeeded} failed={report.failed} "
              f"bit_wrong={report.bit_wrong} retries={report.retries} "
              f"success_rate={report.success_rate:.4f}")
        print(f"#   injected={summary['injected']} "
              f"pool={summary['pool']}")
        print(f"#   orphan_workers={report.orphan_workers} "
              f"leaked_dirs={report.leaked_dirs} "
              f"daemon_alive={report.daemon_alive_after}")
        print(f"# verdict: {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for name in benchmark_names(include_extras=True):
        info = BENCHMARKS[name]
        suite = "extra" if info.extra else "paper"
        rows.append([name, suite, info.domain, info.description])
    print(format_table(["benchmark", "suite", "domain", "description"],
                       rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LaminarIR: compile-time queues for structured "
                    "streams (PLDI 2015 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a program via both routes")
    run.add_argument("file")
    run.add_argument("-n", "--iterations", type=int, default=10)
    run.add_argument("--quiet", action="store_true",
                     help="suppress the output stream")
    _add_opt_arguments(run)
    run.add_argument("--native", action="store_true",
                     help="also build and run the laminar C backend, "
                          "verifying its checksum (degrades gracefully "
                          "when no toolchain is available)")
    run.add_argument("--trace", action="store_true",
                     help="print the pipeline span tree to stderr")
    _add_robustness_arguments(run)
    _add_telemetry_arguments(run)
    run.set_defaults(func=cmd_run)

    emit = sub.add_parser("emit", help="print lowered/generated code")
    emit.add_argument("file")
    emit.add_argument("--form", choices=("lir", "c", "fifo-c"),
                      default="lir")
    _add_opt_arguments(emit)
    _add_robustness_arguments(emit)
    emit.set_defaults(func=cmd_emit)

    graph = sub.add_parser("graph", help="print the flat stream graph")
    graph.add_argument("file")
    graph.add_argument("--dot", action="store_true",
                       help="emit Graphviz DOT instead of text")
    graph.set_defaults(func=cmd_graph)

    report = sub.add_parser("report",
                            help="paper metrics for a suite benchmark")
    report.add_argument("name")
    report.add_argument("-n", "--iterations", type=int, default=4)
    report.add_argument("--attribution", action="store_true",
                        help="print the per-filter provenance attribution "
                             "table (ops before/after opt, steady share, "
                             "tokens moved)")
    _add_opt_arguments(report, switches=False)
    report.add_argument("--native", action="store_true",
                        help="also build and time the laminar C backend "
                             "(degrades gracefully when no toolchain is "
                             "available)")
    report.add_argument("--trace", action="store_true",
                        help="print the pipeline span tree to stderr")
    _add_robustness_arguments(report)
    _add_telemetry_arguments(report)
    report.set_defaults(func=cmd_report)

    profile = sub.add_parser(
        "profile",
        help="trace the pipeline end to end and report spans + metrics")
    profile.add_argument("target",
                         help="a .str file or a suite benchmark name")
    profile.add_argument("-n", "--iterations", type=int, default=4)
    profile.add_argument("--json", action="store_true",
                         help="emit the span tree and metrics as JSON")
    profile.add_argument("--chrome-trace", metavar="PATH",
                         help="write chrome://tracing trace-event JSON "
                              "to PATH")
    profile.add_argument("--native", action="store_true",
                         help="also compile the laminar C backend with "
                              "REPRO_PROFILE instrumentation and report "
                              "per-filter native ns/iteration")
    profile.add_argument("--heartbeat", type=int, default=None,
                         metavar="MS",
                         help="with --native: make the instrumented "
                              "binary emit heartbeat-json progress "
                              "lines every MS milliseconds (0 = every "
                              "iteration)")
    profile.add_argument("--stall-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="with --native --heartbeat: kill the "
                              "instrumented binary (counted as "
                              "native.stall) when no heartbeat "
                              "arrives for SECONDS")
    _add_opt_arguments(profile)
    _add_robustness_arguments(profile)
    _add_telemetry_arguments(profile)
    profile.set_defaults(func=cmd_profile)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing across every execution route")
    fuzz.add_argument("--seed", default="0",
                      help="master seed; run i derives seed '<seed>:<i>'")
    fuzz.add_argument("-k", "--runs", type=int, default=100,
                      help="number of random programs to generate")
    fuzz.add_argument("-n", "--iterations", type=int, default=4)
    fuzz.add_argument("--native", action="store_true",
                      help="also run both C backends (needs a compiler)")
    fuzz.add_argument("--shrink", action="store_true",
                      help="delta-minimize every diverging program")
    fuzz.add_argument("--corpus-dir", metavar="DIR",
                      help="write shrunk reproducers into DIR "
                           "(e.g. tests/fuzz_corpus)")
    fuzz.add_argument("--trace", action="store_true",
                      help="print the pipeline span tree to stderr")
    _add_robustness_arguments(fuzz)
    _add_telemetry_arguments(fuzz)
    fuzz.set_defaults(func=cmd_fuzz)

    history = sub.add_parser(
        "history",
        help="list the run ledger's records for one target")
    history.add_argument("target",
                         help="a ledger target (benchmark name, file "
                              "stem, or fuzz-seed-N)")
    history.add_argument("--limit", type=int, default=0, metavar="N",
                         help="show only the newest N records")
    history.add_argument("--json", action="store_true",
                         help="emit the raw ledger envelopes as JSON")
    history.set_defaults(func=cmd_history)

    compare = sub.add_parser(
        "compare",
        help="diff two ledger records; exit 1 on a perf regression")
    compare.add_argument("run_a",
                         help="baseline record: a record-id prefix, a "
                              "target name (its latest record), or "
                              "TARGET~N (N-th before latest)")
    compare.add_argument("run_b", help="candidate record, same forms")
    compare.add_argument("--threshold", type=float, default=0.25,
                         metavar="FRACTION",
                         help="allowed fractional growth of --metric "
                              "before flagging a regression "
                              "(default 0.25 = +25%%)")
    compare.add_argument("--metric", default="seconds",
                         help="the primary metric to gate on (default "
                              "'seconds'; any recorded metric name "
                              "works)")
    compare.add_argument("--json", action="store_true",
                         help="emit the comparison as JSON")
    compare.set_defaults(func=cmd_compare)

    cache = sub.add_parser(
        "cache",
        help="manage the persistent native-artifact cache")
    cache.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: store statistics; gc: evict "
                            "LRU entries past the size cap; clear: "
                            "remove everything")
    cache.add_argument("--json", action="store_true",
                       help="with stats: machine-readable JSON instead "
                            "of the human-readable summary")
    cache.add_argument("--dir", metavar="PATH",
                       help="cache root (default .repro/cache, or "
                            "REPRO_CACHE_DIR)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       metavar="N",
                       help="with gc: evict down to N bytes (default: "
                            "the configured cap)")
    cache.set_defaults(func=cmd_cache)

    daemon = sub.add_parser(
        "serve",
        help="run the compile-once daemon: compile/run over HTTP or a "
             "Unix socket, backed by the artifact cache")
    daemon.add_argument("--host", default="127.0.0.1")
    daemon.add_argument("--port", type=int, default=9465,
                        help="TCP port to bind (default 9465; 0 = "
                             "ephemeral; ignored with --socket)")
    daemon.add_argument("--socket", metavar="PATH", default=None,
                        help="serve on a Unix domain socket at PATH "
                             "instead of TCP")
    daemon.add_argument("--cache-dir", metavar="PATH",
                        help="cache root (default .repro/cache, or "
                             "REPRO_CACHE_DIR)")
    daemon.add_argument("--limits", type=_limits_spec, metavar="SPEC",
                        help="admission-control resource limits applied "
                             "to every request (merged over "
                             "REPRO_LIMITS; requests may tighten, "
                             "e.g. 'ops=200000,seconds=30')")
    daemon.add_argument("--max-iterations", type=int, default=1_000_000,
                        metavar="N",
                        help="reject /run requests asking for more than "
                             "N iterations (default 1000000)")
    daemon.add_argument("--access-log", metavar="PATH", default=None,
                        help="append one JSONL record per request to "
                             "PATH (default .repro/serve-access.jsonl, "
                             "or REPRO_ACCESS_LOG; off in --self-check "
                             "unless set explicitly)")
    daemon.add_argument("--no-access-log", action="store_true",
                        help="disable the access log")
    daemon.add_argument("--self-check", action="store_true",
                        help="serve, round-trip one /run request "
                             "through the daemon, scrape /metrics, "
                             "print the exposition, exit")
    daemon.add_argument("--workers", type=_workers_count, default=2,
                        metavar="N",
                        help="process-isolated execution workers "
                             "(default 2, at least 1)")
    daemon.add_argument("--drain-timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="on SIGTERM/SIGINT, wait up to SECONDS "
                             "for in-flight requests before exiting "
                             "(default 30; exit 0 only on full drain)")
    daemon.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos campaign against a live daemon: concurrent "
             "clients + injected worker kills/hangs; asserts bit-exact "
             "responses, bounded availability loss, zero leaks")
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed (fault-plan RNG streams and "
                            "request mix; default 0)")
    chaos.add_argument("--requests", type=int, default=200, metavar="N",
                       help="logical requests to issue (default 200)")
    chaos.add_argument("--clients", type=int, default=8, metavar="N",
                       help="concurrent client threads (default 8)")
    chaos.add_argument("--kill-rate", type=float, default=0.1,
                       metavar="RATE",
                       help="worker-kill probability per dispatch "
                            "(default 0.1)")
    chaos.add_argument("--hang-rate", type=float, default=0.0,
                       metavar="RATE",
                       help="worker-hang probability per dispatch "
                            "(default 0)")
    chaos.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="stop issuing new requests after SECONDS "
                            "(default: run all --requests)")
    chaos.add_argument("--iterations", type=int, default=8, metavar="N",
                       help="iterations per /run request (default 8)")
    chaos.add_argument("--workers", type=_workers_count, default=2,
                       metavar="N",
                       help="daemon worker-pool size (default 2, at "
                            "least 1)")
    chaos.add_argument("--route", choices=("auto", "native", "interp"),
                       default="auto",
                       help="execution route requested (default auto)")
    chaos.add_argument("--inject", dest="extra_inject", metavar="SPEC",
                       default="",
                       help="extra fault sites layered on the worker "
                            "sites, e.g. 'cc-crash:0.2,bin-garbage:0.1'")
    chaos.add_argument("--json", action="store_true",
                       help="emit the report as JSON on stdout")
    chaos.set_defaults(func=cmd_chaos)

    tail = sub.add_parser(
        "tail",
        help="render a serve access log as aligned per-request lines")
    tail.add_argument("log", nargs="?",
                      default=str(Path(".repro") / "serve-access.jsonl"),
                      help="access log to read (default "
                           ".repro/serve-access.jsonl)")
    tail.add_argument("-f", "--follow", action="store_true",
                      help="keep the log open and print records as "
                           "they arrive (waits for the file to appear)")
    tail.add_argument("--route", metavar="SUBSTR",
                      help="only requests whose route contains SUBSTR")
    tail.add_argument("--min-ms", type=float, default=0.0, metavar="MS",
                      help="only requests at least MS milliseconds slow")
    tail.add_argument("--slow-ms", type=float, default=500.0,
                      metavar="MS",
                      help="highlight requests at least MS milliseconds "
                           "slow (default 500)")
    tail.add_argument("--color", choices=("auto", "always", "never"),
                      default="auto",
                      help="when to colorize slow requests "
                           "(default auto: only on a tty)")
    tail.set_defaults(func=cmd_tail)

    lst = sub.add_parser("list", help="list the benchmark suite")
    lst.set_defaults(func=cmd_list)
    return parser


def _print_trace(file) -> None:
    print(obs_export.format_tree(obs_trace.get_trace(),
                                 obs_metrics.registry().as_dict(),
                                 title="pipeline trace (--trace)"),
          file=file)


@contextlib.contextmanager
def _event_log(path: str | Path):
    """``--event-log PATH`` for the block: tracing is on, every closed
    span is appended to PATH as a flat ``{"type": "span", ...}`` line,
    and a final ``{"type": "metrics", ...}`` snapshot follows; the
    previous tracing state is restored."""
    log = JsonlAppender(path)
    obs_trace.set_span_hook(lambda span: log.write(
        {"type": "span", **obs_export.span_to_dict(span, nested=False)}))
    try:
        with obs_trace.tracing():
            yield
    finally:
        obs_trace.set_span_hook(None)
        log.write({"type": "metrics",
                   "metrics": obs_metrics.registry().as_dict()})
        log.close()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "pipeline"):  # a command taking the compile knobs
        try:
            _options(args)
        except ValueError as error:
            parser.error(str(error))
    want_trace = getattr(args, "trace", False)
    was_enabled = obs_trace.is_enabled()
    if want_trace:
        obs_trace.enable()
    try:
        with contextlib.ExitStack() as stack:
            if getattr(args, "event_log", None):
                stack.enter_context(_event_log(args.event_log))
            try:
                _install_robustness(args, stack)
            except ValueError as error:
                # A malformed REPRO_LIMITS/REPRO_INJECT environment spec
                # (the CLI flags are validated by argparse, which exits 2
                # on its own — keep the codes aligned).
                print(f"error: {error}", file=sys.stderr)
                return 2
            code = args.func(args)
        if want_trace:
            _print_trace(sys.stderr)
        return code
    except ResourceExhausted as error:
        # One line, structured: resource, limit, actual, provenance.
        print(f"error: resource exhausted: {error.message}",
              file=sys.stderr)
        return 3
    except obs_ledger.LedgerError as error:
        # A bad record reference / missing ledger is a usage-class
        # error, distinct from "regression found" (exit 1).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except CompileError as error:
        print(error.format(), file=sys.stderr)
        return 1
    except NativeToolchainError as error:
        print(f"error: native {error.stage} failure: {error}",
              file=sys.stderr)
        return 4
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`); exit quietly.
        return 0
    finally:
        if want_trace and not was_enabled:
            obs_trace.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
