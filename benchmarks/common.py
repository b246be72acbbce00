"""Shared infrastructure for the experiment drivers.

Each ``bench_*.py`` regenerates one of the paper's tables/figures.  They
can run two ways:

* ``python benchmarks/bench_fig_speedup.py`` — print the table directly;
* ``pytest benchmarks/ --benchmark-only`` — time the underlying
  computation with pytest-benchmark and write the table to
  ``benchmarks/results/<name>.txt``.

Evaluations are cached per (benchmark, options) so the whole suite is
interpreted once per pytest session.

All drivers share the observability tracer (:mod:`repro.obs`): run any
of them with ``REPRO_TRACE=1`` to get a consistent per-stage breakdown
(compile / schedule / lower / optimize / interpret) printed at exit.
"""

from __future__ import annotations

import atexit
import json
from functools import lru_cache
from pathlib import Path

from repro.evaluation import BenchmarkEvaluation, evaluate_benchmark
from repro.lir import LoweringOptions
from repro.obs import export as obs_export
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.opt import OptOptions
from repro.opt.pipeline import DEFAULT_PIPELINE
from repro.suite import benchmark_names, load_benchmark

RESULTS_DIR = Path(__file__).parent / "results"

# Interpreted steady iterations per benchmark; small but enough to expose
# per-iteration counters exactly (they are iteration-linear).
EVAL_ITERATIONS = 4


@lru_cache(maxsize=None)
def evaluation(name: str, static_input: bool = False,
               eliminate_splitjoin: bool = True,
               optimize: bool = True,
               promote: bool = True) -> BenchmarkEvaluation:
    lowering = LoweringOptions(eliminate_splitjoin=eliminate_splitjoin)
    if not optimize:
        opt = OptOptions(pipeline=())
    elif not promote:
        opt = OptOptions(pipeline=tuple(
            step for step in DEFAULT_PIPELINE if step != "promote_state"))
    else:
        opt = OptOptions()
    with trace.span("bench.evaluation", benchmark=name,
                    static_input=static_input,
                    eliminate_splitjoin=eliminate_splitjoin,
                    optimize=optimize, promote=promote):
        return evaluate_benchmark(name, iterations=EVAL_ITERATIONS,
                                  lowering=lowering, opt=opt,
                                  static_input=static_input)


@lru_cache(maxsize=None)
def compiled(name: str, static_input: bool = False):
    with trace.span("bench.compile", benchmark=name,
                    static_input=static_input):
        return load_benchmark(name, static_input=static_input)


def all_names() -> list[str]:
    return benchmark_names()


def emit(name: str, text: str, data: dict | None = None) -> None:
    """Print a report and persist it under benchmarks/results/.

    When ``data`` (a flat dict of headline numbers) is given, a
    machine-readable ``BENCH_<name>.json`` trajectory file is written
    next to the text report and the same numbers are appended to the
    persistent run ledger (kind ``bench``), so ``python -m repro
    history <name>`` and ``compare`` work on benchmark runs too.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is None:
        return
    body = obs_ledger.make_body("bench", name, metrics=data)
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps({"record_id": obs_ledger.record_id(body), "body": body},
                   indent=2, sort_keys=True) + "\n")
    try:
        obs_ledger.append(body)
    except OSError as error:  # pragma: no cover - disk-full etc.
        print(f"warning: ledger append failed: {error}")


def percent(fraction: float) -> str:
    return f"{fraction * 100:.1f}%"


def _dump_trace_at_exit() -> None:  # pragma: no cover - exit hook
    roots = trace.get_trace()
    if not roots:
        return
    print()
    print(obs_export.format_tree(
        roots, obs_metrics.registry().as_dict(),
        title="observability trace (REPRO_TRACE)"))


if trace.is_enabled():
    atexit.register(_dump_trace_at_exit)
