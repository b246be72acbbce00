"""Exporters for collected spans and metrics.

Three formats:

* :func:`format_tree` — a human-readable tree with durations and
  attributes, plus an aligned metrics section (the default output of
  ``python -m repro profile``);
* :func:`to_json` — a plain-dict form (span forest + metric snapshot)
  for machine consumption, built on :func:`span_to_dict`, the one span
  serializer (the serve daemon's ``/debug/*`` endpoints and the CLI's
  ``--event-log`` use it too);
* :func:`to_chrome_trace` — the Chrome trace-event format, loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev (complete ``"X"``
  events in microseconds plus ``"M"`` metadata records).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.obs.trace import Span


def _jsonable(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} us"


def _walk(roots: list[Span]):
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))


def _epoch(roots: list[Span]) -> float:
    starts = [span.start for span in _walk(roots)]
    return min(starts) if starts else 0.0


# -- human-readable tree ------------------------------------------------------

def format_tree(roots: list[Span], metrics: dict[str, object] | None = None,
                title: str = "") -> str:
    """Render the span forest (and optional metric snapshot) as text."""
    lines: list[str] = []
    if title:
        lines.append(title)
    if not roots:
        lines.append("(no spans recorded — is tracing enabled?)")
    for root in roots:
        _render(root, lines, prefix="", connector="")
    if metrics:
        lines.append("")
        lines.append("metrics:")
        width = max(len(name) for name in metrics)
        for name, value in metrics.items():
            if isinstance(value, dict):  # histogram summary
                value = " ".join(f"{k}={_round(v)}"
                                 for k, v in value.items())
            lines.append(f"  {name:<{width}}  {_round(value)}")
    return "\n".join(lines)


def _round(value: object) -> object:
    if isinstance(value, float):
        return round(value, 6)
    return value


def _render(span: Span, lines: list[str], prefix: str,
            connector: str) -> None:
    label = f"{prefix}{connector}{span.name}"
    duration = _fmt_duration(span.duration or 0.0)
    attrs = " ".join(f"{key}={value}" for key, value in span.attrs.items())
    line = f"{label:<44} {duration:>10}"
    if attrs:
        line += f"  [{attrs}]"
    lines.append(line)
    if connector == "":
        child_prefix = prefix
    elif connector == "└─ ":
        child_prefix = prefix + "   "
    else:
        child_prefix = prefix + "│  "
    for index, child in enumerate(span.children):
        last = index == len(span.children) - 1
        _render(child, lines, child_prefix, "└─ " if last else "├─ ")


# -- JSON ---------------------------------------------------------------------

def span_to_dict(span: Span, epoch: float = 0.0, *,
                 nested: bool = True) -> dict:
    """One span as a JSON-serializable dict, start relative to ``epoch``.

    ``nested`` adds ``children`` (always a list, possibly empty) with
    the whole subtree; without it the record is flat, one span alone.
    """
    out: dict[str, object] = {
        "name": span.name,
        "start_s": span.start - epoch,
        "duration_s": span.duration if span.duration is not None else 0.0,
        "wall_start": span.wall_start,
        "thread": span.thread_id,
    }
    if span.attrs:
        out["attrs"] = {key: _jsonable(value)
                        for key, value in span.attrs.items()}
    if nested:
        out["children"] = [span_to_dict(child, epoch)
                           for child in span.children]
    return out


def to_json(roots: list[Span],
            metrics: dict[str, object] | None = None) -> dict:
    """Span forest + metric snapshot as a JSON-serializable dict."""
    epoch = _epoch(roots)
    return {
        "spans": [span_to_dict(root, epoch) for root in roots],
        "metrics": {key: _jsonable(value) if not isinstance(value, dict)
                    else value
                    for key, value in (metrics or {}).items()},
    }


# -- Chrome trace-event format ------------------------------------------------

def _counter_tracks(metrics: dict[str, object]) -> dict[str, dict]:
    """Group ``<prefix>.filter.<name>.<metric>`` gauges into counter tracks.

    Returns ``{"<prefix>.<metric>": {"<name>": value, ...}, ...}`` — one
    Chrome counter track per metric family, one series per filter.
    """
    tracks: dict[str, dict] = {}
    for name, value in sorted(metrics.items()):
        if isinstance(value, dict) or ".filter." not in name:
            continue
        prefix, rest = name.split(".filter.", 1)
        if "." not in rest:
            continue
        filter_name, metric = rest.rsplit(".", 1)
        tracks.setdefault(f"{prefix}.{metric}", {})[filter_name] = \
            _jsonable(value)
    return tracks


def to_chrome_trace(roots: list[Span], pid: int | None = None,
                    metrics: dict[str, object] | None = None) -> dict:
    """Spans as Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

    Every span becomes one complete ("X") event with microsecond
    timestamps relative to the earliest span; process/thread names and
    sort indices go in as metadata ("M") records.  When a metric
    snapshot is passed, per-filter gauges (``*.filter.<name>.<metric>``)
    become counter ("C") tracks — one track per metric family with one
    series per filter.
    """
    if pid is None:
        pid = os.getpid()
    epoch = _epoch(roots)
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "repro"},
    }]
    threads_seen: set[int] = set()
    trace_end = 0.0
    for span in _walk(roots):
        if span.thread_id not in threads_seen:
            # The first thread seen owns the root span — label it "main"
            # and keep threads in first-seen order in the timeline.
            order = len(threads_seen)
            threads_seen.add(span.thread_id)
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": span.thread_id,
                "args": {"name": "main" if order == 0
                         else f"thread-{span.thread_id}"},
            })
            events.append({
                "name": "thread_sort_index", "ph": "M", "pid": pid,
                "tid": span.thread_id,
                "args": {"sort_index": order},
            })
        start = (span.start - epoch) * 1e6
        duration = (span.duration or 0.0) * 1e6
        trace_end = max(trace_end, start + duration)
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": start,
            "dur": duration,
            "pid": pid,
            "tid": span.thread_id,
            "args": {key: _jsonable(value)
                     for key, value in span.attrs.items()},
        })
    if metrics:
        for track, series in _counter_tracks(metrics).items():
            events.append({
                "name": track, "cat": "repro", "ph": "C",
                "ts": trace_end, "pid": pid, "tid": 0, "args": series,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(roots: list[Span], path: str | Path,
                       metrics: dict[str, object] | None = None) -> Path:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(roots, metrics=metrics)))
    return path
