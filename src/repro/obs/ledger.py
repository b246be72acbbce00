"""Persistent, content-addressed run ledger with regression comparison.

Every ``run``/``report``/``profile``/``fuzz`` invocation (and every
benchmark driver, via ``benchmarks/common.py``) appends one record under
``.repro/ledger/`` — override the location with the
``REPRO_LEDGER_DIR`` environment variable.  A record is an envelope::

    {
      "record_id": "<sha256 of the canonical body JSON>",
      "seq": 17,
      "wall_time": 1754650000.123,
      "body": {
        "kind": "report", "target": "filterbank",
        "spec_hash": "...", "backend": "laminar-c",
        "pipeline": "cp,promote,fold,cse,dce", "iterations": 4,
        "flags": {...}, "checksum": "0123abcd...",
        "seconds": 0.8431, "metrics": {...}
      }
    }

The **body** is what is content-addressed: two runs with identical
configuration and identical measurements share a ``record_id``, while
``seq``/``wall_time`` (assigned at append time) order the trajectory.
``python -m repro history TARGET`` lists a target's records,
``python -m repro compare A B`` diffs two of them and signals a
regression (exit 1) when the primary metric grew past the threshold.

Record references accepted by :func:`resolve`:

* a ``record_id`` prefix (≥ 6 hex chars);
* a target name — its most recent record;
* ``TARGET~N`` — the N-th record before the most recent (``~0`` ≡
  latest, like git revision suffixes).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

LEDGER_ENV = "REPRO_LEDGER_DIR"
DEFAULT_LEDGER_DIR = Path(".repro") / "ledger"


class LedgerError(Exception):
    """A ledger reference did not resolve (missing dir, unknown ref)."""


def ledger_dir() -> Path:
    """The active ledger directory (not necessarily existing yet)."""
    override = os.environ.get(LEDGER_ENV)
    if override:
        return Path(override)
    return DEFAULT_LEDGER_DIR


def canonical_json(value: object) -> str:
    """Deterministic JSON used for hashing record bodies."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record_id(body: dict) -> str:
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def make_body(kind: str, target: str, *, spec_hash: str | None = None,
              backend: str | None = None, pipeline: str | None = None,
              iterations: int | None = None,
              flags: dict | None = None, checksum: str | None = None,
              seconds: float | None = None,
              metrics: dict | None = None) -> dict:
    """The content-addressed part of a record; ``None`` fields dropped."""
    body = {
        "kind": kind,
        "target": target,
        "spec_hash": spec_hash,
        "backend": backend,
        "pipeline": pipeline,
        "iterations": iterations,
        "flags": flags or {},
        "checksum": checksum,
        "seconds": seconds,
        "metrics": metrics or {},
    }
    return {key: value for key, value in body.items() if value is not None}


# Current records are keyed by sequence number alone; the legacy
# ``NNNNNN-rid12.json`` form (PR 6) is still read, and still counts when
# scanning for the next free sequence number.
_FILE_RE = re.compile(r"^(\d{6})(?:-([0-9a-f]{12}))?\.json$")


def append(body: dict, directory: Path | None = None) -> dict:
    """Append one record to the ledger; returns the stored envelope."""
    directory = directory or ledger_dir()
    directory.mkdir(parents=True, exist_ok=True)
    rid = record_id(body)
    seq = _highest_seq(directory) + 1
    while True:
        # The claim file is keyed by the sequence number *alone*, so two
        # concurrent appends can never both own one seq.
        path = directory / f"{seq:06d}.json"
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            seq = max(seq + 1, _highest_seq(directory) + 1)
            continue
        envelope = {"record_id": rid, "seq": seq,
                    "wall_time": time.time(), "body": body}
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, sort_keys=True, indent=1)
            handle.write("\n")
            # A ledger record claims its seq forever; make it durable
            # before reporting success so a crash right after the append
            # cannot lose (or half-write) an acknowledged record.
            handle.flush()
            try:
                os.fsync(handle.fileno())
            except OSError:
                pass
        return envelope


def _highest_seq(directory: Path) -> int:
    highest = 0
    for entry in directory.iterdir():
        match = _FILE_RE.match(entry.name)
        if match:
            highest = max(highest, int(match.group(1)))
    return highest


def load_records(directory: Path | None = None,
                 target: str | None = None) -> list[dict]:
    """Every ledger envelope, oldest first; optionally one target's."""
    directory = directory or ledger_dir()
    if not directory.is_dir():
        raise LedgerError(
            f"no ledger at {directory} (set {LEDGER_ENV} or run a "
            "command that records one, e.g. `python -m repro report "
            "filterbank`)")
    records = []
    for entry in sorted(directory.iterdir()):
        if not _FILE_RE.match(entry.name):
            continue
        try:
            envelope = json.loads(entry.read_text())
        except OSError:
            continue  # vanished mid-scan (concurrent cleanup)
        except json.JSONDecodeError as error:
            # A torn write (crash mid-append) must not poison the whole
            # history — but it should not be silent either.
            warnings.warn(
                f"skipping unparseable ledger record {entry}: {error}",
                RuntimeWarning, stacklevel=2)
            continue
        if isinstance(envelope, dict) and "body" in envelope:
            records.append(envelope)
    records.sort(key=lambda env: (env.get("seq", 0),
                                  env.get("record_id", "")))
    if target is not None:
        records = [env for env in records
                   if env["body"].get("target") == target]
    return records


_HEX_RE = re.compile(r"^[0-9a-f]{6,64}$")


def resolve(ref: str, directory: Path | None = None) -> dict:
    """Resolve a record reference (see module docstring) to an envelope."""
    records = load_records(directory)
    base, back = ref, 0
    if "~" in ref:
        base, _, suffix = ref.rpartition("~")
        try:
            back = int(suffix)
        except ValueError:
            raise LedgerError(f"bad record reference {ref!r}: expected "
                              "TARGET~N with integer N") from None
    matching = [env for env in records if env["body"].get("target") == base]
    if matching:
        if back >= len(matching):
            raise LedgerError(
                f"{ref!r} reaches past the ledger: only {len(matching)} "
                f"record(s) for target {base!r}")
        return matching[-1 - back]
    if _HEX_RE.match(base):
        by_id = [env for env in records
                 if env["record_id"].startswith(base)]
        if len(by_id) == 1:
            return by_id[0]
        if len(by_id) > 1:
            raise LedgerError(f"record id prefix {base!r} is ambiguous "
                              f"({len(by_id)} matches)")
    raise LedgerError(f"no ledger record matches {ref!r} (not a known "
                      "target or record-id prefix)")


# -- comparison ---------------------------------------------------------------

@dataclass
class MetricDelta:
    name: str
    before: float
    after: float

    @property
    def ratio(self) -> float:
        if self.before == 0:
            return float("inf") if self.after else 1.0
        return self.after / self.before


@dataclass
class Comparison:
    """Outcome of diffing two ledger records."""

    before: dict
    after: dict
    metric: str
    threshold: float
    regression: bool
    metric_before: float | None
    metric_after: float | None
    checksum_changed: bool
    deltas: list[MetricDelta] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "before": self.before["record_id"],
            "after": self.after["record_id"],
            "metric": self.metric,
            "threshold": self.threshold,
            "regression": self.regression,
            "metric_before": self.metric_before,
            "metric_after": self.metric_after,
            "checksum_changed": self.checksum_changed,
            "deltas": [{"name": delta.name, "before": delta.before,
                        "after": delta.after, "ratio": delta.ratio}
                       for delta in self.deltas],
        }


def _metric_value(body: dict, metric: str) -> float | None:
    if metric in body and isinstance(body[metric], (int, float)):
        return float(body[metric])
    value = body.get("metrics", {}).get(metric)
    if isinstance(value, dict):  # histogram summary: compare the mean
        value = value.get("mean")
    if isinstance(value, (int, float)):
        return float(value)
    return None


def compare(before: dict, after: dict, *, metric: str = "seconds",
            threshold: float = 0.25) -> Comparison:
    """Diff two envelopes; flag a regression when the primary ``metric``
    grew by more than ``threshold`` (fractional, 0.25 = +25%)."""
    value_before = _metric_value(before["body"], metric)
    value_after = _metric_value(after["body"], metric)
    regression = (value_before is not None and value_after is not None
                  and value_before > 0
                  and value_after > value_before * (1.0 + threshold))
    deltas = []
    metrics_before = before["body"].get("metrics", {})
    metrics_after = after["body"].get("metrics", {})
    for name in sorted(set(metrics_before) & set(metrics_after)):
        lhs = _metric_value(before["body"], name)
        rhs = _metric_value(after["body"], name)
        if lhs is None or rhs is None or lhs == rhs:
            continue
        deltas.append(MetricDelta(name=name, before=lhs, after=rhs))
    checksum_changed = (
        before["body"].get("checksum") is not None
        and after["body"].get("checksum") is not None
        and before["body"]["checksum"] != after["body"]["checksum"])
    return Comparison(before=before, after=after, metric=metric,
                      threshold=threshold, regression=regression,
                      metric_before=value_before, metric_after=value_after,
                      checksum_changed=checksum_changed, deltas=deltas)


def format_comparison(result: Comparison) -> str:
    lines = []
    before, after = result.before, result.after
    lines.append(f"before: {before['record_id'][:12]} seq={before['seq']} "
                 f"({before['body'].get('kind')} "
                 f"{before['body'].get('target')})")
    lines.append(f"after:  {after['record_id'][:12]} seq={after['seq']} "
                 f"({after['body'].get('kind')} "
                 f"{after['body'].get('target')})")
    if result.metric_before is None or result.metric_after is None:
        lines.append(f"{result.metric}: not recorded in both records")
    else:
        ratio = (result.metric_after / result.metric_before
                 if result.metric_before else float("inf"))
        lines.append(f"{result.metric}: {result.metric_before:g} -> "
                     f"{result.metric_after:g} ({ratio:.2f}x, threshold "
                     f"{1.0 + result.threshold:.2f}x)")
    if result.checksum_changed:
        lines.append("warning: output checksums differ — the runs are "
                     "not computing the same thing")
    for delta in result.deltas:
        lines.append(f"  {delta.name}: {delta.before:g} -> "
                     f"{delta.after:g} ({delta.ratio:.2f}x)")
    lines.append("regression: " + ("YES" if result.regression else "no"))
    return "\n".join(lines)


def format_history(records: list[dict]) -> str:
    """A one-line-per-record table, newest first, with ~N refs."""
    lines = []
    newest_first = list(reversed(records))
    for back, envelope in enumerate(newest_first):
        body = envelope["body"]
        stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                              time.localtime(envelope["wall_time"]))
        seconds = body.get("seconds")
        took = f"{seconds:8.3f}s" if isinstance(seconds, (int, float)) \
            else "       --"
        checksum = body.get("checksum") or "-"
        lines.append(f"~{back:<3} {envelope['record_id'][:12]} {stamp} "
                     f"{body.get('kind', '?'):<8} "
                     f"{body.get('backend') or '-':<12} {took} "
                     f"{str(checksum)[:16]}")
    return "\n".join(lines)
