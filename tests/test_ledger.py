"""Tests for the persistent run ledger (repro.obs.ledger)."""

import json
import threading

import pytest

from repro.obs import ledger


def body(kind="run", target="tiny", seconds=1.0, **kwargs):
    return ledger.make_body(kind, target, seconds=seconds, **kwargs)


class TestBody:
    def test_none_fields_dropped(self):
        record = ledger.make_body("run", "tiny")
        assert "seconds" not in record
        assert "checksum" not in record
        assert record["kind"] == "run"
        assert record["target"] == "tiny"
        assert record["flags"] == {}
        assert record["metrics"] == {}

    def test_record_id_is_content_addressed(self):
        a = body(seconds=1.5, metrics={"x": 1})
        b = body(seconds=1.5, metrics={"x": 1})
        c = body(seconds=1.6, metrics={"x": 1})
        assert ledger.record_id(a) == ledger.record_id(b)
        assert ledger.record_id(a) != ledger.record_id(c)

    def test_record_id_ignores_key_order(self):
        assert ledger.record_id({"a": 1, "b": 2}) == \
            ledger.record_id({"b": 2, "a": 1})

    def test_canonical_json_is_compact_and_sorted(self):
        assert ledger.canonical_json({"b": 1, "a": [1, 2]}) == \
            '{"a":[1,2],"b":1}'


class TestAppendLoad:
    def test_append_assigns_sequential_numbers(self, tmp_path):
        first = ledger.append(body(seconds=1.0), tmp_path)
        second = ledger.append(body(seconds=2.0), tmp_path)
        assert first["seq"] == 1
        assert second["seq"] == 2
        assert first["record_id"] != second["record_id"]

    def test_files_are_valid_json_envelopes(self, tmp_path):
        envelope = ledger.append(body(), tmp_path)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        # Claim files are keyed by seq alone (uniqueness under O_EXCL);
        # the record id lives inside the envelope.
        assert files[0].name == f"{envelope['seq']:06d}.json"
        assert json.loads(files[0].read_text()) == envelope

    def test_load_missing_dir_raises(self, tmp_path):
        with pytest.raises(ledger.LedgerError):
            ledger.load_records(tmp_path / "nope")

    def test_load_skips_torn_records(self, tmp_path):
        ledger.append(body(), tmp_path)
        (tmp_path / "000002-0123456789ab.json").write_text('{"half')
        (tmp_path / "not-a-record.txt").write_text("noise")
        with pytest.warns(RuntimeWarning, match="unparseable"):
            records = ledger.load_records(tmp_path)
        assert len(records) == 1

    def test_load_filters_by_target(self, tmp_path):
        ledger.append(body(target="a"), tmp_path)
        ledger.append(body(target="b"), tmp_path)
        ledger.append(body(target="a", seconds=2.0), tmp_path)
        assert len(ledger.load_records(tmp_path, target="a")) == 2
        assert len(ledger.load_records(tmp_path, target="b")) == 1

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ledger.LEDGER_ENV, str(tmp_path / "custom"))
        ledger.append(body())
        assert len(ledger.load_records()) == 1
        assert (tmp_path / "custom").is_dir()


class TestResolve:
    def test_target_resolves_to_latest(self, tmp_path):
        ledger.append(body(seconds=1.0), tmp_path)
        latest = ledger.append(body(seconds=2.0), tmp_path)
        assert ledger.resolve("tiny", tmp_path) == latest

    def test_tilde_counts_back_from_latest(self, tmp_path):
        oldest = ledger.append(body(seconds=1.0), tmp_path)
        middle = ledger.append(body(seconds=2.0), tmp_path)
        latest = ledger.append(body(seconds=3.0), tmp_path)
        assert ledger.resolve("tiny~0", tmp_path) == latest
        assert ledger.resolve("tiny~1", tmp_path) == middle
        assert ledger.resolve("tiny~2", tmp_path) == oldest

    def test_tilde_past_end_raises(self, tmp_path):
        ledger.append(body(), tmp_path)
        with pytest.raises(ledger.LedgerError, match="past the ledger"):
            ledger.resolve("tiny~5", tmp_path)

    def test_record_id_prefix(self, tmp_path):
        envelope = ledger.append(body(), tmp_path)
        resolved = ledger.resolve(envelope["record_id"][:8], tmp_path)
        assert resolved == envelope

    def test_ambiguous_prefix_raises(self, tmp_path):
        # Identical bodies share a record_id; two appends then make any
        # id prefix ambiguous (the files differ only by seq).
        first = ledger.append(body(seconds=1.0), tmp_path)
        ledger.append(body(seconds=1.0), tmp_path)
        with pytest.raises(ledger.LedgerError, match="ambiguous"):
            ledger.resolve(first["record_id"][:12], tmp_path)

    def test_unknown_ref_raises(self, tmp_path):
        ledger.append(body(), tmp_path)
        with pytest.raises(ledger.LedgerError, match="no ledger record"):
            ledger.resolve("unknown-target", tmp_path)

    def test_bad_tilde_suffix_raises(self, tmp_path):
        ledger.append(body(), tmp_path)
        with pytest.raises(ledger.LedgerError, match="bad record"):
            ledger.resolve("tiny~x", tmp_path)


class TestCompare:
    def test_identical_runs_no_regression(self, tmp_path):
        a = ledger.append(body(seconds=1.0), tmp_path)
        b = ledger.append(body(seconds=1.0), tmp_path)
        result = ledger.compare(a, b)
        assert not result.regression
        assert result.metric_before == result.metric_after == 1.0

    def test_injected_2x_slowdown_is_a_regression(self, tmp_path):
        a = ledger.append(body(seconds=1.0), tmp_path)
        b = ledger.append(body(seconds=2.0), tmp_path)
        result = ledger.compare(a, b, threshold=0.25)
        assert result.regression

    def test_within_threshold_is_not_a_regression(self, tmp_path):
        a = ledger.append(body(seconds=1.0), tmp_path)
        b = ledger.append(body(seconds=1.2), tmp_path)
        assert not ledger.compare(a, b, threshold=0.25).regression
        assert ledger.compare(a, b, threshold=0.1).regression

    def test_improvement_is_never_a_regression(self, tmp_path):
        a = ledger.append(body(seconds=2.0), tmp_path)
        b = ledger.append(body(seconds=0.5), tmp_path)
        assert not ledger.compare(a, b).regression

    def test_missing_metric_is_not_a_regression(self, tmp_path):
        a = ledger.append(body(seconds=None), tmp_path)
        b = ledger.append(body(seconds=2.0), tmp_path)
        result = ledger.compare(a, b)
        assert not result.regression
        assert result.metric_before is None

    def test_metric_from_metrics_dict(self, tmp_path):
        a = ledger.append(body(metrics={"outputs": 10}), tmp_path)
        b = ledger.append(body(metrics={"outputs": 30}), tmp_path)
        result = ledger.compare(a, b, metric="outputs")
        assert result.regression
        assert result.metric_after == 30

    def test_histogram_metric_compares_means(self, tmp_path):
        a = ledger.append(body(metrics={"lat": {"mean": 1.0}}), tmp_path)
        b = ledger.append(body(metrics={"lat": {"mean": 5.0}}), tmp_path)
        assert ledger.compare(a, b, metric="lat").regression

    def test_checksum_change_flagged(self, tmp_path):
        a = ledger.append(body(checksum="aa"), tmp_path)
        b = ledger.append(body(checksum="bb", seconds=2.0), tmp_path)
        assert ledger.compare(a, b).checksum_changed

    def test_deltas_cover_shared_changed_metrics(self, tmp_path):
        a = ledger.append(body(metrics={"x": 1, "y": 2, "z": 3}), tmp_path)
        b = ledger.append(
            body(seconds=2.0, metrics={"x": 1, "y": 4, "w": 9}), tmp_path)
        deltas = {d.name: d for d in ledger.compare(a, b).deltas}
        assert set(deltas) == {"y"}
        assert deltas["y"].ratio == 2.0

    def test_to_dict_round_trips_json(self, tmp_path):
        a = ledger.append(body(seconds=1.0), tmp_path)
        b = ledger.append(body(seconds=3.0), tmp_path)
        payload = ledger.compare(a, b).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["regression"] is True
        assert parsed["metric"] == "seconds"


class TestFormatting:
    def test_format_history_newest_first(self, tmp_path):
        ledger.append(body(seconds=1.0), tmp_path)
        latest = ledger.append(body(seconds=2.0), tmp_path)
        text = ledger.format_history(ledger.load_records(tmp_path))
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("~0")
        assert latest["record_id"][:12] in lines[0]
        assert lines[1].startswith("~1")

    def test_format_comparison_mentions_verdict(self, tmp_path):
        a = ledger.append(body(seconds=1.0), tmp_path)
        b = ledger.append(body(seconds=9.0), tmp_path)
        text = ledger.format_comparison(ledger.compare(a, b))
        assert "regression: YES" in text
        assert "9.00x" in text
        fine = ledger.format_comparison(ledger.compare(a, a))
        assert "regression: no" in fine


class TestConcurrentAppend:
    """Regression: concurrent appends used to share one seq number.

    ``append`` scanned the directory for the next seq and then wrote
    ``<seq>-<rid>.json`` — two threads scanning before either wrote
    both minted the same seq under *different* filenames, so both
    writes "succeeded" and the ledger held duplicate sequence numbers.
    The fix claims ``<seq>.json`` with ``O_EXCL``; the loser re-scans.
    """

    def test_racing_appends_get_unique_seqs(self, tmp_path, monkeypatch):
        # Force the race deterministically: every thread agrees on the
        # same starting seq before any of them claims a file.  Only each
        # thread's first scan waits; a collision's rescan runs freely.
        workers = 8
        barrier = threading.Barrier(workers)
        original = ledger._highest_seq
        scanned = threading.local()

        def synchronized_highest_seq(directory):
            seq = original(directory)
            if not getattr(scanned, "once", False):
                scanned.once = True
                barrier.wait()
            return seq

        monkeypatch.setattr(ledger, "_highest_seq",
                            synchronized_highest_seq)
        envelopes = []
        lock = threading.Lock()

        def append_one(n):
            envelope = ledger.append(body(seconds=float(n)), tmp_path)
            with lock:
                envelopes.append(envelope)

        threads = [threading.Thread(target=append_one, args=(n,))
                   for n in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seqs = sorted(envelope["seq"] for envelope in envelopes)
        assert seqs == list(range(1, workers + 1))
        assert len(ledger.load_records(tmp_path)) == workers

    def test_race_skips_seqs_owned_by_legacy_files(self, tmp_path):
        # A pre-fix ledger dir may hold 000001-<rid>.json; new appends
        # must not mint seq 1 again even though 000001.json is free.
        legacy = {"record_id": "a" * 64, "seq": 1, "wall_time": 0.0,
                  "body": body(seconds=0.5)}
        (tmp_path / f"000001-{'a' * 12}.json").write_text(
            json.dumps(legacy))
        envelope = ledger.append(body(seconds=1.0), tmp_path)
        assert envelope["seq"] == 2
        records = ledger.load_records(tmp_path)
        assert [record["seq"] for record in records] == [1, 2]

    def test_legacy_duplicate_seqs_load_deterministically(self, tmp_path):
        # Two legacy files sharing seq 1 (the old bug's footprint):
        # load_records orders them by (seq, record_id), stably.
        for rid_char in ("b", "a"):
            envelope = {"record_id": rid_char * 64, "seq": 1,
                        "wall_time": 0.0, "body": body(seconds=1.0)}
            (tmp_path / f"000001-{rid_char * 12}.json").write_text(
                json.dumps(envelope))
        first = ledger.load_records(tmp_path)
        second = ledger.load_records(tmp_path)
        assert first == second
        assert [record["record_id"][0] for record in first] == ["a", "b"]
        # TARGET~N references stay stable across loads.
        assert ledger.resolve("tiny~1", tmp_path)["record_id"][0] == "a"
        assert ledger.resolve("tiny", tmp_path)["record_id"][0] == "b"


class TestAppendWithoutScan:
    """An append starts from the seq after the highest one its
    directory holds, whoever appended it."""

    def test_seq_taken_elsewhere_rescans(self, tmp_path):
        ledger.append(body(seconds=1.0), tmp_path)
        # Another process appends seqs 2 and 3 behind this one's back.
        for seq in (2, 3):
            (tmp_path / f"{seq:06d}.json").write_text(json.dumps(
                {"record_id": "c" * 64, "seq": seq, "wall_time": 0.0,
                 "body": body(seconds=2.0)}))
        assert ledger.append(body(seconds=4.0), tmp_path)["seq"] == 4

    def test_emptied_directory_starts_over(self, tmp_path):
        for n in range(3):
            ledger.append(body(seconds=float(n)), tmp_path)
        for entry in tmp_path.iterdir():
            entry.unlink()
        assert ledger.append(body(seconds=9.0), tmp_path)["seq"] == 1
