"""Crash-safety tests of the append-only result ledger.

The contract under test: a completed ``put`` survives anything, a
crash mid-append costs exactly the torn record (skipped with a
warning, never an exception), duplicate keys resolve last-write-wins,
and two processes appending to the same ledger never corrupt it.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import sys
import threading
import time

import pytest

from repro.experiments.ledger import ResultLedger


def _fill(ledger: ResultLedger, n: int, prefix: str = "k") -> None:
    for i in range(n):
        ledger.put(f"{prefix}{i}", {"value": i, "tag": prefix})


class TestRoundTrip:
    def test_put_then_get_in_same_instance(self, tmp_path):
        with ResultLedger(tmp_path / "ledger.jsonl") as ledger:
            ledger.put("a", {"x": 1})
            assert "a" in ledger
            assert ledger.get("a") == {"x": 1}

    def test_results_survive_reopen(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 5)
        with ResultLedger(path) as reopened:
            assert len(reopened) == 5
            assert sorted(reopened.keys()) == [f"k{i}" for i in range(5)]
            for i in range(5):
                assert reopened.get(f"k{i}") == {"value": i, "tag": "k"}
            assert reopened.dropped_records == 0

    def test_arbitrary_picklable_values(self, tmp_path):
        with ResultLedger(tmp_path / "ledger.jsonl") as ledger:
            value = {"nested": [1, (2, 3)], "text": "é", "none": None}
            ledger.put("key", value)
        with ResultLedger(tmp_path / "ledger.jsonl") as reopened:
            assert reopened.get("key") == value

    def test_missing_file_is_an_empty_ledger(self, tmp_path):
        ledger = ResultLedger(tmp_path / "does-not-exist.jsonl")
        assert len(ledger) == 0
        ledger.close()

    def test_put_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            ledger.put("a", 1)
        assert path.exists()

    def test_records_are_newline_terminated_jsonl(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 3)
        data = path.read_bytes()
        assert data.endswith(b"\n")
        lines = data.decode("ascii").splitlines()
        assert len(lines) == 4  # salt header + one line per record
        header = json.loads(lines[0])
        assert set(header) == {"v", "kind", "salt"}
        assert header["kind"] == "header"
        for line in lines[1:]:
            record = json.loads(line)
            assert set(record) == {"v", "key", "payload", "psha", "ts"}

    def test_new_ledger_declares_the_current_salt(self, tmp_path):
        from repro.experiments.canonical import LEDGER_SALT

        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            ledger.put("a", 1)
            assert ledger.salt == LEDGER_SALT
        with ResultLedger(path) as reopened:
            assert reopened.salt == LEDGER_SALT
            assert reopened.dropped_records == 0

    def test_headerless_legacy_ledger_still_loads(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        payload = ResultLedger.encode_record(
            "legacy", b"\x80\x04K\x01."  # pickle of 1, no ts field
        )
        path.write_bytes(payload)
        with ResultLedger(path) as ledger:
            assert ledger.salt is None
            assert ledger.get("legacy") == 1
            assert ledger.dropped_records == 0


class TestTornAndCorruptRecords:
    def test_torn_final_record_is_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 3)
        # Simulate a crash mid-append: a truncated, unterminated line.
        complete = ResultLedger.encode_record("torn", b"payload-bytes")
        with open(path, "ab") as handle:
            handle.write(complete[: len(complete) // 2])
        with caplog.at_level(logging.WARNING, "repro.experiments.ledger"):
            reopened = ResultLedger(path)
        assert len(reopened) == 3
        assert "torn" not in reopened
        assert reopened.dropped_records == 1
        assert any("torn trailing" in r.message for r in caplog.records)
        reopened.close()

    def test_torn_record_does_not_block_later_appends(self, tmp_path):
        """A restart after a torn append keeps appending; the torn line
        is then an interior corrupt record and the ledger still loads."""
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            ledger.put("before", 1)
        with open(path, "ab") as handle:
            handle.write(b'{"v": 1, "key": "half')
        with ResultLedger(path) as resumed:
            assert resumed.dropped_records == 1
            resumed.put("after", 2)
        with ResultLedger(path) as final:
            assert final.get("before") == 1
            assert final.get("after") == 2
            assert final.dropped_records == 1

    def test_corrupt_interior_record_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 3)
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[2])  # lines[0] is the salt header
        record["payload"] = record["payload"][:-8] + "AAAAAAA="  # bit rot
        lines[2] = (json.dumps(record) + "\n").encode("ascii")
        path.write_bytes(b"".join(lines))
        with caplog.at_level(logging.WARNING, "repro.experiments.ledger"):
            reopened = ResultLedger(path)
        assert len(reopened) == 2
        assert "k1" not in reopened
        assert reopened.dropped_records == 1
        assert any("digest mismatch" in r.message for r in caplog.records)
        reopened.close()

    def test_wrong_version_record_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(
            b'{"v": 99, "key": "a", "payload": "AA==", "psha": "00"}\n'
        )
        ledger = ResultLedger(path)
        assert len(ledger) == 0
        assert ledger.dropped_records == 1
        ledger.close()

    def test_absurd_integer_ts_is_a_corrupt_record(self, tmp_path, caplog):
        """``float(10**400)`` overflows: the line is skipped, not fatal."""
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 3)
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[2])  # lines[0] is the salt header
        record["ts"] = 10**400
        lines[2] = (json.dumps(record) + "\n").encode("ascii")
        path.write_bytes(b"".join(lines))
        with caplog.at_level(logging.WARNING, "repro.experiments.ledger"):
            reopened = ResultLedger(path)
        assert len(reopened) == 2
        assert "k1" not in reopened
        assert reopened.dropped_records == 1
        assert any("invalid ts" in r.message for r in caplog.records)
        reopened.close()

    def test_load_never_raises_on_garbage(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b"\x00\xffnot json at all\n[1, 2, 3]\n\n")
        ledger = ResultLedger(path)
        assert len(ledger) == 0
        assert ledger.dropped_records == 2
        ledger.close()


class TestDuplicateKeys:
    def test_last_write_wins(self, tmp_path):
        """Documented policy: the most recent record for a key is the
        one served — both live and across a reload."""
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            ledger.put("k", "old")
            ledger.put("k", "new")
            assert ledger.get("k") == "new"
            assert len(ledger) == 1
        with ResultLedger(path) as reopened:
            assert reopened.get("k") == "new"
            assert len(reopened) == 1

    def test_compact_keeps_the_winning_record(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ResultLedger(path)
        ledger.put("k", "old")
        ledger.put("k", "new")
        ledger.put("other", 1)
        ledger.compact()
        # Salt header + the two live records.
        assert len(path.read_bytes().splitlines()) == 3
        with ResultLedger(path) as reopened:
            assert reopened.get("k") == "new"
            assert reopened.get("other") == 1


class TestCompaction:
    def test_compact_drops_corrupt_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 3)
        with open(path, "ab") as handle:
            handle.write(b"garbage-half-record")
        ledger = ResultLedger(path)
        assert ledger.dropped_records == 1
        ledger.compact()
        assert ledger.dropped_records == 0
        with ResultLedger(path) as reopened:
            assert len(reopened) == 3
            assert reopened.dropped_records == 0

    def test_compact_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ResultLedger(path)
        _fill(ledger, 2)
        ledger.compact()
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.jsonl"]

    def test_ledger_usable_after_compact(self, tmp_path):
        ledger = ResultLedger(tmp_path / "ledger.jsonl")
        ledger.put("a", 1)
        ledger.compact()
        ledger.put("b", 2)
        ledger.close()
        with ResultLedger(tmp_path / "ledger.jsonl") as reopened:
            assert reopened.get("a") == 1
            assert reopened.get("b") == 2


class TestGCBounds:
    """The age/size eviction policies of :meth:`ResultLedger.compact`."""

    def test_max_age_evicts_only_expired_records(self, tmp_path):
        import pickle

        path = tmp_path / "ledger.jsonl"
        chunks = [ResultLedger.encode_header()]
        for key, ts in (("old", 100.0), ("mid", 500.0), ("new", 900.0)):
            chunks.append(
                ResultLedger.encode_record(key, pickle.dumps(key), ts)
            )
        path.write_bytes(b"".join(chunks))
        with ResultLedger(path) as ledger:
            evicted = ledger.compact(max_age_seconds=600.0, now=1000.0)
            assert evicted == 1
            assert "old" not in ledger
            assert ledger.get("mid") == "mid"
            assert ledger.get("new") == "new"
        with ResultLedger(path) as reopened:
            assert sorted(reopened.keys()) == ["mid", "new"]

    def test_legacy_records_without_ts_count_as_oldest(self, tmp_path):
        import pickle

        path = tmp_path / "ledger.jsonl"
        path.write_bytes(
            ResultLedger.encode_header()
            + ResultLedger.encode_record("legacy", pickle.dumps(1))  # no ts
            + ResultLedger.encode_record("stamped", pickle.dumps(2), 1500.0)
        )
        with ResultLedger(path) as ledger:
            evicted = ledger.compact(max_age_seconds=1000.0, now=2000.0)
            assert evicted == 1
            assert "legacy" not in ledger
            assert ledger.get("stamped") == 2

    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        import pickle

        path = tmp_path / "ledger.jsonl"
        chunks = [ResultLedger.encode_header()]
        lines = {}
        for i, key in enumerate(("a", "b", "c", "d")):
            line = ResultLedger.encode_record(
                key, pickle.dumps(key), 100.0 * (i + 1)
            )
            lines[key] = line
            chunks.append(line)
        path.write_bytes(b"".join(chunks))
        # Budget for the header plus the two newest records.
        budget = (
            len(ResultLedger.encode_header())
            + len(lines["c"]) + len(lines["d"])
        )
        with ResultLedger(path) as ledger:
            evicted = ledger.compact(max_bytes=budget)
            assert evicted == 2
            assert sorted(ledger.keys()) == ["c", "d"]
        assert path.stat().st_size <= budget

    def test_bounds_compose_and_file_stays_loadable(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 6)
            # Age bound keeps everything (records are fresh); the size
            # bound then trims to whatever fits.
            ledger.compact(max_age_seconds=3600.0, max_bytes=300)
        with ResultLedger(path) as reopened:
            assert reopened.dropped_records == 0
            assert 0 < len(reopened) < 6
            # The newest records are the survivors.
            assert "k5" in reopened

    def test_unbounded_compact_evicts_nothing_live(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 4)
            assert ledger.compact() == 0
            assert len(ledger) == 4

    def test_stats_reports_counts_bytes_and_age_span(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 3)
            stats = ledger.stats()
        assert stats["records"] == 3
        assert stats["file_bytes"] == path.stat().st_size
        assert 0 < stats["live_bytes"] <= stats["file_bytes"]
        assert stats["dropped_records"] == 0
        assert stats["oldest_ts"] <= stats["newest_ts"]


class TestMergeLedgers:
    """The cross-machine merge tool: last-write-wins, loud refusals."""

    def test_merge_combines_disjoint_ledgers(self, tmp_path):
        from repro.experiments.ledger import merge_ledgers

        for name, prefix in (("a.jsonl", "a"), ("b.jsonl", "b")):
            with ResultLedger(tmp_path / name) as ledger:
                _fill(ledger, 3, prefix)
        out = tmp_path / "merged.jsonl"
        summary = merge_ledgers(
            out, [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        )
        assert summary == {"records": 6, "duplicates": 0, "skipped": 0}
        with ResultLedger(out) as merged:
            assert len(merged) == 6
            assert merged.get("a0") == {"value": 0, "tag": "a"}
            assert merged.get("b2") == {"value": 2, "tag": "b"}

    def test_merge_duplicate_keys_last_input_wins(self, tmp_path):
        from repro.experiments.ledger import merge_ledgers

        with ResultLedger(tmp_path / "first.jsonl") as ledger:
            ledger.put("shared", "from-first")
        with ResultLedger(tmp_path / "second.jsonl") as ledger:
            ledger.put("shared", "from-second")
        out = tmp_path / "merged.jsonl"
        summary = merge_ledgers(
            out, [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        )
        assert summary["records"] == 1
        assert summary["duplicates"] == 1
        with ResultLedger(out) as merged:
            assert merged.get("shared") == "from-second"

    def test_merge_refuses_mismatched_salts(self, tmp_path):
        import pickle

        import pytest

        from repro.errors import LedgerMergeError
        from repro.experiments.ledger import merge_ledgers

        with ResultLedger(tmp_path / "current.jsonl") as ledger:
            ledger.put("a", 1)
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_bytes(
            ResultLedger.encode_header("some-other-salt")
            + ResultLedger.encode_record("b", pickle.dumps(2))
        )
        with pytest.raises(LedgerMergeError, match="different salts"):
            merge_ledgers(
                tmp_path / "out.jsonl",
                [tmp_path / "current.jsonl", foreign],
            )
        assert not (tmp_path / "out.jsonl").exists()

    def test_merge_refuses_foreign_record_versions(self, tmp_path):
        import pytest

        from repro.errors import LedgerMergeError
        from repro.experiments.ledger import merge_ledgers

        with ResultLedger(tmp_path / "ok.jsonl") as ledger:
            ledger.put("a", 1)
        alien = tmp_path / "alien.jsonl"
        alien.write_bytes(
            b'{"v": 2, "key": "x", "payload": "AA==", "psha": "00"}\n'
        )
        with pytest.raises(LedgerMergeError, match="version"):
            merge_ledgers(tmp_path / "out.jsonl", [tmp_path / "ok.jsonl", alien])

    def test_merge_refuses_missing_input(self, tmp_path):
        import pytest

        from repro.errors import LedgerMergeError
        from repro.experiments.ledger import merge_ledgers

        with pytest.raises(LedgerMergeError, match="does not exist"):
            merge_ledgers(
                tmp_path / "out.jsonl", [tmp_path / "nope.jsonl"]
            )

    def test_headerless_legacy_input_merges_with_current(self, tmp_path):
        import pickle

        from repro.experiments.canonical import LEDGER_SALT
        from repro.experiments.ledger import merge_ledgers

        legacy = tmp_path / "legacy.jsonl"
        legacy.write_bytes(
            ResultLedger.encode_record("old", pickle.dumps("old"))
        )
        with ResultLedger(tmp_path / "new.jsonl") as ledger:
            ledger.put("new", "new")
        out = tmp_path / "out.jsonl"
        merge_ledgers(out, [legacy, tmp_path / "new.jsonl"])
        with ResultLedger(out) as merged:
            assert merged.salt == LEDGER_SALT
            assert merged.get("old") == "old"
            assert merged.get("new") == "new"

    def test_merge_output_may_be_an_input(self, tmp_path):
        from repro.experiments.ledger import merge_ledgers

        with ResultLedger(tmp_path / "acc.jsonl") as ledger:
            _fill(ledger, 2, "acc")
        with ResultLedger(tmp_path / "incoming.jsonl") as ledger:
            _fill(ledger, 2, "inc")
        merge_ledgers(
            tmp_path / "acc.jsonl",
            [tmp_path / "acc.jsonl", tmp_path / "incoming.jsonl"],
        )
        with ResultLedger(tmp_path / "acc.jsonl") as merged:
            assert len(merged) == 4
            assert merged.dropped_records == 0


def _rot_payload(path, key):
    """Change one payload character of ``key``'s record, in place, into
    another base64 character: only the digest can tell."""
    data = path.read_bytes()
    at = data.index(b'"payload": "', data.index(key.encode())) + 20
    with open(path, "r+b") as handle:
        handle.seek(at)
        handle.write(b"B" if data[at:at + 1] == b"A" else b"A")


class TestLongLivedLedger:
    """One ledger object held for a daemon's lifetime: what the
    per-campaign reopen used to give for free, as explicit rules."""

    def test_another_process_compacts_while_this_one_is_idle(
        self, tmp_path, caplog
    ):
        path = tmp_path / "ledger.jsonl"
        ledger = ResultLedger(path)
        for round_ in range(3):  # superseded duplicates: offsets will move
            _fill(ledger, 4, prefix=f"r{round_ % 2}")
        with ResultLedger(path) as other:  # `ledger compact`, elsewhere
            other.compact()
        assert path.stat().st_size < ledger._log._consumed
        with caplog.at_level(logging.WARNING, "repro.experiments.ledger"):
            ledger.refresh()
        assert any("replaced" in r.getMessage() for r in caplog.records)
        # Nothing is served from offsets into the file that is gone...
        for i in range(4):
            assert ledger.get(f"r0{i}") == {"value": i, "tag": "r0"}
            assert ledger.get(f"r1{i}") == {"value": i, "tag": "r1"}
        # ... and appends land in the file that is there.
        ledger.put("after", "compaction")
        ledger.close()
        with ResultLedger(path) as reopened:
            assert reopened.get("after") == "compaction"
            assert len(reopened) == 9 and reopened.dropped_records == 0

    def test_a_file_cut_short_is_read_again_from_the_start(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 3)
            kept = path.read_bytes().splitlines(keepends=True)[:2]
            path.write_bytes(b"".join(kept))  # same inode, shorter
            ledger.refresh()
            assert sorted(ledger.keys()) == ["k0"]
            ledger.put("k3", 3)
        with ResultLedger(path) as reopened:
            assert sorted(reopened.keys()) == ["k0", "k3"]
            assert reopened.dropped_records == 0

    def test_bit_rot_after_indexing_is_a_counted_miss(self, tmp_path, caplog):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            _fill(ledger, 3)
            _rot_payload(path, "k1")
            with caplog.at_level(logging.WARNING, "repro.experiments.ledger"):
                with pytest.raises(KeyError):
                    ledger.get("k1")
            assert any(
                "no longer reads back" in r.getMessage()
                and "digest mismatch" in r.getMessage()
                for r in caplog.records
            )
            assert "k1" not in ledger and ledger.dropped_records == 1
            assert ledger.get("k0") == {"value": 0, "tag": "k"}
            ledger.put("k1", "recomputed")
            assert ledger.get("k1") == "recomputed"
        with ResultLedger(path) as reopened:
            assert reopened.get("k1") == "recomputed"
            assert reopened.dropped_records == 1

    def test_memory_is_keys_not_payloads(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        big = "x" * 200_000
        with ResultLedger(path) as ledger:
            ledger.put("big", big)
        with ResultLedger(path) as reopened:
            held = sum(
                sys.getsizeof(part)
                for entry in reopened._index.items() for part in entry
            )
            assert held < 1000 and reopened.get("big") == big

    def test_lanes_hammering_one_ledger(self, tmp_path):
        """Four threads put/get/refresh on one ledger while a second
        ledger (another process, as far as the file can tell) appends
        to the same path: no put is lost, no get is wrong."""
        path = tmp_path / "ledger.jsonl"
        ledger, foreign = ResultLedger(path), ResultLedger(path)
        deadline = time.monotonic() + 1.5
        written = [dict() for _ in range(5)]
        errors = []

        def lane(n, target):
            mine = written[n]
            try:
                i = 0
                while time.monotonic() < deadline and i < 150:
                    key, value = f"w{n}-{i}", {"writer": n, "i": i, "pad": "p" * i}
                    target.put(key, value)
                    mine[key] = value
                    probe = f"w{n}-{i // 2}"
                    assert target.get(probe) == mine[probe]
                    if target is ledger:
                        target.refresh()
                        other = written[(n + 1) % 4]
                        for seen in list(other)[-2:]:
                            assert ledger.get(seen) == other[seen]
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=lane, args=(n, ledger)) for n in range(4)
        ] + [threading.Thread(target=lane, args=(4, foreign))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        everything = {k: v for mine in written for k, v in mine.items()}
        assert len(everything) >= 5
        ledger.refresh()
        foreign.close()
        with ResultLedger(path) as reopened:
            for view in (ledger, reopened):
                assert sorted(view.keys()) == sorted(everything)
                assert view.dropped_records == 0
                assert all(view.get(k) == v for k, v in everything.items())
        ledger.close()


def _append_records(path, prefix, count):
    """Child-process body of the concurrent-append test."""
    with ResultLedger(path) as ledger:
        for i in range(count):
            ledger.put(f"{prefix}{i}", {"writer": prefix, "i": i})


class TestConcurrentAppend:
    def test_two_processes_share_one_ledger(self, tmp_path):
        """Two writers appending concurrently never tear each other's
        records: every put from both processes is recoverable."""
        path = tmp_path / "ledger.jsonl"
        count = 25
        writers = [
            multiprocessing.Process(
                target=_append_records, args=(path, prefix, count)
            )
            for prefix in ("alpha", "beta")
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=60)
            assert process.exitcode == 0
        with ResultLedger(path) as merged:
            assert merged.dropped_records == 0
            assert len(merged) == 2 * count
            for prefix in ("alpha", "beta"):
                for i in range(count):
                    assert merged.get(f"{prefix}{i}") == {
                        "writer": prefix, "i": i,
                    }
