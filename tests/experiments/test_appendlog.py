"""The file discipline of :mod:`repro.experiments.appendlog`, tested once.

Every case runs over *both* schemas built on the log — the result
ledger and the campaign journal — through their public readers and
writers, so a crash-safety property holds for both or fails for both.
Damaged-file cases use the reader on a clean file as their oracle
("reads like the same file minus the damaged lines"); the clean-file
behaviour itself is pinned by ``test_ledger.py`` / ``test_journal.py``.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import hashlib
import json
import logging
import os
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import appendlog
from repro.experiments.canonical import sha256_hex
from repro.experiments.ledger import ResultLedger
from repro.service.app import CampaignService, ServiceConfig
from repro.service.journal import CampaignJournal

ONE = b"\x80\x04K\x01."  # pickle.dumps(1, protocol=4)
TWO = b"\x80\x04K\x02."
OLD = b"\x80\x04\x95\x07\x00\x00\x00\x00\x00\x00\x00\x8c\x03old\x94."
NEW = b"\x80\x04\x95\x07\x00\x00\x00\x00\x00\x00\x00\x8c\x03new\x94."


def _key(name: str) -> str:
    """A production-shaped key: 64 hex chars, one bit away from no other."""
    return sha256_hex(name.encode())


class LedgerSchema:
    name = "ledger"
    #: A complete file, one element per line: legacy record, header,
    #: a superseded duplicate, live records.  The header names the
    #: salt the pinned bytes were recorded under: a rewrite keeps the
    #: file's own salt, so the format pins outlive salt bumps.
    lines = [
        ResultLedger.encode_record(_key("legacy"), ONE),
        ResultLedger.encode_header("repro-unit-v1"),
        ResultLedger.encode_record(_key("a"), OLD, 100.0),
        ResultLedger.encode_record(_key("b"), TWO, 200.0),
        ResultLedger.encode_record(_key("a"), NEW, 300.0),
        ResultLedger.encode_record(_key("c"), ONE, 400.0),
    ]
    #: Lines a reader must drop: a torn one, and one valid in shape
    #: but not in meaning (here: another format version).
    junk = [
        b'{"v": 1, "key": "torn\n',
        b'{"v": 2, "key": "x", "payload": "AA==", "psha": "00"}\n',
    ]

    @staticmethod
    def read(path):
        """``(state, dropped)`` as the public reader reports them."""
        with ResultLedger(path) as ledger:
            state = {key: ledger.get(key) for key in ledger.keys()}
            return state, ledger.dropped_records

    @staticmethod
    def append(path):
        """One more record through the public writer; its identity."""
        with ResultLedger(path) as ledger:
            ledger.put(_key("appended"), 2)
        return _key("appended")

    @staticmethod
    def compact(path):
        with ResultLedger(path) as ledger:
            ledger.compact(now=1000.0)


class JournalSchema:
    name = "journal"
    lines = [
        CampaignJournal.encode_record(body)
        for body in (
            {"event": "submitted", "id": "c1", "ts": 1.0,
             "spec": {"kind": "fig2", "instances": 2}},
            {"event": "state", "id": "c1", "state": "running", "ts": 2.0},
            {"event": "submitted", "id": "c2", "ts": 3.0,
             "spec": {"kind": "flap", "note": "café"}},
            {"event": "checkpoint", "ts": 4.0, "reason": "shutdown"},
            {"event": "state", "id": "c2", "state": "cancelled", "ts": 5.0},
            {"event": "state", "id": "c1", "state": "done", "ts": 6.0,
             "result": {"mean": 1.5}, "executed": 4, "ledger_hits": 0,
             "failures": []},
        )
    ]
    junk = [
        b'{"v":1,"body":{"event":"torn\n',
        CampaignJournal.encode_record(
            {"event": "state", "id": "ghost", "state": "done", "ts": 7.0}
        ),
    ]

    @staticmethod
    def read(path):
        return CampaignJournal(path).replay()

    @staticmethod
    def append(path):
        with CampaignJournal(path) as journal:
            journal.append(
                {"event": "submitted", "id": "appended", "ts": 9.0,
                 "spec": {"kind": "fig2"}}
            )
        return "appended"

    @staticmethod
    def compact(path):
        with CampaignJournal(path) as journal:
            journal.compact(now=10.0)


SCHEMAS = pytest.mark.parametrize(
    "schema", [LedgerSchema, JournalSchema], ids=lambda s: s.name
)


def _clean_state(schema, lines, directory):
    """What the reader makes of a file holding exactly ``lines``."""
    path = Path(directory) / "clean.jsonl"
    path.write_bytes(b"".join(lines))
    return schema.read(path)[0]


# ----------------------------------------------------------------------
# (a) truncation at every byte of the final record
# ----------------------------------------------------------------------


@SCHEMAS
def test_truncation_anywhere_in_the_last_record(schema, tmp_path):
    *head, last = schema.lines
    without_last = _clean_state(schema, head, tmp_path)
    complete = _clean_state(schema, schema.lines, tmp_path)
    assert without_last != complete  # the last record carries a fact
    path = tmp_path / "log.jsonl"
    for cut in range(len(last)):
        path.write_bytes(b"".join(head) + last[:cut])
        # Only the newline missing: the record itself is whole.
        whole = cut == len(last) - 1
        torn = 0 < cut < len(last) - 1
        expected = complete if whole else without_last
        assert schema.read(path) == (expected, int(torn)), cut
        # A reopened log seals the fragment: the next append survives,
        # and costs nothing that was readable before it.
        appended = schema.append(path)
        state, dropped = schema.read(path)
        assert appended in state, cut
        del state[appended]
        assert (state, dropped) == (expected, int(torn)), cut


# ----------------------------------------------------------------------
# (b) single-bit flips anywhere in the file
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _acceptable_states(schema):
    """Every state reachable by losing at most two *adjacent* lines.

    One flipped bit damages one line — or two, when it hits the
    newline between them and glues them together.  The undamaged
    state comes first.
    """
    lines = schema.lines
    with tempfile.TemporaryDirectory() as directory:
        states = [_clean_state(schema, lines, directory)]
        for width in (1, 2):
            for start in range(len(lines) - width + 1):
                kept = lines[:start] + lines[start + width:]
                states.append(_clean_state(schema, kept, directory))
    return states


@SCHEMAS
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_bit_flip_never_raises_or_invents(schema, data):
    blob = bytearray(b"".join(schema.lines))
    bit = data.draw(st.integers(0, 8 * len(blob) - 1))
    blob[bit // 8] ^= 1 << (bit % 8)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "log.jsonl"
        path.write_bytes(bytes(blob))
        state, dropped = schema.read(path)  # never raises
    acceptable = _acceptable_states(schema)
    complete = acceptable[0]
    invented = set(state) - set(complete)
    if invented:
        # Only the ledger, only when the flip hit a record's ``key``
        # field, which its payload digest does not cover: the record
        # is renamed (to a key no unit hashes to), its value intact.
        assert schema is LedgerSchema and len(invented) == 1
        offset, victim = 0, None
        for line in schema.lines:
            if offset <= bit // 8 < offset + len(line):
                victim = line
            offset += len(line)
        payload = base64.b64decode(json.loads(victim)["payload"])
        assert state.pop(invented.pop()) == pickle.loads(payload)
    else:
        # Losing records is never silent.
        assert state == complete or dropped >= 1
    assert state in acceptable


# ----------------------------------------------------------------------
# (c) a failed rewrite leaves the old file
# ----------------------------------------------------------------------


@SCHEMAS
@pytest.mark.parametrize("failing", ["replace", "fsync"])
def test_failed_rewrite_leaves_the_old_file(
    schema, failing, tmp_path, monkeypatch
):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"".join(schema.lines))
    before = path.read_bytes()
    state_before = schema.read(path)

    def boom(*args, **kwargs):
        # What a reader racing the rewrite sees at the moment it fails.
        assert path.read_bytes() == before
        raise OSError("injected")

    with monkeypatch.context() as patch:
        patch.setattr(appendlog.os, failing, boom)
        with pytest.raises(OSError, match="injected"):
            schema.compact(path)
    assert path.read_bytes() == before
    assert schema.read(path) == state_before
    # ... and the log is still appendable afterwards.
    assert schema.append(path) in schema.read(path)[0]


def test_atomic_write_finishes_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(
        appendlog.os, "write", lambda fd, data: real_write(fd, data[:3])
    )
    appendlog.atomic_write(tmp_path / "out", [b"0123456789", b"", b"abcd"])
    assert (tmp_path / "out").read_bytes() == b"0123456789abcd"


# ----------------------------------------------------------------------
# (d) syscall budget; short appends
# ----------------------------------------------------------------------


@pytest.fixture
def syscalls(monkeypatch):
    """Count ``os.write``/``os.fsync`` calls made by the log module."""
    calls = {"write": 0, "fsync": 0}
    for name in calls:
        real = getattr(os, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(appendlog.os, name, counted)
    return calls


def test_put_is_one_write_and_one_fsync(tmp_path, syscalls):
    with ResultLedger(tmp_path / "ledger.jsonl") as ledger:
        ledger.put("first", 1)  # header + record: still one write
        assert syscalls == {"write": 1, "fsync": 1}
        ledger.put("second", 2)
        assert syscalls == {"write": 2, "fsync": 2}
    with ResultLedger(tmp_path / "ledger.jsonl") as reopened:
        assert reopened.salt is not None and len(reopened) == 2


def test_journal_append_is_one_write_and_one_fsync(tmp_path, syscalls):
    body = {"event": "checkpoint", "ts": 1.0, "reason": "test"}
    with CampaignJournal(tmp_path / "journal.jsonl") as journal:
        journal.append(body)
        journal.append(body)
    assert syscalls == {"write": 2, "fsync": 2}


@contextlib.contextmanager
def short_writes(monkeypatch):
    """A full disk: every ``os.write`` of the log module lands half."""
    real_write = os.write
    with monkeypatch.context() as patch:
        patch.setattr(
            appendlog.os, "write",
            lambda fd, data: real_write(fd, data[: len(data) // 2]),
        )
        yield


def test_short_write_put_raises_and_indexes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    with ResultLedger(path) as ledger:
        ledger.put("before", 1)
        with short_writes(monkeypatch):
            with pytest.raises(OSError, match="short write"):
                ledger.put("lost", 2)
        assert "lost" not in ledger and len(ledger) == 1
        ledger.put("after", 3)  # same instance: reopens and seals
    with ResultLedger(path) as reopened:
        assert sorted(reopened.keys()) == ["after", "before"]
        assert reopened.dropped_records == 1


def test_short_write_submit_acknowledges_nothing(tmp_path, monkeypatch):
    config = ServiceConfig(
        journal_path=tmp_path / "journal.jsonl",
        ledger_path=tmp_path / "ledger.jsonl",
    )
    spec = {
        "kind": "fig2", "instances": 1, "protocols": ["bgp"],
        "topology": {"seed": 5, "tier1": 3, "tier2": 8, "tier3": 16,
                     "stubs": 35},
    }
    service = CampaignService(config)  # lanes never started: queue frozen
    try:
        with short_writes(monkeypatch):
            with pytest.raises(OSError, match="short write"):
                service.submit(spec)
        assert service.list_campaigns() == []
        assert service.readiness_document()["queue_depth"] == 0
        accepted, status = service.submit(spec)
        assert accepted and status["state"] == "queued"
    finally:
        service.drain(timeout=1)
    campaigns, dropped = CampaignJournal(config.journal_path).replay()
    assert list(campaigns) == [status["id"]] and dropped == 1


# ----------------------------------------------------------------------
# (e) one long-lived reader: read once, then only catch up
# ----------------------------------------------------------------------

#: A file with everything a reader can meet: a legacy record, a header
#: under another salt, duplicates, a torn line sealed mid-file, another
#: format version — with and without a torn record at the very end.
MIXED = b"".join(
    LedgerSchema.lines[:3] + LedgerSchema.junk + LedgerSchema.lines[3:]
)
MIXED_FILES = pytest.mark.parametrize(
    "blob", [MIXED, MIXED + b'{"v": 1, "key": "to'], ids=["sealed", "torn"]
)


def _view(ledger):
    """Everything a ledger knows about its file."""
    return (
        dict(ledger._index), ledger.dropped_records, ledger.salt,
        ledger.foreign_versions,
    )


def _skips(caplog):
    """``(line number, message)`` of every refused line, and the rest."""
    skips, other = [], []
    for record in caplog.records:
        message = record.getMessage()
        if " record at line " in message:
            number = int(message.split(" at line ")[1].split()[0])
            skips.append((number, message))
        else:
            other.append(message)
    caplog.clear()
    return skips, other


@MIXED_FILES
def test_prefix_then_catch_up_reads_like_one_full_read(
    blob, tmp_path, caplog
):
    """Split at *every* byte: a ledger that read the prefix and then
    caught up with the rest knows exactly what one full read knows —
    same index, same ``dropped_records`` — and has warned about each
    line it had not consumed exactly as the full read warns about it
    (a line the split cut was the prefix's torn tail: that warning is
    the prefix's own, and the line is classified again once whole)."""
    path = tmp_path / "ledger.jsonl"
    caplog.set_level(logging.WARNING, "repro.experiments.ledger")
    path.write_bytes(blob)
    with ResultLedger(path) as full:
        expected = _view(full)
        values = {key: full.get(key) for key in full.keys()}
    full_skips, full_other = _skips(caplog)
    assert full_skips and len(full_other) == 1  # junk; "salt differs"
    with ResultLedger(path) as idle:  # nothing appended: nothing said
        idle.refresh()
        assert _view(idle) == expected
    assert _skips(caplog) == (full_skips, full_other)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with ResultLedger(path) as ledger:
            prefix_skips, _ = _skips(caplog)
            with open(path, "ab") as handle:
                handle.write(blob[cut:])
            ledger.refresh()
            assert _view(ledger) == expected, cut
            assert {k: ledger.get(k) for k in ledger.keys()} == values, cut
        consumed = blob[:cut].count(b"\n")
        skips, other = _skips(caplog)
        assert skips == [s for s in full_skips if s[0] > consumed], cut
        provisional = [s for s in prefix_skips if s[0] > consumed]
        assert prefix_skips + skips == (
            full_skips[:len(prefix_skips) - len(provisional)]
            + provisional + skips
        ), cut
        assert all("torn trailing" in m for _, m in provisional), cut
        assert len(provisional) <= 1, cut
        # "salt differs" is said once, by whichever pass met the header.
        assert (other == full_other) != (cut >= blob.index(b"\n", 200)), cut


def test_catch_up_reads_only_what_other_writers_appended(
    tmp_path, monkeypatch
):
    path = tmp_path / "ledger.jsonl"
    reads = []
    real_pread = os.pread

    def counted(fd, length, offset):
        reads.append((offset, length))
        return real_pread(fd, length, offset)

    with ResultLedger(path) as ledger, ResultLedger(path) as other:
        ledger.put("mine", 1)
        before = path.stat().st_size
        other.put("theirs-0", "a" * 5000)
        other.put("theirs-1", "b")
        monkeypatch.setattr(appendlog.os, "pread", counted)
        assert "theirs-0" not in ledger
        ledger.refresh()
        assert reads == [(before, path.stat().st_size - before)]
        assert ledger.get("theirs-0") == "a" * 5000
        assert ledger.get("theirs-1") == "b" and ledger.get("mine") == 1
        # Its own appends are never read back (each probed the one
        # byte before it), and with nothing new there is no read.
        del reads[:]
        ledger.put("mine-too", 2)
        ledger.put("mine-again", 3)
        assert [length for _, length in reads] == [1, 1]
        ledger.refresh()
        assert len(reads) == 2
        assert ledger.dropped_records == 0 and len(ledger) == 5


def test_put_after_a_foreign_writer_died_mid_record(tmp_path):
    """The long-lived ledger re-probes the tail before it appends: its
    record survives, the dead writer's fragment is one lone bad line."""
    path = tmp_path / "ledger.jsonl"
    with ResultLedger(path) as ledger:
        ledger.put("before", 1)
        with open(path, "ab") as handle:  # the writer that dies
            handle.write(ResultLedger.encode_record("lost", ONE)[:40])
        ledger.put("after", 2)
        ledger.put("later", 3)
        with ResultLedger(path) as reopened:
            assert sorted(reopened.keys()) == ["after", "before", "later"]
            assert reopened.dropped_records == 1
            assert reopened.get("after") == 2
        # The ledger that wrote around the fragment reads it the same.
        ledger.refresh()
        assert ledger.dropped_records == 1
        assert _view(ledger) == _view(reopened)
    lines = path.read_bytes().split(b"\n")
    assert lines[2] == ResultLedger.encode_record("lost", ONE)[:40]


@SCHEMAS
def test_a_log_it_may_only_read_still_reads(schema, tmp_path, monkeypatch):
    """``ledger stats`` / a merge input on a read-only file (simulated:
    the tests may run as root, whom permissions do not stop)."""
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"".join(schema.lines))
    expected = schema.read(path)
    real_open = os.open

    def read_only(target, flags, *mode):
        if flags & os.O_RDWR:
            raise PermissionError(13, "Permission denied", str(target))
        return real_open(target, flags, *mode)

    monkeypatch.setattr(appendlog.os, "open", read_only)
    assert schema.read(path) == expected
    with pytest.raises(OSError):
        schema.append(path)
    assert schema.read(path) == expected


# ----------------------------------------------------------------------
# Format pins (literals computed at the commit before AppendLog existed)
# ----------------------------------------------------------------------

PSHA_P = "148de9c5a7a44d19e56cd9ae1a554bf67847afb0c58f6e12fa29ac7ddfca9940"


def test_record_encodings_are_pinned():
    assert ResultLedger.encode_header("repro-unit-v1") == (
        b'{"kind": "header", "salt": "repro-unit-v1", "v": 1}\n'
    )
    assert ResultLedger.encode_header() == (
        b'{"kind": "header", "salt": "repro-unit-v2", "v": 1}\n'
    )
    assert ResultLedger.encode_record("k", b"p", 1.5) == (
        b'{"key": "k", "payload": "cA==", "psha": "%s", "ts": 1.5, "v": 1}\n'
        % PSHA_P.encode()
    )
    assert ResultLedger.encode_record("k", b"p") == (
        b'{"key": "k", "payload": "cA==", "psha": "%s", "v": 1}\n'
        % PSHA_P.encode()
    )
    assert CampaignJournal.encode_record(
        {"event": "state", "id": "c", "state": "done", "ts": 2.0}
    ) == (
        b'{"body":{"event":"state","id":"c","state":"done","ts":2.0},"sha":'
        b'"92e10bf84bc872e32d650e557d1ae57da6d79714390fec623fc1e9018de21cdd",'
        b'"v":1}\n'
    )


@SCHEMAS
def test_compact_output_is_pinned(schema, tmp_path):
    """Existing files load, and rewrite to the bytes they always did."""
    pinned = {
        "ledger": "e81ea49b4c4e817f38a5b2ce37a6baeb3e0c92b88bbf8c5c568628037c4d5f06",
        "journal": "8045ceab5dd6b0cb144ab3dc4e6a4a20cdbada11dbd74659cdb65f9523153282",
    }
    path = tmp_path / "log.jsonl"
    path.write_bytes(
        b"".join(schema.lines[:3] + schema.junk + schema.lines[3:])
    )
    assert schema.read(path)[1] == len(schema.junk)
    schema.compact(path)
    assert schema.read(path)[1] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[schema.name]
