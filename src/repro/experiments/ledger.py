"""Crash-safe, content-addressed result ledger (append-only JSONL).

The ledger maps a unit key (:func:`repro.experiments.canonical
.unit_key`) to that unit's pickled result.  It is the persistence
layer behind resumable campaigns: a sweep writes every completed unit
as it finishes, so an interruption — crash, OOM kill, ctrl-C — loses
at most the units that were in flight, and a restart with the same
ledger recomputes only what is missing.

Format: one JSON object per line, ``\\n``-terminated::

    {"v": 1, "kind": "header", "salt": "repro-unit-v2"}
    {"v": 1, "key": "<64 hex>", "payload": "<base64 pickle>",
     "psha": "<sha256 hex of the pickle bytes>", "ts": 1727000000.123}

The first line of a ledger created by this module is a *header*
declaring the :data:`~repro.experiments.canonical.LEDGER_SALT` its
keys were derived under — the cross-machine merge tool refuses to
combine ledgers whose headers disagree.  ``ts`` (seconds since the
epoch, recorded at append time) feeds the age/size-bounded GC
policies of :meth:`ResultLedger.compact`.  Ledgers written before
these fields existed (no header, no ``ts``) still load: a missing
header means "salt unknown" and a missing ``ts`` sorts as oldest.

The file discipline — fsynced single-write appends, torn-tail seal,
tolerant load (a bad line is a counted miss, never a crash), atomic
rewrite — is :mod:`repro.experiments.appendlog`'s, described once in
``docs/robustness.md``; this module is the schema on top of it.

**Duplicate keys: last write wins.**  Units are pure, so duplicates
normally carry equal payloads; after a salt-less code change the most
recent run is the one to trust, and compaction keeps it.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
import pickle
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import LedgerMergeError
from repro.experiments.appendlog import AppendLog, Line, atomic_write
from repro.experiments.canonical import LEDGER_SALT, sha256_hex

logger = logging.getLogger("repro.experiments.ledger")

#: Record format version; bump on incompatible record-shape changes.
_RECORD_VERSION = 1


class ResultLedger:
    """Append-only JSONL store of pickled unit results, keyed by hash.

    Loading reads and validates every record once and keeps, per key,
    only *where* the winning record sits — memory is O(keys), not
    O(payload bytes), so a daemon can hold one ledger for life.
    :meth:`get` reads that one record back (and checks it again);
    :meth:`put` appends crash-safely and indexes what it wrote;
    :meth:`refresh` catches up with other writers by reading only the
    bytes they appended.  One lock makes all of it safe to share
    between threads.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log = AppendLog(self.path, logger)
        self._lock = threading.RLock()
        #: key -> (offset, length, ts) of the most recent record (last
        #: wins): where its line sits, and its append timestamp (0.0
        #: when the record predates the ``ts`` field — sorts as oldest).
        self._index: Dict[str, Tuple[int, int, float]] = {}
        #: Salt declared by the file's header record, or ``None`` for a
        #: headerless (pre-header-format) ledger.
        self.salt: Optional[str] = None
        #: The record versions other than this build's met while reading.
        #: A plain read skips them (a miss only costs a recompute);
        #: :func:`merge_ledgers` refuses them.
        self.foreign_versions: List[Any] = []
        self.load()

    # -- loading -------------------------------------------------------

    def load(self) -> None:
        """(Re)build the index from byte 0, skipping torn/corrupt records."""
        with self._lock:
            self._index.clear()
            self.salt = None
            self.foreign_versions = []
            self._read(self._log.records())

    def refresh(self) -> None:
        """Catch up with other writers (a CLI run, a second daemon).

        Reads only the bytes appended since the last read — none, and
        no read at all, when this ledger was the only writer.  If the
        path now names another file than the one indexed (``ledger
        compact`` / ``merge`` by another process) or a shorter one, the
        index is rebuilt from byte 0: nothing is served from offsets
        into a file that is gone.
        """
        with self._lock:
            if self._log.stale():
                logger.warning(
                    "%s: replaced or truncated by another process; "
                    "reading it again from the start", self.path,
                )
                self.load()
            else:
                self._read(self._log.records(resume=True))

    def _read(self, records: Iterator[Tuple[Line, Any]]) -> None:
        for line, obj in records:
            try:
                record = self._decode(obj)
            except ValueError as exc:
                self._log.skip(line, str(exc))
                continue
            if record is not None:
                key, _, ts = record
                self._index[key] = (line.offset, line.length, ts)

    @property
    def dropped_records(self) -> int:
        """Torn/corrupt records refused since the last :meth:`load`."""
        return self._log.dropped

    def _decode(self, obj: Any) -> Optional[Tuple[str, bytes, float]]:
        """Validate one parsed line; return ``(key, payload, ts)``.

        Header records set :attr:`salt` as a side effect and return
        ``None``; a line to skip raises ``ValueError(reason)``.
        """
        if not isinstance(obj, dict):
            raise ValueError("missing/invalid fields")
        if obj.get("v") != _RECORD_VERSION:
            if "v" in obj and obj["v"] not in self.foreign_versions:
                self.foreign_versions.append(obj["v"])
            raise ValueError("missing/invalid fields")
        if obj.get("kind") == "header":
            if not isinstance(obj.get("salt"), str):
                raise ValueError("missing/invalid header fields")
            if self.salt is None:
                self.salt = obj["salt"]
                if self.salt != LEDGER_SALT:
                    logger.warning(
                        "%s: ledger salt %r differs from the current "
                        "%r; its keys will miss and recompute",
                        self.path, self.salt, LEDGER_SALT,
                    )
            return None
        return self._decode_record(obj)

    @staticmethod
    def _decode_record(obj: Any) -> Tuple[str, bytes, float]:
        """``(key, payload, ts)`` of a result record whose payload
        matches its digest; ``ValueError(reason)`` otherwise."""
        if not isinstance(obj, dict) or not all(
            isinstance(obj.get(field), str)
            for field in ("key", "payload", "psha")
        ):
            raise ValueError("missing/invalid fields")
        try:
            payload = base64.b64decode(obj["payload"], validate=True)
        except (binascii.Error, ValueError):
            raise ValueError("invalid base64 payload") from None
        if sha256_hex(payload) != obj["psha"]:
            raise ValueError("payload digest mismatch")
        ts = obj.get("ts")
        try:
            ts = float(ts) if isinstance(ts, (int, float)) else 0.0
        except OverflowError:  # an integer no float can hold
            raise ValueError("invalid ts") from None
        return obj["key"], payload, ts

    # -- lookups -------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._index))

    def _payload(self, key: str) -> bytes:
        """Read the record indexed under ``key`` back; its pickle bytes.

        The line was checked when it was indexed and is checked again
        here — the file may have rotted, or been rewritten under a
        running campaign, since.  A record that no longer holds up is
        a miss like any other bad line: logged, counted, unindexed,
        and reported as ``KeyError``.
        """
        with self._lock:
            entry = self._index[key]
            raw = self._log.read_at(entry[0], entry[1])
        try:
            stored_key, payload, _ = self._decode_record(json.loads(raw))
            if stored_key != key:
                raise ValueError("another key's record")
        except ValueError as exc:
            logger.warning(
                "%s: the record at byte %d no longer reads back (%s); "
                "treating it as a miss", self.path, entry[0], exc,
            )
            with self._lock:
                self._log.dropped += 1
                if self._index.get(key) == entry:
                    del self._index[key]
            raise KeyError(key) from None
        return payload

    def get(self, key: str) -> Any:
        """Unpickle and return the result stored under ``key``.

        ``KeyError`` when there is none — never stored, or stored and
        no longer readable (see :meth:`_payload`).
        """
        return pickle.loads(self._payload(key))

    # -- appends -------------------------------------------------------

    @staticmethod
    def encode_header(salt: str = LEDGER_SALT) -> bytes:
        """The ledger's first line: the salt its keys were derived under."""
        obj = {"v": _RECORD_VERSION, "kind": "header", "salt": salt}
        return (json.dumps(obj, sort_keys=True) + "\n").encode("ascii")

    @staticmethod
    def encode_record(
        key: str, payload: bytes, ts: Optional[float] = None
    ) -> bytes:
        """One complete JSONL record (newline-terminated) for ``key``."""
        obj = {
            "v": _RECORD_VERSION,
            "key": key,
            "payload": base64.b64encode(payload).decode("ascii"),
            "psha": sha256_hex(payload),
        }
        if ts is not None:
            obj["ts"] = ts
        return (json.dumps(obj, sort_keys=True) + "\n").encode("ascii")

    def put(self, key: str, value: Any) -> None:
        """Append one result crash-safely and index it (last wins).

        Once :meth:`put` returns the result survives a crash; if the
        append raises (``OSError``: failed or short write) the key is
        *not* indexed — nothing is served that is not on disk.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ts = time.time()
        record = self.encode_record(key, payload, ts)
        with self._lock:
            # A brand-new ledger leads with a header naming the salt its
            # keys were derived under (the merge tool's safety check), in
            # the first record's write.  Two writers racing on creation
            # may both append one — duplicates are harmless on load.
            fresh = not self._index and self._log.size() == 0
            data = self.encode_header() + record if fresh else record
            offset = self._log.append(data) + len(data) - len(record)
            if fresh:
                self.salt = LEDGER_SALT
            self._index[key] = (offset, len(record) - 1, ts)

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "ResultLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- maintenance ---------------------------------------------------

    def _live_records(self) -> List[Tuple[str, bytes, float]]:
        """``(key, pickle bytes, ts)`` of every record that reads back."""
        records = []
        with self._lock:
            for key, (_, _, ts) in list(self._index.items()):
                try:
                    records.append((key, self._payload(key), ts))
                except KeyError:
                    continue
        return records

    def compact(
        self,
        *,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Atomically rewrite the ledger; optionally GC old/excess records.

        Always drops superseded duplicates and any torn/corrupt lines.
        With ``max_age_seconds`` set, records appended longer ago than
        that are evicted (records predating the ``ts`` field count as
        infinitely old).  With ``max_bytes`` set, records are evicted
        oldest-first until the rewritten file fits the bound (the
        newest records always survive; a bound smaller than one record
        plus the header empties the ledger).  Both bounds compose.

        The rewrite is atomic (:func:`~repro.experiments.appendlog
        .atomic_write`): a crash at any instant leaves either the old
        or the new complete file.  Returns the number of evicted records.
        """
        now = time.time() if now is None else now
        with self._lock:
            survivors = self._live_records()
            live = len(survivors)
            if max_age_seconds is not None:
                cutoff = now - max_age_seconds
                survivors = [rec for rec in survivors if rec[2] >= cutoff]
            encoded = [
                (self.encode_record(key, payload, ts or None), ts)
                for key, payload, ts in survivors
            ]
            if max_bytes is not None:
                total = len(self.encode_header()) + sum(
                    len(line) for line, _ in encoded
                )
                # Oldest first: ties broken by append order (dict order).
                by_age = sorted(
                    range(len(encoded)), key=lambda i: (encoded[i][1], i)
                )
                evict = set()
                for i in by_age:
                    if total <= max_bytes:
                        break
                    total -= len(encoded[i][0])
                    evict.add(i)
                encoded = [
                    rec for i, rec in enumerate(encoded) if i not in evict
                ]
            self._log.rewrite(
                [self.encode_header(self.salt or LEDGER_SALT)]
                + [line for line, _ in encoded]
            )
            self.load()
        return live - len(encoded)

    def stats(self) -> Dict[str, Any]:
        """Operational summary: live records, bytes, salt, age span."""
        with self._lock:
            entries = list(self._index.values())
        stamps = [ts for _, _, ts in entries if ts > 0.0]
        return {
            "path": str(self.path),
            "records": len(entries),
            "file_bytes": self._log.size(),
            "live_bytes": sum(length + 1 for _, length, _ in entries),
            "dropped_records": self.dropped_records,
            "salt": self.salt,
            "oldest_ts": min(stamps) if stamps else None,
            "newest_ts": max(stamps) if stamps else None,
        }


# ----------------------------------------------------------------------
# Cross-machine merge
# ----------------------------------------------------------------------


def merge_ledgers(
    out_path: Union[str, Path], in_paths: Sequence[Union[str, Path]]
) -> Dict[str, int]:
    """Merge ledgers into one, last-write-wins on duplicate keys.

    Inputs are processed in argument order and, within a file, in line
    order — so a key appearing in several places resolves to the most
    recent record of the *last* input naming it, matching the ledger's
    own duplicate policy.  Torn/corrupt lines are skipped with a
    warning, exactly as :meth:`ResultLedger.load` would.

    Safety: the merge **refuses** (:class:`~repro.errors
    .LedgerMergeError`) inputs whose headers declare different
    ``LEDGER_SALT`` values, and any record of a different format
    version — both would produce a ledger whose keys silently mean
    different things.  Headerless (legacy) inputs are compatible with
    anything; the output always carries a header.

    The output is written atomically, so it may safely be one of the
    inputs — but no other process may be appending to it meanwhile.
    Each input is read exactly once.  Returns counts: ``records`` (live
    keys written), ``duplicates`` (records superseded during the
    merge), ``skipped`` (torn/corrupt lines ignored).
    """
    merged: Dict[str, Tuple[bytes, float]] = {}
    salts: Dict[str, str] = {}
    duplicates = 0
    skipped = 0
    for in_path in in_paths:
        if not Path(in_path).exists():
            raise LedgerMergeError(f"input ledger does not exist: {in_path}")
        with ResultLedger(in_path) as ledger:
            if ledger.foreign_versions:
                # Silently dropping another version's records from the
                # combined ledger would look like data loss.
                raise LedgerMergeError(
                    f"{in_path}: contains record version "
                    f"{ledger.foreign_versions[0]!r} (this tool writes "
                    f"version {_RECORD_VERSION}); refusing to merge across "
                    "format versions"
                )
            if ledger.salt is not None:
                salts[str(in_path)] = ledger.salt
                if len(set(salts.values())) > 1:
                    detail = ", ".join(
                        f"{p}: {s!r}" for p, s in sorted(salts.items())
                    )
                    raise LedgerMergeError(
                        f"input ledgers declare different salts ({detail}); "
                        "their keys are not comparable"
                    )
            for key, payload, ts in ledger._live_records():
                if key in merged:
                    duplicates += 1
                merged[key] = (payload, ts)
            skipped += ledger.dropped_records
    salt = next(iter(salts.values()), LEDGER_SALT)
    atomic_write(
        out_path,
        [ResultLedger.encode_header(salt)] + [
            ResultLedger.encode_record(key, payload, ts or None)
            for key, (payload, ts) in merged.items()
        ],
    )
    return {
        "records": len(merged), "duplicates": duplicates, "skipped": skipped
    }
