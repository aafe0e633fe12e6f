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
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import LedgerMergeError
from repro.experiments.appendlog import AppendLog, atomic_write
from repro.experiments.canonical import LEDGER_SALT, sha256_hex

logger = logging.getLogger("repro.experiments.ledger")

#: Record format version; bump on incompatible record-shape changes.
_RECORD_VERSION = 1


class ResultLedger:
    """Append-only JSONL store of pickled unit results, keyed by hash.

    Loading reads and validates every record once; lookups
    (:meth:`__contains__`, :meth:`get`) are O(1) dictionary hits
    afterwards.  :meth:`put` appends crash-safely and updates the
    in-memory index, so a live campaign never re-reads the file.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log = AppendLog(self.path, logger)
        #: key -> raw pickle bytes of the most recent record (last wins).
        self._records: Dict[str, bytes] = {}
        #: key -> append timestamp of the winning record (0.0 when the
        #: record predates the ``ts`` field — sorts as oldest).
        self._ts: Dict[str, float] = {}
        #: Salt declared by the file's header record, or ``None`` for a
        #: headerless (pre-header-format) ledger.
        self.salt: Optional[str] = None
        #: Records dropped by the last load (torn/corrupt).
        self.dropped_records = 0
        #: Record versions other than this build's seen by the last
        #: load.  A plain load skips them (a miss only costs a
        #: recompute); :func:`merge_ledgers` refuses them.
        self.foreign_versions: List[Any] = []
        self.load()

    # -- loading -------------------------------------------------------

    def load(self) -> None:
        """(Re)build the index from disk, skipping torn/corrupt records."""
        self._records.clear()
        self._ts.clear()
        self.salt = None
        self.foreign_versions = []
        for lineno, where, obj in self._log.records():
            try:
                record = self._decode(obj)
            except ValueError as exc:
                self._log.skip(lineno, where, str(exc))
                continue
            if record is not None:
                key, payload, ts = record
                self._records[key] = payload
                self._ts[key] = ts
        self.dropped_records = self._log.dropped

    def _decode(self, obj: Any) -> Optional[Tuple[str, bytes, float]]:
        """Validate one parsed line; return ``(key, payload, ts)``.

        Header records set :attr:`salt` as a side effect and return
        ``None``; a line to skip raises ``ValueError(reason)``.
        """
        if not isinstance(obj, dict):
            raise ValueError("missing/invalid fields")
        if obj.get("v") != _RECORD_VERSION:
            if "v" in obj:
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
        if not all(
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
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def get(self, key: str) -> Any:
        """Unpickle and return the result stored under ``key``."""
        return pickle.loads(self._records[key])

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
        line = self.encode_record(key, payload, ts)
        # A brand-new ledger leads with a header naming the salt its
        # keys were derived under (the merge tool's safety check), in
        # the first record's write.  Two writers racing on creation may
        # both append one — duplicates are harmless on load.
        fresh = self._log.open()
        self._log.append(self.encode_header() + line if fresh else line)
        if fresh:
            self.salt = LEDGER_SALT
        self._records[key] = payload
        self._ts[key] = ts

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "ResultLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- maintenance ---------------------------------------------------

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
        survivors: List[Tuple[str, bytes, float]] = [
            (key, payload, self._ts.get(key, 0.0))
            for key, payload in self._records.items()
        ]
        if max_age_seconds is not None:
            cutoff = now - max_age_seconds
            survivors = [rec for rec in survivors if rec[2] >= cutoff]
        encoded = [
            (key, self.encode_record(key, payload, ts or None), ts)
            for key, payload, ts in survivors
        ]
        if max_bytes is not None:
            total = len(self.encode_header()) + sum(
                len(line) for _, line, _ in encoded
            )
            # Oldest first: ties broken by append order (dict order).
            by_age = sorted(
                range(len(encoded)), key=lambda i: (encoded[i][2], i)
            )
            evict = set()
            for i in by_age:
                if total <= max_bytes:
                    break
                total -= len(encoded[i][1])
                evict.add(i)
            encoded = [rec for i, rec in enumerate(encoded) if i not in evict]
        evicted = len(self._records) - len(encoded)
        salt = self.salt or LEDGER_SALT
        self._log.rewrite(
            [self.encode_header(salt)] + [line for _, line, _ in encoded]
        )
        self._records = {key: self._records[key] for key, _, _ in encoded}
        self._ts = {key: ts for key, _, ts in encoded}
        self.salt = salt
        self.dropped_records = 0
        return evicted

    def stats(self) -> Dict[str, Any]:
        """Operational summary: live records, bytes, salt, age span."""
        live_bytes = sum(
            len(self.encode_record(key, payload, self._ts.get(key) or None))
            for key, payload in self._records.items()
        )
        stamps = [ts for ts in self._ts.values() if ts > 0.0]
        return {
            "path": str(self.path),
            "records": len(self._records),
            "file_bytes": self._log.size(),
            "live_bytes": live_bytes,
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
        ledger = ResultLedger(in_path)
        if ledger.foreign_versions:
            # Silently dropping another version's records from the
            # combined ledger would look like data loss.
            raise LedgerMergeError(
                f"{in_path}: contains record version "
                f"{ledger.foreign_versions[0]!r} (this tool writes version "
                f"{_RECORD_VERSION}); refusing to merge across format versions"
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
        skipped += ledger.dropped_records
        for key, payload in ledger._records.items():
            if key in merged:
                duplicates += 1
            merged[key] = (payload, ledger._ts.get(key, 0.0))
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
