"""Crash-safe campaign journal: the service's source of truth on disk.

The daemon journals every externally visible lifecycle fact *before*
acknowledging it — ``submitted`` before the 202 goes out, every state
transition as it happens, the canonical result document with the final
``done``/``partial`` — so after any crash, ``kill -9`` included, a
restarted service replays the journal and knows every campaign ever
accepted, its last state, and its result if it finished
(``docs/service.md``, "Crash recovery").

The file discipline — fsynced single-write appends, torn-tail seal,
tolerant replay, atomic rewrite — is :mod:`repro.experiments.appendlog`'s,
shared with the result ledger and described once in
``docs/robustness.md``; this module is the journal's schema.  Each line
is ``{"v": 1, "body": {...}, "sha": sha256(canonical_json(body))}`` —
the digest covers the whole body, so bit rot anywhere in a record
drops that record instead of replaying a wrong fact.

Record bodies (``body["event"]``):

* ``submitted`` — ``{"event", "id", "spec", "ts"}``; ``spec`` is the
  canonical defaults-filled document the id hashes.
* ``state`` — ``{"event", "id", "state", "ts"}`` plus, on terminal
  records, ``"executed"``, ``"ledger_hits"``, ``"failures"`` and (for
  ``done``/``partial``) ``"result"``: the result document.
* ``checkpoint`` — ``{"event", "ts", "reason"}``; written by graceful
  shutdown after the drain, so an operator can see clean stops in the
  journal.  Replay ignores it for state.
* ``snapshot`` — ``{"event", "ts", "campaigns": [entry...]}``; one
  folded entry per campaign (the same shape :meth:`replay` returns,
  plus ``"id"``).  Written by :meth:`compact` as the sole record of a
  rotated journal; every append after it is the *tail*, and replay of
  snapshot+tail reconstructs exactly what replaying the unrotated file
  would have.

Replay folds records in file order: last state wins, exactly one
``submitted`` per id counts (duplicates are impossible through the
service API, which journals only the first), unknown-id state records
are skipped with a warning, a ``snapshot`` replaces everything known
about the campaigns it lists.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.experiments.appendlog import AppendLog
from repro.experiments.canonical import canonical_bytes, canonical_json, sha256_hex
from repro.service.state import TERMINAL_STATES

logger = logging.getLogger("repro.service.journal")

_JOURNAL_VERSION = 1


class CampaignJournal:
    """Append-only, fsynced journal of campaign lifecycle records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log = AppendLog(self.path, logger)
        #: Size of the snapshot the last :meth:`compact` wrote — the
        #: floor below which :meth:`maybe_compact` refuses to thrash.
        self._last_compact_bytes = 0

    # -- appends -------------------------------------------------------

    @staticmethod
    def encode_record(body: Dict[str, Any]) -> bytes:
        """One complete journal line for ``body`` (digest included)."""
        sha = sha256_hex(canonical_bytes(body))
        line = canonical_json(
            {"v": _JOURNAL_VERSION, "body": body, "sha": sha}
        )
        return (line + "\n").encode("ascii")

    def append(self, body: Dict[str, Any]) -> None:
        """Durably append one record; returns only after ``fsync``.

        Raises ``OSError`` on a failed or short write: the caller must
        not acknowledge what the record says.
        """
        self._log.append(self.encode_record(body))

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- replay --------------------------------------------------------

    def replay(self) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """Reconstruct every campaign's last journaled state.

        Returns ``(campaigns, dropped)``: an insertion-ordered dict
        ``id -> {"spec", "state", "ts", "result", "executed",
        "ledger_hits", "failures", "error"}`` (fields beyond ``spec``/
        ``state`` present when the winning records carried them), and
        the count of torn/corrupt lines skipped.
        """
        campaigns, dropped, _, _ = self._fold()
        return campaigns, dropped

    def _fold(self) -> Tuple[Dict[str, Dict[str, Any]], int, int, int]:
        """One pass: ``(campaigns, dropped, records, snapshots)``."""
        campaigns: Dict[str, Dict[str, Any]] = {}
        snapshots = 0
        for line, record in self._log.records():
            try:
                body = self._decode(record)
                self._apply(campaigns, body)
            except ValueError as exc:
                self._log.skip(line, str(exc))
                continue
            if body["event"] == "snapshot":
                snapshots += 1
        return campaigns, self._log.dropped, self._log.lines, snapshots

    @staticmethod
    def _decode(record: Any) -> Dict[str, Any]:
        """Check one parsed line's frame and digest; return its body."""
        if (
            not isinstance(record, dict)
            or record.get("v") != _JOURNAL_VERSION
            or not isinstance(record.get("body"), dict)
            or not isinstance(record.get("sha"), str)
        ):
            raise ValueError("missing/invalid fields")
        body = record["body"]
        try:
            digest = sha256_hex(canonical_bytes(body))
        except Exception:
            digest = None
        if digest != record["sha"]:
            raise ValueError("body digest mismatch")
        return body

    def _apply(self, campaigns: Dict[str, Any], body: Dict[str, Any]) -> None:
        """Fold one record body in; ``ValueError(reason)`` to skip it."""
        event = body.get("event")
        cid = body.get("id")
        if event == "submitted":
            spec = body.get("spec")
            if not isinstance(cid, str) or not isinstance(spec, dict):
                raise ValueError("malformed submitted record")
            entry = campaigns.setdefault(cid, {"spec": spec, "state": "queued"})
            entry["spec"] = spec
            entry.setdefault("ts", body.get("ts"))
        elif event == "state":
            state = body.get("state")
            if not isinstance(cid, str) or not isinstance(state, str):
                raise ValueError("malformed state record")
            entry = campaigns.get(cid)
            if entry is None:
                raise ValueError(f"state for unknown campaign {cid[:12]}")
            entry["state"] = state
            entry["ts"] = body.get("ts", entry.get("ts"))
            for field in (
                "result", "executed", "ledger_hits", "failures", "error"
            ):
                if field in body:
                    entry[field] = body[field]
        elif event == "snapshot":
            listed = body.get("campaigns")
            if not isinstance(listed, list):
                raise ValueError("malformed snapshot record")
            for item in listed:
                if not (
                    isinstance(item, dict)
                    and isinstance(item.get("id"), str)
                    and isinstance(item.get("spec"), dict)
                ):
                    logger.warning("%s: malformed snapshot entry", self.path)
                    continue
                entry = {k: v for k, v in item.items() if k != "id"}
                entry.setdefault("state", "queued")
                # The snapshot supersedes everything known so far
                # about this campaign (it *is* the fold of every
                # earlier record), and fixes the listing order.
                campaigns.pop(item["id"], None)
                campaigns[item["id"]] = entry
        elif event != "checkpoint":
            raise ValueError(f"unknown event {event!r}")

    # -- rotation ------------------------------------------------------

    def size(self) -> int:
        """Current on-disk size in bytes (0 when the file is missing)."""
        return self._log.size()

    def compact(
        self,
        *,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Atomically rewrite the journal as one snapshot record.

        The replacement holds a single ``snapshot`` record folding the
        current file (snapshot + tail included, recursively), written
        by :func:`~repro.experiments.appendlog.atomic_write`: a crash
        at any instant leaves the old or the new complete file.  Safe
        under the service lock (the daemon's one appender holds it);
        from the CLI only while no daemon has the journal open.

        With ``max_age_seconds`` set, **terminal** campaigns whose last
        transition is older than the bound are evicted; queued/running
        campaigns survive any age — evicting one would silently forget
        accepted work.  Returns a summary dict (``campaigns``,
        ``evicted``, ``dropped``, ``bytes_before``, ``bytes_after``).
        """
        now = time.time() if now is None else now
        bytes_before = self.size()
        entries, dropped = self.replay()
        evicted = 0
        survivors: Dict[str, Dict[str, Any]] = {}
        for cid, entry in entries.items():
            if (
                max_age_seconds is not None
                and entry.get("state") in TERMINAL_STATES
                and (entry.get("ts") or 0.0) < now - max_age_seconds
            ):
                evicted += 1
                continue
            survivors[cid] = entry
        line = self.encode_record(
            {
                "event": "snapshot",
                "ts": now,
                "campaigns": [
                    dict(entry, id=cid) for cid, entry in survivors.items()
                ],
            }
        )
        self._log.rewrite([line])
        self._last_compact_bytes = len(line)
        return {
            "campaigns": len(survivors),
            "evicted": evicted,
            "dropped": dropped,
            "bytes_before": bytes_before,
            "bytes_after": len(line),
        }

    def maybe_compact(self, max_bytes: int) -> bool:
        """Rotate if the journal has outgrown ``max_bytes``.

        Thrash guard: when the snapshot itself exceeds the bound (many
        live campaigns, a small bound), compacting after every append
        would be O(n²) — so rotation also waits until the file has
        doubled past the last snapshot.  Returns True when it rotated.
        """
        size = self.size()
        if size <= max_bytes:
            return False
        if size < 2 * self._last_compact_bytes:
            return False
        summary = self.compact()
        logger.info(
            "%s: rotated at %d bytes -> %d-byte snapshot of %d campaign(s)",
            self.path, summary["bytes_before"], summary["bytes_after"],
            summary["campaigns"],
        )
        return True

    def stats(self) -> Dict[str, Any]:
        """Operational summary: records, folded campaigns, liveness."""
        entries, dropped, records, snapshots = self._fold()
        active = sum(
            1 for entry in entries.values()
            if entry.get("state") not in TERMINAL_STATES
        )
        return {
            "path": str(self.path),
            "file_bytes": self.size(),
            "records": records,
            "snapshots": snapshots,
            "campaigns": len(entries),
            "active_campaigns": active,
            "dropped_records": dropped,
        }
