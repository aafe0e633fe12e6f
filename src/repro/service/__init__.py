"""Campaign-as-a-service: the long-lived experiment daemon.

`repro-stamp serve` wraps the supervised pool + result ledger behind a
small HTTP API (submit/status/result/cancel) with crash recovery via
an append-only journal, idempotent content-hash submission, bounded
admission, and graceful drain on SIGTERM.  See ``docs/service.md``.
"""
