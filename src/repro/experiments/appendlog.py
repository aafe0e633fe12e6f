"""The one durable append-only log file (newline-terminated JSON lines).

:class:`~repro.experiments.ledger.ResultLedger` and
:class:`~repro.service.journal.CampaignJournal` are schemas — field
validation, encoding, fold — over this module, the only place in
``src/`` that opens a log for append, fsyncs, or replaces a file
(``tests/test_docs.py`` enforces it), so a flaw in the crash
discipline is fixed once.  The discipline — append, seal, tolerant
read, atomic rewrite — is described in ``docs/robustness.md`` ("The
file: durability and recovery"); each rule's reason sits on the
function that implements it.
"""

from __future__ import annotations

import errno
import json
import logging
import os
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Tuple, Union


def atomic_write(path: Union[str, Path], chunks: Iterable[bytes]) -> None:
    """Replace ``path`` with the concatenation of ``chunks``, atomically.

    Temporary sibling, ``fsync``, ``os.replace``, directory ``fsync``:
    a crash or error at any instant leaves the old or the new complete
    file, never a partial one.  Must not run while *another process*
    holds ``path`` open for append — that writer's later appends land
    in the replaced inode and are lost.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:  # a short write returns normally: finish the chunk
                view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    # The rename itself is durable only once the directory entry is.
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class AppendLog:
    """File discipline of one JSONL log; the schema lives in the caller."""

    def __init__(self, path: Union[str, Path], logger: logging.Logger) -> None:
        self.path = Path(path)
        self._logger = logger
        self._fd: Optional[int] = None
        #: Lines the last :meth:`records` pass saw / skipped (the
        #: caller's :meth:`skip` calls included).
        self.lines = 0
        self.dropped = 0

    # -- appends -------------------------------------------------------

    def open(self) -> bool:
        """Open for append, sealing a torn tail; idempotent.

        A crash (or short write) mid-append leaves a final line without
        its newline; appending straight after it would glue the new
        record onto the fragment and lose *both*.  One ``\\n`` turns the
        fragment into a lone corrupt line and keeps later appends
        intact.  Returns True iff this call opened an *empty* file, so
        a schema with a header line knows to lead with it.
        """
        if self._fd is not None:
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # O_RDWR only for the one-byte tail probe; O_APPEND sends every
        # write to the end of the file whatever the read offset is.
        self._fd = fd = os.open(
            self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        size = os.lseek(fd, 0, os.SEEK_END)
        if size:
            os.lseek(fd, -1, os.SEEK_END)
            if os.read(fd, 1) != b"\n":
                self.append(b"\n")
        return size == 0

    def append(self, line: bytes) -> None:
        """Durably append ``line``; returns only after ``fsync``.

        One ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
        writers never interleave within a record.  Raises ``OSError``
        when the write fails or comes up short (a full disk returns a
        short count, not an error): the caller must not index or
        acknowledge the record.  The descriptor is dropped, so the next
        append reopens the file and seals whatever fragment landed.
        """
        self.open()
        try:
            written = os.write(self._fd, line)
            if written != len(line):
                raise OSError(
                    errno.ENOSPC,
                    f"short write ({written} of {len(line)} bytes)",
                    str(self.path),
                )
            os.fsync(self._fd)
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- reads ---------------------------------------------------------

    def records(self) -> Iterator[Tuple[int, str, Any]]:
        """Yield ``(lineno, where, obj)`` for every parseable line.

        Never raises on file content: a bad line is a miss (recompute,
        requeue), a crash would lose the campaign.  ``where`` labels
        the line for :meth:`skip`: a well-formed log ends with a
        newline, so a non-empty final split element is a ``"torn
        trailing"`` record; any other bad line is ``"corrupt"`` (bit
        rot, or a torn record that later appends followed).
        """
        self.lines = self.dropped = 0
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        lines = data.split(b"\n")
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            self.lines += 1
            where = "torn trailing" if lineno == len(lines) else "corrupt"
            try:
                obj = json.loads(line)
            except ValueError:
                self.skip(lineno, where, "unparseable JSON")
                continue
            yield lineno, where, obj

    def skip(self, lineno: int, where: str, why: str) -> None:
        """Warn about, and count, one line the reader refuses."""
        self._logger.warning(
            "%s: skipping %s record at line %d (%s)",
            self.path, where, lineno, why,
        )
        self.dropped += 1

    def size(self) -> int:
        """Current on-disk size in bytes (0 when the file is missing)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def rewrite(self, chunks: Iterable[bytes]) -> None:
        """Atomically replace the whole log; the next append reopens it."""
        self.close()
        atomic_write(self.path, chunks)
