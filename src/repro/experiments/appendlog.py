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
from typing import (
    Any,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)


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


class Line(NamedTuple):
    """Where one line of the log sits: for warnings and for read-back."""

    #: 1-based line number, as ``sed -n Np`` counts.
    number: int
    #: How :meth:`AppendLog.skip` labels the line if it is refused:
    #: ``"torn trailing"`` for an unterminated final line, ``"corrupt"``
    #: for any other.
    where: str
    offset: int
    #: Length in bytes, newline excluded.
    length: int


class AppendLog:
    """File discipline of one JSONL log; the schema lives in the caller.

    One descriptor, opened at first need, serves appends and reads for
    as long as the log is open, and a reader position remembers how far
    the file has been consumed — so a long-lived owner reads the file
    once and afterwards only *catches up* with what other writers
    appended (``records(resume=True)``).  Not thread-safe: a schema
    shared between threads holds a lock around every call.
    """

    def __init__(self, path: Union[str, Path], logger: logging.Logger) -> None:
        self.path = Path(path)
        self._logger = logger
        self._fd: Optional[int] = None
        #: ``(st_dev, st_ino)`` of the file the descriptor names, and
        #: the reader position and every offset a caller kept describe.
        self._identity: Optional[Tuple[int, int]] = None
        self._rewind()

    def _rewind(self) -> None:
        """Forget the reader position: the next read starts at byte 0."""
        #: Non-empty lines seen / skipped (the caller's :meth:`skip`
        #: calls included) since the last pass from byte 0.  An
        #: unterminated final line counts while it is the tail, and is
        #: counted afresh once the file has grown past it.
        self.lines = 0
        self.dropped = 0
        #: Bytes / newlines consumed as complete lines.
        self._consumed = 0
        self._lineno = 0
        #: File size when the last pass ended; bytes between
        #: ``_consumed`` and here are an unterminated tail that pass
        #: classified provisionally (``_tail_dropped``: and refused).
        self._seen = 0
        self._tail_dropped = 0

    def _descriptor(self, create: bool) -> Optional[int]:
        """The log's one descriptor, or ``None`` when there is no file."""
        if self._fd is None:
            # O_APPEND sends every write to the end of the file; reads
            # are positioned (``pread``), so neither disturbs the other.
            flags = os.O_RDWR | os.O_APPEND
            if create:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                flags |= os.O_CREAT
            try:
                self._fd = os.open(self.path, flags, 0o644)
            except FileNotFoundError:
                if create:
                    raise
                return None
            except PermissionError:
                if create:
                    raise
                # A log we may only read: ``ledger stats``, a merge input.
                self._fd = os.open(self.path, os.O_RDONLY)
            if self._identity is None:
                status = os.fstat(self._fd)
                self._identity = (status.st_dev, status.st_ino)
        return self._fd

    @staticmethod
    def _pread(fd: int, offset: int, length: int) -> bytes:
        chunks = []
        while length > 0:  # one read may stop short of a large request
            chunk = os.pread(fd, length, offset)
            if not chunk:
                break
            chunks.append(chunk)
            offset += len(chunk)
            length -= len(chunk)
        return b"".join(chunks)

    # -- appends -------------------------------------------------------

    def append(self, data: bytes) -> int:
        """Durably append ``data`` (whole lines); returns its offset.

        Returns only after ``fsync``.  One ``os.write`` on an
        ``O_APPEND`` descriptor, so concurrent writers never interleave
        within a record.  Raises ``OSError`` when the write fails or
        comes up short (a full disk returns a short count, not an
        error): the caller must not index or acknowledge the record.
        The descriptor is dropped, so the next append reopens the file
        and seals whatever fragment landed.

        **Seal.**  A crash (or short write) mid-append leaves a final
        line without its newline; appending straight after it would
        glue the new record onto the fragment and lose *both*.  The
        descriptor outlives any one writer's visit, so every append
        probes the file's last byte, and a torn tail — this log's own
        or one another writer left since the last append — is
        terminated by a ``\n`` leading this same write: the fragment
        becomes a lone corrupt line.  (A tail that only looks torn
        because its writer is mid-``write`` is safe too: appends to one
        file are serialized, so the newline lands after that record, as
        an empty line.)
        """
        fd = self._descriptor(create=True)
        try:
            size = os.fstat(fd).st_size
            torn = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
            block = b"\n" + data if torn else data
            written = os.write(fd, block)
            if written != len(block):
                raise OSError(
                    errno.ENOSPC,
                    f"short write ({written} of {len(block)} bytes)",
                    str(self.path),
                )
            os.fsync(fd)
            # An O_APPEND write leaves the descriptor's offset at the
            # end of its own bytes, wherever other writers pushed them.
            end = os.lseek(fd, 0, os.SEEK_CUR)
        except OSError:
            self.close()
            raise
        offset = end - len(data)
        if offset == self._consumed:
            # Nothing but these lines since the last read: the reader
            # need not come back for what the caller already knows.
            self._consumed = self._seen = end
            newlines = data.count(b"\n")
            self._lineno += newlines
            self.lines += newlines
        return offset

    def close(self) -> None:
        """Release the descriptor; the reader position is kept."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _detach(self) -> None:
        """Let go of a file that is no longer the one at the path."""
        self.close()
        self._identity = None

    # -- reads ---------------------------------------------------------

    def stale(self) -> bool:
        """Has the file been replaced or cut short under the reader?

        True when the path names another inode than the one the reader
        position (and every offset a caller kept) describes — a
        ``compact`` or ``merge`` by another process — or a file shorter
        than what was consumed.  The caller must then drop what it
        derived from the old file and read again from byte 0.
        """
        if self._identity is None:
            return False
        try:
            status = os.stat(self.path)
        except FileNotFoundError:
            return True
        return (
            (status.st_dev, status.st_ino) != self._identity
            or status.st_size < self._consumed
        )

    def records(self, resume: bool = False) -> Iterator[Tuple[Line, Any]]:
        """Yield ``(line, obj)`` for every parseable line not yet read.

        From byte 0 of whatever file the path names now — or, with
        ``resume``, from where the previous pass stopped: only the
        bytes appended since are read (none: no read at all).  Never
        raises on file content: a bad line is a miss (recompute,
        requeue), a crash would lose the campaign.  ``line.where``
        labels the line for :meth:`skip`: a well-formed log ends with a
        newline, so an unterminated final line is a ``"torn trailing"``
        record; any other bad line is ``"corrupt"`` (bit rot, or a torn
        record that later appends followed).

        Only complete lines are *consumed*.  An unterminated tail is
        yielded (a record missing only its newline is whole) or skipped
        like any line, but provisionally: once the file has grown — its
        writer finished it, or a seal terminated it — the next pass
        reads it again from its first byte and classifies it for good.
        """
        if not resume:
            if self.stale():
                self._detach()
            self._rewind()
        fd = self._descriptor(create=False)
        if fd is None:
            return
        size = os.fstat(fd).st_size
        if size <= self._seen:
            return
        if self._seen > self._consumed:  # the tail is read again: un-count it
            self.lines -= 1
            self.dropped -= self._tail_dropped
            self._tail_dropped = 0
        data = self._pread(fd, self._consumed, size - self._consumed)
        self._seen = self._consumed + len(data)
        pieces = data.split(b"\n")
        for index, piece in enumerate(pieces):
            where = "corrupt" if index < len(pieces) - 1 else "torn trailing"
            line = Line(self._lineno + 1, where, self._consumed, len(piece))
            if where == "corrupt":  # newline-terminated: consumed for good
                self._lineno += 1
                self._consumed += len(piece) + 1
            if not piece:
                continue
            self.lines += 1
            try:
                obj = json.loads(piece)
            except ValueError:
                self.skip(line, "unparseable JSON")
                continue
            yield line, obj

    def read_at(self, offset: int, length: int) -> bytes:
        """The ``length`` bytes at ``offset`` (fewer: the file ends first)."""
        fd = self._descriptor(create=False)
        return b"" if fd is None else self._pread(fd, offset, length)

    def skip(self, line: Line, why: str) -> None:
        """Warn about, and count, one line the reader refuses."""
        self._logger.warning(
            "%s: skipping %s record at line %d (%s)",
            self.path, line.where, line.number, why,
        )
        self.dropped += 1
        if line.offset >= self._consumed:  # the provisional tail
            self._tail_dropped = 1

    def size(self) -> int:
        """Current on-disk size in bytes (0 when the file is missing)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def rewrite(self, chunks: Iterable[bytes]) -> None:
        """Atomically replace the whole log; the next read or append
        reopens it, from byte 0."""
        self._detach()
        atomic_write(self.path, chunks)
        self._rewind()
