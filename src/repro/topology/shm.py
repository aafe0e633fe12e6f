"""Zero-copy topology fan-out over ``multiprocessing.shared_memory``.

The whole adjacency of a frozen graph is one flat byte string
(:meth:`repro.topology.graph._CSRBase.to_bytes` — the layout lives
there, with its only encoder and decoder), so a campaign publishes it
**once** into a named shared-memory segment and each worker maps the
same physical pages read-only: attach is O(1) in the size of the arrays
(``memoryview`` slices straight into the segment; only the ASN interning
table is rebuilt per process).  This module owns nothing but the
segment's lifecycle.

Lifecycle contract:

* the **campaign** (supervisor) is the only creator and the only
  unlinker: :func:`share_graph` before the first dispatch,
  ``SharedGraph.destroy()`` in the pool's ``finally`` — so the segment
  is removed even when every worker was ``kill -9``-ed mid-unit;
* **workers** only ever attach (:func:`attach_graph`) and close.
  Python < 3.13 registers an attacher with the ``resource_tracker`` as
  if it owned the segment, and the attach deliberately leaves that
  registration in place: within one fork family it deduplicates
  against the creator's own (the tracker's cache is a set), it reaps
  the segment if the whole family dies without unlinking, and
  unregistering would instead remove the *creator's* registration and
  make its unlink race the tracker;
* the graph a worker gets is frozen from the start and served from
  read-only array views: an ``add_*`` on it raises, and nothing can
  write to the shared pages.

There is no switch that turns the segment off: the supervisor falls
back to sending the same bytes over each worker's pipe only when
:func:`share_graph` raises (some sandboxes mount no ``/dev/shm``;
:func:`shared_memory_available` probes for that).
"""

from __future__ import annotations

from multiprocessing import shared_memory

from repro.topology.graph import ASGraph, _CSRBase


def shared_memory_available() -> bool:
    """Whether this platform can create shared-memory segments."""
    try:
        probe = shared_memory.SharedMemory(create=True, size=16)
    except Exception:
        return False
    try:
        probe.close()
        probe.unlink()
    except Exception:
        pass
    return True


# ----------------------------------------------------------------------
# Creator side
# ----------------------------------------------------------------------


class SharedGraph:
    """Creator-side handle of a published topology segment.

    Owns the segment: :meth:`destroy` (or exiting the context manager)
    closes the local mapping **and unlinks the name**, which is what
    guarantees zero orphaned segments even after worker crashes — the
    supervisor holds this handle, and workers never own anything.
    """

    def __init__(self, shm, size: int) -> None:
        self._shm = shm
        self.size = size
        #: The attach-by-name key workers receive instead of the bytes.
        #: Kept readable after :meth:`destroy` so callers can assert
        #: the segment is really gone.
        self.name: str = shm.name

    def destroy(self) -> None:
        """Close the mapping and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # already gone; nothing leaked
                pass

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()


def share_graph(graph: ASGraph) -> SharedGraph:
    """Publish a graph's CSR arrays into a fresh shared-memory segment.

    Publishing reads the graph, so it freezes it: the segment and the
    graph hold the same topology for as long as both exist.
    """
    payload = graph.csr_base().to_bytes()
    shm = shared_memory.SharedMemory(create=True, size=len(payload))
    try:
        shm.buf[: len(payload)] = payload
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return SharedGraph(shm, len(payload))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class AttachedGraph:
    """Worker-side handle: the graph plus the mapping that backs it."""

    def __init__(self, graph: ASGraph, shm) -> None:
        self.graph = graph
        self._shm = shm

    def close(self) -> None:
        """Drop the local mapping (never unlinks — the creator does).

        Safe to call with array views still referenced somewhere: the
        unmap is then deferred to process exit instead of raising.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self.graph = None  # type: ignore[assignment]
        try:
            shm.close()
        except BufferError:
            # Array views into the segment are still referenced (e.g.
            # the worker's graph is still in scope).  Defer the unmap
            # to process exit, and disarm SharedMemory.__del__ so it
            # does not retry and spray "Exception ignored" noise.
            shm._buf = None
            shm._mmap = None

    def __enter__(self) -> "AttachedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_graph(name: str) -> AttachedGraph:
    """Attach to a published topology segment by name (zero-copy).

    The returned graph's CSR arrays are read-only views directly into
    the shared pages.  Raises ``FileNotFoundError`` when no segment of
    that name exists — e.g. after the owning campaign destroyed it —
    and ``ValueError`` when the segment does not hold a well-formed
    topology.
    """
    shm = shared_memory.SharedMemory(name=name)
    # No resource_tracker.unregister here, on purpose: see the lifecycle
    # contract in the module docstring.
    try:
        base = _CSRBase.from_buffer(shm.buf)
    except BaseException:
        try:
            shm.close()
        except BufferError:
            # The raised exception's traceback frames can pin a view of
            # the buffer; defer the unmap to process exit (see
            # AttachedGraph.close) rather than masking the real error.
            shm._buf = None
            shm._mmap = None
        raise
    return AttachedGraph(ASGraph._from_csr_base(base), shm)
