"""Unit tests of the topology byte encoding and its shared-memory
segment (single process).

The cross-process lifecycle — worker attach under the supervised pool,
unlink-after-campaign, ``kill -9`` leak checks — lives with the chaos
suite in ``tests/experiments/test_supervisor.py``; this file pins the
one codec (``_CSRBase.to_bytes`` / ``_CSRBase.from_buffer``, which the
segment, the pipe fallback and the pickle state all carry) and the
creator/attacher handle semantics.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.topology.generators import (
    InternetTopologyConfig,
    example_paper_topology,
    generate_internet_topology,
)
from repro.topology.graph import ASGraph, _CSRBase
from repro.topology.shm import (
    attach_graph,
    share_graph,
    shared_memory_available,
)

from graph_content import graph_content

needs_segment = pytest.mark.skipif(
    not shared_memory_available(),
    reason="platform cannot create shared-memory segments",
)

SMALL = InternetTopologyConfig(
    seed=13, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=30
)


@pytest.fixture()
def graph():
    return generate_internet_topology(SMALL)[0]


def _decoded(payload) -> ASGraph:
    return ASGraph._from_csr_base(_CSRBase.from_buffer(payload))


class TestCodec:
    """The encoding itself, over a plain ``bytes`` object — what a
    worker decodes when no segment could be created."""

    def test_links_and_ases_survive(self):
        graph = example_paper_topology()
        restored = _decoded(graph.csr_base().to_bytes())
        assert graph_content(restored) == graph_content(graph)
        # Unlike the content, the enumeration orders are the encoding's
        # to keep: seeded runs depend on them.
        assert list(restored) == list(graph)
        assert restored.links() == graph.links()
        assert list(restored.iter_c2p()) == list(graph.iter_c2p())

    def test_isolated_as_survives(self):
        """The text format drops link-less ASes; the bytes keep them."""
        graph = ASGraph()
        graph.add_c2p(customer=2, provider=1)
        graph.add_as(99)
        restored = _decoded(graph.csr_base().to_bytes())
        assert 99 in restored
        assert restored.ases == (1, 2, 99)
        assert restored.neighbors(99) == ()

    def test_empty_graph_survives(self):
        restored = _decoded(ASGraph().csr_base().to_bytes())
        assert len(restored) == 0 and restored.links() == []

    def test_payload_is_deterministic(self, graph):
        payload = graph.csr_base().to_bytes()
        assert payload == graph.csr_base().to_bytes()
        # Decoding and re-encoding is the identity on the bytes.
        assert _CSRBase.from_buffer(payload).to_bytes() == payload

    def test_decoded_arrays_are_read_only_views(self, graph):
        """No copy and no way to write through: the arrays are
        read-only ``memoryview``s of the buffer that was handed in."""
        payload = bytearray(graph.csr_base().to_bytes())
        base = _CSRBase.from_buffer(payload)
        assert isinstance(base.nbr_tgt, memoryview)
        assert base.nbr_tgt.readonly and base.nbr_rel.readonly
        assert base.nbr_tgt.obj is payload
        with pytest.raises(TypeError):
            base.nbr_tgt[0] = 0
        built = graph.csr_base()
        assert isinstance(built.nbr_tgt, memoryview) and built.nbr_tgt.readonly

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="magic"):
            _CSRBase.from_buffer(b"not a topology")
        with pytest.raises(ValueError, match="magic"):
            _CSRBase.from_buffer(b"")
        with pytest.raises(ValueError, match="truncated"):
            _CSRBase.from_buffer(b"RPROCSR1" + b"\0" * 8)

    def test_rejects_payload_truncated_mid_array(self, graph):
        """A memoryview slice past the end is silently short, so the
        decoder must compare the header against ``len(buf)`` itself."""
        payload = graph.csr_base().to_bytes()
        for cut in (len(payload) - 1, len(payload) // 2, 48 + 8):
            with pytest.raises(ValueError, match="truncated"):
                _CSRBase.from_buffer(payload[:cut])

    @pytest.mark.parametrize("field", range(5))
    def test_rejects_negative_count(self, graph, field):
        """Checked on its own: n_as = -1 shrinks the computed size, so
        the length comparison alone would let it through."""
        payload = bytearray(graph.csr_base().to_bytes())
        payload[8 + 8 * field:16 + 8 * field] = array("q", [-1]).tobytes()
        with pytest.raises(ValueError, match="corrupt"):
            _CSRBase.from_buffer(payload)


@needs_segment
def test_attach_is_byte_identical(graph):
    with share_graph(graph) as shared:
        with attach_graph(shared.name) as attached:
            assert graph_content(attached.graph) == graph_content(graph)
            assert attached.graph.ases == graph.ases
            assert attached.graph.tier1s() == graph.tier1s()
            for asn in graph.ases:
                assert attached.graph.neighbors(asn) == graph.neighbors(asn)


@needs_segment
def test_attached_views_are_python_ints(graph):
    """Array slices hand back plain ints — anything else would leak
    into traces and pickled results."""
    with share_graph(graph) as shared:
        with attach_graph(shared.name) as attached:
            asn = attached.graph.ases[5]
            for nbr in attached.graph.neighbors(asn):
                assert type(nbr) is int
            a, b, _ = attached.graph.links()[0]
            assert type(a) is int and type(b) is int


@needs_segment
def test_share_reflects_pending_overlay_edits(graph):
    """share_graph compacts first: overlay mutations made before the
    call are visible to attachers; mutations *after* are not."""
    a, b = graph.c2p_links()[0]
    graph.remove_link(a, b)  # lives in the delta overlay
    with share_graph(graph) as shared:
        graph.add_c2p(a, b)  # after publish: must not leak in
        with attach_graph(shared.name) as attached:
            assert not attached.graph.has_link(a, b)


@needs_segment
def test_destroy_unlinks_segment(graph):
    shared = share_graph(graph)
    name = shared.name
    shared.destroy()
    with pytest.raises(FileNotFoundError):
        attach_graph(name)
    shared.destroy()  # idempotent


@needs_segment
def test_close_with_live_views_is_safe(graph):
    """Closing while array views are still referenced defers the unmap
    instead of raising — the worker-exit path."""
    shared = share_graph(graph)
    attached = attach_graph(shared.name)
    live = attached.graph
    live.neighbors(live.ases[0])
    attached.close()  # `live` still references the arrays
    attached.close()  # idempotent
    shared.destroy()


@needs_segment
def test_wrong_magic_is_rejected(graph):
    from multiprocessing import shared_memory as mp_shm

    seg = mp_shm.SharedMemory(create=True, size=64)
    try:
        seg.buf[:8] = b"NOTAGRPH"
        with pytest.raises(ValueError, match="magic"):
            attach_graph(seg.name)
    finally:
        seg.close()
        seg.unlink()


@needs_segment
def test_truncated_segment_is_rejected_and_closeable(graph):
    """A segment shorter than its header promises is refused before any
    view is built, so the failed attach leaves nothing mapped."""
    from multiprocessing import shared_memory as mp_shm

    payload = graph.csr_base().to_bytes()
    seg = mp_shm.SharedMemory(create=True, size=len(payload) // 2)
    try:
        seg.buf[: len(payload) // 2] = payload[: len(payload) // 2]
        with pytest.raises(ValueError, match="truncated"):
            attach_graph(seg.name)
    finally:
        seg.close()
        seg.unlink()


@needs_segment
def test_attached_graph_pickles_standalone(graph):
    """Pickling an attached graph materializes the arrays: the pickle
    outlives the segment (ledgered results must not dangle)."""
    with share_graph(graph) as shared:
        with attach_graph(shared.name) as attached:
            payload = pickle.dumps(attached.graph)
    restored = pickle.loads(payload)  # segment is gone by now
    assert graph_content(restored) == graph_content(graph)
    assert restored.links() == graph.links()
