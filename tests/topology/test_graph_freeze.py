"""The freeze contract of :class:`ASGraph`.

A graph is built with ``add_*``, then frozen by the first read of
anything but ``has_link`` / ``in`` / ``len`` / iteration / ``repr``.  A
frozen graph refuses every ``add_*`` with :class:`TopologyError` and is
left unchanged.  The caches downstream of a graph (Φ views, the content
hash, the twin-start slot) are keyed by graph identity alone, which is
sound only because each of them sees a frozen graph before it stores.
"""

from __future__ import annotations

import weakref

import pytest

from repro.errors import TopologyError, UnknownASError
from repro.topology.graph import ASGraph


def _diamond():
    """1 multi-homed under 2 and 3; both under tier-1 4; 2 and 3 peer."""
    graph = ASGraph()
    graph.add_c2p(1, 2)
    graph.add_c2p(1, 3)
    graph.add_c2p(2, 4)
    graph.add_c2p(3, 4)
    graph.add_p2p(2, 3)
    return graph


def _is_frozen(graph) -> bool:
    return graph._rows is None


def _contents(graph):
    return (list(graph), graph.links(), [graph.neighbors(a) for a in graph])


FREEZING_READERS = {
    "providers": lambda g: g.providers(1),
    "customers": lambda g: g.customers(4),
    "peers": lambda g: g.peers(2),
    "neighbors": lambda g: g.neighbors(1),
    "degree": lambda g: g.degree(1),
    "is_multihomed": lambda g: g.is_multihomed(1),
    "is_tier1": lambda g: g.is_tier1(4),
    "relationship": lambda g: g.relationship(1, 2),
    "neighbor_relationships": lambda g: g.neighbor_relationships(1),
    "ases": lambda g: g.ases,
    "tier1s": lambda g: g.tier1s(),
    "links": lambda g: g.links(),
    "c2p_links": lambda g: g.c2p_links(),
    "p2p_links": lambda g: g.p2p_links(),
    "iter_c2p": lambda g: g.iter_c2p(),
    "topological_order": lambda g: g.topological_order(),
    "check_acyclic_hierarchy": lambda g: g.check_acyclic_hierarchy(),
    "uphill_reachable_tier1s": lambda g: g.uphill_reachable_tier1s(1),
    "first_multihomed_ancestor": lambda g: g.first_multihomed_ancestor(1),
    "csr_base": lambda g: g.csr_base(),
}


@pytest.mark.parametrize("reader", sorted(FREEZING_READERS))
def test_a_read_freezes_the_graph(reader):
    graph = _diamond()
    FREEZING_READERS[reader](graph)
    assert _is_frozen(graph)
    before = _contents(graph)
    for add, args in (
        ("add_as", (5,)),
        ("add_as", (1,)),  # already present: still refused
        ("add_c2p", (5, 4)),
        ("add_c2p", (1, 2)),  # already present: still refused
        ("add_p2p", (5, 6)),
        ("add_c2p", (5, 5)),
    ):
        with pytest.raises(TopologyError, match="frozen"):
            getattr(graph, add)(*args)
    assert _contents(graph) == before
    assert 5 not in graph and len(graph) == 4


def test_a_read_that_fails_still_freezes():
    graph = _diamond()
    with pytest.raises(UnknownASError):
        graph.providers(99)
    with pytest.raises(TopologyError, match="frozen"):
        graph.add_as(99)


def test_has_link_and_repr_do_not_freeze():
    graph = ASGraph()
    graph.add_c2p(1, 2)
    assert graph.has_link(1, 2) and graph.has_link(2, 1)
    assert not graph.has_link(1, 3) and not graph.has_link(9, 1)
    assert repr(graph) == "ASGraph(|V|=2, c2p=1, p2p=0)"
    assert (1 in graph, len(graph), list(graph)) == (True, 2, [1, 2])
    assert not _is_frozen(graph)
    graph.add_p2p(2, 3)  # still being built
    assert repr(graph) == "ASGraph(|V|=3, c2p=1, p2p=1)"
    graph.add_as(7)
    graph.providers(1)
    # The same answers off the frozen snapshot.
    assert repr(graph) == "ASGraph(|V|=4, c2p=1, p2p=1)"
    assert graph.has_link(2, 3) and not graph.has_link(7, 1)
    assert (7 in graph, len(graph), list(graph)) == (True, 4, [1, 2, 3, 7])


def test_views_are_built_once():
    graph = _diamond()
    first = graph.providers(1)
    assert graph.providers(1) is first  # cached tuple, no re-sort
    assert graph.ases is graph.ases and graph.tier1s() is graph.tier1s()


# ----------------------------------------------------------------------
# The three identity-keyed caches see a frozen graph before they store
# ----------------------------------------------------------------------


class _RecordingDict(weakref.WeakKeyDictionary):
    """Records, per store, whether the graph key was frozen."""

    def __init__(self):
        super().__init__()
        self.stores = []

    def __setitem__(self, graph, value):
        self.stores.append(_is_frozen(graph))
        super().__setitem__(graph, value)


@pytest.mark.parametrize("method", ["view", "phi_stats", "conditional_stats"])
def test_uphill_view_cache_stores_only_frozen_graphs(method):
    from repro.analysis.phi import UphillViewCache

    cache = UphillViewCache()
    cache._by_graph = recording = _RecordingDict()
    graph = _diamond()
    args = (graph, 1) if method == "view" else (graph, 1, 100)
    first = getattr(cache, method)(*args)
    assert recording.stores == [True]
    assert getattr(cache, method)(*args) is first  # one entry per graph
    assert recording.stores == [True]


def test_content_hash_memo_stores_only_frozen_graphs(monkeypatch):
    from repro.experiments import canonical

    recording = _RecordingDict()
    monkeypatch.setattr(canonical, "_GRAPH_HASHES", recording)
    graph = _diamond()
    digest = canonical.graph_content_hash(graph)
    assert recording.stores == [True]
    assert canonical.graph_content_hash(graph) == digest
    assert recording.stores == [True]


def test_twin_start_slot_stores_only_frozen_graphs(monkeypatch):
    from repro.bgp.network import BGPNetwork
    from repro.experiments import runner

    forks = []
    original = BGPNetwork.fork

    def recording_fork(self):
        forks.append(_is_frozen(self.graph))
        return original(self)

    monkeypatch.setattr(BGPNetwork, "fork", recording_fork)
    monkeypatch.setattr(runner, "_RBGP_START_SLOT", None)
    graph = _diamond()
    runner._acquire_started_network(graph, 1, "rbgp-norci", 0, ())
    assert forks == [True]
    key = runner._RBGP_START_SLOT[0]
    assert key[0] is graph and key[1:] == (1, 0, ())
    # The twin finds the slot by identity and consumes it.
    runner._acquire_started_network(graph, 1, "rbgp", 0, ())
    assert runner._RBGP_START_SLOT is None and forks == [True]
