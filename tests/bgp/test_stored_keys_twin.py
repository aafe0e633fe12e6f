"""Stored decision keys and the per-network path-links memo against
their reference twins (determinism rule 4).

Random streams of updates, withdrawals (some root-caused, so RCI
purges), failover announcements, session resets and forks drive one
speaker of each kind: plain BGP, a STAMP blue process
(``prefer_locked``) and both R-BGP variants.  After every step:

* the speaker's best route is the argmin of
  :func:`reference.policy.route_sort_key` over its sorted Adj-RIB-In,
  and every stored key is that function's value;
* its Adj-RIB-In, failover RIB and known-bad-link set equal a model
  that purges and filters on full paths, ``path_links((asn,) + path)``;
* its failover choice is the most disjoint alternate on full paths.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakes import FixedDelay
from reference.policy import best_route, route_sort_key
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.speaker import BGPSpeaker, ProtocolStats, SpeakerConfig
from repro.rbgp.messages import FailoverAnnouncement
from repro.rbgp.speaker import RBGPSpeaker, path_links
from repro.sim.engine import Engine
from repro.sim.tracing import ForwardingTrace
from repro.sim.transport import Transport
from repro.topology.graph import ASGraph
from repro.types import normalize_link

ASN = 5
CUSTOMERS, PEERS, PROVIDERS = (1, 4, 8), (2, 7), (3, 6)
NEIGHBORS = CUSTOMERS + PEERS + PROVIDERS
#: ASes a path may pass through: the far ones, the neighbors, and the
#: speaker itself (a path through it is refused).  Few, so that root
#: causes often lie on stored paths.
HOPS = (10, 11, 12) + NEIGHBORS + (ASN,)
KINDS = ("bgp", "stamp-blue", "rbgp", "rbgp-norci")


def _graph() -> ASGraph:
    graph = ASGraph()
    for customer in CUSTOMERS:
        graph.add_c2p(customer, ASN)
    for peer in PEERS:
        graph.add_p2p(ASN, peer)
    for provider in PROVIDERS:
        graph.add_c2p(ASN, provider)
    return graph


GRAPH = _graph()


@st.composite
def paths(draw, neighbor):
    tail = draw(st.lists(
        st.sampled_from([hop for hop in HOPS if hop != neighbor]),
        max_size=4, unique=True,
    ))
    return (neighbor,) + tuple(tail)


@st.composite
def links(draw):
    """A root cause: half the time a session of the speaker's own,
    which only the first hop of a full path can cross."""
    if draw(st.booleans()):
        return normalize_link(ASN, draw(st.sampled_from(NEIGHBORS)))
    a, b = draw(st.lists(st.sampled_from(HOPS), min_size=2, max_size=2, unique=True))
    return normalize_link(a, b)


@st.composite
def steps(draw):
    kind = draw(st.sampled_from(
        ("announce",) * 6 + ("withdraw",) * 2
        + ("failover",) * 2 + ("down", "up", "fork")
    ))
    neighbor = draw(st.sampled_from(NEIGHBORS))
    cause = draw(st.none() | links())
    if kind == "announce":
        return (kind, neighbor, draw(paths(neighbor)), draw(st.booleans()), cause)
    if kind == "withdraw":
        return (kind, neighbor, cause)
    if kind == "failover":
        return (kind, neighbor, draw(paths(neighbor)))
    if kind in ("down", "up"):
        return (kind, neighbor)
    return (kind,)


class Model:
    """The speaker's RIBs, purged and filtered on full paths."""

    def __init__(self, rbgp: bool, rci: bool) -> None:
        self.rbgp, self.rci = rbgp, rci
        self.sessions = set(NEIGHBORS)
        self.rib = {}  # neighbor -> (path, lock)
        self.failover = {}  # upstream -> path
        self.bad = set()

    @staticmethod
    def crosses(link, path) -> bool:
        return link in path_links((ASN,) + path)

    def purge(self, link) -> None:
        self.bad.add(link)
        self.rib = {
            n: entry for n, entry in self.rib.items()
            if not self.crosses(link, entry[0])
        }
        self.failover = {
            n: path for n, path in self.failover.items()
            if not self.crosses(link, path)
        }

    def apply(self, step) -> None:
        kind = step[0]
        if kind == "announce":
            _, neighbor, path, lock, cause = step
            if neighbor not in self.sessions:
                return
            withdraw = False
            if self.rbgp and cause is not None and self.rci:
                self.purge(cause)
            if self.rbgp and self.rci and self.bad:
                full = path_links((ASN,) + path)
                if cause is None:
                    self.bad -= full
                elif self.bad & full:
                    withdraw = True
            if withdraw or ASN in path:
                self.rib.pop(neighbor, None)
            else:
                self.rib[neighbor] = (path, lock)
        elif kind == "withdraw":
            _, neighbor, cause = step
            if neighbor not in self.sessions:
                return
            if self.rbgp and cause is not None and self.rci:
                self.purge(cause)
            self.rib.pop(neighbor, None)
        elif kind == "failover":
            _, neighbor, path = step
            if self.rbgp and neighbor in self.sessions:
                self.failover[neighbor] = path
        elif kind == "down":
            neighbor = step[1]
            if neighbor not in self.sessions:
                return
            self.failover.pop(neighbor, None)
            if self.rbgp and self.rci:
                self.purge(normalize_link(ASN, neighbor))
            self.sessions.discard(neighbor)
            self.rib.pop(neighbor, None)
        elif kind == "up":
            self.bad.discard(normalize_link(ASN, step[1]))
            self.sessions.add(step[1])


class Harness:
    """One speaker of ``kind`` for AS 5, over a transport to no-ops."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.prefer_locked = kind == "stamp-blue"
        engine = Engine(seed=0)
        transport = Transport(engine, FixedDelay(0.01))
        self._listen(transport)
        common = dict(
            config=SpeakerConfig(prefer_locked=self.prefer_locked),
            trace=ForwardingTrace(),
            stats=ProtocolStats(),
        )
        if kind.startswith("rbgp"):
            self.speaker = RBGPSpeaker(
                ASN, GRAPH, engine, transport, rci=kind == "rbgp", **common
            )
        else:
            self.speaker = BGPSpeaker(ASN, GRAPH, engine, transport, **common)
        self.model = Model(kind.startswith("rbgp"), kind == "rbgp")

    @staticmethod
    def _listen(transport) -> None:
        for neighbor in NEIGHBORS:
            transport.register_receiver(neighbor, lambda sender, message: None)

    def drive(self, step) -> None:
        speaker, kind = self.speaker, step[0]
        if kind == "announce":
            _, neighbor, path, lock, cause = step
            speaker.on_message(neighbor, Announcement(path, lock=lock, root_cause=cause))
        elif kind == "withdraw":
            speaker.on_message(step[1], Withdrawal(root_cause=step[2]))
        elif kind == "failover":
            if not self.model.rbgp:
                return
            speaker.on_message(step[1], FailoverAnnouncement(path=step[2]))
        elif kind == "down":
            speaker.on_session_down(step[1])
        elif kind == "up":
            speaker.on_session_up(step[1])
        else:
            speaker.engine.run()
            engine = speaker.engine.fork()
            transport = speaker.transport.fork(engine)
            self._listen(transport)
            self.speaker = speaker.fork(
                engine, transport, ForwardingTrace(), ProtocolStats()
            )
        self.model.apply(step)

    def check(self) -> None:
        speaker, model = self.speaker, self.model
        routes = sorted(speaker.adj_rib_in.routes(), key=lambda r: r.learned_from)
        assert {r.learned_from: (r.path, r.lock) for r in routes} == model.rib
        for route in routes:
            assert route.key == route_sort_key(
                GRAPH, ASN, route, prefer_locked=self.prefer_locked
            )
        expected = best_route(GRAPH, ASN, routes, prefer_locked=self.prefer_locked)
        assert speaker.best == expected
        if expected is not None:
            assert speaker.best.key == expected.key
        if not model.rbgp:
            return
        assert speaker.failover_rib == model.failover
        assert speaker.known_bad_links == model.bad
        assert speaker.compute_failover_route() == _most_disjoint(speaker.best, routes)


def _most_disjoint(best, routes):
    if best is None:
        return None
    target = best.learned_from
    primary = path_links((ASN,) + best.path)
    return min(
        (r for r in routes if r.learned_from != target and target not in r.path),
        key=lambda r: (
            len(primary & path_links((ASN,) + r.path)),
            route_sort_key(GRAPH, ASN, r),
        ),
        default=None,
    )


@pytest.mark.parametrize("kind", KINDS)
@given(stream=st.lists(steps(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_every_step_agrees_with_the_reference(kind, stream):
    harness = Harness(kind)
    harness.check()
    for step in stream:
        harness.drive(step)
        harness.check()
