"""The drained state of a started BGP or R-BGP network, rebuilt from the
graph.

A BGP or R-BGP network started from scratch drains to a protocol state
that is a function of the graph and the destination alone, whatever
the seed:

* every Loc-RIB is the static Gao-Rexford solution
  (:func:`reference.static.compute_stable_routes`);
* every Adj-RIB-Out is the valley-free export of that solution
  (:func:`reference.policy.export_allowed`, ``export_for``'s twin);
* every Adj-RIB-In holds what its neighbors export, less the paths
  through itself, each with the decision key
  :func:`reference.policy.route_sort_key` gives it;
* every R-BGP failover is the most disjoint alternate in that
  Adj-RIB-In, measured on full ``path_links((asn,) + path)``, every
  failover RIB holds what its upstreams advertise, and no speaker
  knows a bad link.

:func:`computed_start` rebuilds that state; :func:`assert_start_matches`
compares it with a simulated network, field by field.  A route's ET
bit is left out: it records the history of the start (whether a
withdrawal preceded the last announcement), not a function of the
graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from reference.policy import export_allowed, route_sort_key
from reference.static import compute_stable_routes
from repro.bgp.ribs import Route
from repro.rbgp.speaker import path_links
from repro.types import ASN, ASPath, Link


@dataclass
class SpeakerStart:
    """One AS's drained protocol state, in the speaker's own terms."""

    #: Loc-RIB: the best route's path (announcer-first), ``()`` at the
    #: destination, ``None`` without a route.
    best: Optional[ASPath]
    #: Adj-RIB-In: neighbor -> (path, lock, decision key).
    rib_in: Dict[ASN, Tuple[ASPath, bool, tuple]] = field(default_factory=dict)
    #: Adj-RIB-Out: peer -> (advertised path including this AS, lock).
    rib_out: Dict[ASN, Tuple[ASPath, bool]] = field(default_factory=dict)
    #: R-BGP: (primary next hop, failover path) last advertised, or None.
    failover_sent: Optional[Tuple[ASN, ASPath]] = None
    #: R-BGP: upstream -> the failover path it advertised to this AS.
    failover_rib: Dict[ASN, ASPath] = field(default_factory=dict)
    #: R-BGP: the links RCI taught this AS to be down.
    known_bad_links: Set[Link] = field(default_factory=set)


def _most_disjoint(asn: ASN, best: Route, rib_in, graph) -> Optional[Route]:
    """R-BGP's failover rule on full paths, ties by the decision order."""
    target = best.learned_from
    primary = path_links((asn,) + best.path)
    candidates = [
        route for route in rib_in
        if route.learned_from != target and target not in route.path
    ]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda route: (
            len(primary & path_links((asn,) + route.path)),
            route_sort_key(graph, asn, route),
        ),
    )


def computed_start(graph, destination: ASN, *, rbgp: bool) -> Dict[ASN, SpeakerStart]:
    """Every AS's drained state after ``start()``, from the graph alone."""
    stable = compute_stable_routes(graph, destination)
    best: Dict[ASN, Optional[Route]] = {}
    for asn in graph.ases:
        route = stable.route(asn)
        if route is None:
            best[asn] = None
        elif asn == destination:
            best[asn] = Route((), None)
        else:
            best[asn] = Route(route.path[1:], route.path[1])
    state = {
        asn: SpeakerStart(None if route is None else route.path)
        for asn, route in best.items()
    }
    for asn in graph.ases:
        if best[asn] is None:
            continue
        exported = (asn,) + best[asn].path
        for peer in graph.neighbors(asn):
            if not export_allowed(graph, asn, best[asn], peer):
                continue
            state[asn].rib_out[peer] = (exported, False)
            if peer not in exported:  # loop detection at the receiver
                route = Route(exported, asn)
                state[peer].rib_in[asn] = (
                    exported, False, route_sort_key(graph, peer, route),
                )
    if not rbgp:
        return state
    for asn in graph.ases:
        if best[asn] is None or best[asn].is_origin:
            continue
        rib_in = [Route(path, nbr) for nbr, (path, _, _) in state[asn].rib_in.items()]
        failover = _most_disjoint(asn, best[asn], rib_in, graph)
        if failover is not None:
            target = best[asn].learned_from
            state[asn].failover_sent = (target, failover.path)
            state[target].failover_rib[asn] = (asn,) + failover.path
    return state


def assert_start_matches(network, *, rbgp: bool) -> None:
    """The drained ``network`` holds exactly :func:`computed_start`."""
    expected = computed_start(network.graph, network.destination, rbgp=rbgp)
    assert set(network.speakers) == set(expected)
    for asn, speaker in network.speakers.items():
        want = expected[asn]
        where = f"AS {asn}"
        got_best = speaker.best.path if speaker.best is not None else None
        assert got_best == want.best, f"{where} Loc-RIB {got_best}, not {want.best}"
        got_in = {
            route.learned_from: (route.path, route.lock, route.key)
            for route in speaker.adj_rib_in.routes()
        }
        assert got_in == want.rib_in, f"{where} Adj-RIB-In differs"
        assert speaker._advertised == want.rib_out, f"{where} Adj-RIB-Out differs"
        if not rbgp:
            continue
        assert speaker._failover_sent == want.failover_sent, (
            f"{where} advertised failover {speaker._failover_sent}, "
            f"not {want.failover_sent}"
        )
        failover = speaker.compute_failover_route()
        assert (failover.path if failover else None) == (
            want.failover_sent[1] if want.failover_sent else None
        ), f"{where} failover choice differs"
        assert speaker.failover_rib == want.failover_rib, f"{where} failover RIB differs"
        assert speaker.known_bad_links == want.known_bad_links, f"{where} RCI set"
        assert speaker.fib_path == want.best, f"{where} FIB {speaker.fib_path}"
