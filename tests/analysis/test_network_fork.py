"""A forked network is an independent, valid twin of a drained one.

:meth:`repro.bgp.network.BGPNetwork.fork` is how the runner shares one
initial convergence between the two R-BGP variants: the first variant's
started network is forked, the fork parked, and the twin run from it.
A fork copies live objects instead of serializing them, so what a
serialization round trip guaranteed by construction is pinned here:

* no mutable object is shared — every dict, set, list, deque,
  generator and protocol object reachable from the twin is its own,
  apart from an explicit allow-list of read-only tables;
* running the original to quiescence leaves the twin exactly as it was
  at the fork (forwarding state, generator state, counters);
* the twin is a valid drained network: it passes
  :func:`live_collector.check_quiescent` under both ``rci`` settings,
  and it then evolves exactly as the original does;
* a network with anything queued refuses to fork.
"""

from __future__ import annotations

import enum
import functools
import random
import types
from collections import deque
from dataclasses import is_dataclass, replace

import pytest

from live_collector import check_quiescent
from repro.bgp.ribs import Route
from repro.errors import SimulationError
from repro.experiments.runner import build_network, collect_episode_segments
from repro.experiments.scenarios import link_flap_episode
from repro.sim.tracing import ForwardingChange
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.types import normalize_link

#: The attributes a fork shares with its original although their values
#: are mutable types: the topology (frozen before any speaker exists)
#: and each speaker's per-neighbor preference and relationship tables
#: (complete at construction, never written again).
SHARED_READ_ONLY = frozenset({"graph", "_pref_table", "_rel_table"})

#: Slotted ``repro`` classes whose instances are immutable by contract.
IMMUTABLE = (Route, ForwardingChange)

PROTOCOLS = ("bgp", "rbgp-norci", "rbgp")


@pytest.fixture(scope="module")
def graph():
    """The 62-AS bench graph."""
    graph, _ = generate_internet_topology(InternetTopologyConfig(
        seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35,
    ))
    return graph


@pytest.fixture(scope="module")
def episode(graph):
    return link_flap_episode(graph, random.Random("fork"), period=2.0, flaps=4)


def _started(graph, episode, protocol, *, pre_failed=False):
    network, _ = build_network(protocol, graph, episode.destination, seed=3)
    if pre_failed:
        neighbor = graph.neighbors(episode.destination)[0]
        network.transport.fail_link(episode.destination, neighbor)
    network.start()
    return network


def _attributes(obj):
    """``(name, value)`` of an object's instance attributes and slots."""
    if hasattr(obj, "__dict__"):
        yield from vars(obj).items()
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                yield name, getattr(obj, name)


def _is_immutable(obj) -> bool:
    return isinstance(obj, (enum.Enum, *IMMUTABLE)) or (
        is_dataclass(obj) and type(obj).__dataclass_params__.frozen
    )


def mutable_state(network):
    """``id -> (path, object)`` of every mutable object reachable from
    ``network``: containers, generators, and ``repro`` objects that are
    not immutable.  The walk passes through tuples, bound methods and
    partials (a callback bound to the wrong speaker is shared state
    too) and stops at the :data:`SHARED_READ_ONLY` attributes."""
    found = {}
    seen = set()
    stack = [("network", network)]
    while stack:
        where, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            found[id(obj)] = (where, obj)
            stack.extend((f"{where}[{k!r}]", v) for k, v in obj.items())
        elif isinstance(obj, (set, list, deque)):
            found[id(obj)] = (where, obj)
            stack.extend((f"{where}[{i}]", v) for i, v in enumerate(obj))
        elif isinstance(obj, tuple):
            stack.extend((f"{where}[{i}]", v) for i, v in enumerate(obj))
        elif isinstance(obj, types.MethodType):
            stack.append((f"{where}.__self__", obj.__self__))
        elif isinstance(obj, functools.partial):
            stack.append((f"{where}.func", obj.func))
            stack.extend((f"{where}.args[{i}]", v) for i, v in enumerate(obj.args))
        elif isinstance(obj, random.Random):
            found[id(obj)] = (where, obj)
        elif type(obj).__module__.startswith("repro.") and not _is_immutable(obj):
            found[id(obj)] = (where, obj)
            stack.extend(
                (f"{where}.{name}", value)
                for name, value in _attributes(obj)
                if name not in SHARED_READ_ONLY
            )
    return found


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_fork_shares_no_mutable_state(graph, episode, protocol):
    network = _started(graph, episode, protocol)
    twin = network.fork()
    original, forked = mutable_state(network), mutable_state(twin)
    shared = sorted(forked[key][0] for key in set(original) & set(forked))
    assert not shared, shared
    kinds = {type(obj).__name__ for _, obj in forked.values()}
    assert {
        type(network.speakers[episode.destination]).__name__, "Engine",
        "Transport", "MRAIPacer", "AdjRibIn", "Random", "ProtocolStats",
        "ForwardingTrace",
    } <= kinds, kinds
    # The allow-list names what is shared, and nothing it names is copied.
    assert twin.graph is network.graph
    for asn, speaker in network.speakers.items():
        assert twin.speakers[asn]._pref_table is speaker._pref_table
        assert twin.speakers[asn]._rel_table is speaker._rel_table


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_running_the_original_leaves_the_twin_alone(graph, episode, protocol):
    network = _started(graph, episode, protocol)
    twin = network.fork()
    at_fork = (
        twin.forwarding_state(), twin.engine.rng.getstate(),
        replace(twin.stats), twin.engine.now,
    )
    assert at_fork[0] == network.forwarding_state()
    stats_before = replace(network.stats)
    collect_episode_segments(network, episode)
    assert network.stats != stats_before  # the original did move
    assert (
        twin.forwarding_state(), twin.engine.rng.getstate(),
        twin.stats, twin.engine.now,
    ) == at_fork
    assert twin.engine.pending() == 0


@pytest.mark.parametrize("pre_failed", [False, True])
@pytest.mark.parametrize("rci", [True, False])
def test_the_twin_is_a_valid_drained_network(graph, episode, rci, pre_failed):
    network = _started(graph, episode, "rbgp", pre_failed=pre_failed)
    twin = network.fork()
    twin.set_rci(rci)
    assert twin.transport.failed_links == network.transport.failed_links
    assert bool(twin.transport.failed_links) is pre_failed
    check_quiescent(twin, not_before=network.engine.now)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_twin_evolves_as_the_original_does(graph, episode, protocol):
    """Run the original, then the twin, through one episode: the traces,
    counters and generator states match, although the twin holds none
    of the original's drained channels."""
    network, _ = build_network(protocol, graph, episode.destination, seed=3)
    network.start()
    twin = network.fork()
    assert network.transport._channels and not twin.transport._channels

    def run(net):
        segments, initial, convergence = collect_episode_segments(net, episode)
        changes = [
            (change.time, change.asn, change.key, change.state)
            for segment in segments
            for change in segment.trace.changes
        ]
        return (
            changes, initial, convergence, replace(net.stats),
            net.engine.rng.getstate(), net.transport.messages_lost,
        )

    assert run(twin) == run(network)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_twin_opens_its_own_channels(graph, episode, protocol):
    """A channel the twin sends on is its own, and every delivery it
    schedules lands after each of the original's past deliveries: the
    drained channels it did not copy could not have held one back."""
    network = _started(graph, episode, protocol)
    before = {
        key: (channel, channel.last_delivery)
        for key, channel in network.transport._channels.items()
    }
    twin = network.fork()
    collect_episode_segments(twin, episode)
    assert twin.transport._channels
    latest = max(last for _, last in before.values())
    originals = {id(channel) for channel, _ in before.values()}
    for channel in twin.transport._channels.values():
        assert channel.transport is twin.transport
        assert id(channel) not in originals
        assert channel.last_delivery > latest
    assert {
        key: (channel, channel.last_delivery)
        for key, channel in network.transport._channels.items()
    } == before


def test_a_busy_network_refuses_to_fork(graph, episode):
    network, _ = build_network("rbgp", graph, episode.destination)
    network.speakers[episode.destination].originate()  # messages queued
    assert network.engine.pending()
    with pytest.raises(SimulationError, match="cannot fork"):
        network.fork()
    network.run_to_convergence()
    network.fork()  # drained: fine


def test_a_link_failed_after_the_fork_stays_the_originals(graph, episode):
    network = _started(graph, episode, "rbgp-norci")
    twin = network.fork()
    a = episode.destination
    b = graph.neighbors(a)[0]
    network.fail_link(a, b)
    assert normalize_link(a, b) in network.transport.failed_links
    assert not twin.transport.failed_links
    assert b in twin.speakers[a].sessions
    assert b not in network.speakers[a].sessions
