"""Differential lockdown of the CSR ``ASGraph``.

Every plane, cache, and golden in this repo keys off the topology's
adjacency views, so the CSR graph ships behind this harness:
randomized *build* streams are applied, operation by operation, to
both the CSR implementation and the retained dict-of-dicts twin
(:class:`repro.topology.reference.ReferenceASGraph`), asserting that

* every build operation outcome matches — including the *type and
  message* of every raised exception (self-links, conflicting
  relationships, duplicate adds) — and so do the readers a builder may
  call mid-build without freezing the graph (``has_link``, ``in``,
  ``len``, iteration order);
* once the stream ends, the first read freezes the CSR graph and every
  observable matches: adjacency views, ``relationship()``,
  ``degree``/``is_tier1``/``is_multihomed``/``is_stub``, link
  enumerations **and their order** (``links()``/``iter_c2p()`` order
  is load-bearing for seeded runs), tier-1 sets, topological order,
  uphill reachability — and a later ``add_*`` raises;
* a pickled graph — built or frozen — and a pickled *started network*
  via the twin-start snapshot path restore byte-identically, the
  latter pinned against the fig2 golden trace SHA.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from pathlib import Path

import pytest

from repro.errors import CyclicHierarchyError, TopologyError
from repro.topology.graph import ASGraph
from repro.topology.reference import ReferenceASGraph

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "fig2_seed_golden.json"

#: Small ASN universe so random streams collide often: conflicting
#: relationships, duplicate adds, self-links — the interesting paths.
ASN_POOL = tuple(range(1, 41))


# ----------------------------------------------------------------------
# Stream machinery
# ----------------------------------------------------------------------


def _draw_op(rng, added):
    """One random build operation (``added``: the links added so far)."""
    a = rng.choice(ASN_POOL)
    b = rng.choice(ASN_POOL)
    r = rng.random()
    if r < 0.06:
        return ("add_c2p", a, a)  # self-link
    if r < 0.16 and added:
        # Restate or contradict an existing link, in either direction.
        x, y = rng.choice(added)
        return (rng.choice(("add_c2p", "add_p2p")), *rng.sample((x, y), 2))
    if r < 0.50:
        return ("add_c2p", a, b)
    if r < 0.68:
        return ("add_p2p", a, b)
    if r < 0.76:
        return ("add_as", a)
    if r < 0.88 and added:
        return ("has_link", *rng.choice(added))
    return ("has_link", a, b)


def _apply(graph, op):
    """Apply one op; normalize the outcome (result or exception)."""
    kind, *args = op
    try:
        return ("ok", getattr(graph, kind)(*args))
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))


def _building_state(graph):
    """What a builder may read without freezing the graph.  (Not the
    reference's ``repr``: it reads the views, which the reference
    caches and — like a frozen graph — never invalidates.)"""
    return (len(graph), list(graph), [asn in graph for asn in ASN_POOL])


def _observe(graph):
    """Every public observable, including enumeration order."""
    obs = {
        "len": len(graph),
        "iter_order": list(graph),
        "ases": graph.ases,
        "tier1s": graph.tier1s(),
        "links": graph.links(),
        "c2p_links": graph.c2p_links(),
        "p2p_links": graph.p2p_links(),
        "iter_c2p_order": list(graph.iter_c2p()),
    }
    per = {}
    for asn in graph.ases:
        per[asn] = (
            graph.providers(asn),
            graph.customers(asn),
            graph.peers(asn),
            graph.neighbors(asn),
            graph.degree(asn),
            graph.is_tier1(asn),
            graph.is_multihomed(asn),
            graph.is_stub(asn),
            list(graph.neighbor_relationships(asn).items()),
            [_apply(graph, ("relationship", asn, b)) for b in ASN_POOL],
            [graph.has_link(asn, b) for b in ASN_POOL],
        )
    obs["per_as"] = per
    try:
        obs["topological_order"] = ("ok", graph.topological_order())
    except CyclicHierarchyError as exc:
        obs["topological_order"] = ("err", str(exc))
    obs["uphill"] = {
        asn: tuple(sorted(graph.uphill_reachable_tier1s(asn)))
        for asn in graph.ases
    }
    obs["first_multihomed"] = {
        asn: graph.first_multihomed_ancestor(asn) for asn in graph.ases
    }
    obs["unknown"] = [
        _apply(graph, (kind, 0)) for kind in ("providers", "degree")
    ] + [_apply(graph, ("relationship", 0, 1))]
    obs["repr"] = repr(graph).split("(", 1)[1]
    return obs


def _assert_int_views(graph):
    """CSR slices must hand back plain Python ints — anything else
    would leak into traces and pickled results."""
    for asn in graph.ases:
        assert type(asn) is int
        for nbr in graph.neighbors(asn):
            assert type(nbr) is int
        for x, y, _rel in graph.links():
            assert type(x) is int and type(y) is int
        break  # one row suffices


def _build_stream(seed, n_ops=160):
    """Build both graphs op by op; return them still being built."""
    rng = random.Random(seed)
    csr = ASGraph()
    ref = ReferenceASGraph()
    added = []
    for step in range(n_ops):
        op = _draw_op(rng, added)
        outcome = _apply(csr, op)
        assert outcome == _apply(ref, op), (seed, step, op)
        if op[0] != "has_link" and outcome[0] == "ok" and len(op) == 3:
            added.append(op[1:])
        assert _building_state(csr) == _building_state(ref), (seed, step)
    return csr, ref


# ----------------------------------------------------------------------
# Differential streams
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_random_build_streams_match_reference(seed):
    csr, ref = _build_stream(seed)
    assert _observe(csr) == _observe(ref)
    _assert_int_views(csr)
    # The observation froze the CSR graph: it can no longer be extended.
    before = _observe(csr)
    for op in (("add_as", 99), ("add_c2p", 1, 2), ("add_p2p", 98, 97)):
        outcome = _apply(csr, op)
        assert outcome[:2] == ("err", "TopologyError"), op
        assert "frozen" in outcome[2]
    assert _observe(csr) == before


@pytest.mark.parametrize("frozen", [False, True], ids=["built", "frozen"])
def test_pickle_round_trip_matches_reference(frozen):
    csr, ref = _build_stream(17, n_ops=60)
    if frozen:
        csr.csr_base()
    restored = pickle.loads(pickle.dumps(csr))
    assert _observe(restored) == _observe(ref)
    if not frozen:
        # A graph pickled mid-build is restored mid-build.
        restored = pickle.loads(pickle.dumps(csr))
        restored.add_p2p(1000, 1001)
        assert restored.has_link(1000, 1001) and 1000 not in csr


# ----------------------------------------------------------------------
# Twin-start snapshot + fig2 golden on a CSR-backed graph
# ----------------------------------------------------------------------


def _trace_sha(trace) -> str:
    digest = hashlib.sha256()
    for change in trace.changes:
        digest.update(
            repr((change.time, change.asn, change.key, change.state)).encode()
        )
    return digest.hexdigest()


def test_started_network_snapshot_restores_on_frozen_csr_graph():
    """Pickle/restore a *started* network whose graph is a frozen CSR
    ``ASGraph`` (shared-memory-shaped state), then run the fig2
    scenario to convergence — the forwarding trace SHA must equal the
    committed golden."""
    from repro.experiments.runner import _StartSnapshot, build_network
    from repro.experiments.scenarios import single_provider_link_failure
    from repro.topology.generators import (
        InternetTopologyConfig,
        generate_internet_topology,
    )

    golden = json.loads(GOLDEN_PATH.read_text())
    graph, _ = generate_internet_topology(InternetTopologyConfig())
    with pytest.raises(TopologyError):  # generation ends frozen
        graph.add_as(0)
    scenario = single_provider_link_failure(
        graph, random.Random("0:fig2-single-link:0")
    )
    network, _ = build_network("rbgp", graph, scenario.destination, seed=0)
    network.start()
    restored = _StartSnapshot(network, graph).restore()
    assert restored.graph is graph  # topology re-bound by reference
    for _, event in scenario.steps:
        restored.fail_link(*event.link)
    restored.run_to_convergence()
    assert _trace_sha(restored.trace) == golden["rbgp"]["trace_sha"]
    assert len(restored.trace.changes) == golden["rbgp"]["trace_len"]
