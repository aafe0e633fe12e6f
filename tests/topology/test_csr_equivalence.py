"""Differential lockdown of the CSR ``ASGraph``.

Every plane, cache, and golden in this repo keys off the topology's
adjacency views and ``version`` counter, so the CSR rewrite ships
behind this harness: randomized graph-build + mutation streams are
applied, operation by operation, to both the CSR implementation and
the retained dict-of-dicts twin
(:class:`repro.topology.reference.ReferenceASGraph`), asserting that

* every operation outcome matches — including the *type and message*
  of every raised exception;
* every observable matches at interleaved checkpoints: adjacency
  views, ``relationship()``, ``degree``/``is_tier1``/``is_multihomed``
  /``is_stub``, ``version``, link enumerations **and their order**
  (``links()``/``iter_c2p()`` order is load-bearing for seeded runs),
  tier-1 sets, topological order, uphill reachability;
* explicit ``compact()`` calls (folding the delta overlay into fresh
  CSR arrays) are observably invisible;
* a pickled graph — and a pickled *started network* via the twin-start
  snapshot path — restores byte-identically, pinned against the fig2
  golden trace SHA.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from pathlib import Path

import pytest

from repro.errors import CyclicHierarchyError
from repro.topology.graph import ASGraph
from repro.topology.reference import ReferenceASGraph

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "fig2_seed_golden.json"

#: Small ASN universe so random streams collide often: conflicting
#: relationships, duplicate adds, removals of real links, re-added
#: ASes — the interesting paths.
ASN_POOL = tuple(range(1, 41))


# ----------------------------------------------------------------------
# Stream machinery
# ----------------------------------------------------------------------


def _draw_op(rng, ref):
    """One random operation, drawn against the reference's state."""
    a = rng.choice(ASN_POOL)
    b = rng.choice(ASN_POOL)
    r = rng.random()
    if r < 0.28:
        return ("add_c2p", a, b)
    if r < 0.42:
        return ("add_p2p", a, b)
    if r < 0.54:
        links = ref.links()
        if links and rng.random() < 0.7:
            # Mostly remove *real* links (the failure-experiment path);
            # sometimes a random pair, for error parity.
            x, y, _ = rng.choice(links)
            return ("remove_link", x, y)
        return ("remove_link", a, b)
    if r < 0.62:
        live = list(ref)
        if live and rng.random() < 0.7:
            return ("remove_as", rng.choice(live))
        return ("remove_as", a)
    if r < 0.68:
        return ("add_as", a)
    if r < 0.76:
        return ("compact",)
    if r < 0.88:
        return ("relationship", a, b)
    if r < 0.94:
        return ("degree", a)
    return ("has_link", a, b)


def _apply(graph, op):
    """Apply one op; normalize the outcome (result or exception)."""
    kind, *args = op
    try:
        if kind == "compact":
            # CSR-only maintenance hook; a no-op on the reference.
            if hasattr(graph, "compact"):
                graph.compact()
            return ("ok", None)
        result = getattr(graph, kind)(*args)
        return ("ok", result)
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc))


def _observe(graph):
    """Every public observable, including enumeration order."""
    obs = {
        "version": graph.version,
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
        break  # one row suffices per checkpoint


def _run_stream(seed, n_ops=160, observe_every=20):
    rng = random.Random(seed)
    csr = ASGraph()
    ref = ReferenceASGraph()
    for step in range(n_ops):
        op = _draw_op(rng, ref)
        ref_outcome = _apply(ref, op)
        csr_outcome = _apply(csr, op)
        assert csr_outcome == ref_outcome, (seed, step, op)
        assert csr.version == ref.version, (seed, step, op)
        if step % observe_every == observe_every - 1:
            assert _observe(csr) == _observe(ref), (seed, step)
            _assert_int_views(csr)
    assert _observe(csr) == _observe(ref)
    return csr, ref


# ----------------------------------------------------------------------
# Differential streams
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_random_mutation_streams_match_reference(seed):
    _run_stream(seed)


def test_compaction_after_every_mutation_is_invisible():
    """Force a CSR rebuild at every step: still observably identical."""
    rng = random.Random(424242)
    csr = ASGraph()
    ref = ReferenceASGraph()
    for step in range(60):
        op = _draw_op(rng, ref)
        assert _apply(csr, op) == _apply(ref, op), (step, op)
        csr.compact()
        if step % 10 == 9:
            assert _observe(csr) == _observe(ref), step
    assert _observe(csr) == _observe(ref)


def test_view_identity_survives_compaction():
    """compact() folds storage, but cached view tuples stay shared
    (identity matters: speakers hold these tuples)."""
    graph = ASGraph()
    graph.add_c2p(2, 1)
    graph.add_c2p(3, 1)
    view = graph.providers(2)
    before = graph.version
    assert graph.compact() is graph
    assert graph.providers(2) is view
    assert graph.version == before  # maintenance never looks like mutation


def test_copy_independence_matches_reference():
    csr, ref = _run_stream(99, n_ops=80)
    csr2, ref2 = csr.copy(), ref.copy()
    assert _observe(csr2) == _observe(ref2)
    # Mutating the original must not leak into the copy (and back).
    rng = random.Random(7)
    for _ in range(30):
        op = _draw_op(rng, ref)
        assert _apply(csr, op) == _apply(ref, op)
    assert _observe(csr) == _observe(ref)
    assert _observe(csr2) == _observe(ref2)
    rng = random.Random(8)
    for _ in range(30):
        op = _draw_op(rng, ref2)
        assert _apply(csr2, op) == _apply(ref2, op)
    assert _observe(csr2) == _observe(ref2)
    assert _observe(csr) == _observe(ref)


def test_pickle_round_trip_matches_reference():
    for compacted in (False, True):
        csr, ref = _run_stream(17, n_ops=60)
        if compacted:
            csr.compact()
        restored = pickle.loads(pickle.dumps(csr))
        assert _observe(restored) == _observe(ref)
        assert restored.version == ref.version


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


def test_started_network_snapshot_restores_on_compacted_csr_graph():
    """Satellite regression: pickle/restore a *started* network whose
    graph is a compacted CSR ``ASGraph`` (shared-memory-shaped state),
    then run the fig2 scenario to convergence — the forwarding trace
    SHA must equal the committed golden."""
    from repro.experiments.runner import _StartSnapshot, build_network
    from repro.experiments.scenarios import single_provider_link_failure
    from repro.topology.generators import (
        InternetTopologyConfig,
        generate_internet_topology,
    )

    golden = json.loads(GOLDEN_PATH.read_text())
    graph, _ = generate_internet_topology(InternetTopologyConfig())
    graph.compact()  # force the int-indexed arrays to be live
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
