"""A finished result holds each AS set once.

A campaign keeps every unit's :class:`EpisodeRun` alive until the grid
ends, so what one run's reports hold is multiplied by phases × units.
Pinned here: every report set is a frozenset, a phase whose
eligibility equals the phase before it holds that same object, a
ledger written with plain sets (the shape results had before) still
answers a campaign with nothing recomputed, and no R-BGP path-links
memo outlives the grid whose networks filled it.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import pickle
import random
import weakref

import pytest

from repro.experiments.ledger import ResultLedger
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import clear_twin_start_cache, run_episode
from repro.experiments.scenarios import (
    link_flap_episode,
    single_provider_link_failure,
)
from repro.rbgp import network as rbgp_network
from repro.rbgp import speaker as rbgp_speaker
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

TINY = InternetTopologyConfig(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35)
PLANES = ("bgp", "rbgp-norci", "rbgp", "stamp")
SET_FIELDS = (
    "eligible", "affected", "permanently_unreachable", "looped", "blackholed",
)


@pytest.fixture(scope="module")
def tiny_graph():
    graph, _ = generate_internet_topology(TINY)
    return graph


def _reports(run):
    return [run.report] + [phase.report for phase in run.phases]


@pytest.mark.parametrize("protocol", PLANES)
def test_equal_phase_eligibilities_are_one_object(tiny_graph, protocol):
    episode = link_flap_episode(
        tiny_graph, random.Random("frozen"), period=2.0, flaps=8
    )
    clear_twin_start_cache()
    run = run_episode(tiny_graph, episode, protocol, seed=3)
    clear_twin_start_cache()
    reports = _reports(run)
    empties = set()
    for report in reports:
        for name in SET_FIELDS:
            ases = getattr(report, name)
            assert type(ases) is frozenset, (name, type(ases))
            if not ases:
                empties.add(id(ases))
    assert len(empties) == 1, "every empty report set is one object"
    shared = 0
    for before, after in zip(reports, reports[1:]):
        if after.eligible == before.eligible:
            assert after.eligible is before.eligible
            shared += 1
    # A link flap storm leaves most phases' eligibility unchanged.
    assert shared >= len(run.phases) // 2


def _thawed(run):
    """``run`` with every report set a fresh plain ``set``: the shape
    results had, and ledgers held, before reports were frozen."""

    def thaw(report):
        return dataclasses.replace(
            report, **{name: set(getattr(report, name)) for name in SET_FIELDS}
        )

    return dataclasses.replace(
        run,
        report=thaw(run.report),
        phases=tuple(
            dataclasses.replace(phase, report=thaw(phase.report))
            for phase in run.phases
        ),
    )


def test_a_ledger_of_plain_sets_answers_with_nothing_recomputed(
    tiny_graph, tmp_path
):
    builder = functools.partial(link_flap_episode, period=2.0, flaps=4)

    def campaign(ledger):
        return ParallelRunner(ledger=ledger).run_failure_comparison(
            builder, "flap", 7, 2, PLANES, tiny_graph
        )

    written = tmp_path / "frozen.jsonl"
    first = campaign(written)
    assert first.executed == 2 * len(PLANES)
    thawed = tmp_path / "thawed.jsonl"
    with ResultLedger(written) as source, ResultLedger(thawed) as target:
        for key in list(source.keys()):
            run = source.get(key)
            assert all(
                type(getattr(report, name)) is frozenset
                for report in _reports(run) for name in SET_FIELDS
            )
            old_shape = _thawed(run)
            assert pickle.dumps(old_shape) != pickle.dumps(run)
            target.put(key, old_shape)
    again = campaign(thawed)
    assert again.executed == 0
    assert again.ledger_hits == 2 * len(PLANES)
    assert again.mean_affected_by_phase() == first.mean_affected_by_phase()
    assert again.mean_affected() == first.mean_affected()


def test_no_path_links_memo_outlives_its_grid(tiny_graph, monkeypatch):
    """Units run with the collector paused, so whatever memoizes an
    R-BGP path's links must go with the network that filled it: here,
    every link set in a network's memo — shared by the memo of the
    parked twin-start fork, which copies it — is freed by reference
    counting when the grid ends, and the module itself holds no memo."""
    memoized = []
    forks = []
    real_links = rbgp_speaker.path_links
    real_fork = rbgp_network.RBGPNetwork.fork

    def spy_links(path):
        links = real_links(path)
        memoized.append(weakref.ref(links))
        return links

    def spy_fork(self):
        twin = real_fork(self)
        assert twin.links_memo == self.links_memo
        assert twin.links_memo is not self.links_memo
        assert all(s.links_memo is twin.links_memo for s in twin.speakers.values())
        forks.append(weakref.ref(twin))
        return twin

    monkeypatch.setattr(rbgp_speaker, "path_links", spy_links)
    monkeypatch.setattr(rbgp_network.RBGPNetwork, "fork", spy_fork)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        data = ParallelRunner(workers=1).run_failure_comparison(
            single_provider_link_failure, "fig2", 0, 2,
            ("rbgp-norci", "rbgp"), tiny_graph,
        )
        assert data.executed == 4 and memoized and forks
        assert [ref for ref in forks if ref() is not None] == []
        assert [ref for ref in memoized if ref() is not None] == []
        for module in (rbgp_speaker, rbgp_network):
            module_memos = [
                name for name, value in vars(module).items()
                if isinstance(value, dict) and value
                and not name.startswith("__")
            ]
            assert module_memos == []
    finally:
        if was_enabled:
            gc.enable()
