"""A finished result holds each AS set once, and no object per instant.

A campaign keeps every unit's :class:`EpisodeRun` alive until the grid
ends, so what one run's reports hold is multiplied by phases × units.
Pinned here: every report set is a frozenset, a phase whose
eligibility equals the phase before it holds that same object, a
report's two series are flat columns over one shared column of times,
ledgers written with plain sets or with list series (the shapes
results had before) still answer a campaign with nothing recomputed, a
pickled run names no class it did not name before, and no R-BGP
path-links memo outlives the grid whose networks filled it.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import pickle
import pickletools
import random
import weakref
from array import array

import pytest

from repro.analysis.transient import Timeline, TransientReport
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
    run = _flap_run(tiny_graph, protocol)
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


def _flap_run(graph, protocol, flaps=8):
    episode = link_flap_episode(
        graph, random.Random("frozen"), period=2.0, flaps=flaps
    )
    clear_twin_start_cache()
    run = run_episode(graph, episode, protocol, seed=3)
    clear_twin_start_cache()
    return run


@pytest.mark.parametrize("protocol", PLANES)
def test_a_series_holds_no_object_per_instant(tiny_graph, protocol):
    """A tracked report's two series are three flat 8-byte columns, the
    times shared: no ``(time, count)`` tuple, float or int per instant
    is alive, and the series still read as the pairs they stand for.
    A report that observed no instant shares one empty series."""
    tracked = 0
    for report in _reports(_flap_run(tiny_graph, protocol)):
        timeline, problems = report.timeline, report.problem_timeline
        assert type(timeline) is Timeline and type(problems) is Timeline
        if not timeline:
            assert timeline is problems and not problems.times
            continue
        tracked += 1
        assert report.eligible and timeline.times is problems.times
        assert len(timeline) == len(problems)
        for column in (timeline.times, timeline.counts, problems.counts):
            assert type(column) is array and column.itemsize == 8
        held = gc.get_referents(timeline, problems)
        per_instant = (tuple, float, int)
        assert not [item for item in held if isinstance(item, per_instant)]
        pairs = list(problems)
        assert all(
            type(time) is float and type(count) is int for time, count in pairs
        )
        assert problems == pairs and pairs == problems
        assert repr(problems) == repr(pairs)
        assert problems[-1] == pairs[-1]
    assert tracked


def _each_report(run, rebuild):
    """``run`` with ``rebuild`` applied to its overall and phase reports."""
    return dataclasses.replace(
        run,
        report=rebuild(run.report),
        phases=tuple(
            dataclasses.replace(phase, report=rebuild(phase.report))
            for phase in run.phases
        ),
    )


def _thawed(run):
    """``run`` with every report set a fresh plain ``set``: the shape
    results had, and ledgers held, before reports were frozen."""
    return _each_report(run, lambda report: dataclasses.replace(
        report, **{name: set(getattr(report, name)) for name in SET_FIELDS}
    ))


def _listed(run):
    """``run`` with every report series a plain list of pairs: the shape
    results had in memory before series were flat columns."""
    return _each_report(run, lambda report: dataclasses.replace(
        report,
        timeline=list(report.timeline),
        problem_timeline=list(report.problem_timeline),
    ))


def _flap_campaign(graph, ledger):
    builder = functools.partial(link_flap_episode, period=2.0, flaps=4)
    return ParallelRunner(ledger=ledger).run_failure_comparison(
        builder, "flap", 7, 2, PLANES, graph
    )


def test_a_ledger_of_plain_sets_answers_with_nothing_recomputed(
    tiny_graph, tmp_path
):
    written = tmp_path / "frozen.jsonl"
    first = _flap_campaign(tiny_graph, written)
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
    again = _flap_campaign(tiny_graph, thawed)
    assert again.executed == 0
    assert again.ledger_hits == 2 * len(PLANES)
    assert again.mean_affected_by_phase() == first.mean_affected_by_phase()
    assert again.mean_affected() == first.mean_affected()


def test_a_ledger_of_list_series_answers_with_nothing_recomputed(
    tiny_graph, tmp_path, monkeypatch
):
    """Records pickled the way a report pickled while its series were
    lists (its ``__dict__``, no ``__getstate__``) are the very bytes a
    flat report pickles to, load flat, and answer a campaign."""
    written = tmp_path / "flat.jsonl"
    first = _flap_campaign(tiny_graph, written)
    assert first.executed == 2 * len(PLANES)
    listed = tmp_path / "listed.jsonl"
    with ResultLedger(written) as source, ResultLedger(listed) as target:
        for key in list(source.keys()):
            run = source.get(key)
            flat_bytes = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
            old_shape = _listed(run)
            assert type(old_shape.report.timeline) is list
            with monkeypatch.context() as patch:
                patch.delattr(TransientReport, "__getstate__")
                old_bytes = pickle.dumps(
                    old_shape, protocol=pickle.HIGHEST_PROTOCOL
                )
                target.put(key, old_shape)
            assert old_bytes == flat_bytes
            assert target.get(key) == run
            assert type(target.get(key).report.timeline.times) is array
    again = _flap_campaign(tiny_graph, listed)
    assert again.executed == 0
    assert again.ledger_hits == 2 * len(PLANES)
    assert again.mean_affected_by_phase() == first.mean_affected_by_phase()
    assert again.mean_affected() == first.mean_affected()
    assert again.mean_disruption() == first.mean_disruption()


def test_a_pickled_report_loads_flat_or_not_at_all():
    """Loading compacts a report's list series onto one column of times;
    two series that disagree on their times cannot share it."""
    listed = TransientReport(
        eligible=frozenset({1}),
        timeline=[(1.0, 0), (2.5, 1)],
        problem_timeline=[(1.0, 1), (2.5, 0)],
    )
    loaded = pickle.loads(pickle.dumps(listed))
    assert loaded == listed and loaded.disruption_duration == 1.5
    assert loaded.timeline.times is loaded.problem_timeline.times
    assert type(loaded.timeline.counts) is array
    untracked = pickle.loads(pickle.dumps(TransientReport()))
    assert untracked.timeline is untracked.problem_timeline == []
    skewed = dataclasses.replace(listed, problem_timeline=[(1.0, 1), (3.0, 0)])
    with pytest.raises(ValueError, match="disagree on their times"):
        pickle.loads(pickle.dumps(skewed))


def _pickled_classes(data):
    """The ``(module, name)`` of every global a pickle names, read off
    its opcodes: a memoized string comes back through a ``BINGET``."""
    memo, strings, found, previous = [], [], set(), None
    for opcode, arg, _ in pickletools.genops(data):
        name = opcode.name
        if name == "MEMOIZE":
            memo.append(previous)
            continue
        if name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8"):
            previous = arg
        elif name in ("BINGET", "LONG_BINGET"):
            previous = memo[arg]
        elif name == "STACK_GLOBAL":
            found.add(tuple(strings[-2:]))
            previous = None
        elif name == "GLOBAL":
            found.add(tuple(arg.split(" ")))
            previous = None
        else:
            previous = None
        if isinstance(previous, str):
            strings.append(previous)
    return found


@pytest.mark.parametrize("protocol", PLANES)
def test_a_pickled_run_names_no_new_class(tiny_graph, protocol):
    """A ledger record names the classes it named while series were
    lists: ``Timeline`` and ``array`` never reach a pickle."""
    data = pickle.dumps(
        _flap_run(tiny_graph, protocol), protocol=pickle.HIGHEST_PROTOCOL
    )
    assert _pickled_classes(data) == {
        ("repro.experiments.runner", "EpisodeRun"),
        ("repro.experiments.scenarios", "Episode"),
        ("repro.experiments.runner", "EpisodePhase"),
        ("repro.experiments.scenarios", "EpisodeEvent"),
        ("repro.experiments.scenarios", "EventKind"),
        ("repro.analysis.transient", "TransientReport"),
    }


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
