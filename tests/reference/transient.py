"""Full-rescan transient analyzers: the incremental analyzer's twins.

:func:`_reference_analyze_transient_problems` re-classifies every
eligible AS at every instant of one event's trace, and
:func:`_reference_analyze_episode_transient_problems` does the same
across an episode's phases, with one snapshot per phase.  Both classify
through the scalar walks (:func:`reference.walk.classify`).  The
equivalence tests pin
:func:`repro.analysis.transient.analyze_transient_problems` and
:func:`repro.analysis.transient.analyze_episode_transient_problems` to
them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from reference.tracing import replay
from reference.walk import classify, classify_batch
from repro.analysis.transient import (
    EpisodeSegment,
    EpisodeTransientReport,
    TransientReport,
)
from repro.forwarding.walk import WalkClassifier
from repro.sim.tracing import ForwardingTrace
from repro.types import ASN, Link, Outcome


def _episode_eligibility(
    plane: WalkClassifier,
    segments: Sequence[EpisodeSegment],
    initial_state: Dict,
    all_ases: List[ASN],
) -> Set[ASN]:
    """Pre-episode connectivity baseline minus every ever-failed AS.

    The reference twin's copy of the rule: the baseline classification
    ignores failure sets (pre-event connectivity — the post-initial-
    convergence control plane has already routed around any pre-failed
    links), and ASes that are themselves failed at any point of the
    episode cannot "experience" transient problems.
    """
    baseline = classify_batch(plane, initial_state, all_ases)
    ever_failed: Set[ASN] = set()
    for segment in segments:
        ever_failed |= segment.failed_ases
    return {
        asn for asn in all_ases if baseline.get(asn) is Outcome.DELIVERED
    } - ever_failed


def _mutable_report() -> TransientReport:
    """A report whose sets and series the reference twins fill in
    place: its series are plain lists of pairs, which compare equal to
    the analyzer's flat ones."""
    return TransientReport(
        affected=set(), permanently_unreachable=set(), looped=set(),
        blackholed=set(), timeline=[], problem_timeline=[],
    )


def _reference_analyze_episode_transient_problems(
    segments: Sequence[EpisodeSegment],
    initial_states: Sequence[Dict],
    plane: WalkClassifier,
    ases: Iterable[ASN],
    *,
    min_duration: float = 0.0,
) -> EpisodeTransientReport:
    """Full-rescan episode analyzer (the brute-force equivalence twin).

    Classifies every eligible AS at every instant of every segment via
    :func:`reference.walk.classify`, with the identical boundary-scan
    and interval-bridging semantics as the incremental implementation.
    Brute force in its input too: one snapshot *per segment*, which
    the test-side collector photographs off the live network, so no
    phase's starting state is derived from the trace under check.
    """
    segments = list(segments)
    assert len(initial_states) == len(segments)
    if not segments:
        return EpisodeTransientReport(overall=TransientReport())
    all_ases = list(ases)
    phases = [
        _reference_analyze_transient_problems(
            segment.trace,
            initial_state,
            plane,
            all_ases,
            failed_links=segment.failed_links,
            failed_ases=segment.failed_ases,
            min_duration=min_duration,
        )
        for segment, initial_state in zip(segments, initial_states)
    ]
    report = _mutable_report()
    report.eligible = _episode_eligibility(
        plane, segments, initial_states[0], all_ases
    )
    if not report.eligible:
        return EpisodeTransientReport(overall=report, phases=phases)
    eligible = report.eligible

    problem_since: Dict[ASN, Tuple[float, Set[Outcome]]] = {}
    outcome_of: Dict[ASN, Outcome] = {}
    last_time = 0.0
    scanned_any = False

    def close_interval(asn: ASN, end: float) -> None:
        start, kinds = problem_since.pop(asn)
        if end - start < min_duration:
            return
        report.affected.add(asn)
        if Outcome.LOOP in kinds:
            report.looped.add(asn)
        if Outcome.BLACKHOLE in kinds:
            report.blackholed.add(asn)

    def scan(segment: EpisodeSegment, state: Dict, time: float) -> None:
        nonlocal last_time, scanned_any
        outcomes = classify(
            plane,
            state,
            eligible,
            failed_links=segment.failed_links,
            failed_ases=segment.failed_ases,
        )
        problems_now = 0
        for asn in eligible:
            outcome = outcomes.get(asn, Outcome.BLACKHOLE)
            outcome_of[asn] = outcome
            if outcome is Outcome.DELIVERED:
                if asn in problem_since:
                    close_interval(asn, time)
                continue
            problems_now += 1
            if asn not in problem_since:
                problem_since[asn] = (time, set())
            problem_since[asn][1].add(outcome)
        report.timeline.append((time, len(report.affected)))
        report.problem_timeline.append((time, problems_now))
        last_time = time
        scanned_any = True

    final_state: Dict = {}
    for index, (segment, initial_state) in enumerate(
        zip(segments, initial_states)
    ):
        changes = segment.trace.changes
        if index > 0 and (not changes or changes[0].time > segment.start_time):
            scan(segment, dict(initial_state), segment.start_time)
        final_state = dict(initial_state)
        for time, state in replay(segment.trace, initial_state):
            scan(segment, state, time)
            final_state = state

    last = segments[-1]
    if not scanned_any:
        final_outcomes = classify(
            plane,
            final_state,
            eligible,
            failed_links=last.failed_links,
            failed_ases=last.failed_ases,
        )
        outcome_of.update(
            (asn, final_outcomes.get(asn, Outcome.BLACKHOLE)) for asn in eligible
        )
    for asn in eligible:
        if outcome_of.get(asn, Outcome.BLACKHOLE) is not Outcome.DELIVERED:
            report.permanently_unreachable.add(asn)
            problem_since.pop(asn, None)
    for asn in list(problem_since):
        close_interval(asn, last_time)
    report.affected -= report.permanently_unreachable
    report.looped -= report.permanently_unreachable
    report.blackholed -= report.permanently_unreachable
    return EpisodeTransientReport(overall=report, phases=phases)


def _reference_analyze_transient_problems(
    trace: ForwardingTrace,
    initial_state: Dict,
    plane: WalkClassifier,
    ases: Iterable[ASN],
    *,
    failed_links: FrozenSet[Link] = frozenset(),
    failed_ases: FrozenSet[ASN] = frozenset(),
    min_duration: float = 0.0,
) -> TransientReport:
    """Full-rescan analyzer (pre-optimization behavior).

    Re-classifies every eligible AS at every instant.  Kept as the
    brute-force reference the incremental implementation is pinned to
    in the equivalence tests.
    """
    report = _mutable_report()
    all_ases = list(ases)

    baseline = classify(plane, initial_state, all_ases)
    report.eligible = (
        {asn for asn in all_ases if baseline.get(asn) is Outcome.DELIVERED}
        - set(failed_ases)
    )
    if not report.eligible:
        return report

    eligible = report.eligible

    problem_since: Dict[ASN, Tuple[float, Set[Outcome]]] = {}
    last_time = 0.0

    def close_interval(asn: ASN, end: float) -> None:
        start, kinds = problem_since.pop(asn)
        if end - start < min_duration:
            return
        report.affected.add(asn)
        if Outcome.LOOP in kinds:
            report.looped.add(asn)
        if Outcome.BLACKHOLE in kinds:
            report.blackholed.add(asn)

    def scan(state: Dict, time: float) -> None:
        outcomes = classify(
            plane, state, eligible,
            failed_links=failed_links, failed_ases=failed_ases,
        )
        problems_now = 0
        for asn in eligible:
            outcome = outcomes.get(asn, Outcome.BLACKHOLE)
            if outcome is Outcome.DELIVERED:
                if asn in problem_since:
                    close_interval(asn, time)
                continue
            problems_now += 1
            if asn not in problem_since:
                problem_since[asn] = (time, set())
            problem_since[asn][1].add(outcome)
        report.timeline.append((time, len(report.affected)))
        report.problem_timeline.append((time, problems_now))

    final_state = dict(initial_state)
    for time, state in replay(trace, initial_state):
        scan(state, time)
        final_state = state
        last_time = time

    final_outcomes = classify(
        plane, final_state, eligible,
        failed_links=failed_links, failed_ases=failed_ases,
    )
    for asn in eligible:
        if final_outcomes.get(asn, Outcome.BLACKHOLE) is not Outcome.DELIVERED:
            report.permanently_unreachable.add(asn)
            problem_since.pop(asn, None)
    for asn in list(problem_since):
        close_interval(asn, last_time)
    report.affected -= report.permanently_unreachable
    report.looped -= report.permanently_unreachable
    report.blackholed -= report.permanently_unreachable
    return report
