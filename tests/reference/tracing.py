"""Replays of a forwarding trace outside the analyzer.

The package replays a trace only inside the analyzer, one change at a
time onto its table
(:meth:`repro.analysis.transient._IncrementalScan.replay`).  The
reference analyzers (:mod:`reference.transient`) and the live
collector's completeness check read it instant by instant through
:func:`replay_onto` (in place) and :func:`replay` (a copying wrapper
that leaves the caller's snapshot untouched).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, Tuple

from repro.sim.tracing import ForwardingTrace
from repro.types import ASN


def replay_onto(
    trace: ForwardingTrace, state: Dict[Tuple[ASN, Hashable], Any]
) -> Iterator[Tuple[float, Dict[Tuple[ASN, Hashable], Any], set]]:
    """Yield ``(time, state, changed)`` after each instant's changes.

    ``state`` is the full forwarding state just before the first
    recorded change; it is updated in place and yielded each time.

    The third element is the set of keys whose value differs from
    the previous instant (recording the same value again does not
    count); incremental analyzers re-examine only the walks that
    depend on them.  A run cut into consecutive traces (an
    episode's phases) replays as one lineage: the dict one trace
    leaves behind is the next one's starting state.
    """
    state_get = state.get
    pending = trace.changes  # ordered by construction (see record)
    index = 0
    total = len(pending)
    absent = object()
    while index < total:
        time = pending[index].time
        changed: set = set()
        changed_add = changed.add
        while index < total and pending[index].time == time:
            change = pending[index]
            key = (change.asn, change.key)
            if state_get(key, absent) != change.state:
                state[key] = change.state
                changed_add(key)
            index += 1
        yield time, state, changed


def replay(
    trace: ForwardingTrace, initial: Dict[Tuple[ASN, Hashable], Any]
) -> Iterator[Tuple[float, Dict[Tuple[ASN, Hashable], Any]]]:
    """Yield ``(time, state)`` after applying each instant's changes.

    ``initial`` is the full forwarding state just before the first
    recorded change; the same (mutated) copy of it is yielded each
    time, so callers must not hold references across iterations.
    """
    for time, state, _ in replay_onto(trace, dict(initial)):
        yield time, state
