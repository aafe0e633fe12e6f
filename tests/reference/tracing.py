"""Copying replay of a forwarding trace: the reference analyzers' view.

The package replays a trace in place with
:meth:`repro.sim.tracing.ForwardingTrace.replay_onto`; the reference
analyzers (:mod:`reference.transient`) read it through this copying
wrapper, which leaves the caller's snapshot untouched.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, Tuple

from repro.sim.tracing import ForwardingTrace
from repro.types import ASN


def replay(
    trace: ForwardingTrace, initial: Dict[Tuple[ASN, Hashable], Any]
) -> Iterator[Tuple[float, Dict[Tuple[ASN, Hashable], Any]]]:
    """Yield ``(time, state)`` after applying each instant's changes.

    ``initial`` is the full forwarding state just before the first
    recorded change; the same (mutated) copy of it is yielded each
    time, so callers must not hold references across iterations.
    """
    for time, state, _ in trace.replay_onto(dict(initial)):
        yield time, state
