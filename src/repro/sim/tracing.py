"""Forwarding-change tracing.

Protocol simulators report every change to an AS's forwarding choice
(next hop, per color for STAMP); the transient-problem analyzer replays
the resulting timeline, walking the data plane at each instant where
anything changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.types import ASN


class ForwardingChange:
    """One timestamped change of an AS's forwarding state.

    ``key`` distinguishes parallel processes (e.g. STAMP colors) and
    ``state`` is protocol-defined (typically the next hop or the full
    route); ``None`` means "no route".

    Hand-written ``__slots__`` class: one instance is appended per
    forwarding change, which puts construction on the simulation hot
    path.  Treat instances as immutable.
    """

    __slots__ = ("time", "asn", "key", "state")

    def __init__(self, time: float, asn: ASN, key: Hashable, state: Any) -> None:
        self.time = time
        self.asn = asn
        self.key = key
        self.state = state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForwardingChange):
            return NotImplemented
        return (
            self.time == other.time
            and self.asn == other.asn
            and self.key == other.key
            and self.state == other.state
        )

    def __hash__(self) -> int:
        return hash((self.time, self.asn, self.key, self.state))

    def __repr__(self) -> str:
        return (
            f"ForwardingChange(time={self.time!r}, asn={self.asn!r}, "
            f"key={self.key!r}, state={self.state!r})"
        )


def _record_suspended(time, asn, key, state) -> None:
    """No-op recorder installed by :meth:`ForwardingTrace.suspend`."""


@dataclass
class ForwardingTrace:
    """Ordered log of forwarding changes plus snapshot replay."""

    changes: List[ForwardingChange] = field(default_factory=list)

    def record(self, time: float, asn: ASN, key: Hashable, state: Any) -> None:
        """Append one change (times must be non-decreasing).

        The ordering contract is enforced here so replay can consume
        the log as-is instead of re-sorting it per analysis.
        """
        changes = self.changes
        if changes and time < changes[-1].time:
            raise ValueError(
                f"forwarding change at {time} recorded after {changes[-1].time}"
            )
        changes.append(ForwardingChange(time, asn, key, state))

    def clear(self) -> None:
        """Drop all recorded changes (e.g. after initial convergence)."""
        self.changes.clear()

    def suspend(self) -> None:
        """Stop recording (e.g. during initial convergence).

        Networks discard everything recorded before their start
        completes (:meth:`clear`), so the changes need not be built in
        the first place; recording is re-enabled with :meth:`resume`.
        The per-instance method shadow keeps the enabled path free of
        any flag check.
        """
        self.record = _record_suspended

    def resume(self) -> None:
        """Re-enable recording after :meth:`suspend`."""
        self.__dict__.pop("record", None)

    def distinct_times(self) -> List[float]:
        """Sorted unique timestamps at which anything changed."""
        return sorted({change.time for change in self.changes})

    def replay(
        self, initial: Dict[Tuple[ASN, Hashable], Any]
    ) -> Iterator[Tuple[float, Dict[Tuple[ASN, Hashable], Any]]]:
        """Yield ``(time, state)`` after applying each instant's changes.

        ``initial`` is the full forwarding state just before the first
        recorded change; the same (mutated) dict is yielded each time,
        so callers must not hold references across iterations.
        """
        for time, state, _ in self.replay_with_changes(initial):
            yield time, state

    def replay_with_changes(
        self, initial: Dict[Tuple[ASN, Hashable], Any]
    ) -> Iterator[Tuple[float, Dict[Tuple[ASN, Hashable], Any], set]]:
        """Like :meth:`replay`, but also yields the keys that changed.

        The third element is the set of state keys whose value actually
        differs from the previous instant (recording the same value
        again does not count); incremental analyzers re-examine only
        walks that depend on those keys.  Keys absent from ``initial``
        always count as changed on first write.
        """
        return self.replay_onto(dict(initial))

    def replay_onto(
        self, state: Dict[Tuple[ASN, Hashable], Any]
    ) -> Iterator[Tuple[float, Dict[Tuple[ASN, Hashable], Any], set]]:
        """:meth:`replay_with_changes` written into ``state`` itself.

        A run cut into consecutive traces (an episode's phases) replays
        as one lineage: the dict one trace leaves behind is the next
        one's starting state, with no copy per cut.
        """
        state_get = state.get
        pending = self.changes  # ordered by construction (see record)
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
