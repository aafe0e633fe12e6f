"""Forwarding-change tracing.

Protocol simulators report every change to an AS's forwarding choice
(next hop, per color for STAMP); the transient-problem analyzer replays
the resulting timeline, walking the data plane at each instant where
anything changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, List

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
    """Ordered log of forwarding changes.

    The transient analyzer (:mod:`repro.analysis.transient`) replays
    it in place, one change at a time.
    """

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

    @property
    def suspended(self) -> bool:
        """Whether :meth:`suspend` is in force (nothing is recorded)."""
        return "record" in self.__dict__

    def resume(self) -> None:
        """Re-enable recording after :meth:`suspend`."""
        self.__dict__.pop("record", None)
