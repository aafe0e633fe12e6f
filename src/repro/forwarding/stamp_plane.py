"""Data plane of STAMP: color-tagged packets with one allowed switch.

Snapshot state (per the STAMP network's trace):

* ``(asn, Color.RED)`` / ``(asn, Color.BLUE)`` — current best path of
  each color process (announcer-first) or ``None``;
* ``(asn, ('unstable', color))`` — whether that process is currently
  flagged unstable (lost a route / received ET=0 since the event).

Forwarding rules (paper section 5):

* the source assigns the initial color: its stable active process,
  preferring blue, falling back to any process with a route;
* a transit AS forwards a color-c packet on its color-c route when that
  route is up and stable;
* if the color-c route is unstable or unusable, the AS switches the
  packet to the other color — at most once per packet (loop guard from
  [12]);
* an already-switched packet must follow its color or be dropped.

The walk-state space is exactly ``(AS, color, switched?)``, so on the
successor table (:class:`repro.forwarding.walk.SuccessorTable`) STAMP
is four states per AS, and the only plane whose sources choose among
their own states (:meth:`_STAMPTable._derive` returns the start state
alongside the four successor entries).
"""

from __future__ import annotations

from typing import Tuple

from repro.forwarding.walk import SuccessorTable, WalkClassifier
from repro.types import Color

_RED, _BLUE = Color.RED, Color.BLUE

_RED_UNSTABLE = ("unstable", _RED)
_BLUE_UNSTABLE = ("unstable", _BLUE)


def unstable_key(color: Color) -> Tuple[str, Color]:
    """Trace key of a color process's instability flag."""
    return _RED_UNSTABLE if color is _RED else _BLUE_UNSTABLE


class _STAMPTable(SuccessorTable):
    """Four states per AS: (red, red-switched, blue, blue-switched).

    Columns: red next hop, blue next hop, red unstable?, blue
    unstable? — walks only look at a route's next hop, and at the
    whole (boolean) flag.
    """

    k = 4
    slots = 4
    hop_slots = 2

    def _project(self, tag, value):
        if tag is _RED:
            return 0, (value[0] if value else None)
        if tag is _BLUE:
            return 1, (value[0] if value else None)
        return (2 if tag[1] is _RED else 3), bool(value)

    def _derive(self, i: int):
        hop_red, hop_blue, unstable_red, unstable_blue = self.proj
        asn = self.asns[i]
        # State-index base of each color's usable next hop, or -1.
        nr = self._usable(asn, hop_red[i])
        if nr >= 0:
            nr *= 4
        nb = self._usable(asn, hop_blue[i])
        if nb >= 0:
            nb *= 4
        red_stable = nr >= 0 and not unstable_red[i]
        blue_stable = nb >= 0 and not unstable_blue[i]
        base = 4 * i
        # Per color, in order: stable forward > one-time switch >
        # unstable ride > blackhole.  A switched packet (odd offsets)
        # follows its color or drops.
        if red_stable:
            s0 = nr
        elif nb >= 0:
            s0 = nb + 3
        else:
            s0 = nr
        s1 = nr + 1 if nr >= 0 else -1
        if blue_stable:
            s2 = nb + 2
        elif nr >= 0:
            s2 = nr + 1
        else:
            s2 = nb + 2 if nb >= 0 else -1
        s3 = nb + 3 if nb >= 0 else -1
        # Source color: stable blue > stable red > any blue > any red.
        if blue_stable or (nb >= 0 and not red_stable):
            start = base + 2
        elif nr >= 0:
            start = base
        else:
            start = -1
        return start, s0, s1, s2, s3


class STAMPDataPlane(WalkClassifier):
    """Walks color-carrying packets with the switch-once rule."""

    def _session_table(self, state, failed_links, failed_ases) -> _STAMPTable:
        return _STAMPTable(self, state, failed_links, failed_ases)
