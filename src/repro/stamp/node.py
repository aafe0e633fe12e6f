"""One STAMP-running AS: two coordinated color processes.

The node owns the paper's selective-announcement coordination (section
4.1).  Toward customers and peers both processes export freely; toward
providers the node enforces:

* the Lock chain — if the blue process holds a Lock-carrying route (or
  originates), exactly one provider (the *locked blue provider*)
  receives the blue announcement with Lock set;
* red precedence — every other provider receives the red route when
  the red process has an exportable one, and never the blue one (the
  optional unlocked blue announcements of section 4.1 are not made:
  the Lock chain already gives every AS a blue path);
* the single-homed exception (footnote 4) — an AS with one provider
  announces both colors to it, deferring the coloring split to its
  first multi-homed (direct or indirect) provider.

The node also maintains the per-process instability flag driven by the
ET attribute (section 5.2), which the data plane consults.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bgp.ribs import Route
from repro.bgp.speaker import BGPSpeaker, ProtocolStats, SpeakerConfig
from repro.sim.engine import Engine
from repro.sim.tracing import ForwardingTrace
from repro.sim.transport import Transport
from repro.sim.timers import MRAIConfig
from repro.topology.graph import ASGraph
from repro.types import ASN, Color, EventType, Link

from repro.forwarding.stamp_plane import unstable_key

#: Bound once: an enum member looked up through its class costs as much
#: as two method calls, and the gate and the change listener run once
#: per provider evaluation and per best-route change.
_BLUE = Color.BLUE
_LOSS = EventType.LOSS


def build_speaker_configs(
    mrai: MRAIConfig,
) -> Tuple[SpeakerConfig, SpeakerConfig]:
    """The (red, blue) speaker-config pair for one MRAI setting.

    Every STAMP node of a network uses the same two immutable configs,
    so the network builds this pair once and pools it across its nodes
    instead of allocating two per AS.
    """
    return (
        SpeakerConfig(mrai=mrai, prefer_locked=False),
        SpeakerConfig(mrai=mrai, prefer_locked=True),
    )


class STAMPNode:
    """The pair of red/blue processes of one AS, plus coordination."""

    #: Graceful re-coloring (make-before-break): when a provider session
    #: flips color (e.g. the Lock chain migrates after a failure), the
    #: newly-assigned color is announced immediately while the old
    #: color's withdrawal is deferred by this many seconds.  Without it,
    #: the red teardown can race ahead of the blue build-up on the
    #: separate session, leaving downstream ASes with neither color for
    #: a few message delays — a STAMP dynamics wrinkle this reproduction
    #: surfaced (docs/architecture.md, "Where this reproduction departs
    #: from the paper").
    RECOLOR_DELAY = 0.15

    def __init__(
        self,
        asn: ASN,
        graph: ASGraph,
        engine: Engine,
        transport: Transport,
        *,
        speaker_configs: Tuple[SpeakerConfig, SpeakerConfig],
        trace: ForwardingTrace,
        stats: ProtocolStats,
    ) -> None:
        self.asn = asn
        self.graph = graph
        self.engine = engine
        self.trace = trace
        #: Static relationship views (the graph topology never changes
        #: during a simulation; failures are session events).  The
        #: graph's indexed views already hand out tuples, so they are
        #: referenced, not copied.
        self._providers: Tuple[ASN, ...] = graph.providers(asn)
        self._provider_set = frozenset(self._providers)
        self.locked_blue_provider: Optional[ASN] = None
        self.unstable: Dict[Color, bool] = {Color.RED: False, Color.BLUE: False}

        def make(color: Color, config: SpeakerConfig) -> BGPSpeaker:
            return BGPSpeaker(
                asn,
                graph,
                engine,
                transport,
                config=config,
                tag=color,
                trace=trace,
                stats=stats,
                export_gate=lambda peer, route, c=color: self._gate(c, peer, route),
                # Selective announcement only restricts the provider
                # direction; customers and peers always get (True, False),
                # so the speaker exports to them gate-free.
                # _provider_set is already a frozenset: no copy is made.
                gate_peers=self._provider_set,
                on_best_change=(
                    lambda spk, old, new, et, rc, c=color: self._on_change(
                        c, old, new, et, rc
                    )
                ),
            )

        #: The red and blue routing processes.  Both read the graph's
        #: one pair of neighbor tables for this AS.
        self.red: BGPSpeaker = make(Color.RED, speaker_configs[0])
        self.blue: BGPSpeaker = make(Color.BLUE, speaker_configs[1])
        self.processes: Dict[Color, BGPSpeaker] = {
            Color.RED: self.red,
            Color.BLUE: self.blue,
        }
        #: The (red, blue) pair as a tuple for allocation-free iteration
        #: on the refresh hot path.
        self._procs: Tuple[BGPSpeaker, BGPSpeaker] = (self.red, self.blue)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def originate(self) -> None:
        """Originate the prefix on both processes, red then blue."""
        self.red.originate()
        self.blue.originate()

    def on_session_down(self, peer: ASN) -> None:
        """A physical link to a neighbor went down: both sessions reset."""
        if self.locked_blue_provider == peer:
            self.locked_blue_provider = None
        self.red.on_session_down(peer)
        self.blue.on_session_down(peer)
        self._refresh_providers(EventType.LOSS)

    def on_session_up(self, peer: ASN) -> None:
        """A link came (back) up: both sessions re-establish."""
        self.red.on_session_up(peer)
        self.blue.on_session_up(peer)
        self._refresh_providers(EventType.NO_LOSS)

    def dispose(self) -> None:
        """Drop the gate and best-change closures that cycle back here."""
        for process in self.processes.values():
            process.dispose()
        self.processes.clear()

    # ------------------------------------------------------------------
    # Coordination: selective announcement toward providers
    # ------------------------------------------------------------------

    def _live_providers(self) -> List[ASN]:
        """Providers with a live physical link (both processes share
        physical links, so the red process's sessions answer)."""
        sessions = self.red.sessions
        return [p for p in self._providers if p in sessions]

    def _blue_has_lock(self) -> bool:
        """Whether blue holds a Lock obligation (or originates)."""
        blue = self.blue
        if blue.is_origin:
            return True
        return blue.best is not None and blue.best.lock

    def _locked_target(self, live_providers: List[ASN]) -> Optional[ASN]:
        """The provider currently chosen for the Lock chain."""
        if not live_providers:
            return None
        if (
            self.locked_blue_provider is not None
            and self.locked_blue_provider in live_providers
        ):
            return self.locked_blue_provider
        # A random pick, as every AS makes it in the paper (section 4.1).
        self.locked_blue_provider = self.engine.rng.choice(live_providers)
        return self.locked_blue_provider

    def _gate(self, color: Color, peer: ASN, route: Route) -> Tuple[bool, bool]:
        """Selective-announcement decision for one (color, neighbor).

        Called by the speaker for providers only (its ``gate_peers``),
        after the valley-free export filter passed.  Returns
        ``(allow, lock)``.
        """
        live = self._live_providers()
        has_lock = self._blue_has_lock()
        if len(live) <= 1:
            # Single-homed: both colors to the sole provider; the Lock
            # obligation transfers upward (footnote 4).
            return (True, color is _BLUE and has_lock)
        # The locked blue target hears blue with Lock set and no red;
        # every other provider hears red only (strict section 4.1).
        locked = has_lock and peer == self._locked_target(live)
        if color is _BLUE:
            return (locked, locked)
        return (not locked, False)

    def _refresh_providers(
        self,
        et: EventType,
        root_cause: Optional[Link] = None,
        changing: Optional[BGPSpeaker] = None,
    ) -> None:
        """Re-evaluate provider-direction exports of both processes.

        When a provider's session flips from one color to the other,
        the gaining color announces first and the losing color's
        withdrawal is deferred (:attr:`RECOLOR_DELAY`), so downstream
        ASes never sit between the two sessions with no route at all.
        """
        for provider in self._providers:
            gains: Optional[List[Tuple[BGPSpeaker, object]]] = None
            losses: Optional[List[BGPSpeaker]] = None
            for process in self._procs:
                advertising = process.is_advertising(provider)
                desired = process.export_for(provider)
                if desired is not None and not advertising:
                    if gains is None:
                        gains = []
                    gains.append((process, desired))
                elif advertising and desired is None:
                    if losses is None:
                        losses = []
                    losses.append(process)
                else:
                    # Same-color refresh (e.g. path change): immediate.
                    # The export was just evaluated; hand it through so
                    # the speaker does not re-run the gate.
                    process.refresh_peer(
                        provider, et=et, root_cause=root_cause, desired=desired
                    )
            if gains is not None:
                for process, desired in gains:
                    process.refresh_peer(
                        provider, et=et, root_cause=root_cause, desired=desired
                    )
            if losses is not None:
                for process in losses:
                    if gains is not None:
                        # Deferred: state may shift before the timer
                        # fires, so the late refresh re-evaluates from
                        # scratch.  A deferred loss of the *deciding*
                        # process is additionally handed back to its
                        # own export fan-out (which runs right after
                        # this listener and passes over its gate
                        # peers): the speaker withdraws in its usual
                        # sorted-session position.
                        self.engine.schedule(
                            self.RECOLOR_DELAY,
                            lambda p=provider, proc=process: proc.refresh_peer(p),
                        )
                        if process is changing:
                            process.gate_refresh_queue(provider)
                    else:
                        process.refresh_peer(
                            provider, et=et, root_cause=root_cause, desired=None
                        )

    # ------------------------------------------------------------------
    # ET-driven instability tracking
    # ------------------------------------------------------------------

    def _on_change(
        self,
        color: Color,
        old: Optional[Route],
        new: Optional[Route],
        et: EventType,
        root_cause: Optional[Link] = None,
    ) -> None:
        self._set_unstable(color, et is _LOSS)
        # Any best change may flip provider color assignments (red
        # precedence / lock chain), so both processes re-check — with
        # the decision's exact event context, which is why the changing
        # speaker's own export fan-out passes over its gate peers.
        self._refresh_providers(et, root_cause, changing=self.processes[color])

    def _set_unstable(self, color: Color, flag: bool) -> None:
        if self.unstable[color] == flag:
            return
        self.unstable[color] = flag
        self.trace.record(self.engine.now, self.asn, unstable_key(color), flag)

    def clear_instability(self) -> None:
        """Reset both flags (convergence reached; routes are stable)."""
        for color in (Color.RED, Color.BLUE):
            self._set_unstable(color, False)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def best_path(self, color: Color):
        """Full forwarding path of one color including this AS."""
        best = self.processes[color].best
        if best is None:
            return None
        return (self.asn,) + best.path

    def forwarding_state(self) -> Dict:
        """This node's slice of the trace key space."""
        state: Dict = {}
        for color, process in self.processes.items():
            state[(self.asn, color)] = process.forwarding_path
            state[(self.asn, unstable_key(color))] = self.unstable[color]
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"STAMPNode(asn={self.asn}, "
            f"red={self.red.forwarding_path}, blue={self.blue.forwarding_path}, "
            f"lock_target={self.locked_blue_provider})"
        )
