"""One STAMP-running AS: two coordinated color processes.

The node owns the paper's selective-announcement coordination (section
4.1).  Toward customers and peers both processes export freely; toward
providers the node enforces:

* the Lock chain — if the blue process holds a Lock-carrying route (or
  originates), exactly one provider (the *locked blue provider*)
  receives the blue announcement with Lock set;
* red precedence — every other provider receives the red route when
  the red process has an exportable one;
* blue fallback — providers that cannot be served red may receive the
  blue route with Lock unset ("not required to propagate" downstream);
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
from repro.stamp.coloring import BlueProviderSelector, RandomBlueSelector
from repro.topology.graph import ASGraph
from repro.types import ASN, Color, EventType, Link, RELATIONSHIP_PREFERENCE

from repro.forwarding.stamp_plane import unstable_key


def build_speaker_configs(
    mrai: MRAIConfig,
) -> Tuple[SpeakerConfig, SpeakerConfig]:
    """The (red, blue) speaker-config pair for one MRAI setting.

    Every STAMP node of a network uses the same two immutable configs,
    so the network builds this pair once and pools it across its nodes
    (and the nodes' reboots) instead of allocating two per AS.
    """
    return (
        SpeakerConfig(mrai=mrai, prefer_locked=False),
        SpeakerConfig(mrai=mrai, prefer_locked=True),
    )


class STAMPNode:
    """The pair of red/blue processes of one AS, plus coordination."""

    def __init__(
        self,
        asn: ASN,
        graph: ASGraph,
        engine: Engine,
        transport: Transport,
        *,
        speaker_configs: Tuple[SpeakerConfig, SpeakerConfig],
        trace: Optional[ForwardingTrace] = None,
        stats: Optional[ProtocolStats] = None,
        selector: Optional[BlueProviderSelector] = None,
        permissive_blue: bool = False,
        recolor_delay: float = 0.15,
    ) -> None:
        self.asn = asn
        self.graph = graph
        self.engine = engine
        self.selector = selector or RandomBlueSelector()
        #: Paper 4.1: providers other than the locked target may
        #: "possibly" receive the blue route without Lock.  Strict mode
        #: (default) skips this optional propagation — the locked chain
        #: already guarantees blue reachability everywhere, and the
        #: optional announcements add red/blue reassignment churn.
        self.permissive_blue = permissive_blue
        #: Graceful re-coloring (make-before-break): when a provider
        #: session flips color (e.g. the Lock chain migrates after a
        #: failure), the newly-assigned color is announced immediately
        #: while the old color's withdrawal is deferred by this many
        #: seconds.  Without it, the red teardown can race ahead of the
        #: blue build-up on the separate session, leaving downstream
        #: ASes with neither color for a few message delays — a STAMP
        #: dynamics wrinkle this reproduction surfaced
        #: (docs/architecture.md, "Where this reproduction departs
        #: from the paper").
        self.recolor_delay = recolor_delay
        self.trace = trace
        #: Static relationship views (the graph topology never changes
        #: during a simulation; failures are session events).  The
        #: graph's indexed views already hand out tuples, so they are
        #: referenced, not copied.
        self._providers: Tuple[ASN, ...] = graph.providers(asn)
        self._provider_set = frozenset(self._providers)
        self._customer_set = frozenset(graph.customers(asn))
        self.locked_blue_provider: Optional[ASN] = None
        self.unstable: Dict[Color, bool] = {Color.RED: False, Color.BLUE: False}
        # Both color processes of one AS see identical per-neighbor
        # preferences and relationships: derive the tables once and
        # share the dicts (the network-level pool hands every node the
        # same two SpeakerConfig instances the same way).
        rel_table = graph.neighbor_relationships(asn)
        pref_table = {
            neighbor: RELATIONSHIP_PREFERENCE[rel]
            for neighbor, rel in rel_table.items()
        }
        shared_tables = (pref_table, rel_table)

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
                shared_tables=shared_tables,
            )

        self.processes: Dict[Color, BGPSpeaker] = {
            Color.RED: make(Color.RED, speaker_configs[0]),
            Color.BLUE: make(Color.BLUE, speaker_configs[1]),
        }
        #: The (red, blue) pair as a tuple for allocation-free iteration
        #: on the refresh hot path.
        self._procs: Tuple[BGPSpeaker, BGPSpeaker] = (
            self.processes[Color.RED],
            self.processes[Color.BLUE],
        )

    @property
    def red(self) -> BGPSpeaker:
        """The red routing process."""
        return self.processes[Color.RED]

    @property
    def blue(self) -> BGPSpeaker:
        """The blue routing process."""
        return self.processes[Color.BLUE]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def originate(self) -> None:
        """Originate the prefix on both processes."""
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

    def reboot(self, peers) -> None:
        """Restart both color processes with empty state (AS restore).

        Red reboots first, then blue (the processes' fixed iteration
        order) — both as pure state resets, so no export or gate
        decision ever observes a half-rebooted sibling — then the
        locked-blue-provider assignment is forgotten (a restarted node
        re-selects when its blue process next holds a Lock obligation)
        and both instability flags clear.  Only after all of that does
        an origin node re-originate, red then blue: by then every gate
        evaluation runs against fully reset processes.
        """
        self.locked_blue_provider = None
        for process in self.processes.values():
            process.reboot(peers)
        self.clear_instability()
        for process in self.processes.values():
            if process.is_origin:
                process.originate()

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

    def _red_exportable_to_providers(self) -> bool:
        """Whether red has a route it may announce to providers."""
        red = self.red
        if red.is_origin:
            return True
        if red.best is None:
            return False
        return red.best.learned_from in self._customer_set

    def _locked_target(self, live_providers: List[ASN]) -> Optional[ASN]:
        """The provider currently chosen for the Lock chain."""
        if not live_providers:
            return None
        if (
            self.locked_blue_provider is not None
            and self.locked_blue_provider in live_providers
        ):
            return self.locked_blue_provider
        self.locked_blue_provider = self.selector.select(
            self.asn,
            live_providers,
            is_origin=self.blue.is_origin,
            rng=self.engine.rng,
        )
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
            return (True, color is Color.BLUE and has_lock)
        if color is Color.BLUE:
            if has_lock:
                target = self._locked_target(live)
                if peer == target:
                    return (True, True)
            if not self.permissive_blue:
                return (False, False)
            # Permissive: non-target providers get blue (unlocked) only
            # when red cannot serve them (red precedence, section 4.1).
            return (not self._red_exportable_to_providers(), False)
        # Red process: all providers except the locked blue target.
        if has_lock and peer == self._locked_target(live):
            return (False, False)
        return (True, False)

    def _refresh_providers(
        self,
        et: EventType,
        root_cause: Optional[Link] = None,
        changing: Optional[BGPSpeaker] = None,
    ) -> None:
        """Re-evaluate provider-direction exports of both processes.

        When a provider's session flips from one color to the other,
        the gaining color announces first and the losing color's
        withdrawal is deferred (`recolor_delay`), so downstream ASes
        never sit between the two sessions with no route at all.
        """
        recolor_delay = self.recolor_delay
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
                    if gains is not None and recolor_delay > 0:
                        # Deferred: state may shift before the timer
                        # fires, so the late refresh re-evaluates from
                        # scratch.  A deferred loss of the *deciding*
                        # process is additionally handed back to its
                        # own export fan-out (which runs right after
                        # this listener and passes over its gate
                        # peers): the speaker withdraws in its usual
                        # sorted-session position.
                        self.engine.schedule(
                            recolor_delay,
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
        self._set_unstable(color, et is EventType.LOSS)
        # Any best change may flip provider color assignments (red
        # precedence / lock chain), so both processes re-check — with
        # the decision's exact event context, which is why the changing
        # speaker's own export fan-out passes over its gate peers.
        self._refresh_providers(et, root_cause, changing=self.processes[color])

    def _set_unstable(self, color: Color, flag: bool) -> None:
        if self.unstable[color] == flag:
            return
        self.unstable[color] = flag
        if self.trace is not None:
            self.trace.record(
                self.engine.now, self.asn, unstable_key(color), flag
            )

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
