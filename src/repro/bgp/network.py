"""A full network of plain-BGP speakers for one destination prefix.

This is the BGP baseline of the paper's Figures 2-3 and the base class
of the R-BGP and STAMP networks, which supply only their per-AS object
(``_make_speaker``; the network calls ``on_session_up``,
``on_session_down``, ``originate``, ``is_origin``, ``reboot`` and
``dispose`` on it) and the data plane that reads their trace
(``data_plane``).  The lifecycle every experiment follows:

1. :meth:`start` — the destination originates; run to convergence.
2. clear the trace (done by :meth:`start`) — discard initial churn.
3. inject events (:meth:`fail_link`, :meth:`fail_as`, ...).
4. :meth:`run_to_convergence` — replay the reaction.
5. hand :attr:`trace` to the transient-problem analyzer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

from repro.bgp.speaker import BGPSpeaker, ProtocolStats, SpeakerConfig
from repro.errors import ConvergenceError, SimulationError
from repro.forwarding.bgp_plane import BGPDataPlane
from repro.forwarding.walk import WalkClassifier
from repro.sim.delays import DelayModel, UniformDelay
from repro.sim.engine import Engine
from repro.sim.timers import MRAIConfig
from repro.sim.tracing import ForwardingTrace
from repro.sim.transport import Transport
from repro.topology.graph import ASGraph
from repro.types import ASN, ASPath

#: Hard backstop against non-convergence bugs: the most events one
#: drain may process.
MAX_EVENTS_PER_PHASE = 20_000_000


@dataclass(frozen=True)
class NetworkConfig:
    """Simulation parameters shared by all protocol networks."""

    seed: int = 0
    delay: DelayModel = field(default_factory=UniformDelay)
    mrai: MRAIConfig = field(default_factory=MRAIConfig)


class BGPNetwork:
    """All speakers of one protocol instance over an AS graph."""

    #: Trace key used by the single process of each AS.
    TRACE_KEY: Hashable = None

    def __init__(
        self,
        graph: ASGraph,
        destination: ASN,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        if destination not in graph:
            raise ValueError(f"destination AS {destination} not in graph")
        self.graph = graph
        self.destination = destination
        self.config = config or NetworkConfig()
        self.engine = Engine(self.config.seed)
        self.transport = Transport(self.engine, self.config.delay)
        self.trace = ForwardingTrace()
        self.stats = ProtocolStats()
        self.speakers: Dict[ASN, BGPSpeaker] = {}
        for asn in graph.ases:
            speaker = self.speakers[asn] = self._make_speaker(asn)
            self.transport.register_session_down_listener(
                asn, speaker.on_session_down
            )

    # ------------------------------------------------------------------
    # Construction (overridden by protocol variants)
    # ------------------------------------------------------------------

    @functools.cached_property
    def _speaker_config(self) -> SpeakerConfig:
        """The one config every speaker of the network shares."""
        return SpeakerConfig(mrai=self.config.mrai)

    def _make_speaker(self, asn: ASN) -> BGPSpeaker:
        return BGPSpeaker(
            asn,
            self.graph,
            self.engine,
            self.transport,
            config=self._speaker_config,
            tag=self.TRACE_KEY,
            trace=self.trace,
            stats=self.stats,
        )

    def data_plane(self) -> WalkClassifier:
        """The forwarding walk that reads this network's trace."""
        return BGPDataPlane(self.destination)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> float:
        """Originate at the destination and run initial convergence.

        Returns the simulated time at which the network first converged.
        The trace is cleared afterwards so experiments see only
        post-event dynamics — recording is therefore suspended outright
        for the initial convergence instead of building throwaway
        change objects.
        """
        self.trace.suspend()
        try:
            self.speakers[self.destination].originate()
            self.run_to_convergence()
        finally:
            self.trace.resume()
        self.trace.clear()
        return self.engine.now

    def run_to_convergence(self) -> float:
        """Drain all protocol activity; returns elapsed simulated time.

        Raises :class:`ConvergenceError` if the event backstop trips
        (which would indicate a protocol bug — Gao-Rexford policies
        guarantee convergence).
        """
        return self._drain()

    def _drain(self) -> float:
        """:meth:`run_to_convergence` without any plane's epilogue."""
        started = self.engine.now
        try:
            self.engine.run(max_events=MAX_EVENTS_PER_PHASE)
        except SimulationError as exc:
            # Only the engine's own backstop means "did not converge";
            # any other exception is a genuine bug in an event callback
            # and must propagate unmasked.
            raise ConvergenceError(
                f"no convergence after {MAX_EVENTS_PER_PHASE} events"
            ) from exc
        return self.engine.now - started

    def dispose(self) -> None:
        """Break the network's internal reference cycles.

        A protocol network is a dense cyclic object graph (speakers ↔
        transport ↔ pacers ↔ pooled callbacks), which only the cyclic
        garbage collector could reclaim.  The experiment runner pauses
        that collector during simulation for speed, so it disposes each
        network when a run's results have been extracted — after this
        call the network must not be used again, and its memory is
        returned by plain reference counting.
        """
        self.transport.dispose()
        for speaker in self.speakers.values():
            speaker.dispose()
        self.speakers.clear()

    # ------------------------------------------------------------------
    # Event injection
    # ------------------------------------------------------------------

    def fail_link(self, a: ASN, b: ASN) -> None:
        """Fail a link now; both endpoints react immediately.

        Applied synchronously at the current simulated instant: both
        live endpoints receive their session-down notification (and
        record any resulting forwarding change) before this returns.
        """
        self.transport.fail_link(a, b)

    def restore_link(self, a: ASN, b: ASN) -> None:
        """Restore a failed link; both endpoints re-advertise.

        Deterministic re-establishment order: ``a``'s session comes up
        first, then ``b``'s — callers with no preference should pass
        the endpoints in a canonical (e.g. normalized-link) order.  The
        session-up handlers queue re-advertisements through the normal
        MRAI machinery, so the resulting updates propagate with
        ordinary message delays rather than instantaneously.

        When either endpoint AS is itself failed, only the transport's
        link state recovers — no session forms (mirroring
        ``fail_link``'s notify loop, which skips failed ASes).  The
        sessions re-establish later, when ``restore_as`` brings the
        dead endpoint back.
        """
        self.transport.restore_link(a, b)
        if self.transport.link_is_up(a, b):
            self.speakers[a].on_session_up(b)
            self.speakers[b].on_session_up(a)

    def fail_as(self, asn: ASN) -> None:
        """Fail an entire AS (all of its sessions reset).

        The failed AS's own speaker keeps its state (a router that
        lost power mid-state) and everything it emits — or receives —
        while down is dropped by the transport.  Its already-armed
        MRAI timers do still fire, so a flush whose Adj-RIB-Out went
        stale at the failure instant produces a send that the
        transport drops but the protocol ``stats`` count: update
        counters measure messages *sent*, not delivered.  This is the
        seed behavior of the single-instant node-failure figure and is
        deliberately left untouched; ``restore_as`` cancels the timers
        when the router reboots.
        """
        self.transport.fail_as(asn, self.graph.neighbors(asn))

    def restore_as(self, asn: ASN) -> None:
        """Bring a failed AS back up (maintenance over; cold restart).

        The restored router reboots with *empty* protocol state — a
        restart does not resurrect pre-failure RIBs — and sessions
        re-establish deterministically: the reboot first (a pure state
        reset of every process of the AS), then an origin re-originates,
        then each live neighbor's session comes up in ascending-ASN
        order, re-advertising its current best route to the restored
        AS.  No-op when the AS is not currently failed.
        """
        if self.transport.as_is_up(asn):
            return
        self.transport.restore_as(asn)
        live = [
            nbr
            for nbr in sorted(self.graph.neighbors(asn))
            if self.transport.link_is_up(asn, nbr)
        ]
        speaker = self.speakers[asn]
        speaker.reboot(live)
        if speaker.is_origin:
            speaker.originate()
        for nbr in live:
            self.speakers[nbr].on_session_up(asn)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def forwarding_state(self) -> Dict[Tuple[ASN, Hashable], Optional[ASPath]]:
        """Current forwarding state in the trace's key space."""
        return {
            (asn, self.TRACE_KEY): speaker.forwarding_path
            for asn, speaker in self.speakers.items()
        }

    def best_path(self, asn: ASN) -> Optional[ASPath]:
        """Full forwarding path of an AS including itself, or ``None``."""
        speaker = self.speakers[asn]
        if speaker.best is None:
            return None
        return (asn,) + speaker.best.path
