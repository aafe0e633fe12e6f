"""A full network of plain-BGP speakers for one destination prefix.

This is the BGP baseline of the paper's Figures 2-3 and the base class
of the R-BGP and STAMP networks, which supply only their per-AS object
(``_make_speaker``; the network calls ``on_session_up``,
``on_session_down``, ``originate`` and ``dispose`` on it) and the
data plane that reads their trace (``data_plane``).  The lifecycle
every experiment follows:

1. :meth:`start` — the destination originates; run to convergence.
2. clear the trace (done by :meth:`start`) — discard initial churn.
3. inject events (:meth:`fail_link`, :meth:`fail_as`, ...).
4. :meth:`run_to_convergence` — replay the reaction.
5. hand :attr:`trace` to the transient-problem analyzer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable, Optional, Tuple

from repro.bgp.speaker import BGPSpeaker, ProtocolStats, SpeakerConfig
from repro.errors import ConvergenceError, SimulationError
from repro.forwarding.bgp_plane import BGPDataPlane
from repro.forwarding.walk import WalkClassifier
from repro.sim.engine import Engine
from repro.sim.tracing import ForwardingTrace
from repro.sim.transport import Transport
from repro.topology.graph import ASGraph
from repro.types import ASN, ASPath

#: Hard backstop against non-convergence bugs: the most events one
#: drain may process.
MAX_EVENTS_PER_PHASE = 20_000_000

#: The one config every plain-BGP and R-BGP speaker shares: the paper's
#: 30 s MRAI (section 6.2).
_SPEAKER_CONFIG = SpeakerConfig()


class BGPNetwork:
    """All speakers of one protocol instance over an AS graph.

    A network is its graph, its destination and the seed of its engine;
    the model is the paper's (section 6.2): uniform 10-20 ms message
    delays and a 30 s MRAI.
    """

    #: Trace key used by the single process of each AS.
    TRACE_KEY: Hashable = None

    def __init__(
        self,
        graph: ASGraph,
        destination: ASN,
        *,
        seed: int = 0,
    ) -> None:
        if destination not in graph:
            raise ValueError(f"destination AS {destination} not in graph")
        self.graph = graph
        self.destination = destination
        self.engine = Engine(seed)
        self.transport = Transport(self.engine)
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

    def _make_speaker(self, asn: ASN) -> BGPSpeaker:
        return BGPSpeaker(
            asn,
            self.graph,
            self.engine,
            self.transport,
            config=_SPEAKER_CONFIG,
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

    def fork(self) -> "BGPNetwork":
        """An independent twin of this drained network.

        The twin has its own engine (same clock, sequence and generator
        state), transport (same failure sets and counters), a copy of
        the trace and of the message counters, and one fork per
        speaker; it shares the graph, the configs and everything else
        that nothing mutates.  Running either network leaves the other
        as it was.  Raises :class:`SimulationError` while events are
        queued.  A plane whose per-AS object has no ``fork`` (STAMP's
        node) cannot be forked.
        """
        engine = self.engine.fork()
        transport = self.transport.fork(engine)
        trace = ForwardingTrace(self.trace.changes.copy())
        stats = replace(self.stats)
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.engine = engine
        twin.transport = transport
        twin.trace = trace
        twin.stats = stats
        twin.speakers = {}
        for asn, speaker in self.speakers.items():
            forked = twin.speakers[asn] = speaker.fork(
                engine, transport, trace, stats
            )
            transport.register_session_down_listener(asn, forked.on_session_down)
        return twin

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
        ``fail_link``'s notify loop, which skips failed ASes); a failed
        AS stays failed for the rest of the run.
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
        deliberately left untouched.  As in the paper, a failed AS
        stays failed for the rest of the run.
        """
        self.transport.fail_as(asn, self.graph.neighbors(asn))

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
