"""Reliable FIFO message transport between AS neighbors.

Each ordered pair of adjacent ASes gets an independent channel.  A
channel delivers messages in order (BGP runs over TCP) with a sampled
per-message delay; messages in flight when the underlying link fails
are lost, and both endpoints get a session-down notification at the
failure instant (BGP's session reset).

Channels are keyed by an optional ``tag`` so that STAMP's red and blue
processes get their own sessions over the same physical link, exactly
like running two BGP processes on distinct TCP ports.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, Iterable, List, Set, Tuple

from repro.errors import SimulationError
from repro.sim.delays import DELAY_HIGH, DELAY_LOW, DelayModel, UniformDelay
from repro.sim.engine import Engine
from repro.types import ASN, Link, normalize_link

#: Callback invoked when a message arrives: (sender, message).
Receiver = Callable[[ASN, Any], None]
#: Callback invoked when the session to a neighbor resets: (neighbor,).
SessionDownListener = Callable[[ASN], None]


class _Channel:
    """One direction of one (possibly tagged) session.

    Pooled across messages: the channel owns a FIFO queue and a single
    bound ``deliver`` callback that the engine re-schedules per
    message, instead of allocating a fresh delivery closure per send.
    Per-channel delivery times are strictly increasing (FIFO epsilon),
    so the queue's head is always the message belonging to the next
    scheduled delivery.
    """

    __slots__ = (
        "transport",
        "src",
        "dst",
        "tag",
        "last_delivery",
        "queue",
        "receiver",
        "deliver",
        "pending_losses",
    )

    def __init__(self, transport: "Transport", src: ASN, dst: ASN, tag: Hashable) -> None:
        self.transport = transport
        self.src = src
        self.dst = dst
        self.tag = tag
        self.last_delivery = 0.0
        self.queue: Deque[Any] = deque()
        #: Receiver resolved on first delivery (registrations are
        #: register-once, so the binding can never change afterwards).
        self.receiver: Receiver | None = None
        #: The one bound method the engine schedules for every message.
        self.deliver = self._deliver
        #: Head-of-queue messages already condemned by a failure event
        #: (see :meth:`lose_in_flight`); consumed FIFO at delivery.
        self.pending_losses = 0

    def lose_in_flight(self) -> None:
        """Condemn every currently queued message (a failure instant).

        Loss must be decided *at the failure*, not at delivery time: a
        link or AS that recovers within one message delay (an episode's
        instantaneous power-cycle) must still have killed whatever was
        in flight when it went down.  The engine's delivery events stay
        scheduled — each pops its message and counts it lost instead of
        delivering; messages queued after a recovery sit behind the
        condemned prefix and deliver normally.
        """
        self.pending_losses = len(self.queue)

    def _deliver(self) -> None:
        transport = self.transport
        message = self.queue.popleft()
        if self.pending_losses:
            # Condemned by a failure event while in flight.
            self.pending_losses -= 1
            transport.messages_lost += 1
            return
        # Messages in flight toward a *still-failed* element are lost.
        # (Fast path: with no failed element anywhere the link is
        # trivially up.)
        if (
            transport._failed_links or transport._failed_ases
        ) and not transport.link_is_up(self.src, self.dst):
            transport.messages_lost += 1
            return
        receiver = self.receiver
        if receiver is None:
            receiver = transport._receivers.get((self.dst, self.tag))
            if receiver is None:
                raise SimulationError(
                    f"no receiver for AS {self.dst} tag {self.tag!r}"
                )
            self.receiver = receiver
        transport.messages_delivered += 1
        receiver(self.src, message)


class Transport:
    """All sessions of a simulated network, plus link failure state."""

    #: Minimal spacing between deliveries on one channel, to preserve
    #: FIFO order under random per-message delays.
    FIFO_EPSILON = 1e-9

    def __init__(self, engine: Engine, delay_model: DelayModel | None = None) -> None:
        self._engine = engine
        self._delay = delay_model or UniformDelay()
        #: Inlined bounds for the (ubiquitous) uniform delay model:
        #: ``(low, high - low)``, drawn as ``low + span * rng.random()``
        #: — the exact expression ``Random.uniform`` evaluates, so the
        #: stream and values are bit-identical to sampling the model.
        self._uniform_bounds: Tuple[float, float] | None = (
            (DELAY_LOW, DELAY_HIGH - DELAY_LOW)
            if type(self._delay) is UniformDelay
            else None
        )
        self._receivers: Dict[Tuple[ASN, Hashable], Receiver] = {}
        #: Every tag a receiver registered under (one per process of an
        #: AS: ``None`` for BGP, red and blue for STAMP).
        self._tags: List[Hashable] = []
        self._down_listeners: Dict[ASN, SessionDownListener] = {}
        self._channels: Dict[Tuple[ASN, ASN, Hashable], _Channel] = {}
        self._failed_links: Set[Link] = set()
        self._failed_ases: Set[ASN] = set()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_lost = 0

    def fork(self, engine: Engine) -> "Transport":
        """An independent transport over a fork of this one's (drained)
        engine, with no receiver, listener or channel yet.

        The failure sets and counters are copied; no channel is.
        Channels are created lazily per send, and a drained one holds
        nothing but its FIFO bookkeeping (``last_delivery``): the engine
        forks only with nothing queued, so no message is in flight.  A
        forked transport belongs to a protocol network, whose delay is
        always the paper's uniform 10-20 ms: with that strictly positive
        minimum, any send after the fork lands after ``now`` and hence
        after every past delivery, so the bookkeeping can never
        influence a future delivery time.
        """
        twin = Transport(engine, self._delay)
        twin._failed_links = set(self._failed_links)
        twin._failed_ases = set(self._failed_ases)
        twin.messages_sent = self.messages_sent
        twin.messages_delivered = self.messages_delivered
        twin.messages_lost = self.messages_lost
        return twin

    def dispose(self) -> None:
        """Break reference cycles so a dead transport frees by refcount.

        Every channel is self-cyclic (its pooled ``deliver`` bound
        method references the channel), and the receiver/listener
        registries hold bound methods into the speakers, which in turn
        reference the transport.  See :meth:`repro.bgp.network
        .BGPNetwork.dispose`.
        """
        for channel in self._channels.values():
            channel.deliver = None  # type: ignore[assignment]
            channel.receiver = None
        self._channels.clear()
        self._receivers.clear()
        self._down_listeners.clear()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_receiver(
        self, asn: ASN, receiver: Receiver, *, tag: Hashable = None
    ) -> None:
        """Register the message handler of one protocol instance."""
        key = (asn, tag)
        if key in self._receivers:
            raise SimulationError(f"receiver already registered for {key}")
        self._receivers[key] = receiver
        if tag not in self._tags:
            self._tags.append(tag)

    def register_session_down_listener(
        self, asn: ASN, listener: SessionDownListener
    ) -> None:
        """Register the (single) session-reset handler of an AS."""
        if asn in self._down_listeners:
            raise SimulationError(f"down-listener already registered for AS {asn}")
        self._down_listeners[asn] = listener

    # ------------------------------------------------------------------
    # Link / node state
    # ------------------------------------------------------------------

    def link_is_up(self, a: ASN, b: ASN) -> bool:
        """Whether the physical link between two ASes is currently up."""
        return (
            normalize_link(a, b) not in self._failed_links
            and a not in self._failed_ases
            and b not in self._failed_ases
        )

    @property
    def failed_links(self) -> Set[Link]:
        """Snapshot of currently failed links (normalized pairs)."""
        return set(self._failed_links)

    @property
    def failed_ases(self) -> Set[ASN]:
        """Snapshot of currently failed ASes."""
        return set(self._failed_ases)

    def fail_link(self, a: ASN, b: ASN) -> None:
        """Fail the a-b link now; both (live) endpoints learn immediately."""
        link = normalize_link(a, b)
        if link in self._failed_links:
            return
        self._failed_links.add(link)
        self._condemn_in_flight(a, (b,))
        for asn, other in ((a, b), (b, a)):
            if asn in self._failed_ases:
                continue
            listener = self._down_listeners.get(asn)
            if listener is not None:
                listener(other)

    def restore_link(self, a: ASN, b: ASN) -> None:
        """Bring a failed link back up (route addition event)."""
        self._failed_links.discard(normalize_link(a, b))

    def _condemn_in_flight(self, asn: ASN, peers: Iterable[ASN]) -> None:
        """Mark queued messages lost (see :meth:`_Channel.lose_in_flight`)
        on every channel between ``asn`` and one of ``peers``, in both
        directions and under every registered tag — looked up by key,
        so a failure costs its own sessions, not every channel."""
        channels = self._channels
        tags = self._tags
        for peer in peers:
            for tag in tags:
                for key in ((asn, peer, tag), (peer, asn, tag)):
                    channel = channels.get(key)
                    if channel is not None and channel.queue:
                        channel.lose_in_flight()

    def fail_as(self, asn: ASN, neighbors: Iterable[ASN]) -> None:
        """Fail an AS: every incident session resets for its neighbors.

        ``neighbors`` must name every AS ``asn`` has a session with
        (the graph's neighbors): their channels are the ones condemned.
        """
        if asn in self._failed_ases:
            return
        self._failed_ases.add(asn)
        neighbors = tuple(neighbors)
        self._condemn_in_flight(asn, neighbors)
        for nbr in neighbors:
            if nbr in self._failed_ases:
                continue
            listener = self._down_listeners.get(nbr)
            if listener is not None:
                listener(asn)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(self, src: ASN, dst: ASN, message: Any, tag: Hashable = None) -> None:
        """Queue a message for FIFO delivery with a sampled delay.

        Messages sent while the link is already down are silently lost
        (the sender will also have received a session-down event, so in
        practice protocols never do this).
        """
        self.messages_sent += 1
        if (
            self._failed_links or self._failed_ases
        ) and not self.link_is_up(src, dst):
            self.messages_lost += 1
            return
        key = (src, dst, tag)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = _Channel(self, src, dst, tag)
        engine = self._engine
        bounds = self._uniform_bounds
        if bounds is not None:
            # Parenthesized exactly as Random.uniform computes it, so
            # the float result is bit-identical to the sampled path.
            delivery = engine._now + (bounds[0] + bounds[1] * engine.rng.random())
        else:
            delivery = engine._now + self._delay.sample(engine.rng)
        if delivery <= channel.last_delivery:
            delivery = channel.last_delivery + self.FIFO_EPSILON
        channel.last_delivery = delivery
        channel.queue.append(message)
        # Deliveries are never cancelled individually (in-flight loss is
        # decided at delivery time), so the handle-free fast path applies.
        engine.post_at(delivery, channel.deliver)
