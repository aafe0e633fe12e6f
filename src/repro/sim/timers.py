"""Per-peer MRAI (Minimum Route Advertisement Interval) pacing.

The paper configures a peer-based MRAI of 30 seconds multiplied by a
random factor uniform in [0.75, 1.0]; following common router behavior
(and the original Labovitz analysis) withdrawals are not rate-limited
unless configured otherwise.

The pacer is the speaker's batching point: between the instant a
decision change marks a peer stale and the instant MRAI allows the next
advertisement, any number of further changes *coalesce* — the armed
timer is left untouched and the speaker advertises only its latest
state when the timer fires.  Coalescing cannot reorder deliveries: it
only ever drops intermediate states that the peer would have observed
strictly between two messages on the same FIFO session, never the
messages themselves, and the flush always re-reads the speaker's
current Adj-RIB-Out state at fire time.

Timers sit 0-30 s out in the engine's one event heap, beside the
message deliveries; the per-peer flush callback is created once and
pooled, so steady-state pacing allocates nothing beyond the handle.
An armed timer is almost never cancelled — coalescing leaves it alone,
and only a session going down or a reboot drops one (counted: zero
cancels in a ``fig2`` grid; see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Engine, EventHandle
from repro.types import ASN


@dataclass(frozen=True)
class MRAIConfig:
    """MRAI parameters (paper defaults)."""

    base: float = 30.0
    jitter_low: float = 0.75
    jitter_high: float = 1.0
    #: Whether withdrawals are subject to MRAI pacing (WRATE).  Off by
    #: default, matching common implementations.
    applies_to_withdrawals: bool = False

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ConfigurationError("MRAI base must be non-negative")
        if not 0 <= self.jitter_low <= self.jitter_high:
            raise ConfigurationError("invalid MRAI jitter bounds")


class MRAIPacer:
    """Rate-limits advertisements from one speaker to its peers.

    Each peer gets a fixed per-peer interval drawn once (base x jitter).
    ``request_send(peer)`` either fires the flush callback immediately
    (restarting the interval) or arms a timer for the earliest allowed
    instant; repeated requests while armed coalesce, mirroring how a BGP
    speaker advertises only its latest state when the timer expires.

    Speakers that already know what they would flush can instead call
    :meth:`try_send_now`, which claims the send slot without invoking
    the flush callback — the caller emits the precomputed update itself,
    skipping a redundant export computation (see
    :meth:`repro.bgp.speaker.BGPSpeaker.refresh_peer`).
    """

    def __init__(
        self,
        engine: Engine,
        config: MRAIConfig,
        flush: Callable[[ASN], None],
    ) -> None:
        self._engine = engine
        self._config = config
        self._flush = flush
        self._interval: Dict[ASN, float] = {}
        self._next_allowed: Dict[ASN, float] = {}
        self._armed: Dict[ASN, EventHandle] = {}
        #: Pooled per-peer timer callbacks: one ``partial`` per peer for
        #: the pacer's lifetime instead of one closure per arm.
        self._timer_callbacks: Dict[ASN, Callable[[], None]] = {}

    def __getstate__(self):
        """Pickle without the pooled callbacks (rebuilt lazily on arm)."""
        state = self.__dict__.copy()
        state["_timer_callbacks"] = {}
        return state

    def interval_for(self, peer: ASN) -> float:
        """The fixed MRAI interval used toward one peer."""
        interval = self._interval.get(peer)
        if interval is None:
            jitter = self._engine.rng.uniform(
                self._config.jitter_low, self._config.jitter_high
            )
            interval = self._interval[peer] = self._config.base * jitter
        return interval

    def try_send_now(self, peer: ASN, *, is_withdrawal: bool = False) -> bool:
        """Claim an immediate send slot toward ``peer`` if MRAI allows.

        Returns ``True`` when the caller may (and must) send right now:
        the interval is restarted exactly as a flush-callback fire would
        have (withdrawal bypass sends never restart it).  Returns
        ``False`` after arming the coalescing timer for the earliest
        allowed instant — the flush callback will run then.
        """
        if is_withdrawal and not self._config.applies_to_withdrawals:
            return True
        now = self._engine._now
        if now >= self._next_allowed.get(peer, 0.0):
            interval = self._interval.get(peer)
            if interval is None:
                interval = self.interval_for(peer)
            self._next_allowed[peer] = now + interval
            return True
        self._arm(peer)
        return False

    def request_send(self, peer: ASN, *, is_withdrawal: bool = False) -> None:
        """Ask to advertise to ``peer`` as soon as MRAI allows."""
        if self.try_send_now(peer, is_withdrawal=is_withdrawal):
            self._flush(peer)

    def _arm(self, peer: ASN) -> None:
        if peer in self._armed:
            return
        callback = self._timer_callbacks.get(peer)
        if callback is None:
            callback = self._timer_callbacks[peer] = partial(self._on_timer, peer)
        self._armed[peer] = self._engine.schedule_at(
            self._next_allowed[peer], callback
        )

    def cancel(self, peer: ASN) -> None:
        """Drop any armed timer toward a peer (e.g., session went down).

        O(1): the handle is marked and the engine discards its heap
        entry, unexecuted, when it reaches the head.
        """
        handle = self._armed.pop(peer, None)
        if handle is not None:
            handle.cancel()
        self._next_allowed.pop(peer, None)

    def reset(self) -> None:
        """Cancel every armed timer and forget pacing history.

        Used when the owning speaker reboots (an AS-restore episode
        event): a restarted router has no pending advertisements and no
        MRAI debt.  The per-peer jittered *intervals* are kept — they
        model a per-run configuration constant, and re-drawing them
        would consume engine RNG draws the non-rebooting twin of a run
        never makes.
        """
        for handle in self._armed.values():
            handle.cancel()
        self._armed.clear()
        self._next_allowed.clear()

    def _on_timer(self, peer: ASN) -> None:
        self._armed.pop(peer, None)
        self._next_allowed[peer] = self._engine.now + self.interval_for(peer)
        self._flush(peer)

    def dispose(self) -> None:
        """Break reference cycles (pacer ↔ speaker ↔ callbacks).

        Called when the owning network is torn down, so a dead
        simulation frees by reference counting alone — the experiment
        runner pauses cyclic GC during runs and relies on this.
        """
        for handle in self._armed.values():
            handle.cancel()
        self._armed.clear()
        self._timer_callbacks.clear()
        self._flush = _disposed_flush


def _disposed_flush(peer: ASN) -> None:  # pragma: no cover - defensive
    raise RuntimeError("MRAIPacer used after dispose()")
