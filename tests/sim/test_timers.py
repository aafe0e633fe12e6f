"""Unit tests for MRAI pacing.

The pacer is driven as a speaker drives it: :meth:`MRAIPacer.try_send_now`
either claims the send slot (the caller sends at once) or arms the
coalescing timer, whose flush callback sends when it fires.  A
withdrawal is never rate-limited, so it is sent without asking.
"""

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.timers import MRAIConfig, MRAIPacer


class Harness:
    """One pacer and the log of ``(time, peer)`` sends it allowed."""

    def __init__(self, engine, config):
        self.engine = engine
        self.sent = []
        self.pacer = MRAIPacer(engine, config, flush=self._record)

    def _record(self, peer):
        self.sent.append((self.engine.now, peer))

    def send(self, peer, *, is_withdrawal=False):
        """Send now if MRAI allows; else the armed flush sends later.
        A withdrawal goes out at once without asking the pacer (the
        speaker's ``_dispatch_update`` rule)."""
        if is_withdrawal or self.pacer.try_send_now(peer):
            self._record(peer)


@pytest.fixture
def harness():
    config = MRAIConfig(base=10.0, jitter_low=1.0, jitter_high=1.0)
    return Harness(Engine(seed=1), config)


class TestMRAIConfig:
    def test_paper_defaults(self):
        config = MRAIConfig()
        assert config.base == 30.0
        assert config.jitter_low == 0.75
        assert config.jitter_high == 1.0

    def test_invalid_base(self):
        with pytest.raises(ConfigurationError):
            MRAIConfig(base=-1.0)

    def test_invalid_jitter(self):
        with pytest.raises(ConfigurationError):
            MRAIConfig(jitter_low=0.9, jitter_high=0.5)


class TestPacing:
    def test_first_send_is_immediate(self, harness):
        harness.send(7)
        assert harness.sent == [(0.0, 7)]

    def test_second_send_waits_for_interval(self, harness):
        harness.send(7)
        harness.send(7)
        assert len(harness.sent) == 1
        harness.engine.run()
        assert harness.sent == [(0.0, 7), (10.0, 7)]

    def test_requests_coalesce(self, harness):
        harness.send(7)
        for _ in range(5):
            harness.send(7)
        harness.engine.run()
        assert len(harness.sent) == 2  # first immediate + one coalesced flush

    def test_withdrawal_bypasses_mrai(self, harness):
        harness.send(7)
        harness.send(7, is_withdrawal=True)
        assert len(harness.sent) == 2  # withdrawal went out immediately

    def test_withdrawal_does_not_restart_timer(self, harness):
        harness.send(7)                      # t=0, next allowed t=10
        harness.send(7, is_withdrawal=True)  # immediate
        harness.send(7)                      # waits until t=10
        harness.engine.run()
        assert harness.sent[-1] == (10.0, 7)

    def test_peers_are_independent(self, harness):
        harness.send(1)
        harness.send(2)
        assert len(harness.sent) == 2

    def test_interval_is_fixed_per_peer(self):
        engine = Engine(seed=3)
        config = MRAIConfig(base=30.0)
        pacer = MRAIPacer(engine, config, flush=lambda peer: None)
        first = pacer.interval_for(9)
        assert pacer.interval_for(9) == first
        assert 30.0 * 0.75 <= first <= 30.0

    def test_cancel_drops_armed_timer(self, harness):
        harness.send(7)
        harness.send(7)  # arms timer
        harness.pacer.cancel(7)
        harness.engine.run()
        assert len(harness.sent) == 1

    def test_after_interval_send_is_immediate_again(self, harness):
        harness.send(7)
        harness.engine.run()
        harness.engine.schedule(20.0, lambda: harness.send(7))
        harness.engine.run()
        assert harness.sent[-1] == (20.0, 7)


class TestTrySendNow:
    def test_claims_slot_and_restarts_interval(self, harness):
        pacer = harness.pacer
        assert pacer.try_send_now(7) is True
        # The slot was consumed: a second attempt must arm the timer.
        assert pacer.try_send_now(7) is False
        assert 7 in pacer._armed
        harness.engine.run()
        assert harness.sent == [(10.0, 7)]  # only the armed flush fired

    def test_withdrawal_bypass_does_not_restart(self, harness):
        pacer = harness.pacer
        assert pacer.try_send_now(7) is True
        harness.send(7, is_withdrawal=True)
        assert harness.sent == [(0.0, 7)]
        # Bypass sends never restart the interval nor arm a timer.
        assert pacer._next_allowed[7] == 10.0
        assert not pacer._armed

    def test_repeated_attempts_coalesce_on_one_timer(self, harness):
        pacer = harness.pacer
        pacer.try_send_now(7)
        for _ in range(5):
            assert pacer.try_send_now(7) is False
        assert harness.engine.pending() == 1  # one armed timer, no duplicates
        harness.engine.run()
        assert harness.sent == [(10.0, 7)]


class TestZeroMRAI:
    """base=0 disables pacing: every send is immediate, no timers."""

    def setup_method(self):
        self.harness = Harness(Engine(seed=1), MRAIConfig(base=0.0))

    def test_every_request_fires_immediately(self):
        for _ in range(5):
            self.harness.send(3)
        assert [peer for _, peer in self.harness.sent] == [3, 3, 3, 3, 3]
        assert self.harness.engine.pending() == 0  # nothing ever armed

    def test_try_send_now_always_true(self):
        for _ in range(3):
            assert self.harness.pacer.try_send_now(4) is True
        assert not self.harness.pacer._armed
