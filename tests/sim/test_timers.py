"""Unit tests for MRAI pacing."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.timers import MRAIConfig, MRAIPacer


@pytest.fixture
def pacer_setup():
    engine = Engine(seed=1)
    sent = []
    config = MRAIConfig(base=10.0, jitter_low=1.0, jitter_high=1.0)
    pacer = MRAIPacer(engine, config, flush=lambda peer: sent.append((engine.now, peer)))
    return engine, pacer, sent


class TestMRAIConfig:
    def test_paper_defaults(self):
        config = MRAIConfig()
        assert config.base == 30.0
        assert config.jitter_low == 0.75
        assert config.jitter_high == 1.0
        assert not config.applies_to_withdrawals

    def test_invalid_base(self):
        with pytest.raises(ConfigurationError):
            MRAIConfig(base=-1.0)

    def test_invalid_jitter(self):
        with pytest.raises(ConfigurationError):
            MRAIConfig(jitter_low=0.9, jitter_high=0.5)


class TestPacing:
    def test_first_send_is_immediate(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.request_send(7)
        assert sent == [(0.0, 7)]

    def test_second_send_waits_for_interval(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.request_send(7)
        pacer.request_send(7)
        assert len(sent) == 1
        engine.run()
        assert sent == [(0.0, 7), (10.0, 7)]

    def test_requests_coalesce(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.request_send(7)
        for _ in range(5):
            pacer.request_send(7)
        engine.run()
        assert len(sent) == 2  # first immediate + one coalesced flush

    def test_withdrawal_bypasses_mrai(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.request_send(7)
        pacer.request_send(7, is_withdrawal=True)
        assert len(sent) == 2  # withdrawal went out immediately

    def test_withdrawal_does_not_restart_timer(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.request_send(7)                      # t=0, next allowed t=10
        pacer.request_send(7, is_withdrawal=True)  # immediate
        pacer.request_send(7)                      # waits until t=10
        engine.run()
        assert sent[-1] == (10.0, 7)

    def test_peers_are_independent(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.request_send(1)
        pacer.request_send(2)
        assert len(sent) == 2

    def test_interval_is_fixed_per_peer(self):
        engine = Engine(seed=3)
        config = MRAIConfig(base=30.0)
        pacer = MRAIPacer(engine, config, flush=lambda peer: None)
        first = pacer.interval_for(9)
        assert pacer.interval_for(9) == first
        assert 30.0 * 0.75 <= first <= 30.0

    def test_cancel_drops_armed_timer(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.request_send(7)
        pacer.request_send(7)  # arms timer
        pacer.cancel(7)
        engine.run()
        assert len(sent) == 1

    def test_after_interval_send_is_immediate_again(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.request_send(7)
        engine.run()
        engine.schedule(20.0, lambda: pacer.request_send(7))
        engine.run()
        assert sent[-1] == (20.0, 7)


class TestTrySendNow:
    def test_claims_slot_and_restarts_interval(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        assert pacer.try_send_now(7) is True
        # The slot was consumed: a second attempt must arm the timer.
        assert pacer.try_send_now(7) is False
        assert 7 in pacer._armed
        engine.run()
        assert sent == [(10.0, 7)]  # only the armed flush fired

    def test_withdrawal_bypass_does_not_restart(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        assert pacer.try_send_now(7) is True
        assert pacer.try_send_now(7, is_withdrawal=True) is True
        # Bypass sends never restart the interval.
        assert pacer._next_allowed[7] == 10.0

    def test_repeated_attempts_coalesce_on_one_timer(self, pacer_setup):
        engine, pacer, sent = pacer_setup
        pacer.try_send_now(7)
        for _ in range(5):
            assert pacer.try_send_now(7) is False
        assert engine.pending() == 1  # one armed timer, no duplicates
        engine.run()
        assert sent == [(10.0, 7)]


class TestZeroMRAI:
    """base=0 disables pacing: every send is immediate, no timers."""

    def setup_method(self):
        self.engine = Engine(seed=1)
        self.sent = []
        self.pacer = MRAIPacer(
            self.engine, MRAIConfig(base=0.0),
            flush=lambda peer: self.sent.append(peer),
        )

    def test_every_request_fires_immediately(self):
        for _ in range(5):
            self.pacer.request_send(3)
        assert self.sent == [3, 3, 3, 3, 3]
        assert self.engine.pending() == 0  # nothing ever armed

    def test_try_send_now_always_true(self):
        for _ in range(3):
            assert self.pacer.try_send_now(4) is True
        assert not self.pacer._armed


class TestWithdrawalRateLimiting:
    def test_wrate_mode_paces_withdrawals(self):
        engine = Engine(seed=1)
        sent = []
        config = MRAIConfig(base=10.0, jitter_low=1.0, jitter_high=1.0,
                            applies_to_withdrawals=True)
        pacer = MRAIPacer(engine, config, flush=lambda p: sent.append(engine.now))
        pacer.request_send(7)
        pacer.request_send(7, is_withdrawal=True)
        assert len(sent) == 1
        engine.run()
        assert sent == [0.0, 10.0]
