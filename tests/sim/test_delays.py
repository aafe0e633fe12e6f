"""Unit tests for delay models."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.delays import UniformDelay


class TestUniformDelay:
    def test_samples_stay_in_bounds(self):
        delay = UniformDelay(0.010, 0.020)
        rng = random.Random(1)
        for _ in range(200):
            sample = delay.sample(rng)
            assert 0.010 <= sample <= 0.020

    def test_paper_default_bounds(self):
        delay = UniformDelay()
        assert delay.low == 0.010
        assert delay.high == 0.020

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(0.02, 0.01)
        with pytest.raises(ConfigurationError):
            UniformDelay(-0.01, 0.01)
