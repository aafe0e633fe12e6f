"""Unit tests for delay models."""

import random

from repro.sim.delays import DELAY_HIGH, DELAY_LOW, UniformDelay


class TestUniformDelay:
    def test_samples_stay_in_bounds(self):
        delay = UniformDelay()
        rng = random.Random(1)
        for _ in range(200):
            sample = delay.sample(rng)
            assert 0.010 <= sample <= 0.020

    def test_paper_bounds(self):
        assert (DELAY_LOW, DELAY_HIGH) == (0.010, 0.020)

    def test_the_draw_is_the_callers_generator(self):
        delay = UniformDelay()
        rng, twin = random.Random(7), random.Random(7)
        samples = [delay.sample(rng) for _ in range(5)]
        assert samples == [twin.uniform(DELAY_LOW, DELAY_HIGH) for _ in range(5)]
