"""Test doubles that no protocol network uses."""

from dataclasses import dataclass

from repro.sim.delays import DelayModel


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """Deterministic delay, for unit tests that script arrival times.

    A network's delay is always the paper's uniform 10-20 ms; the
    speaker, node and transport unit tests substitute this one.
    """

    value: float = 0.010

    def sample(self, rng):
        return self.value
