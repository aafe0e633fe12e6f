"""Message delay models.

The paper models combined processing and transmission delay as uniform
in [10 ms, 20 ms] for every protocol it simulates (section 6.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError


class DelayModel:
    """Interface for per-message delay sampling."""

    def sample(self, rng: random.Random) -> float:
        """Draw one message delay in seconds."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Uniform delay on ``[low, high]`` seconds (paper: 10-20 ms)."""

    low: float = 0.010
    high: float = 0.020

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ConfigurationError(
                f"invalid delay bounds [{self.low}, {self.high}]"
            )

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)
