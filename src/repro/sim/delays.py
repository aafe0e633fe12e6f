"""Message delay models.

The paper models combined processing and transmission delay as uniform
in [10 ms, 20 ms] for every protocol it simulates (section 6.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The paper's delay bounds, in seconds.
DELAY_LOW = 0.010
DELAY_HIGH = 0.020


class DelayModel:
    """Interface for per-message delay sampling."""

    def sample(self, rng: random.Random) -> float:
        """Draw one message delay in seconds."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Uniform delay on ``[DELAY_LOW, DELAY_HIGH]`` seconds."""

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(DELAY_LOW, DELAY_HIGH)
