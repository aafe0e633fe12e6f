"""Test doubles that no protocol network uses, and the small graphs
only tests build."""

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.delays import DelayModel
from repro.topology.graph import ASGraph


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """Deterministic delay, for unit tests that script arrival times.

    A network's delay is always the paper's uniform 10-20 ms; the
    speaker, node and transport unit tests substitute this one.
    """

    value: float = 0.010

    def sample(self, rng):
        return self.value


def chain_topology(length: int) -> ASGraph:
    """A straight provider chain ``1 -> 2 -> ... -> length``.

    AS 1 is the bottom customer; AS ``length`` is the single tier-1.
    Useful for deterministic unit tests of uphill/downhill machinery.
    """
    if length < 1:
        raise ConfigurationError("chain length must be >= 1")
    graph = ASGraph()
    graph.add_as(1)
    for asn in range(1, length):
        graph.add_c2p(asn, asn + 1)
    return graph


def clique_topology(size: int) -> ASGraph:
    """A fully-peered clique of ``size`` tier-1 ASes."""
    if size < 1:
        raise ConfigurationError("clique size must be >= 1")
    graph = ASGraph()
    for asn in range(1, size + 1):
        graph.add_as(asn)
    for a in range(1, size + 1):
        for b in range(a + 1, size + 1):
            graph.add_p2p(a, b)
    return graph
