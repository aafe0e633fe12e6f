"""A full STAMP network: a BGP network whose per-AS process is a node.

Each :class:`~repro.stamp.node.STAMPNode` is two ordinary BGP
processes, so the lifecycle and the event injectors are
:class:`~repro.bgp.network.BGPNetwork`'s.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.bgp.network import BGPNetwork
from repro.forwarding.stamp_plane import STAMPDataPlane
from repro.sim.timers import MRAIConfig
from repro.stamp.node import STAMPNode, build_speaker_configs
from repro.types import ASN, Color

#: One immutable (red, blue) config pair serves every node of every
#: network: the paper's 30 s MRAI on both processes.
_SPEAKER_CONFIGS = build_speaker_configs(MRAIConfig())


class STAMPNetwork(BGPNetwork):
    """All STAMP nodes of a simulated network for one prefix.

    Each node picks its locked blue provider at random (paper section
    4.1).
    """

    def _make_speaker(self, asn: ASN) -> STAMPNode:
        return STAMPNode(
            asn,
            self.graph,
            self.engine,
            self.transport,
            speaker_configs=_SPEAKER_CONFIGS,
            trace=self.trace,
            stats=self.stats,
        )

    def data_plane(self) -> STAMPDataPlane:
        return STAMPDataPlane(self.destination)

    #: Inherited, and bound here by name as well: bench/tracing.py looks
    #: the traced lifecycle methods up in ``vars(STAMPNetwork)``.
    start = BGPNetwork.start

    def run_to_convergence(self) -> float:
        """Drain protocol activity; clear instability flags afterwards.

        The flags are a *during convergence* signal (Lemma 3.1/3.2
        territory); once the network is quiescent every selected route
        is stable again.  One drain is one call of this method: it runs
        :meth:`BGPNetwork._drain`, not ``super().run_to_convergence()``.
        """
        elapsed = self._drain()
        for node in self.speakers.values():
            node.clear_instability()
        return elapsed

    def forwarding_state(self) -> Dict[Tuple[ASN, Hashable], object]:
        """Full trace-key-space snapshot across all nodes."""
        state: Dict[Tuple[ASN, Hashable], object] = {}
        for node in self.speakers.values():
            state.update(node.forwarding_state())
        return state

    def best_path(self, asn: ASN, color: Color):
        """Full forwarding path of one AS and color, or ``None``."""
        return self.speakers[asn].best_path(color)
