"""A full STAMP network: a BGP network whose per-AS process is a node.

Each :class:`~repro.stamp.node.STAMPNode` is two ordinary BGP
processes, so the lifecycle and the event injectors are
:class:`~repro.bgp.network.BGPNetwork`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.bgp.network import BGPNetwork, NetworkConfig
from repro.forwarding.stamp_plane import STAMPDataPlane
from repro.stamp.coloring import (
    BlueProviderSelector,
    IntelligentBlueSelector,
    RandomBlueSelector,
)
from repro.stamp.node import STAMPNode, build_speaker_configs
from repro.topology.graph import ASGraph
from repro.types import ASN, Color


@dataclass(frozen=True)
class STAMPConfig(NetworkConfig):
    """STAMP-specific knobs on top of the shared network config."""

    #: Use the intelligent locked-blue-provider selection at the origin
    #: (paper section 6.1, raises disjointness odds 92% -> 97%).
    intelligent_selection: bool = False
    #: Allow the optional unlocked-blue announcements toward non-target
    #: providers (paper 4.1 "possibly ... without the Lock attribute").
    permissive_blue: bool = False


class STAMPNetwork(BGPNetwork):
    """All STAMP nodes of a simulated network for one prefix."""

    def __init__(
        self,
        graph: ASGraph,
        destination: ASN,
        config: Optional[STAMPConfig] = None,
    ) -> None:
        config = config or STAMPConfig()
        self.selector: BlueProviderSelector = (
            IntelligentBlueSelector(graph)
            if config.intelligent_selection
            else RandomBlueSelector()
        )
        # One immutable (red, blue) config pair serves every node.
        self._speaker_configs = build_speaker_configs(config.mrai)
        super().__init__(graph, destination, config)

    def _make_speaker(self, asn: ASN) -> STAMPNode:
        return STAMPNode(
            asn,
            self.graph,
            self.engine,
            self.transport,
            speaker_configs=self._speaker_configs,
            trace=self.trace,
            stats=self.stats,
            selector=self.selector,
            permissive_blue=self.config.permissive_blue,
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
