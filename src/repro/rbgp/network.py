"""Network of R-BGP speakers."""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.bgp.network import BGPNetwork, NetworkConfig
from repro.forwarding.rbgp_plane import FAILOVER, PRIMARY, RBGPDataPlane
from repro.rbgp.speaker import RBGPSpeaker
from repro.topology.graph import ASGraph
from repro.types import ASN


class RBGPNetwork(BGPNetwork):
    """R-BGP over an AS graph; ``rci=False`` gives the no-RCI baseline.

    Mid-run episode events inherit the base network's deterministic
    sequences with R-BGP twists handled per speaker: ``restore_link``
    discards each endpoint's stale ``known_bad_links`` entry before
    re-advertising (recovery information outranks failure knowledge),
    and ``restore_as`` reboots the router through
    :meth:`repro.rbgp.speaker.RBGPSpeaker.reboot`, which wipes the
    failover RIB and explicitly forgoes the stale-FIB retention RCI
    normally applies when a best route vanishes.
    """

    TRACE_KEY: Hashable = PRIMARY

    def __init__(
        self,
        graph: ASGraph,
        destination: ASN,
        config: Optional[NetworkConfig] = None,
        *,
        rci: bool = True,
    ) -> None:
        self.rci = rci
        super().__init__(graph, destination, config)

    def start_is_rci_invariant(self) -> bool:
        """Whether the run so far was provably independent of ``rci``.

        RCI can only influence behavior at two guarded points (stale-FIB
        retention and the failover-advertisement hold-back); every
        speaker records when such a point was actually reached.  If none
        was, the full network state is bit-identical between the
        ``rci=True`` and ``rci=False`` variants, and one initial
        convergence can serve both (the experiment runner's twin-start
        sharing).
        """
        return not any(
            speaker.rci_sensitive_state for speaker in self.speakers.values()
        )

    def set_rci(self, rci: bool) -> None:
        """Switch the RCI variant of every speaker (twin-start restore)."""
        self.rci = rci
        for speaker in self.speakers.values():
            speaker.rci = rci

    def _make_speaker(self, asn: ASN) -> RBGPSpeaker:
        return RBGPSpeaker(
            asn,
            self.graph,
            self.engine,
            self.transport,
            config=self._speaker_config,
            tag=self.TRACE_KEY,
            trace=self.trace,
            stats=self.stats,
            rci=self.rci,
        )

    def data_plane(self) -> RBGPDataPlane:
        """R-BGP forwarding under this network's current ``rci`` flag."""
        return RBGPDataPlane(self.destination, rci=self.rci, graph=self.graph)

    def forwarding_state(self) -> Dict[Tuple[ASN, Hashable], object]:
        """FIB paths plus failover RIBs, in the trace key space."""
        state: Dict[Tuple[ASN, Hashable], object] = {}
        for asn, speaker in self.speakers.items():
            state[(asn, PRIMARY)] = speaker.data_plane_path
            state[(asn, FAILOVER)] = speaker.failover_state()
        return state
