"""Network of R-BGP speakers."""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.bgp.network import _SPEAKER_CONFIG, BGPNetwork
from repro.forwarding.rbgp_plane import FAILOVER, PRIMARY, RBGPDataPlane
from repro.rbgp.speaker import RBGPSpeaker
from repro.topology.graph import ASGraph
from repro.types import ASN, ASPath


class RBGPNetwork(BGPNetwork):
    """R-BGP over an AS graph; ``rci=False`` gives the no-RCI baseline.

    Mid-run episode events inherit the base network's deterministic
    sequences with one R-BGP twist handled per speaker:
    ``restore_link`` discards each endpoint's stale ``known_bad_links``
    entry before re-advertising (recovery information outranks failure
    knowledge).
    """

    TRACE_KEY: Hashable = PRIMARY

    def __init__(
        self,
        graph: ASGraph,
        destination: ASN,
        *,
        seed: int = 0,
        rci: bool = True,
    ) -> None:
        self.rci = rci
        #: The one path-links memo of this network's speakers (see
        #: :attr:`RBGPSpeaker.links_memo`).
        self.links_memo: Dict[ASPath, frozenset] = {}
        super().__init__(graph, destination, seed=seed)

    def fork(self) -> "RBGPNetwork":
        """The base twin, whose speakers share a copy of the memo."""
        twin = super().fork()
        twin.links_memo = memo = self.links_memo.copy()
        for speaker in twin.speakers.values():
            speaker.links_memo = memo
        return twin

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
        """Switch the RCI variant of every speaker (a twin start)."""
        self.rci = rci
        for speaker in self.speakers.values():
            speaker.rci = rci

    def _make_speaker(self, asn: ASN) -> RBGPSpeaker:
        speaker = RBGPSpeaker(
            asn,
            self.graph,
            self.engine,
            self.transport,
            config=_SPEAKER_CONFIG,
            tag=self.TRACE_KEY,
            trace=self.trace,
            stats=self.stats,
            rci=self.rci,
        )
        speaker.links_memo = self.links_memo
        return speaker

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
