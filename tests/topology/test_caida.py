"""Property tests of the CAIDA AS-relationship loader."""

from __future__ import annotations

import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.topology.caida import CAIDAFormatError, load_caida
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.topology.serialization import graph_to_lines, save_graph

from graph_content import graph_content

FIXTURE = Path(__file__).parent / "data" / "caida_small.txt"


class TestFixture:
    def test_fixture_loads(self):
        report = load_caida(FIXTURE)
        graph = report.graph
        assert len(graph) == 8
        assert report.p2c_links == 8
        assert report.p2p_links == 3
        assert report.skipped_lines == 5  # comments + blanks
        assert graph.tier1s() == (101, 102, 103)
        assert graph.providers(301) == (201, 202)  # multi-homed customer
        assert graph.is_multihomed(301)
        # The serial-2 line (trailing source field) loaded normally.
        assert graph.providers(303) == (202,)

    def test_fixture_validates_clean(self):
        report = load_caida(FIXTURE, validate=True)
        assert report.validation is not None
        assert report.validation.ok
        assert "topology OK" in report.summary()

    def test_accepts_stream_and_iterable(self):
        text = FIXTURE.read_text()
        by_path = load_caida(FIXTURE)
        by_stream = load_caida(io.StringIO(text))
        by_lines = load_caida(text.splitlines())
        assert (
            graph_content(by_path.graph)
            == graph_content(by_stream.graph)
            == graph_content(by_lines.graph)
        )


class TestRoundTrip:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_generated_topology_round_trips(self, seed, tmp_path):
        config = InternetTopologyConfig(
            seed=seed, n_tier1=3, n_tier2=8, n_tier3=14, n_stub=30
        )
        graph, _ = generate_internet_topology(config)
        path = tmp_path / "as-rel.txt"
        save_graph(graph, path)
        report = load_caida(path, validate=True)
        assert graph_content(report.graph) == graph_content(graph)
        assert report.validation.ok

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(1, 30), st.integers(1, 30), st.booleans()
            ),
            max_size=40,
        )
    )
    def test_arbitrary_link_graphs_round_trip(self, edges):
        """graph -> CAIDA lines -> graph is the identity on any graph
        built purely from links (isolated ASes are out of the text
        format's domain by design)."""
        from repro.topology.graph import ASGraph

        graph = ASGraph()
        for a, b, is_peer in edges:
            try:
                if is_peer:
                    graph.add_p2p(a, b)
                else:
                    graph.add_c2p(a, b)
            except Exception:
                pass  # self-loops/conflicts: irrelevant to round-trip
        reloaded = load_caida(graph_to_lines(graph)).graph
        assert graph_content(reloaded) == graph_content(graph)


class TestRejection:
    def _reject(self, lines, reason_fragment, lineno):
        with pytest.raises(CAIDAFormatError) as excinfo:
            load_caida(lines)
        err = excinfo.value
        assert isinstance(err, ParseError)  # fits the existing hierarchy
        assert err.lineno == lineno
        assert reason_fragment in err.reason
        assert err.line == lines[lineno - 1]
        assert f"line {lineno}" in str(err)

    def test_wrong_field_count(self):
        self._reject(["1|2|-1", "1|2"], "expected", 2)
        self._reject(["1|2|-1|bgp|x"], "expected", 1)

    def test_non_integer_field(self):
        self._reject(["one|2|-1"], "non-integer", 1)
        self._reject(["1|2|peer"], "non-integer", 1)

    def test_unknown_relationship_code(self):
        self._reject(["1|2|1"], "unknown relationship code 1", 1)
        self._reject(["1|2|-2"], "unknown relationship code -2", 1)

    def test_self_loop(self):
        self._reject(["7|7|-1"], "self-loop at AS 7", 1)

    def test_negative_asn(self):
        self._reject(["-3|2|-1"], "negative AS number", 1)

    def test_duplicate_link_even_when_identical(self):
        self._reject(["1|2|-1", "# noise", "1|2|-1"], "duplicate link", 3)

    def test_duplicate_link_reversed_or_reclassified(self):
        self._reject(["1|2|-1", "2|1|-1"], "duplicate link 1-2", 2)
        self._reject(["1|2|0", "1|2|-1"], "duplicate link 1-2", 2)

    def test_nothing_partial_escapes_a_rejection(self):
        """A rejection raises; the caller never sees a half-built graph."""
        with pytest.raises(CAIDAFormatError):
            load_caida(["1|2|-1", "3|4|9"])
