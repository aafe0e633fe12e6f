"""Tests for CAIDA-style graph serialization, read back by the one
reader of the format, :func:`repro.topology.caida.load_caida`."""

import io

import pytest

from repro.errors import ParseError
from repro.topology.caida import load_caida
from repro.topology.generators import example_paper_topology
from repro.topology.serialization import graph_to_lines, save_graph


class TestRoundTrip:
    def test_example_graph_round_trips(self, tmp_path):
        graph = example_paper_topology()
        path = tmp_path / "graph.txt"
        save_graph(graph, path)
        loaded = load_caida(path).graph
        assert set(loaded.links()) == set(graph.links())

    def test_stream_round_trip(self):
        graph = example_paper_topology()
        buffer = io.StringIO()
        save_graph(graph, buffer)
        buffer.seek(0)
        loaded = load_caida(buffer).graph
        assert set(loaded.links()) == set(graph.links())

    def test_lines_are_deterministic(self):
        graph = example_paper_topology()
        assert graph_to_lines(graph) == graph_to_lines(graph)

    def test_load_from_iterable(self):
        loaded = load_caida(["2|1|-1", "2|3|0"]).graph
        assert loaded.providers(1) == (2,)
        assert loaded.peers(2) == (3,)


class TestParsing:
    def test_comments_and_blank_lines_skipped(self):
        loaded = load_caida(["# comment", "", "2|1|-1"]).graph
        assert len(loaded) == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            load_caida(["1|2"])

    def test_non_integer(self):
        with pytest.raises(ParseError):
            load_caida(["a|2|-1"])

    def test_unknown_relationship_code(self):
        with pytest.raises(ParseError):
            load_caida(["1|2|7"])

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert len(load_caida(path).graph) == 0
