"""Tests for RouteViews-style table synthesis and parsing."""

import io

import pytest

from repro.errors import ParseError
from repro.routing.static import compute_stable_routes
from repro.topology.generators import example_paper_topology
from repro.topology.routeviews import (
    all_paths,
    dump_tables,
    parse_tables,
    synthesize_routeviews_tables,
)


@pytest.fixture
def graph():
    return example_paper_topology()


class TestSynthesis:
    def test_vantage_paths_match_oracle(self, graph):
        tables = synthesize_routeviews_tables(graph, vantages=[10], seed=0)
        (table,) = tables
        for dest, path in table.paths.items():
            oracle = compute_stable_routes(graph, dest)
            assert oracle.route(10).path == path

    def test_vantage_excludes_itself(self, graph):
        tables = synthesize_routeviews_tables(graph, vantages=[10], seed=0)
        assert 10 not in tables[0].paths

    def test_default_vantages_include_tier1s(self, graph):
        tables = synthesize_routeviews_tables(graph, n_vantages=3, seed=0)
        vantages = {t.vantage for t in tables}
        assert {10, 20} <= vantages

    def test_destination_filter(self, graph):
        tables = synthesize_routeviews_tables(
            graph, vantages=[10], destinations=[90], seed=0
        )
        assert set(tables[0].paths) == {90}

    def test_all_paths_flattening(self, graph):
        tables = synthesize_routeviews_tables(graph, vantages=[10, 20], seed=0)
        paths = all_paths(tables)
        assert len(paths) == sum(len(t.paths) for t in tables)


class TestDumpParse:
    def test_round_trip(self, graph):
        tables = synthesize_routeviews_tables(graph, vantages=[10, 20], seed=0)
        buffer = io.StringIO()
        written = dump_tables(tables, buffer)
        assert written == sum(len(t.paths) for t in tables)
        buffer.seek(0)
        parsed = parse_tables(buffer)
        assert {t.vantage: t.paths for t in parsed} == {
            t.vantage: t.paths for t in tables
        }

    def test_parse_rejects_malformed(self):
        with pytest.raises(ParseError):
            parse_tables(io.StringIO("only|two\n"))

    def test_parse_rejects_path_not_starting_at_vantage(self):
        with pytest.raises(ParseError):
            parse_tables(io.StringIO("10|90|20 90\n"))

    def test_parse_rejects_path_not_ending_at_destination(self):
        with pytest.raises(ParseError):
            parse_tables(io.StringIO("10|90|10 20\n"))

    def test_parse_skips_comments(self):
        parsed = parse_tables(io.StringIO("# header\n10|90|10 70 90\n"))
        assert parsed[0].paths[90] == (10, 70, 90)
