"""Tests for the text reporting helpers."""

from repro.experiments.reporting import ascii_bar_chart, cdf_sparkline, format_table


class TestBarChart:
    def test_contains_all_labels_and_values(self):
        chart = ascii_bar_chart({"BGP": 100.0, "STAMP": 5.0}, title="t")
        assert "t" in chart
        assert "BGP" in chart and "STAMP" in chart
        assert "100.0" in chart

    def test_bars_scale_with_values(self):
        chart = ascii_bar_chart({"big": 100.0, "small": 10.0})
        lines = chart.splitlines()
        big = next(line for line in lines if line.startswith("big"))
        small = next(line for line in lines if line.startswith("small"))
        assert big.count("#") > small.count("#")

    def test_zero_value_has_no_bar(self):
        chart = ascii_bar_chart({"zero": 0.0, "one": 1.0})
        zero_line = next(
            line for line in chart.splitlines() if line.startswith("zero")
        )
        assert "#" not in zero_line

    def test_empty_chart(self):
        assert ascii_bar_chart({}, title="nothing") == "nothing"


class TestTable:
    def test_columns_are_aligned(self):
        table = format_table(["a", "bb"], [["xxx", "y"], ["z", "wwww"]])
        lines = table.splitlines()
        assert len({line.index("  ") for line in lines if "  " in line}) >= 1
        assert lines[1].startswith("---")

    def test_values_coerced_to_str(self):
        table = format_table(["n"], [[1], [2.5]])
        assert "2.5" in table


class TestSparkline:
    def test_length_matches_buckets(self):
        points = [(i / 10, i / 10) for i in range(11)]
        assert len(cdf_sparkline(points)) == 20

    def test_empty(self):
        assert cdf_sparkline([]) == "(empty)"

    def test_rises_left_to_right(self):
        points = [(i / 100, i / 100) for i in range(101)]
        line = cdf_sparkline(points)
        glyphs = " .:-=+*#%@"
        assert glyphs.index(line[0]) <= glyphs.index(line[-1])
