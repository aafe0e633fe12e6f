"""Plain-text rendering of figure data (tables and bar charts)."""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Characters in the longest bar of a chart.
BAR_WIDTH = 50
#: Glyphs in a CDF sparkline.
SPARKLINE_BUCKETS = 20


def ascii_bar_chart(
    values: Dict[str, float],
    *,
    unit: str = "",
    title: str = "",
) -> str:
    """Horizontal bar chart, one row per labeled value."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not values:
        return title
    peak = max(values.values()) or 1.0
    label_width = max(len(label) for label in values)
    for label, value in values.items():
        bar = "#" * max(1 if value > 0 else 0, round(BAR_WIDTH * value / peak))
        lines.append(
            f"{label.ljust(label_width)} | {bar} {value:,.1f}{unit}"
        )
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width table with a header separator."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    out: List[str] = []
    for index, row in enumerate(cells):
        out.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            out.append("  ".join("-" * width for width in widths))
    return "\n".join(out)


def format_failure_report(failures: Sequence) -> str:
    """Render a campaign's :class:`UnitFailure` list as a table.

    One row per terminally failed unit: its identity, how many
    attempts it burned, and the per-attempt causes in order
    (``exception`` / ``timeout`` / ``worker-death``).  Returns an
    empty string for a failure-free campaign so callers can print
    unconditionally.
    """
    if not failures:
        return ""
    rows = [
        (
            failure.kind,
            failure.instance,
            failure.protocol,
            len(failure.attempts),
            ", ".join(a.cause for a in failure.attempts),
        )
        for failure in failures
    ]
    table = format_table(
        ["kind", "instance", "protocol", "attempts", "causes"], rows
    )
    return (
        f"WARNING: {len(failures)} unit(s) failed terminally; their "
        "samples are missing from the aggregates above.\n" + table
    )


def cdf_sparkline(points: Sequence[tuple]) -> str:
    """Compact one-line rendering of a CDF for terminal output."""
    if not points:
        return "(empty)"
    glyphs = " .:-=+*#%@"
    values = [fraction for _, fraction in points]
    out = []
    for bucket in range(SPARKLINE_BUCKETS):
        index = min(
            len(values) - 1,
            round(bucket * (len(values) - 1) / (SPARKLINE_BUCKETS - 1)),
        )
        level = min(len(glyphs) - 1, int(values[index] * (len(glyphs) - 1)))
        out.append(glyphs[level])
    return "".join(out)
