"""AS graph serialization in the CAIDA text format.

One link per line: ``a|b|-1`` means *a is the provider of b* (CAIDA's
serial-1 convention), ``a|b|0`` means a and b peer.  The format cannot
represent an AS without links.  The one reader of the format is
:func:`repro.topology.caida.load_caida`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, TextIO, Union

from repro.topology.graph import ASGraph

_P2C = -1
_P2P = 0


def graph_to_lines(graph: ASGraph) -> List[str]:
    """Serialize a graph to CAIDA-style lines (deterministic order)."""
    lines: List[str] = []
    for customer, provider in sorted(graph.c2p_links()):
        lines.append(f"{provider}|{customer}|{_P2C}")
    for a, b in sorted(graph.p2p_links()):
        lines.append(f"{a}|{b}|{_P2P}")
    return lines


def save_graph(graph: ASGraph, target: Union[str, Path, TextIO]) -> None:
    """Write a graph to a path or open stream."""
    lines = graph_to_lines(graph)
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")
