"""AS graph (de)serialization in a CAIDA-like text format.

One link per line: ``a|b|-1`` means *a is the provider of b* (CAIDA's
serial-1 convention), ``a|b|0`` means a and b peer; lines starting with
``#`` are comments.  The format cannot represent an AS without links.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, TextIO, Union

from repro.errors import ParseError
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


def load_graph(source: Union[str, Path, TextIO, Iterable[str]]) -> ASGraph:
    """Load a graph from a path, open stream, or iterable of lines."""
    if hasattr(source, "read"):
        lines: Iterable[str] = source.read().splitlines()
    elif isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source

    graph = ASGraph()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'a|b|rel', got {raw!r}")
        try:
            a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field in {raw!r}") from None
        if rel == _P2C:
            graph.add_c2p(customer=b, provider=a)
        elif rel == _P2P:
            graph.add_p2p(a, b)
        else:
            raise ParseError(f"line {lineno}: unknown relationship code {rel}")
    return graph
