"""The equality observable topology tests share."""

from __future__ import annotations


def graph_content(graph):
    """What a graph holds, independent of how it was built or stored:
    its sorted ASes (isolated ones included) and its sorted links."""
    return (graph.ases, sorted(graph.links()))
