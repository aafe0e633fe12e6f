"""RouteViews-style BGP table synthesis and parsing.

The paper builds its AS graph from BGP routing tables collected by the
RouteViews project.  Real dumps are unavailable offline, so this module
closes the loop synthetically: given a ground-truth annotated graph we
compute every vantage point's converged best path to every destination
(the same information a table dump carries) and emit it in a simple
``vantage|destination|as-path`` text format that
:func:`repro.topology.inference.infer_relationships` consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.errors import ParseError
from repro.routing.static import compute_stable_routes
from repro.topology.graph import ASGraph
from repro.types import ASN, ASPath


@dataclass
class RouteViewsTable:
    """One vantage point's view: destination AS -> AS path.

    Paths are vantage-first (the vantage AS itself is included), origin
    last — the shape of an AS_PATH with the collector's peer prepended.
    """

    vantage: ASN
    paths: Dict[ASN, ASPath] = field(default_factory=dict)

    def as_paths(self) -> List[ASPath]:
        """All AS paths of this table, deterministic order."""
        return [self.paths[dest] for dest in sorted(self.paths)]


def synthesize_routeviews_tables(
    graph: ASGraph,
    *,
    vantages: Optional[Sequence[ASN]] = None,
    n_vantages: int = 10,
    destinations: Optional[Sequence[ASN]] = None,
    seed: int = 0,
) -> List[RouteViewsTable]:
    """Build synthetic RouteViews tables from a ground-truth graph.

    Vantage points default to a random sample biased toward the core
    (RouteViews peers are predominantly large transit networks): all
    tier-1s plus random transit ASes up to ``n_vantages``.
    """
    rng = random.Random(seed)
    if vantages is None:
        chosen: List[ASN] = list(graph.tier1s())
        transit = [asn for asn in graph.ases if not graph.is_stub(asn)]
        pool = [asn for asn in transit if asn not in chosen]
        rng.shuffle(pool)
        chosen.extend(pool[: max(0, n_vantages - len(chosen))])
        vantages = chosen[:n_vantages] if len(chosen) > n_vantages else chosen
    dests = list(destinations) if destinations is not None else graph.ases

    tables = [RouteViewsTable(vantage=v) for v in vantages]
    for dest in dests:
        state = compute_stable_routes(graph, dest)
        for table in tables:
            if table.vantage == dest:
                continue
            route = state.route(table.vantage)
            if route is not None:
                table.paths[dest] = route.path
    return tables


def dump_tables(tables: Iterable[RouteViewsTable], stream: TextIO) -> int:
    """Write tables in ``vantage|destination|a b c`` format.

    Returns the number of lines written.
    """
    written = 0
    for table in tables:
        for dest in sorted(table.paths):
            path = " ".join(str(asn) for asn in table.paths[dest])
            stream.write(f"{table.vantage}|{dest}|{path}\n")
            written += 1
    return written


def parse_tables(stream: TextIO) -> List[RouteViewsTable]:
    """Parse tables previously written by :func:`dump_tables`."""
    by_vantage: Dict[ASN, RouteViewsTable] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            vantage = int(parts[0])
            dest = int(parts[1])
            path = tuple(int(tok) for tok in parts[2].split())
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not path:
            raise ParseError(f"line {lineno}: empty AS path")
        if path[0] != vantage:
            raise ParseError(
                f"line {lineno}: path must start at the vantage AS {vantage}"
            )
        if path[-1] != dest:
            raise ParseError(f"line {lineno}: path must end at destination {dest}")
        table = by_vantage.setdefault(vantage, RouteViewsTable(vantage=vantage))
        table.paths[dest] = path
    return [by_vantage[v] for v in sorted(by_vantage)]


def all_paths(tables: Iterable[RouteViewsTable]) -> List[ASPath]:
    """Flatten tables into the path list inference consumes."""
    out: List[ASPath] = []
    for table in tables:
        out.extend(table.as_paths())
    return out
