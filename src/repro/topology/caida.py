"""The CAIDA AS-relationship text format: its one reader and one writer.

CAIDA publishes inferred AS relationships as ``|``-delimited text —
one link per line, ``#`` comment lines::

    # source: CAIDA serial-1 as-rel
    1|2|-1        # AS1 is the provider of AS2 (p2c)
    2|3|0         # AS2 and AS3 peer (p2p)
    1|4|-1|bgp    # serial-2 adds an inference-source field (ignored)

This is the convention :func:`save_graph` writes (it cannot represent
an AS without links), and :func:`load_caida` is its one reader —
strict, because real datasets deserve a strict front door:

* every rejected line carries a structured :class:`CAIDAFormatError`
  (``lineno`` / ``line`` / ``reason``), so a 400k-line download with
  one bad record is diagnosable without a text diff;
* duplicate links — even two identical restatements, which the graph
  itself would tolerate — and self-loops are rejected outright: in a
  relationship dump they always mean a corrupted or doubly
  concatenated file;
* the result is delivered through the existing validation path
  (:func:`repro.topology.validation.validate_graph`) on request, so
  the structural assumptions the paper's analysis needs (acyclic
  hierarchy, peered tier-1 core, uphill reachability) are checked on
  the real topology before any campaign spends hours on it.

The loaded graph is an ordinary CSR-backed :class:`ASGraph`: it can be
campaigned, shared to workers over shared memory, and re-saved with
``save_graph`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Set, TextIO, Union

from repro.errors import ParseError
from repro.topology.graph import ASGraph
from repro.topology.validation import ValidationReport, validate_graph
from repro.types import Link, normalize_link

#: CAIDA relationship codes.
_P2C = -1  # a|b|-1: a is the provider of b
_P2P = 0   # a|b|0: a and b peer


class CAIDAFormatError(ParseError):
    """A rejected line of a CAIDA AS-relationship file.

    Carries the failing ``lineno`` (1-based), the raw ``line``, and a
    human-readable ``reason`` as attributes, so callers can report or
    aggregate rejections structurally instead of parsing the message.
    """

    def __init__(self, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class CAIDALoadReport:
    """What :func:`load_caida` read, and what it thought of it."""

    graph: ASGraph
    #: Customer-provider links loaded (``-1`` lines).
    p2c_links: int
    #: Peering links loaded (``0`` lines).
    p2p_links: int
    #: Comment/blank lines skipped.
    skipped_lines: int
    #: Structural validation outcome, when requested (else ``None``).
    validation: Optional[ValidationReport] = None

    def summary(self) -> str:
        text = (
            f"{len(self.graph)} ASes, {self.p2c_links} c2p + "
            f"{self.p2p_links} p2p links"
        )
        if self.validation is not None:
            text += f"; {self.validation.summary()}"
        return text


def _iter_lines(
    source: Union[str, Path, TextIO, Iterable[str]],
) -> Iterable[str]:
    if hasattr(source, "read"):
        return source.read().splitlines()
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8").splitlines()
    return source


def load_caida(
    source: Union[str, Path, TextIO, Iterable[str]],
    *,
    validate: bool = False,
) -> CAIDALoadReport:
    """Parse a CAIDA AS-relationship file into an :class:`ASGraph`.

    ``source`` is a path, an open text stream, or an iterable of lines.
    Lines must be ``a|b|rel`` (serial-1) or ``a|b|rel|source``
    (serial-2; the trailing inference-source field is ignored) with
    ``rel`` ``-1`` (*a* provides for *b*) or ``0`` (peers); ``#``
    comments and blank lines are skipped.  Raises
    :class:`CAIDAFormatError` on the first malformed, self-looping, or
    duplicated link.  With ``validate=True`` the report also carries a
    :class:`~repro.topology.validation.ValidationReport` for the loaded
    topology (never raising — real AS graphs routinely violate e.g.
    the fully-peered-core idealization).
    """
    graph = ASGraph()
    seen: Set[Link] = set()
    p2c = p2p = skipped = 0
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            skipped += 1
            continue
        parts = line.split("|")
        if len(parts) not in (3, 4):
            raise CAIDAFormatError(
                lineno, raw, "expected 'a|b|rel' or 'a|b|rel|source'"
            )
        try:
            a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise CAIDAFormatError(lineno, raw, "non-integer field") from None
        if a < 0 or b < 0:
            raise CAIDAFormatError(lineno, raw, "negative AS number")
        if a == b:
            raise CAIDAFormatError(lineno, raw, f"self-loop at AS {a}")
        key = normalize_link(a, b)
        if key in seen:
            raise CAIDAFormatError(
                lineno, raw, f"duplicate link {key[0]}-{key[1]}"
            )
        seen.add(key)
        if rel == _P2C:
            graph.add_c2p(customer=b, provider=a)
            p2c += 1
        elif rel == _P2P:
            graph.add_p2p(a, b)
            p2p += 1
        else:
            raise CAIDAFormatError(
                lineno, raw,
                f"unknown relationship code {rel} (expected -1 or 0)",
            )
    report = validate_graph(graph) if validate else None
    return CAIDALoadReport(
        graph=graph,
        p2c_links=p2c,
        p2p_links=p2p,
        skipped_lines=skipped,
        validation=report,
    )


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
