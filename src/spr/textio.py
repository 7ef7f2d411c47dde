"""Text format for graph instances.

Line 1: ``n m k`` (vertex count, edge count, terminal count).
Line 2: k space-separated 0-based terminal ids.
Then m lines ``u v w`` with w a decimal literal.

Anything after ``#`` on a line is a comment; blank lines are skipped.
Both LF and CRLF line endings are accepted.  Writing is canonical:
edges sorted by endpoints, weights in the shortest decimal form that
round-trips.
"""

from __future__ import annotations

from pathlib import Path

from .errors import GraphFormatError
from .graph import Instance, build_graph

__all__ = ["parse_graph_text", "format_graph_text", "load_instance"]


def parse_graph_text(text: str) -> Instance:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphFormatError("empty graph file")

    header = lines[0].split()
    if len(header) != 3:
        raise GraphFormatError(f"header must be 'n m k', got {lines[0]!r}")
    try:
        n, m, k = (int(x) for x in header)
    except ValueError as exc:
        raise GraphFormatError(f"bad header {lines[0]!r}") from exc
    if m < 0 or k < 0:
        raise GraphFormatError(f"negative count in header {lines[0]!r}")
    if k < 2:
        raise GraphFormatError(
            f"header {lines[0]!r} has k = {k}; an instance needs at least two terminals"
        )
    if len(lines) == 1:
        raise GraphFormatError(f"missing terminal line after header {lines[0]!r}")
    if len(lines) != 2 + m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 2}")

    try:
        terminals = [int(x) for x in lines[1].split()]
    except ValueError as exc:
        raise GraphFormatError(f"bad terminal line {lines[1]!r}") from exc
    if len(terminals) != k:
        raise GraphFormatError(f"expected {k} terminals, found {len(terminals)}")

    edges = []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"bad edge line {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {line!r}") from exc
        edges.append((u, v, w))

    return Instance(build_graph(n, edges), terminals)


def _format_weight(w: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(w))


def format_graph_text(inst: Instance) -> str:
    g = inst.graph
    out = [f"{g.vertex_count} {g.edge_count} {inst.k}"]
    out.append(" ".join(str(t) for t in inst.terminals))
    for u, v, w in g.edges:
        out.append(f"{u} {v} {_format_weight(w)}")
    return "\n".join(out) + "\n"


def load_instance(path: str | Path) -> Instance:
    return parse_graph_text(Path(path).read_text())
