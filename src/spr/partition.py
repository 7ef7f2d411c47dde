"""Terminal-centered partitions and their contracted minors.

A valid partition assigns every vertex to exactly one terminal cell, each
cell containing its terminal and inducing a connected subgraph.  Contracting
the cells gives a graph on the terminals whose edge (i, j) exists exactly
when some input edge crosses the two cells, weighted by the true source
distance between the terminals.  Distortion is the worst ratio of contracted
distance to source distance over all terminal pairs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidPartitionError
from .graph import Instance, is_int, search_sets

__all__ = [
    "TerminalPartition",
    "TerminalMinor",
    "Violation",
    "DistortionResult",
    "validate",
    "contract",
    "distortion",
]


class TerminalPartition(NamedTuple):
    """assignment[v] = index of the terminal cell containing vertex v."""

    assignment: tuple[int, ...]


class Violation(NamedTuple):
    cell: int
    reason: str


class TerminalMinor(NamedTuple):
    """Contracted graph on the terminals; weights are source distances."""

    terminals: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]  # (i, j, w) with i < j, sorted

    @property
    def k(self) -> int:
        return len(self.terminals)

    def all_distances(self) -> dict[tuple[int, int], float]:
        dist = [[math.inf] * self.k for _ in range(self.k)]
        for x in range(self.k):
            dist[x][x] = 0.0
        for a, b, w in self.edges:
            dist[a][b] = min(dist[a][b], w)
            dist[b][a] = dist[a][b]
        for mid in range(self.k):
            dm = dist[mid]
            for a in range(self.k):
                via = dist[a][mid]
                if via == math.inf:
                    continue
                row = dist[a]
                for b in range(self.k):
                    alt = via + dm[b]
                    if alt < row[b]:
                        row[b] = alt
        return {
            (a, b): dist[a][b] for a in range(self.k) for b in range(a + 1, self.k)
        }


def validate(inst: Instance, partition: TerminalPartition) -> list[Violation]:
    """Empty list when both partition invariants hold; violations otherwise."""
    return _check_cells(inst, partition)[0]


def _check_cells(inst: Instance, partition: TerminalPartition) -> tuple[list[Violation], set]:
    """:func:`validate`'s violations, and the cell pairs (j, c), j < c, an edge joins.

    Each cell whose terminal it holds is searched from that terminal inside
    itself (:func:`~spr.graph.search_sets`), O(n + m) in total.  Without
    violations every vertex is reached from its terminal, so every crossing
    edge is read.
    """
    n = inst.graph.vertex_count
    k = inst.k
    assignment = partition.assignment
    violations: list[Violation] = []
    if len(assignment) != n:
        return [Violation(-1, f"assignment covers {len(assignment)} of {n} vertices")], set()
    for v, c in enumerate(assignment):
        # The type test first spares the common case a call.
        if not ((type(c) is int or is_int(c)) and 0 <= c < k):
            violations.append(Violation(-1, f"vertex {v} assigned to invalid cell {c}"))
    if violations:
        return violations, set()
    roots = []
    for j, t in enumerate(inst.terminals):
        if assignment[t] == j:
            roots.append((j, t))
        else:
            violations.append(
                Violation(j, f"terminal {t} assigned to cell {assignment[t]}, not {j}")
            )
    # Each cell must induce a connected subgraph containing its terminal.
    reached, joined = search_sets(inst.graph.adjacency, assignment, roots)
    if reached.count(1) != n:
        missing: list[list[int]] = [[] for _ in range(k)]
        for v, seen in enumerate(reached):
            if not seen:
                missing[assignment[v]].append(v)
        for j, t in roots:
            if missing[j]:
                violations.append(
                    Violation(j, f"cell {j} disconnected: {missing[j]} unreachable from terminal {t}")
                )
    return violations, {(j, c) for j, c in joined if j < c}


def contract(inst: Instance, partition: TerminalPartition) -> TerminalMinor:
    """Contract each cell to its terminal; raises on invalid partitions."""
    violations, crossing = _check_cells(inst, partition)
    if violations:
        raise InvalidPartitionError(
            "invalid partition: " + "; ".join(v.reason for v in violations)
        )
    source = inst.terminal_distances()
    edges = tuple((i, j, source[(i, j)]) for i, j in sorted(crossing))
    return TerminalMinor(tuple(inst.terminals), edges)


class DistortionResult(NamedTuple):
    max_ratio: float
    pairs: tuple[tuple[int, int, float, float, float], ...]  # (i, j, source, minor, ratio)


def distortion(inst: Instance, minor: TerminalMinor) -> DistortionResult:
    """Worst and per-pair ratio of minor distance over source distance."""
    minor_dist = minor.all_distances()
    rows = []
    worst = 1.0
    for (i, j), d0 in inst.terminal_distances().items():
        d1 = minor_dist[(i, j)]
        ratio = d1 / d0
        worst = max(worst, ratio)
        rows.append((i, j, d0, d1, ratio))
    return DistortionResult(worst, tuple(rows))

