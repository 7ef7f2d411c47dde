"""Terminal-centered partitions and their contracted minors.

A valid partition assigns every vertex to exactly one terminal cell, each
cell containing its terminal and inducing a connected subgraph.  Contracting
the cells gives a graph on the terminals whose edge (i, j) exists exactly
when some input edge crosses the two cells, weighted by the true source
distance between the terminals.  Distortion is the worst ratio of contracted
distance to source distance over all terminal pairs.
"""

from __future__ import annotations

import itertools
import math
from numbers import Integral
from typing import NamedTuple

from .errors import InvalidPartitionError, TooLargeError
from .graph import Instance

__all__ = [
    "TerminalPartition",
    "TerminalMinor",
    "Violation",
    "DistortionResult",
    "OracleResult",
    "validate",
    "contract",
    "distortion",
    "oracle_optimal",
    "ORACLE_MAX_NON_TERMINALS",
    "ORACLE_MAX_CANDIDATES",
]

ORACLE_MAX_NON_TERMINALS = 8
ORACLE_MAX_CANDIDATES = 4**8


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

    One pass groups the vertices by cell; each cell is then searched from
    its terminal inside its own members, O(n + m) in total, and records
    its neighbours in higher cells.  Without violations every vertex is
    reached from its terminal, so each crossing edge is read from its end
    in the lower cell.
    """
    n = inst.graph.vertex_count
    k = inst.k
    assignment = partition.assignment
    violations: list[Violation] = []
    crossing: set[tuple[int, int]] = set()
    if len(assignment) != n:
        return [Violation(-1, f"assignment covers {len(assignment)} of {n} vertices")], crossing
    members: list[list[int]] = [[] for _ in range(k)]
    for v, c in enumerate(assignment):
        # Cell ids are integers (numpy ones included), never bools or floats.
        if (type(c) is int or isinstance(c, Integral) and not isinstance(c, bool)) and 0 <= c < k:
            members[c].append(v)
        else:
            violations.append(Violation(-1, f"vertex {v} assigned to invalid cell {c}"))
    if violations:
        return violations, crossing
    for j, t in enumerate(inst.terminals):
        if assignment[t] != j:
            violations.append(
                Violation(j, f"terminal {t} assigned to cell {assignment[t]}, not {j}")
            )
    # Each cell must induce a connected subgraph containing its terminal.
    adjacency = inst.graph.adjacency
    reached = [False] * n
    for j, t in enumerate(inst.terminals):
        if assignment[t] != j:
            continue
        reached[t] = True
        count = 1
        stack = [t]
        while stack:
            u = stack.pop()
            for v, _ in adjacency[u]:
                c = assignment[v]
                if c == j:
                    if not reached[v]:
                        reached[v] = True
                        count += 1
                        stack.append(v)
                elif c > j:
                    crossing.add((j, c))
        if count != len(members[j]):
            missing = [v for v in members[j] if not reached[v]]
            violations.append(
                Violation(j, f"cell {j} disconnected: {missing} unreachable from terminal {t}")
            )
    return violations, crossing


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


class OracleResult(NamedTuple):
    distortion: float
    partition: TerminalPartition


def oracle_optimal(inst: Instance) -> OracleResult:
    """Brute-force minimum distortion over all valid partitions.

    Enumerates every assignment of the non-terminals to terminal cells and
    keeps the best valid one (ties resolved toward the lexicographically
    smallest assignment).  Only feasible for tiny instances: at most
    ORACLE_MAX_NON_TERMINALS non-terminals and ORACLE_MAX_CANDIDATES
    assignments (k to the number of non-terminals), checked before any is
    enumerated.
    """
    free = inst.non_terminals()
    if len(free) > ORACLE_MAX_NON_TERMINALS:
        raise TooLargeError(
            f"{len(free)} non-terminals exceed the enumeration limit "
            f"{ORACLE_MAX_NON_TERMINALS}"
        )
    if inst.k ** len(free) > ORACLE_MAX_CANDIDATES:
        raise TooLargeError(
            f"{inst.k}^{len(free)} candidate partitions exceed the enumeration "
            f"limit {ORACLE_MAX_CANDIDATES}"
        )
    n = inst.graph.vertex_count
    base = [0] * n
    for j, t in enumerate(inst.terminals):
        base[t] = j

    best: OracleResult | None = None
    for combo in itertools.product(range(inst.k), repeat=len(free)):
        assignment = base[:]
        for v, c in zip(free, combo):
            assignment[v] = c
        candidate = TerminalPartition(tuple(assignment))
        try:
            minor = contract(inst, candidate)
        except InvalidPartitionError:
            continue
        result = distortion(inst, minor)
        if best is None or result.max_ratio < best.distortion:
            best = OracleResult(result.max_ratio, candidate)
    assert best is not None  # the nearest-terminal partition is always valid
    return best
