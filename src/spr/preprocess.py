"""Reduce an instance to a small minor that preserves terminal distances exactly.

The construction keeps the union of all canonical shortest paths between
terminal pairs, then suppresses every degree-2 non-terminal (merging its two
incident edges into one of summed weight; parallel edges collapse to the
minimum).  Because the canonical path system is consistent, two kept paths
overlap in contiguous stretches, so the surviving branch vertices number at
most k^4.

The reduction is applied repeatedly until it reaches a fixpoint, so running
it on its own output is the identity.  A single pass can be unstable: the
reduced graph re-breaks ties with new hop counts and vertex ids, which may
route a canonical path around a previously kept branch vertex.

Every step is recorded as a minor operation (delete-edge, delete-vertex,
contract-edge); replaying the log on the original graph reproduces the
reduced graph, which is how tests witness minor validity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import VerificationFailedError
from .graph import Instance, build_graph

__all__ = [
    "ContractionOp",
    "PreprocessResult",
    "PreprocessReport",
    "exact_minor",
    "verify_exact",
    "replay_contraction_log",
]

FLOAT_REL_TOL = 1e-9


@dataclass(frozen=True)
class ContractionOp:
    """One minor operation.

    kind is one of "delete-edge", "delete-vertex", "contract-edge".
    For contract-edge the operands are (v, a): vertex v is folded into its
    neighbor a; each remaining edge (v, x) becomes (a, x) with w(v, x) +
    w(v, a) added, and parallel edges keep the minimum weight.
    """

    kind: str
    operands: tuple[int, ...]


@dataclass
class PreprocessResult:
    minor: Instance
    vertex_map: list[int | None]  # original vertex -> minor vertex, None if dropped
    contraction_log: list[ContractionOp]
    passes: int

    @property
    def non_terminal_count(self) -> int:
        return self.minor.graph.vertex_count - self.minor.k


@dataclass
class PreprocessReport:
    max_abs_deviation: float
    max_rel_deviation: float
    non_terminal_count: int


def _reduce_pass(inst: Instance, to_original: list[int]):
    """One reduction pass. Returns (retained ids sorted, ops, reduced adjacency).

    The ops name vertices by their ids in the original input, read from
    ``to_original``; the retained ids and the adjacency use the pass's own.
    """
    g = inst.graph
    terms = inst.terminals
    k = len(terms)

    skeleton = g.skeleton(terms)
    keep_vertices: set[int] = set(terms)
    keep_edges: set[tuple[int, int]] = set()
    for a in range(k - 1):
        for path in skeleton.shortest_paths(terms[a], terms[a + 1 :]):
            keep_vertices.update(path)
            for x, y in zip(path, path[1:]):
                keep_edges.add((x, y) if x < y else (y, x))
    del skeleton  # free before the op log below is built

    ops: list[ContractionOp] = []
    for u, v, _ in sorted(g.edges):
        if (u, v) not in keep_edges:
            ops.append(ContractionOp("delete-edge", (to_original[u], to_original[v])))
    for v in range(g.vertex_count):
        if v not in keep_vertices:
            ops.append(ContractionOp("delete-vertex", (to_original[v],)))

    adj: dict[int, dict[int, float]] = {v: {} for v in keep_vertices}
    for u, v in keep_edges:
        w = g.edge_weight(u, v)
        adj[u][v] = w
        adj[v][u] = w

    terminal_set = set(terms)
    worklist = [
        v for v in sorted(keep_vertices) if v not in terminal_set and len(adj[v]) <= 2
    ]
    heapq.heapify(worklist)
    queued = set(worklist)

    def requeue(x: int) -> None:
        if x in adj and x not in terminal_set and len(adj[x]) <= 2 and x not in queued:
            heapq.heappush(worklist, x)
            queued.add(x)

    while worklist:
        v = heapq.heappop(worklist)
        queued.discard(v)
        if v not in adj:
            continue
        degree = len(adj[v])
        if degree > 2:
            continue
        if degree == 0:
            ops.append(ContractionOp("delete-vertex", (to_original[v],)))
            del adj[v]
            continue
        if degree == 1:
            (a, _), = adj[v].items()
            ops.append(
                ContractionOp("delete-edge", (to_original[min(v, a)], to_original[max(v, a)]))
            )
            ops.append(ContractionOp("delete-vertex", (to_original[v],)))
            del adj[a][v]
            del adj[v]
            requeue(a)
            continue
        (a, wa), (b, wb) = sorted(adj[v].items())
        ops.append(ContractionOp("contract-edge", (to_original[v], to_original[a])))
        merged = wa + wb
        del adj[a][v]
        del adj[b][v]
        del adj[v]
        if b in adj[a]:
            if merged < adj[a][b]:
                adj[a][b] = merged
                adj[b][a] = merged
        else:
            adj[a][b] = merged
            adj[b][a] = merged
        requeue(a)
        requeue(b)

    return sorted(adj), ops, adj


def exact_minor(inst: Instance) -> PreprocessResult:
    """Distance-exact minor on the terminals plus at most k^4 branch vertices."""
    original_n = inst.graph.vertex_count
    current = inst
    to_original = list(range(original_n))
    log: list[ContractionOp] = []
    passes = 0
    while True:
        passes += 1
        retained, ops, adj = _reduce_pass(current, to_original)
        log.extend(ops)
        if not ops:
            break
        index_of = {v: i for i, v in enumerate(retained)}
        edges = sorted(
            (index_of[u], index_of[v], w)
            for u in retained
            for v, w in adj[u].items()
            if u < v
        )
        current = Instance(
            build_graph(len(retained), edges),
            [index_of[t] for t in current.terminals],
        )
        to_original = [to_original[v] for v in retained]

    vertex_map: list[int | None] = [None] * original_n
    for minor_id, orig in enumerate(to_original):
        vertex_map[orig] = minor_id
    return PreprocessResult(current, vertex_map, log, passes)


def replay_contraction_log(graph, ops):
    """Apply a contraction log to a graph; edges keyed by original vertex ids.

    Returns the resulting adjacency {v: {u: w}}.  Used to witness that the
    reduced graph really is a minor of the input.
    """
    adj: dict[int, dict[int, float]] = {v: {} for v in range(graph.vertex_count)}
    for u, v, w in graph.edges:
        adj[u][v] = w
        adj[v][u] = w
    for op in ops:
        if op.kind == "delete-edge":
            u, v = op.operands
            del adj[u][v]
            del adj[v][u]
        elif op.kind == "delete-vertex":
            (v,) = op.operands
            for u in list(adj[v]):
                del adj[u][v]
            del adj[v]
        elif op.kind == "contract-edge":
            v, a = op.operands
            base = adj[v].pop(a)
            del adj[a][v]
            for x, w in adj[v].items():
                del adj[x][v]
                merged = w + base
                if x in adj[a]:
                    if merged < adj[a][x]:
                        adj[a][x] = merged
                        adj[x][a] = merged
                else:
                    adj[a][x] = merged
                    adj[x][a] = merged
            del adj[v]
        else:
            raise ValueError(f"unknown contraction op {op.kind!r}")
    return adj


def verify_exact(inst: Instance, result: PreprocessResult) -> PreprocessReport:
    """Recompute all terminal distances in both graphs and compare.

    Integer-weight inputs must match bit-for-bit; float inputs within 1e-9
    relative.  Also checks the non-terminal count against k^4.  Raises
    VerificationFailedError naming the offending pair.
    """
    k = inst.k
    if result.minor.k != k:
        raise VerificationFailedError("terminal count changed during preprocessing")
    g = inst.graph
    mg = result.minor.graph
    integer = g.is_integer_weighted()

    max_abs = 0.0
    max_rel = 0.0
    worst: tuple[int, int] | None = None
    for a in range(k):
        for b in range(a + 1, k):
            d0 = g.distance(inst.terminals[a], inst.terminals[b])
            d1 = mg.distance(result.minor.terminals[a], result.minor.terminals[b])
            dev = abs(d1 - d0)
            rel = dev / d0 if d0 > 0 else dev
            if dev > max_abs:
                max_abs = dev
                worst = (a, b)
            max_rel = max(max_rel, rel)

    non_terminals = result.non_terminal_count
    bound = k**4
    report = PreprocessReport(max_abs, max_rel, non_terminals)
    if non_terminals > bound:
        raise VerificationFailedError(
            f"{non_terminals} non-terminals exceed the bound {bound}"
        )
    if (integer and max_abs != 0.0) or (not integer and max_rel > FLOAT_REL_TOL):
        raise VerificationFailedError(
            f"terminal pair {worst} deviates by {max_abs}", pair=worst
        )
    return report
