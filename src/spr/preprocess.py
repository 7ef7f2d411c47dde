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

The result certifies that it is a minor with a branch-set model: each input
vertex maps to the minor vertex whose branch set holds it, or to None if it
was deleted.  A suppressed vertex joins the branch set of the neighbor it
is folded into, so every set is connected in the input, and every minor edge
joins two sets that an input edge joins.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import VerificationFailedError
from .graph import Instance, WeightedGraph, search_sets

__all__ = [
    "PreprocessResult",
    "PreprocessReport",
    "exact_minor",
    "verify_exact",
]

FLOAT_REL_TOL = 1e-9


class PreprocessResult(NamedTuple):
    minor: Instance
    vertex_map: list[int | None]  # original vertex -> minor vertex, None if dropped
    branch_of: list[int | None]  # original vertex -> minor vertex whose branch set holds it
    passes: int

    @property
    def non_terminal_count(self) -> int:
        return self.minor.graph.vertex_count - self.minor.k


class PreprocessReport(NamedTuple):
    max_abs_deviation: float
    max_rel_deviation: float


def _reduce_pass(inst: Instance) -> tuple[dict[int, dict[int, float]], list[int]]:
    """One reduction pass. Returns (reduced adjacency, folds).

    Keeps the vertices and edges of ``inst.terminal_paths()``, left cached
    on ``inst`` (the fixpoint pass runs on the returned minor), then
    suppresses non-terminals of degree at most 2.  A vertex of degree 0 or 1
    is deleted with its edge.  A vertex v of degree 2 is folded into its
    lower-id neighbor a and joins a's branch set; its two edges become one
    of summed weight.  ``folds`` lists the folds in the order they happened
    as flat pairs ``[v, a, v, a, ...]`` of the pass's vertex ids.
    """
    g = inst.graph
    terminal_set = set(inst.terminals)
    adj: dict[int, dict[int, float]] = {t: {} for t in terminal_set}
    for path in inst.terminal_paths().values():
        for x, y in zip(path, path[1:]):
            row = adj.setdefault(x, {})
            if y not in row:
                row[y] = adj.setdefault(y, {})[x] = g.edge_weight(x, y)

    # A sorted list is a heap.  No fold raises a degree (v's two neighbours
    # each trade v for the other, or drop it), so a vertex still present
    # when popped has degree at most 2, and a later copy finds it gone.
    worklist = sorted(v for v, row in adj.items() if v not in terminal_set and len(row) <= 2)
    folds: list[int] = []
    while worklist:
        v = heapq.heappop(worklist)
        row = adj.pop(v, None)
        if row is None:
            continue
        ends = sorted(row.items())
        for a, _ in ends:
            del adj[a][v]
        if len(ends) == 2:
            (a, wa), (b, wb) = ends
            folds.append(v)
            folds.append(a)
            merged = wa + wb
            if b not in adj[a] or merged < adj[a][b]:
                adj[a][b] = adj[b][a] = merged
        for a, _ in ends:
            if a not in terminal_set and len(adj[a]) <= 2:
                heapq.heappush(worklist, a)

    return adj, folds


def exact_minor(inst: Instance) -> PreprocessResult:
    """Distance-exact minor on the terminals plus at most k^4 branch vertices."""
    original_n = inst.graph.vertex_count
    current = inst
    to_original = list(range(original_n))
    branch_of: list[int | None] = list(range(original_n))
    passes = 0
    while True:
        passes += 1
        g = current.graph
        adj, folds = _reduce_pass(current)
        if len(adj) == g.vertex_count and sum(map(len, adj.values())) == 2 * g.edge_count:
            break  # nothing dropped or suppressed: a fixpoint
        # Walk the folds backwards, so a vertex folded into one that was
        # folded later lands where that one did.
        owner = list(range(g.vertex_count))
        for i in range(len(folds) - 2, -1, -2):
            owner[folds[i]] = owner[folds[i + 1]]
        retained = sorted(adj)
        new_id: list[int | None] = [None] * g.vertex_count
        for i, v in enumerate(retained):
            new_id[v] = i
        branch_of = [None if b is None else new_id[owner[b]] for b in branch_of]
        edges = ((new_id[u], new_id[v], w) for u in retained for v, w in adj[u].items() if u < v)
        # The pass graph comes from a validated one, so it skips build_graph.
        current = Instance(
            WeightedGraph(len(retained), edges),
            [new_id[t] for t in current.terminals],
        )
        to_original = [to_original[v] for v in retained]

    vertex_map: list[int | None] = [None] * original_n
    for minor_id, orig in enumerate(to_original):
        vertex_map[orig] = minor_id
    return PreprocessResult(current, vertex_map, branch_of, passes)


def _verify_model(inst: Instance, result: PreprocessResult) -> None:
    """Check ``result.branch_of`` as a branch-set model of the minor in ``inst``.

    Each minor vertex's set must hold the vertex ``vertex_map`` sends to it
    and be connected in ``inst``: one search inside each set, from that
    vertex (:func:`~spr.graph.search_sets`), must reach every vertex that
    has a set.  The searches record the pairs of sets that input edges
    join, and each minor edge must join one such pair.
    """
    branch_of = result.branch_of
    minor_graph = result.minor.graph
    mapped: list[int | None] = [None] * minor_graph.vertex_count
    for v, b in enumerate(result.vertex_map):
        if b is not None:
            mapped[b] = v
    for b, v in enumerate(mapped):
        if v is None or branch_of[v] != b:
            raise VerificationFailedError(f"minor vertex {b}: no vertex of its branch set maps to it")
    # A deleted neighbour joins as (b, None), which no minor edge matches.
    reached, joined = search_sets(inst.graph.adjacency, branch_of, enumerate(mapped))
    for b, seen in zip(branch_of, reached):
        if b is not None and not seen:
            raise VerificationFailedError(f"minor vertex {b}: its branch set is not connected in the input")
    for a, b, _ in minor_graph.edges:
        if (a, b) not in joined:
            raise VerificationFailedError(f"minor edge ({a}, {b}): no input edge joins branch sets {a} and {b}")


def verify_exact(inst: Instance, result: PreprocessResult) -> PreprocessReport:
    """Recompute all terminal distances in both graphs and compare.

    The distances come from plain searches bounded at the later terminals
    (``Instance.terminal_distances``).  The check builds no ``Skeleton``,
    folds no chain and runs no reduction pass: of what built the minor it
    shares only the level-queue loop, which the pair-heap oracles in the
    tests judge on its own.

    Exact inputs (integer weights summing to at most 2^52, where no path
    sum rounds) must match bit-for-bit; any other input within 1e-9
    relative.  Also checks the non-terminal count against k^4, and first
    the branch-set model (:func:`_verify_model`).  Raises
    VerificationFailedError naming the minor vertex or edge whose model
    fails, or else the pair that deviates most under the rule that applies.
    """
    k = inst.k
    if result.minor.k != k:
        raise VerificationFailedError("terminal count changed during preprocessing")
    _verify_model(inst, result)
    exact = inst.graph.is_exact()
    minor_dist = result.minor.terminal_distances()

    max_abs = 0.0
    max_rel = 0.0
    worst: tuple[int, int] | None = None
    worst_dev = 0.0  # absolute on exact inputs, relative otherwise
    for (a, b), d0 in inst.terminal_distances().items():
        d1 = minor_dist[(a, b)]
        dev = abs(d1 - d0)
        rel = dev / d0 if d0 > 0 else dev
        max_abs = max(max_abs, dev)
        max_rel = max(max_rel, rel)
        deciding = dev if exact else rel
        if deciding > worst_dev:
            worst_dev, worst = deciding, (a, b)

    non_terminals = result.non_terminal_count
    bound = k**4
    if non_terminals > bound:
        raise VerificationFailedError(
            f"{non_terminals} non-terminals exceed the bound {bound}"
        )
    if worst_dev > (0.0 if exact else FLOAT_REL_TOL):
        kind = "" if exact else " relative"
        raise VerificationFailedError(
            f"terminal pair {worst} deviates by {worst_dev}{kind}", pair=worst
        )
    return PreprocessReport(max_abs, max_rel)
