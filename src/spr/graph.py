"""Undirected weighted graphs with a canonical unique-shortest-path system.

The canonical path between two vertices is the minimum over all shortest
paths under the order (length, hop count, lexicographic vertex sequence).
This tie-break is deterministic across platforms and yields a consistent
path system: any subpath of a canonical path is itself the canonical path
between its endpoints.  Direction matters: ``Instance.terminal_paths()``
holds the path from terminal i to terminal j under key (i, j), i < j.

Weights are 64-bit floats.  Integer weights summing to at most 2^52
(:meth:`WeightedGraph.is_exact`) make every distance an exact integer sum,
which the exactness tests rely on.  Graphs whose weights sum past the
float range are rejected, and a canonical path query raises only where
its shortest paths meet a weight lost to rounding.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphError,
    NonPositiveWeightError,
    SelfLoopError,
)

__all__ = ["WeightedGraph", "Skeleton", "Instance", "build_graph"]


class WeightedGraph:
    """Immutable undirected graph with positive edge weights.

    Input from outside goes through :func:`build_graph`, which validates
    the invariants (positive finite weights, no self-loops, no duplicate
    edges, connected).  The constructor checks nothing; it is called
    directly only on a graph derived from a validated one, such as an
    exact-minor pass graph.
    The adjacency lists, sorted by neighbor, are the only copy of the edges.
    The graph caches nothing and is never mutated: terminal rows and
    paths are kept by :class:`Instance`, whose terminal paths come from a
    :class:`Skeleton` built for the query.
    """

    __slots__ = ("vertex_count", "adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, float]]):
        self.vertex_count = vertex_count
        adj: list[list[tuple[int, float]]] = [[] for _ in range(vertex_count)]
        for u, v, w in edges:
            w = float(w)
            adj[u].append((v, w))
            adj[v].append((u, w))
        # Each row list is freed as soon as its tuple is made.
        for u, row in enumerate(adj):
            row.sort()
            adj[u] = tuple(row)
        self.adjacency = tuple(adj)

    # -- basic queries -------------------------------------------------

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge {u, v}; KeyError if there is no such edge."""
        if not 0 <= u < self.vertex_count:
            raise KeyError((u, v))
        row = self.adjacency[u]
        i = bisect_left(row, (v,))
        if i == len(row) or row[i][0] != v:
            raise KeyError((u, v))
        return row[i][1]

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Each edge once as ``(u, v, w)``, u < v, sorted; derived from the adjacency."""
        return tuple((u, v, w) for u, nbrs in enumerate(self.adjacency) for v, w in nbrs if u < v)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def is_integer_weighted(self) -> bool:
        return all(map(float.is_integer, map(itemgetter(1), chain.from_iterable(self.adjacency))))

    def is_exact(self) -> bool:
        """Integer weights summing to at most 2^52, so every path sum is exact.

        Every distance is then an integer of at most 2^52, and every partial
        sum along a path one of at most 2^53, so no float addition rounds.
        The adjacency counts each edge twice and fsum rounds the doubled
        total once, so it is at most 2^53 exactly when the weights sum to
        at most 2^52.
        """
        return self.is_integer_weighted() and (
            math.fsum(map(itemgetter(1), chain.from_iterable(self.adjacency))) <= 2.0**53
        )

    # -- plain distances and canonical shortest paths --------------------

    def _dijkstra(self, s: int, targets: Iterable[int] | None = None) -> list[float]:
        """Plain row from s, full or bounded at ``targets``; see :func:`_level_search`."""
        return _level_search(self.adjacency, s, targets)

    def _label(self, s: int, dist: list[float], closure: Iterable[int]) -> list[int]:
        """Canonical parents from s on ``closure``.

        A closure holds every tight predecessor u (``dist[u] + w ==
        dist[v]``) of each of its vertices v, such as the vertices on some
        shortest path from s to a set of targets, which
        :meth:`Skeleton._fill_closure` returns.  Only closure vertices and
        their neighbours are read: each must hold its full-row distance, or
        any value above the farthest target's distance when that one does.
        The passes walk the closure in (distance, id) order, minimizing hop
        count, then pick the parent whose canonical sequence is
        lexicographically smallest.  Sequences are never materialized:
        vertices on the same hop level are ranked by (parent rank, vertex
        id), which orders equal-length sequences exactly as direct
        lexicographic comparison would.  Ranks within the closure are an
        order-preserving compression of the full ranks, so every closure
        vertex gets the parent that labelling every vertex (the closure
        ``range(n)``) would give it.  Entries outside it are meaningless.
        """
        n = self.vertex_count
        adjacency = self.adjacency
        order = sorted(closure, key=lambda v: (dist[v], v))

        hop = [0] * n
        for v in order:
            if v == s:
                continue
            dv = dist[v]
            best = None
            for u, w in adjacency[v]:
                if dist[u] + w == dv:
                    if dist[u] == dv:
                        raise GraphError(
                            f"edge ({u}, {v}) of weight {w!r} is lost to rounding "
                            f"at distance {dv!r} from vertex {s}"
                        )
                    h = hop[u] + 1
                    if best is None or h < best:
                        best = h
            hop[v] = best if best is not None else 0

        # Group by hop level; within a level, (parent's rank, vertex id)
        # orders equal-length canonical sequences lexicographically.
        levels: dict[int, list[int]] = {}
        for v in order:
            if v != s:
                levels.setdefault(hop[v], []).append(v)
        parent = [-1] * n
        rank = [0] * n
        for h in sorted(levels):
            level = levels[h]
            for v in level:
                dv = dist[v]
                best_u = -1
                for u, w in adjacency[v]:
                    if (
                        hop[u] == h - 1
                        and dist[u] + w == dv
                        and (best_u < 0 or (rank[u], u) < (rank[best_u], best_u))
                    ):
                        best_u = u
                parent[v] = best_u
            level = sorted(level, key=lambda v: (rank[parent[v]], v))
            for i, v in enumerate(level):
                rank[v] = i

        return parent


def _level_search(links: Sequence, s: int, targets: Iterable[int] | None) -> list[float]:
    """Dijkstra from s over ``links``: every vertex, or as far as the farthest target.

    ``links[u]`` holds u's (neighbour, weight) edges: a graph's adjacency,
    or a skeleton's search links.  Float addition is monotone, so every
    settled entry is the minimum over all paths of the left-to-right float
    sum, whatever order the vertices at one distance settle in.

    The queue is a level queue (Dial's bucket idea): a heap of the
    distinct tentative distances, each with the list of vertices pushed
    at it, so a relaxation to a known distance is one list append.  Its
    gain depends on the number of vertices per distinct distance: 34 to
    116 in a row of the benchmark's graphs, whose weights are integers
    1..10, where rows take ~40% less time than on a heap of (distance,
    vertex) pairs.  With every distance distinct, as with uniform float
    weights, a row takes ~10% more (+7% and +13% on two 150x150 grids).
    An entry whose vertex has since moved closer is stale and skipped.  A
    weight lost to rounding (``d + w == d``) lands in a fresh list at d,
    pushed again.

    With ``targets``, let D be the distance at which the last target
    settles: every vertex at most D away is settled, including a later
    batch at D that a weight lost to rounding creates, and the search
    stops at the first distance beyond D.  So the same vertices relax
    their neighbours as on a heap of (distance, vertex) pairs: each
    target's entry is the float the full row holds, and the tentative
    entries beyond D, which the skeleton's closure fill and the labelling
    read, are the same floats.
    """
    dist = [math.inf] * len(links)
    dist[s] = 0.0
    levels = {0.0: [s]}
    heap = [0.0]
    pop = heapq.heappop
    push = heapq.heappush
    # Levels at most ``limit`` away skip the target bookkeeping; with no
    # targets that is every level.  Otherwise the limit stays below every
    # distance until the last target is settled, and then becomes its
    # distance.  A stale entry's vertex was settled earlier, so
    # discarding it from ``pending`` is a no-op.
    if targets is None:
        pending = None
        limit = math.inf
    else:
        pending = set(targets)
        limit = -1.0
    while heap:
        d = pop(heap)
        level = levels.pop(d)
        if d > limit:
            if not pending:
                break
            pending.difference_update(level)
            if not pending:
                limit = d
        for u in level:
            if dist[u] != d:
                continue
            for v, w in links[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    bucket = levels.get(nd)
                    if bucket is None:
                        levels[nd] = [v]
                        push(heap, nd)
                    else:
                        bucket.append(v)
    return dist


def _walk(parent: list[int], s: int, t: int) -> tuple[int, ...]:
    """The vertex sequence s -> t read back along canonical parents; a missing parent raises."""
    seq = [t]
    v = t
    while v != s:
        v = parent[v]
        if v < 0:
            raise GraphError(f"no canonical parent chain from vertex {s} to vertex {t}")
        seq.append(v)
    seq.reverse()
    return tuple(seq)


class Skeleton:
    """A graph's chains of degree-2 vertices folded into single edges.

    The chain rule: a graph has chains only where their totals are exact,
    that is when :meth:`WeightedGraph.is_exact` holds.  There each partial
    sum along a chain is exact, so the left-to-right fold a full row holds
    equals the distance of the end it is read from plus the chain's total.
    Branch vertices are then ``keep`` plus every vertex whose degree is
    not 2; on any other graph every vertex is a branch vertex, and the
    skeleton has no chains.

    Each maximal chain of non-branch vertices becomes one skeleton edge
    between its two end branch vertices that keeps the chain's interior
    ids and weight sequence.  A chain back to its own branch vertex is an
    edge, and so is each of several chains between the same two branch
    vertices; nothing is pruned.  Built in one walk over the adjacency
    into two tables: the search links, which are the direct edges plus
    one (far end, total) link per chain end, and the chain records.

    :meth:`shortest_paths` searches branch vertices only and fills in the
    chain interiors that the canonical labelling reads, with the same
    floats a full Dijkstra row holds there.
    """

    __slots__ = ("graph", "keep", "_chains", "_search")

    def __init__(self, graph: WeightedGraph, keep: Iterable[int]):
        keep = frozenset(keep)
        n = graph.vertex_count
        for v in keep:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range [0, {n})")
        adjacency = graph.adjacency
        exact = graph.is_exact()
        branch = bytearray(not exact or len(nbrs) != 2 for nbrs in adjacency)
        for v in keep:
            branch[v] = 1
        # search[b]: the links the level search reads from branch vertex b,
        # its (branch neighbour, weight) edges, then one (far end, total)
        # link per chain end.  chains[b]: the records of the chains ending
        # at b, in the order of their links.  A record [a, z, weights,
        # interior] is read forward from a and reversed from z, and both
        # ends hold the same record.  A chain back to its own end is read
        # forward from both, so its second end holds a reversed copy.
        # Lists, not tuples: CPython keeps thousands of freed small tuples
        # for reuse, and those would hold on to the memory of a freed input
        # graph (measured: +5 MB peak RSS on a subdivided 18k-vertex run).
        search: list = [()] * n
        chains: list = [None] * n
        seen = bytearray(n)
        for b in range(n):
            if not branch[b]:
                continue
            nbrs = adjacency[b]
            direct = [edge for edge in nbrs if branch[edge[0]]]
            search[b] = nbrs if len(direct) == len(nbrs) else direct
            for x, w in nbrs:
                if branch[x] or seen[x]:
                    continue
                inner = []
                weights = [w]
                prev, v = b, x
                while not branch[v]:
                    seen[v] = 1
                    inner.append(v)
                    (y, wy), (z, wz) = adjacency[v]
                    if y == prev:
                        y, wy = z, wz
                    weights.append(wy)
                    prev, v = v, y
                record = [b, v, weights, inner]
                if chains[b] is None:
                    chains[b] = []
                chains[b].append(record)
                if chains[v] is None:
                    chains[v] = []
                chains[v].append(record if v != b else [b, b, weights[::-1], inner[::-1]])
        # A chain end has a non-branch neighbour, so its direct links are a fresh list.
        for b, folds in enumerate(chains):
            if folds:
                search[b] += [(z if a == b else a, sum(weights)) for a, z, weights, _ in folds]
        self.graph = graph
        self.keep = keep
        self._chains = chains
        self._search = search

    def _fill_closure(self, dist: list[float], targets: Iterable[int]) -> set[int]:
        """Fill in what the labelling of the targets' closure reads; return the closure.

        The closure holds the targets and every tight predecessor u
        (``dist[u] + w == dist[v]``) of its vertices v: the branch vertices
        and chain interiors on some shortest path from the source to a
        target, walked back from the targets over the search links.
        Chains exist only on exact graphs, where a chain's (far end, total)
        link is tight exactly when the whole chain is.  Each chain at a
        closure vertex is walked from it while tight: a tight chain's
        interiors all join the closure, and another chain's walk stops
        after the interior next to the vertex.  Each interior walked gets
        the smaller of the folds from either end, the far one read from
        the chain's total, so each closure vertex and each of its
        neighbours holds its full-row distance, all the labelling reads.
        Only ``inf`` entries are written, so a full row is never written.
        """
        search = self._search
        chains = self._chains
        inf = math.inf
        closure = set(targets)
        stack = list(closure)
        while stack:
            v = stack.pop()
            dv = dist[v]
            links = search[v]
            folds = chains[v] or ()
            # i reaches 0 at the first chain link and then indexes folds.
            for i, (u, w) in enumerate(links, len(folds) - len(links)):
                far = dist[u] + w
                if far == dv and u not in closure:
                    closure.add(u)
                    stack.append(u)
                if i < 0:
                    continue
                a, _, weights, inner = folds[i]
                steps = zip(inner, weights) if a == v else zip(reversed(inner), reversed(weights))
                tight = far == dv
                near = dv
                for x, w in steps:
                    near += w
                    far -= w
                    if dist[x] == inf:
                        dist[x] = near if near < far else far
                    if not tight:
                        break
                    closure.add(x)
        return closure

    def shortest_paths(
        self, s: int, targets: Sequence[int], row: Sequence[float] | None = None
    ) -> list[tuple[int, ...]]:
        """Vertex sequences of the canonical paths from s to each target.

        Equal to the paths that labelling every vertex from s gives; s and
        every target must be in ``keep``.  Labels only the targets'
        shortest-path DAG and caches nothing, so a weight lost to rounding
        raises only where that DAG meets it, with the message full
        labelling gives.  A full row from s, when given, replaces the
        search and is read, not written: it holds no ``inf`` on a
        connected graph, so the closure fill has nothing to fill.
        """
        for v in (s, *targets):
            if v not in self.keep:
                raise GraphError(f"vertex {v} is not kept by this skeleton")
        dist = _level_search(self._search, s, targets) if row is None else row
        closure = self._fill_closure(dist, targets)
        parent = self.graph._label(s, dist, closure)
        return [_walk(parent, s, t) for t in targets]


def build_graph(vertex_count: int, edge_list: Sequence[tuple[int, int, float]]) -> WeightedGraph:
    """Validate and build a connected weighted graph.

    Raises on nonpositive/non-finite weights, a non-finite weight total,
    self-loops, duplicate edges, and disconnected inputs.  Adjacency lists
    come out sorted by neighbor id.
    """
    if vertex_count < 1:
        raise GraphError("vertex count must be positive")
    seen: set[tuple[int, int]] = set()
    for u, v, w in edge_list:
        if not 0 <= u < vertex_count or not 0 <= v < vertex_count:
            raise GraphError(f"edge ({u}, {v}) has an endpoint out of range")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (w > 0 and math.isfinite(w)):
            raise NonPositiveWeightError(f"edge ({u}, {v}) has weight {w!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
    del seen  # free the keys before the adjacency is allocated
    total = sum(w for _, _, w in edge_list)
    if not math.isfinite(total):
        raise GraphError(f"edge weights sum to {total!r}; path lengths would overflow")
    # Checked before any per-vertex allocation: a huge vertex count with a
    # few edges is refused without building its adjacency.
    if len(edge_list) < vertex_count - 1:
        raise DisconnectedError(
            f"{vertex_count} vertices need at least {vertex_count - 1} edges, "
            f"got {len(edge_list)}"
        )
    graph = WeightedGraph(vertex_count, edge_list)
    _check_connected(graph)
    return graph


def _check_connected(graph: WeightedGraph) -> None:
    n = graph.vertex_count
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v, _ in graph.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    if count != n:
        raise DisconnectedError(f"graph has {n} vertices but only {count} reachable from 0")


class Instance:
    """A connected weighted graph together with an ordered terminal set.

    Terminal order is fixed: index j names the j-th terminal for the whole
    run.  The instance owns every query whose source is a terminal, and
    caches each answer on first use: terminal j's plain distance row, the
    terminal-pair distances, the terminal-pair canonical paths and the
    nearest-terminal distances.  The graph caches nothing.
    """

    __slots__ = (
        "graph", "terminals", "_terminal_set", "_rows",
        "_terminal_distances", "_terminal_paths", "_nearest_distances",
    )

    def __init__(self, graph: WeightedGraph, terminals: Sequence[int]):
        terminals = tuple(terminals)
        if len(terminals) < 2:
            raise GraphError("an instance needs at least two terminals")
        if len(set(terminals)) != len(terminals):
            raise GraphError("terminals must be distinct")
        for t in terminals:
            if not 0 <= t < graph.vertex_count:
                raise GraphError(f"terminal {t} out of range")
        self.graph = graph
        self.terminals = terminals
        self._terminal_set = frozenset(terminals)
        self._rows: dict[int, array] = {}
        self._terminal_distances: dict[tuple[int, int], float] | None = None
        self._terminal_paths: dict[tuple[int, int], tuple[int, ...]] | None = None
        self._nearest_distances: list[float] | None = None

    @property
    def k(self) -> int:
        return len(self.terminals)

    def is_terminal(self, v: int) -> bool:
        return v in self._terminal_set

    def non_terminals(self) -> list[int]:
        return [v for v in range(self.graph.vertex_count) if v not in self._terminal_set]

    def _terminal(self, j: int) -> int:
        """The vertex of terminal j; a negative j is out of range, not wrapped."""
        if not 0 <= j < self.k:
            raise GraphError(f"terminal index {j} out of range [0, {self.k})")
        return self.terminals[j]

    def row(self, j: int) -> array:
        """Plain distances from terminal j to every vertex; cached as a float array, never mutated."""
        row = self._rows.get(j)
        if row is None:
            row = self._rows[j] = array("d", self.graph._dijkstra(self._terminal(j)))
        return row

    def terminal_distances(self) -> dict[tuple[int, int], float]:
        """d(t_i, t_j) for every pair i < j, keyed (i, j) in that order; cached.

        Entry (i, j) is read from a search from t_i, so t(k-1) is never a
        source and every entry is the float row i holds.  A cached row i
        is read as it is (row t0, after a run: the round cap builds it).
        Otherwise the search from t_i stops once t_(i+1)..t_(k-1) are
        settled (``_dijkstra(s, targets)``); such a bounded row is not
        cached, since ``row`` must be a full row.  The shape is that of
        ``TerminalMinor.all_distances()``.
        """
        if self._terminal_distances is None:
            t, k = self.terminals, self.k
            table = {}
            for i in range(k - 1):
                row = self._rows.get(i)
                if row is None:
                    row = self.graph._dijkstra(t[i], t[i + 1 :])
                for j in range(i + 1, k):
                    table[(i, j)] = row[t[j]]
            self._terminal_distances = table
        return self._terminal_distances

    def terminal_paths(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Canonical vertex sequence from t_i to t_j for every pair i < j; cached.

        Keyed as :meth:`terminal_distances`, whose entries are the paths'
        lengths.  One :class:`Skeleton` on the terminals serves the k - 1
        searches from t_i to t_(i+1)..t_(k-1), which label only the paths'
        shortest-path DAGs, and is dropped before the table is returned.
        A cached full row i replaces search i.
        """
        if self._terminal_paths is None:
            t, k = self.terminals, self.k
            skeleton = Skeleton(self.graph, t)
            table = {}
            for i in range(k - 1):
                paths = skeleton.shortest_paths(t[i], t[i + 1 :], self._rows.get(i))
                for j, path in enumerate(paths, i + 1):
                    table[(i, j)] = path
            self._terminal_paths = table
        return self._terminal_paths

    def nearest_terminal_distances(self) -> list[float]:
        """Per vertex: distance to the nearest terminal (0.0 at terminals).

        The elementwise minimum of the k cached terminal rows.  Cached.
        """
        if self._nearest_distances is None:
            rows = map(self.row, range(self.k))
            self._nearest_distances = list(map(min, zip(*rows)))
        return self._nearest_distances
