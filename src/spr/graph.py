"""Undirected weighted graphs with a canonical unique-shortest-path system.

The canonical path between two vertices is the minimum over all shortest
paths under the order (length, hop count, lexicographic vertex sequence).
This tie-break is deterministic across platforms and yields a consistent
path system: any subpath of a canonical path is itself the canonical path
between its endpoints.  Directed queries matter: ``Instance.path(j, v)``
is canonical for the direction from terminal j to v.

Weights are 64-bit floats.  Integer-valued weights make every distance an
exact integer sum, which the exactness tests rely on.  Graphs whose weights
sum past the float range are rejected, and a canonical path query raises
where a weight is lost to rounding beside a much longer distance.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
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
    labels are kept by :class:`Instance`, and :meth:`skeleton` builds the
    search structure for target-bounded path queries.
    """

    __slots__ = ("vertex_count", "adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, float]]):
        self.vertex_count = vertex_count
        adj: list[list[tuple[int, float]]] = [[] for _ in range(vertex_count)]
        for u, v, w in edges:
            w = float(w)
            adj[u].append((v, w))
            adj[v].append((u, w))
        for lst in adj:
            lst.sort()
        self.adjacency = tuple(tuple(lst) for lst in adj)

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
        return all(w == int(w) for nbrs in self.adjacency for _, w in nbrs)

    # -- plain distances and canonical shortest paths --------------------

    def _dijkstra(self, s: int, targets: Iterable[int] | None = None) -> list[float]:
        """Plain row from s, full or bounded at ``targets``; see :func:`_level_search`."""
        return _level_search(self.adjacency, None, s, targets)

    def _label(self, s: int, dist: list[float], targets: Iterable[int] | None) -> list[int]:
        """Canonical parents from s on the ancestor closure of ``targets``.

        The closure holds every vertex on some shortest path from s to a
        target: each tight predecessor u (``dist[u] + w == dist[v]``) of a
        closure vertex v is in it, so ``targets=None`` (every vertex) skips
        the walk.  Only closure vertices and their neighbours are read:
        each must hold its full-row distance, or any value above the
        farthest target's distance when that one does.  The passes walk
        the closure in (distance, id) order, minimizing hop count, then
        pick the parent whose canonical sequence is
        lexicographically smallest.  Sequences are never materialized:
        vertices on the same hop level are ranked by (parent rank, vertex
        id), which orders equal-length sequences exactly as direct
        lexicographic comparison would.  Ranks within the closure are an
        order-preserving compression of the full ranks, so every closure
        vertex gets the parent that labelling every vertex would give it.
        Entries outside the closure are meaningless.
        """
        n = self.vertex_count
        adjacency = self.adjacency
        if targets is None:
            closure = range(n)
        else:
            closure = set(targets)
            stack = list(closure)
            while stack:
                v = stack.pop()
                dv = dist[v]
                for u, w in adjacency[v]:
                    if dist[u] + w == dv and u not in closure:
                        closure.add(u)
                        stack.append(u)
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

    def skeleton(self, keep: Iterable[int]) -> Skeleton:
        """The chain skeleton with ``keep`` among its branch vertices; uncached."""
        return Skeleton(self, keep)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise GraphError(f"vertex {v} out of range [0, {self.vertex_count})")


def _level_search(
    links: Sequence, chains: Sequence | None, s: int, targets: Iterable[int] | None
) -> list[float]:
    """Dijkstra from s over ``links``: every vertex, or as far as the farthest target.

    ``links[u]`` holds u's (neighbour, weight) edges.  ``chains`` is None
    for a plain search; a skeleton passes its chain folds, and each chain
    is relaxed by folding its weights left to right onto the distance of
    the end it is read from, so each settled entry is the float a full
    row holds.  Chain interiors stay inf.  Float addition is monotone, so
    every settled entry is the minimum over all paths of the left-to-right
    float sum, whatever order the vertices at one distance settle in.

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
            # Tested per settled vertex, so a plain search reads no chains.
            if chains is not None and (folds := chains[u]):
                for v, weights, _ in folds:
                    nd = d
                    for w in weights:
                        nd += w
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
    """The vertex sequence s -> t read backwards along canonical parents."""
    seq = [t]
    v = t
    while v != s:
        v = parent[v]
        seq.append(v)
    seq.reverse()
    return tuple(seq)


class Skeleton:
    """A graph's chains of degree-2 vertices folded into single edges.

    Branch vertices are ``keep`` plus every vertex whose degree is not 2.
    Each maximal chain of the other vertices becomes one skeleton edge
    between its two end branch vertices that keeps the chain's interior
    ids and weight sequence.  A chain back to its own branch vertex is an
    edge, and so is each of several chains between the same two branch
    vertices; nothing is pruned.  Built in one walk over the adjacency.

    :meth:`shortest_paths` searches branch vertices only and fills in the
    chain interiors that the canonical labelling reads, with the same
    floats a full Dijkstra row holds there.
    """

    __slots__ = ("graph", "keep", "_links", "_chains")

    def __init__(self, graph: WeightedGraph, keep: Iterable[int]):
        keep = frozenset(keep)
        for v in keep:
            graph._check_vertex(v)
        n = graph.vertex_count
        adjacency = graph.adjacency
        branch = bytearray(len(nbrs) != 2 for nbrs in adjacency)
        for v in keep:
            branch[v] = 1
        # links[b]: the (branch neighbour, weight) edges of branch vertex b.
        # chains[b]: [far end, weights, interior] per chain, read from b.
        # Lists, not tuples: CPython keeps thousands of freed small tuples
        # for reuse, and those would hold on to the memory of a freed input
        # graph (measured: +5 MB peak RSS on a subdivided 18k-vertex run).
        links: list = [()] * n
        chains: list = [None] * n
        seen = bytearray(n)
        for b in range(n):
            if not branch[b]:
                continue
            nbrs = adjacency[b]
            direct = [edge for edge in nbrs if branch[edge[0]]]
            links[b] = nbrs if len(direct) == len(nbrs) else direct
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
                if chains[b] is None:
                    chains[b] = []
                chains[b].append([v, weights, inner])
                if chains[v] is None:
                    chains[v] = []
                chains[v].append([b, weights[::-1], inner[::-1]])
        self.graph = graph
        self.keep = keep
        self._links = links
        self._chains = chains

    def _fill_closure(self, dist: list[float], targets: Iterable[int]) -> None:
        """Fill every chain incident to the targets' skeleton closure.

        The closure walks tight edges back from the targets, inside chains
        one vertex at a time, as :meth:`WeightedGraph._label` does.  Each
        closure vertex and each of its neighbours then holds its full-row
        distance, which is all the labelling reads.  An interior distance
        is the smaller of the folds from either end.
        """
        links = self._links
        chains = self._chains
        inf = math.inf
        closure = set(targets)
        stack = list(closure)
        while stack:
            v = stack.pop()
            dv = dist[v]
            for u, w in links[v]:
                if dist[u] + w == dv and u not in closure:
                    closure.add(u)
                    stack.append(u)
            folds = chains[v]
            if not folds:
                continue
            for end, weights, inner in folds:
                if dist[inner[0]] == inf:
                    d = dv
                    for x, w in zip(inner, weights):
                        d += w
                        dist[x] = d
                    d = dist[end]
                    for x, w in zip(reversed(inner), reversed(weights)):
                        d += w
                        if d < dist[x]:
                            dist[x] = d
                d = dv
                for x, w in zip(inner, weights):
                    if dist[x] + w != d:
                        break
                    d = dist[x]
                else:
                    if dist[end] + weights[-1] == d and end not in closure:
                        closure.add(end)
                        stack.append(end)

    def shortest_paths(self, s: int, targets: Sequence[int]) -> list[tuple[int, ...]]:
        """Vertex sequences of the canonical paths from s to each target.

        Equal to the paths that labelling every vertex from s gives; s and
        every target must be in ``keep``.  Labels only the targets'
        shortest-path DAG and caches nothing, so a weight lost to rounding
        raises only where that DAG meets it, with the message full
        labelling gives.
        """
        for v in (s, *targets):
            if v not in self.keep:
                raise GraphError(f"vertex {v} is not kept by this skeleton")
        dist = _level_search(self._links, self._chains, s, targets)
        self._fill_closure(dist, targets)
        parent = self.graph._label(s, dist, targets)
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
    caches each answer on first use: terminal j's plain distance row and
    canonical labels, the terminal-pair distances, the terminal-to-terminal
    paths and the nearest-terminal distances.  The graph caches nothing.
    """

    __slots__ = (
        "graph", "terminals", "_terminal_set", "_rows", "_labels",
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
        self._rows: dict[int, list[float]] = {}
        self._labels: dict[int, list[int]] = {}
        self._terminal_distances: dict[tuple[int, int], float] | None = None
        self._terminal_paths: dict[tuple[int, int], tuple[int, ...]] = {}
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

    def row(self, j: int) -> list[float]:
        """Plain distances from terminal j to every vertex; cached, never mutated."""
        row = self._rows.get(j)
        if row is None:
            row = self._rows[j] = self.graph._dijkstra(self._terminal(j))
        return row

    def path(self, j: int, v: int) -> tuple[int, ...]:
        """Canonical vertex sequence from terminal j to v; its length is ``row(j)[v]``.

        Walks terminal j's canonical parents of every vertex, built once on row j.
        """
        s = self._terminal(j)
        self.graph._check_vertex(v)
        parent = self._labels.get(j)
        if parent is None:
            parent = self._labels[j] = self.graph._label(s, self.row(j), None)
        return _walk(parent, s, v)

    def terminal_distances(self) -> dict[tuple[int, int], float]:
        """d(t_i, t_j) for every pair i < j, keyed (i, j) in that order; cached.

        Entry (i, j) is read from a search from t_i, so t(k-1) is never a
        source and every entry is the float row i holds.  A cached row i
        is read as it is (row t0, after a run: the round cap builds it).
        Otherwise the search from t_i stops once t_(i+1)..t_(k-1) are
        settled (``_dijkstra(s, targets)``); such a bounded row is not
        cached, since ``row`` and ``path`` need full rows.  The shape is
        that of ``TerminalMinor.all_distances()``.
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

    def terminal_path(self, i: int, j: int) -> tuple[int, ...]:
        """Vertex sequence of the canonical path from terminal i to terminal j.

        Cached per ordered pair: the bad-event analysis reads each pair's
        path for its cells and again for every trial's reaches.
        """
        path = self._terminal_paths.get((i, j))
        if path is None:
            path = self._terminal_paths[(i, j)] = self.path(i, self._terminal(j))
        return path

    def nearest_terminal_distances(self) -> list[float]:
        """Per vertex: distance to the nearest terminal (0.0 at terminals).

        The elementwise minimum of the k cached terminal rows.  Cached.
        """
        if self._nearest_distances is None:
            rows = map(self.row, range(self.k))
            self._nearest_distances = list(map(min, zip(*rows)))
        return self._nearest_distances
