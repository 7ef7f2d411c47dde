"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms:
all-pairs distances come from Floyd-Warshall, canonical paths from
exhaustive simple-path enumeration, plain rows and the bounded skeleton
search from a binary heap of (distance, vertex) pairs, the trace JSON
from ``json.dumps`` of ``trace_to_dict``, the exact minor's branch-set
model from breadth-first search and Floyd-Warshall, and the bad-event
analysis from a per-event reach replay of each pair on its own.
"""

from __future__ import annotations

import heapq
import io
import math
import random
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest

from spr import Instance, TerminalPartition, build_graph, contract, exact_minor, path_partition, run
from spr.cli import main
from spr.preprocess import FLOAT_REL_TOL


def invoke(argv):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def trace_to_dict(trace):
    """JSON-ready trace: params echo, per-round draws, one event per vertex."""
    params = trace.params
    return {
        "schema_version": 1,
        "params": {
            "delta": params.delta,
            "log_base": math.e,  # logs are natural; kept as a schema-v1 constant
            "c1": params.c1,
            "c2": params.c2,
            "c3": params.c3,
            "max_rounds": params.max_rounds,
            "seed": params.seed,
            # Schema-v1 keys of removed options, fixed so trace bytes stay identical.
            "complete_final_round": False,
            "increment_distribution": "exponential",
        },
        "base_mean": trace.base_mean,
        "growth_rate": trace.growth_rate,
        "round_cap": trace.round_cap,
        "total_rounds": trace.total_rounds,
        "rounds": [
            {
                "index": record.index,
                "mean": record.mean,
                "draws": [
                    {"terminal": terminal, "value": value}
                    for terminal, value in record.draws
                ],
            }
            for record in trace.rounds
        ],
        "events": [
            {
                "vertex": vertex,
                "terminal": event.terminal,
                "round": event.round_index,
                "mean": event.round_mean,
                "radius": event.radius,
            }
            for event in trace.events
            for vertex in event.vertices
        ],
    }


def random_connected_instance(seed, n, k, wmax=10, extra_factor=1.0):
    """Random connected graph with integer weights and k random terminals."""
    rng = random.Random(seed)
    edges = []
    used = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, float(rng.randint(1, wmax))))
        used.add((u, v))
    for _ in range(int(extra_factor * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in used:
            continue
        used.add(key)
        edges.append((key[0], key[1], float(rng.randint(1, wmax))))
    terminals = rng.sample(range(n), k)
    return Instance(build_graph(n, edges), terminals)


# Weights whose sums round: distance ties and tie-breaks are not exact.
NON_DYADIC_WEIGHTS = (0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 0.7)


def reweighted(inst, weights, seed):
    """The same graph and terminals with each weight drawn from ``weights``."""
    rng = random.Random(seed)
    edges = [(u, v, rng.choice(weights)) for u, v, _ in inst.graph.edges]
    return Instance(build_graph(inst.graph.vertex_count, edges), inst.terminals)


def restricted_distances(g, allowed, center):
    """Distances from ``center`` inside the subgraph induced by ``allowed``."""
    dist = {center: 0.0}
    heap = [(0.0, center)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in g.adjacency[u]:
            if v in allowed and d + w < dist.get(v, math.inf):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def heap_dijkstra(g, s):
    """Reference plain row: Dijkstra on a heap of (distance, vertex) pairs."""
    n = g.vertex_count
    dist = restricted_distances(g, range(n), s)
    return [dist.get(v, math.inf) for v in range(n)]


def heap_skeleton_search(sk, s, targets):
    """Reference bounded search over ``sk``'s branch vertices, on a pair heap.

    Pops in (distance, vertex) order.  Once the last target is settled at
    distance D, it settles every vertex still popped at D and stops at the
    first pop beyond D; every entry, tentative ones included, is returned.
    """
    dist = [math.inf] * sk.graph.vertex_count
    dist[s] = 0.0
    heap = [(0.0, s)]
    pending = set(targets)
    limit = -1.0
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if d > limit:
            if not pending:
                break
            pending.discard(u)
            if not pending:
                limit = d
        # A chain's weights fold left to right onto d, as a full row sums them.
        relaxed = [(v, d + w) for v, w in sk._links[u]]
        for v, weights, _ in sk._chains[u] or ():
            nd = d
            for w in weights:
                nd += w
            relaxed.append((v, nd))
        for v, nd in relaxed:
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def replay_reaches(inst, trace, i, j, cells):
    """Literal per-event reach replay: every batch is matched against the path.

    Interior terminals come first, one batch each in terminal order; then
    the trace's events, one batch per draw, in run order.
    Returns (reaches, cover, fully_deactivated): ``reaches[ci]`` lists cell
    ci's reaches as (order, terminal, q_min, q_max) and ``cover`` maps each
    deactivated interior index to the reach that deactivated it.
    """
    path = inst.path(i, inst.terminals[j])
    last = len(path) - 1
    reaches = [[] for _ in cells]
    cover = {}
    index_of = {path[q]: q for q in range(1, last)}
    active = [False] + [True] * max(last - 1, 0)
    cell_at = {q: ci for ci, cell in enumerate(cells) for q in range(cell.start, cell.end + 1)}
    counter = 0

    def process(terminal, vertices):
        nonlocal counter
        by_cell = {}
        for v in vertices:
            q = index_of.get(v)
            if q is not None and active[q] and q in cell_at:
                by_cell.setdefault(cell_at[q], []).append(q)
        for ci in sorted(by_cell):
            reach = (counter, terminal, min(by_cell[ci]), max(by_cell[ci]))
            counter += 1
            reaches[ci].append(reach)
            for q in range(reach[2], reach[3] + 1):
                if active[q]:
                    active[q] = False
                    cover[q] = reach

    for h, t in enumerate(inst.terminals):
        if t in index_of:
            process(h, [t])
    for event in trace.events:
        process(event.terminal, event.vertices)
    return reaches, cover, not any(active[1:last])


def fused_cover_chain(cells, cover):
    """The covering reaches cell by cell, abutting ones through one terminal fused.

    Returns [terminal, q_min, q_max] per detour, in walk order.
    """
    chain = []
    for cell in cells:
        pos = cell.start
        while pos <= cell.end:
            _, terminal, q_min, q_max = cover[pos]
            if chain and chain[-1][0] == terminal and chain[-1][2] + 1 == q_min:
                chain[-1][2] = q_max
            else:
                chain.append([terminal, q_min, q_max])
            pos = q_max + 1
    return chain


def detour_walk(inst, path, cells, cover):
    """The pair's witness walk through the absorbing terminals: (vertices, length, detours).

    The walk takes the first path edge, then per detour [terminal, q_min,
    q_max] of :func:`fused_cover_chain` goes from v_{q_min} into the
    terminal along its canonical path reversed, out along its canonical
    path to v_{q_max}, and over the exit edge to v_{q_max + 1}.  The length
    adds each detour's legs from the terminal's row, in walk order.
    """
    g = inst.graph
    vertices = list(path[:2])
    length = g.edge_weight(path[0], path[1])
    detours = fused_cover_chain(cells, cover)
    for terminal, q_min, q_max in detours:
        first, last, after = path[q_min], path[q_max], path[q_max + 1]
        vertices += inst.path(terminal, first)[-2::-1] + inst.path(terminal, last)[1:] + (after,)
        row = inst.row(terminal)
        length += row[first] + row[last] + g.edge_weight(last, after)
    return tuple(vertices), length, detours


def eager_walk_length(inst, path, cells, cover):
    """Detour walk length with each inbound leg read from its path vertex's row.

    Sums the legs of :func:`fused_cover_chain` in the order the walk takes them.
    """
    g = inst.graph
    total = g.edge_weight(path[0], path[1])
    for terminal, q_min, q_max in fused_cover_chain(cells, cover):
        t = inst.terminals[terminal]
        legs = heap_dijkstra(g, path[q_min])[t] + heap_dijkstra(g, t)[path[q_max]]
        total += legs + g.edge_weight(path[q_max], path[q_max + 1])
    return total


def per_pair_experiment(inst, params, trials, preprocess=True):
    """Per trial of ``run_experiment``: (many, detour_violations, min_detour_slack).

    The literal per-pair loop: every pair's cells are replayed on their own
    by :func:`replay_reaches`, a cell counts as a many event when at least
    c3 ln k distinct terminals reach it, and each pair's detour length is
    that of its :func:`detour_walk`.
    """
    work = exact_minor(inst).minor if preprocess else inst
    threshold = params.c3 * math.log(work.k)
    results = []
    for trial in range(trials):
        trial_params = replace(params, seed=params.seed + trial)
        part, trace = run(work, trial_params)
        minor_dist = contract(work, part).all_distances()
        many = violations = 0
        slack = math.inf
        for i in range(work.k):
            for j in range(i + 1, work.k):
                path = work.terminal_path(i, j)
                cells = path_partition(work, i, j, trial_params)
                reaches, cover, _ = replay_reaches(work, trace, i, j, cells)
                many += sum(len({reach[1] for reach in cell}) >= threshold for cell in reaches)
                margin = detour_walk(work, path, cells, cover)[1] - minor_dist[(i, j)]
                slack = min(slack, margin)
                violations += margin < 0
        results.append((many, violations, slack))
    return results


def floyd_warshall(g):
    """All-pairs distances by a different algorithm than the library's."""
    n = g.vertex_count
    dist = [[math.inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0.0
    for u, v, w in g.edges:
        if w < dist[u][v]:
            dist[u][v] = w
            dist[v][u] = w
    for mid in range(n):
        row_mid = dist[mid]
        for a in range(n):
            via = dist[a][mid]
            if via == math.inf:
                continue
            row = dist[a]
            for b in range(n):
                alt = via + row_mid[b]
                if alt < row[b]:
                    row[b] = alt
    return dist


def assert_minor_model(inst, result):
    """Assert that ``result.branch_of`` models ``result.minor`` as a minor of ``inst``.

    - Each minor vertex's branch set is non-empty, connected in the input
      (breadth-first search inside the set) and holds the vertex that
      ``vertex_map`` sends to it; terminals map to the minor's terminals.
    - Every minor edge (a, b, w) has an input edge between sets a and b,
      and w is the input distance between the two mapped vertices
      (Floyd-Warshall): equal on integer weights, within FLOAT_REL_TOL on
      floats.
    - The minor is connected, with positive finite weights.
    """
    g = inst.graph
    mg = result.minor.graph
    branch_of = result.branch_of
    assert len(branch_of) == len(result.vertex_map) == g.vertex_count
    assert [result.vertex_map[t] for t in inst.terminals] == list(result.minor.terminals)
    members = [set() for _ in range(mg.vertex_count)]
    for v, b in enumerate(branch_of):
        if b is not None:
            assert 0 <= b < mg.vertex_count, f"vertex {v} maps to no minor vertex {b}"
            members[b].add(v)
    mapped = [None] * mg.vertex_count
    for v, b in enumerate(result.vertex_map):
        if b is not None:
            assert branch_of[v] == b, f"vertex {v} maps to {b} outside branch set {b}"
            mapped[b] = v
    for b, inside in enumerate(members):
        assert mapped[b] is not None, f"no vertex maps to minor vertex {b}"
        seen = {mapped[b]}
        queue = deque(seen)
        while queue:
            for x, _ in g.adjacency[queue.popleft()]:
                if x in inside and x not in seen:
                    seen.add(x)
                    queue.append(x)
        assert seen == inside, f"branch set {b} is not connected"

    joined = {frozenset((branch_of[u], branch_of[v])) for u, v, _ in g.edges}
    dist = floyd_warshall(g)
    integer = all(w == int(w) for _, _, w in g.edges)
    neighbors = [[] for _ in range(mg.vertex_count)]
    for a, b, w in mg.edges:
        assert frozenset((a, b)) in joined, f"no input edge joins branch sets {a} and {b}"
        assert 0 < w < math.inf
        d = dist[mapped[a]][mapped[b]]
        close = w == d if integer else abs(w - d) <= FLOAT_REL_TOL * d
        assert close, f"minor edge ({a}, {b}) weighs {w}; the input distance is {d}"
        neighbors[a].append(b)
        neighbors[b].append(a)
    seen = {0}
    queue = deque(seen)
    while queue:
        for x in neighbors[queue.popleft()]:
            if x not in seen:
                seen.add(x)
                queue.append(x)
    assert len(seen) == mg.vertex_count, "the minor is not connected"


def all_simple_paths(g, s, t):
    paths = []
    seq = [s]

    def dfs(u, visited, length):
        if u == t:
            paths.append((tuple(seq), length))
            return
        for v, w in g.adjacency[u]:
            if v not in visited:
                visited.add(v)
                seq.append(v)
                dfs(v, visited, length + w)
                seq.pop()
                visited.discard(v)

    dfs(s, {s}, 0.0)
    return paths


def brute_canonical(g, s, t):
    """Reference canonical path: min over (length, hop count, sequence)."""
    if s == t:
        return (s,), 0.0
    paths = all_simple_paths(g, s, t)
    seq, length = min(paths, key=lambda p: (p[1], len(p[0]), p[0]))
    return seq, length


def subdivide(inst, parts=5):
    """Split each edge into ``parts`` segments of the original weight.

    Distances scale by exactly ``parts``.  New vertex ids are assigned in
    blocks, one block per edge in sorted endpoint order, ascending along the
    lower-to-higher endpoint direction, which keeps the canonical tie-break
    aligned with the original graph's.
    """
    g = inst.graph
    next_id = g.vertex_count
    new_edges = []
    for u, v, w in sorted(g.edges):
        chain = [u] + [next_id + i for i in range(parts - 1)] + [v]
        next_id += parts - 1
        for x, y in zip(chain, chain[1:]):
            new_edges.append((x, y, w))
    return Instance(build_graph(next_id, new_edges), inst.terminals)


def subdivide_unevenly(inst, seed, max_parts=5, weights=None):
    """Split each edge into 2..``max_parts`` segments (a random count per edge).

    Each segment weighs the original weight, or a draw from ``weights``
    when given.  New vertex ids follow :func:`subdivide`'s block order.
    """
    rng = random.Random(seed)
    g = inst.graph
    next_id = g.vertex_count
    new_edges = []
    for u, v, w in sorted(g.edges):
        parts = rng.randint(2, max_parts)
        chain = [u] + [next_id + i for i in range(parts - 1)] + [v]
        next_id += parts - 1
        for x, y in zip(chain, chain[1:]):
            new_edges.append((x, y, w if weights is None else rng.choice(weights)))
    return Instance(build_graph(next_id, new_edges), inst.terminals)


def pendant_tree(seed, n, k, parts=3):
    """A subdivided random tree whose terminals sit near its root.

    Vertex v hangs off a random earlier vertex, so the high ids form
    terminal-free pendant subtrees of chains.
    """
    tree = random_connected_instance(seed, n, 2, extra_factor=0.0)
    terminals = random.Random(seed).sample(range(2 * k), k)
    return subdivide(Instance(tree.graph, terminals), parts)


def lollipop(stem=3, loop=4, weight=1.0, stem_weight=None):
    """A path 0 .. stem, then a loop chain of ``loop`` vertices back to ``stem``.

    The terminals are the path's ends; the loop's interior is one chain
    whose two ends are the same branch vertex.  Loop edges weigh
    ``weight``, path edges ``stem_weight`` (default ``weight``).
    """
    if stem_weight is None:
        stem_weight = weight
    edges = [(v, v + 1, stem_weight) for v in range(stem)]
    ring = [stem] + list(range(stem + 1, stem + 1 + loop)) + [stem]
    edges += [(x, y, weight) for x, y in zip(ring, ring[1:])]
    return Instance(build_graph(stem + 1 + loop, edges), [0, stem])


def parallel_chains(weight_lists):
    """Terminals 0 and 1 joined by one chain per weight list.

    Chains of equal length tie on distance, so hop count and then the
    vertex sequence pick the canonical one.
    """
    edges = []
    next_id = 2
    for weights in weight_lists:
        chain = [0] + list(range(next_id, next_id + len(weights) - 1)) + [1]
        next_id += len(weights) - 1
        edges += [(x, y, w) for x, y, w in zip(chain, chain[1:], weights)]
    return Instance(build_graph(next_id, edges), [0, 1])


def path_graph(weights, terminals):
    """Vertices 0 .. len(weights) in a row, edge i weighing weights[i]."""
    edges = [(v, v + 1, w) for v, w in enumerate(weights)]
    return Instance(build_graph(len(weights) + 1, edges), terminals)


def tight_closure(g, row, targets):
    """The targets and every tight predecessor of its vertices, on ``row``.

    Walks tight edges (``row[u] + w == row[v]``) back from the targets
    over the whole adjacency, one vertex at a time.
    """
    closure = set(targets)
    stack = list(closure)
    while stack:
        v = stack.pop()
        for u, w in g.adjacency[v]:
            if row[u] + w == row[v] and u not in closure:
                closure.add(u)
                stack.append(u)
    return closure


def label_reads(g, row, targets):
    """Every vertex the canonical labelling of ``targets`` reads from ``row``.

    The labelling compares the distance of each vertex of the targets'
    tight closure with its neighbours'.
    """
    closure = tight_closure(g, row, targets)
    return closure | {u for v in closure for u, _ in g.adjacency[v]}


def random_valid_partition(inst, rng):
    """Grow cells by absorbing random frontier vertices; always valid."""
    n = inst.graph.vertex_count
    assignment = [-1] * n
    for j, t in enumerate(inst.terminals):
        assignment[t] = j
    unassigned = n - inst.k
    while unassigned:
        candidates = [
            (u, v)
            for u in range(n)
            if assignment[u] >= 0
            for v, _ in inst.graph.adjacency[u]
            if assignment[v] == -1
        ]
        u, v = rng.choice(candidates)
        assignment[v] = assignment[u]
        unassigned -= 1
    return TerminalPartition(assignment)


@pytest.fixture
def path3():
    # t0 - v - t1, unit weights
    return Instance(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]), [0, 2])


@pytest.fixture
def path4():
    # t0 - a - b - t1, unit weights
    return Instance(build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]), [0, 3])


@pytest.fixture
def star3():
    # center vertex 3 with three unit-weight terminal leaves
    return Instance(build_graph(4, [(3, 0, 1.0), (3, 1, 1.0), (3, 2, 1.0)]), [0, 1, 2])
