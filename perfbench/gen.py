"""Instance generators for the benchmark workloads.

Every graph is connected, has integer weights 1..10 and is a pure function
of the seed it is given. The program under test only ever sees the graph
files written here, never these functions.
"""

from __future__ import annotations

import random

WMAX = 10


def grid_instance(seed: int, rows: int, cols: int, k: int):
    """Row-major rows x cols 4-neighbour grid with k random terminals."""
    rng = random.Random(seed)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, rng.randint(1, WMAX)))
            if r + 1 < rows:
                edges.append((v, v + cols, rng.randint(1, WMAX)))
    n = rows * cols
    return n, edges, rng.sample(range(n), k)


def sparse_random_instance(seed: int, n: int, k: int, extra_factor: float = 1.0):
    """Random spanning tree plus about extra_factor * n random chords."""
    rng = random.Random(seed)
    edges = []
    used = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, WMAX)))
        used.add((u, v))
    for _ in range(int(extra_factor * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in used:
            continue
        used.add(key)
        edges.append((key[0], key[1], rng.randint(1, WMAX)))
    return n, edges, rng.sample(range(n), k)


def subdivide(instance, parts: int):
    """Replace every edge by a chain of ``parts`` edges of the same weight.

    New vertices are numbered in blocks, one block per edge in sorted
    endpoint order, so the canonical tie-break follows the original graph.
    """
    n, edges, terminals = instance
    next_id = n
    out = []
    for u, v, w in sorted(edges):
        chain = [u] + list(range(next_id, next_id + parts - 1)) + [v]
        next_id += parts - 1
        out.extend((x, y, w) for x, y in zip(chain, chain[1:]))
    return next_id, out, terminals


def format_graph(instance) -> str:
    """The ``n m k`` / terminals / ``u v w`` text format the CLI reads."""
    n, edges, terminals = instance
    lines = [f"{n} {len(edges)} {len(terminals)}", " ".join(map(str, terminals))]
    lines.extend(f"{u} {v} {w}" for u, v, w in edges)
    return "\n".join(lines) + "\n"


def adjacency(instance) -> list[list[int]]:
    n, edges, _ = instance
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj
