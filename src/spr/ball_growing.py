"""Randomized ball growing: terminal radii grow by exponential increments.

Each round ``l`` draws, for every terminal in index order, an exponential
increment with mean ``D * r**l`` (``r = 1 + delta / log k``), raises that
terminal's radius, and absorbs every unassigned vertex the enlarged ball now
reaches inside the subgraph induced by the cell plus the still-unassigned
vertices.  The loop ends when every vertex is assigned.  Terminal order is
fixed and the unassigned set is refreshed after every single terminal, so a
run is a deterministic function of (instance, seed).

Randomness contract: the increment for (round, terminal) is derived from the
first variate of a Philox4x64-10 stream keyed by ``[seed, round * 2**32 +
terminal]``, the value numpy's ``Philox`` gives for that key.  Draws
therefore do not depend on evaluation order, and any single draw can be
reproduced from the seed alone.  A round's k draws are computed together.

The trace records each round's draws and one event per draw that absorbed
vertices, holding those vertices in absorb order.  are computed by repeated multiplication (``mean *= r``), so the recorded
sequence is exactly what the float arithmetic produced.
"""

from __future__ import annotations

import heapq
import json
import math
import struct
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    GraphError,
    NoNonTerminalsError,
    ParamOutOfRegimeError,
    RoundCapExceededError,
    TraceMismatchError,
)
from .graph import Instance
from .partition import TerminalPartition

__all__ = [
    "GrowthParams",
    "RoundRecord",
    "AssignmentEvent",
    "RunTrace",
    "SubstreamSampler",
    "compute_base_mean",
    "run",
    "replay_trace",
    "trace_to_json",
]

DELTA_ANALYZED_MAX = 0.5
# A derived round cap above this is refused: at delta = 1/2 and k <= 10**9
# the cap stays below 3 * 10**5, so only a tiny delta reaches it.
MAX_DERIVED_ROUNDS = 10**6


@dataclass(frozen=True)
class GrowthParams:
    """Knobs for a ball-growing run.

    Defaults follow the analyzed regime: delta = 1/2 and the bad-event
    constants c1 = 5400, c2 = 1/27, c3 = 30.  Every ``log k`` in the
    derived quantities is natural, as the certified tail bounds require.
    A ``max_rounds`` of None means the safety cap is derived from the
    instance.
    """

    delta: float = 0.5
    c1: float = 5400.0
    c2: float = 1.0 / 27.0
    c3: float = 30.0
    max_rounds: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("delta", "c1", "c2", "c3"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.delta > DELTA_ANALYZED_MAX:
            warnings.warn(
                f"delta={self.delta} is outside the analyzed regime (> 1/2)",
                stacklevel=3,
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    def growth_rate(self, k: int) -> float:
        return 1.0 + self.delta / math.log(k)


@dataclass(frozen=True)
class RoundRecord:
    index: int
    mean: float
    draws: tuple[tuple[int, float], ...]  # (terminal, increment), index order


class AssignmentEvent(NamedTuple):
    """One draw that absorbed vertices: its ball's new vertices, in absorb order."""

    round_index: int
    terminal: int
    round_mean: float
    radius: float  # the terminal's radius after the draw
    vertices: tuple[int, ...]


@dataclass
class RunTrace:
    params: GrowthParams
    base_mean: float | None
    growth_rate: float | None
    round_cap: int
    rounds: list[RoundRecord] = field(default_factory=list)
    events: list[AssignmentEvent] = field(default_factory=list)

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)


# Philox4x64 multipliers and Weyl key increments (Salmon, Moraes, Dror and
# Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_MASK64 = 2**64 - 1


class SubstreamSampler:
    """A round's k uniforms, one per terminal, order-independent.

    The value for (round, terminal) is the first ``random()`` of numpy's
    ``Philox`` generator keyed by ``[seed, round * 2**32 + terminal]``,
    computed here on Python ints: 10 Philox4x64 rounds on the counter
    ``[1, 0, 0, 0]``, then the top 53 bits of the first output word.

    A round's terminals are computed together: lane j of each Python int
    holds terminal j's state in bits [128 j, 128 j + 64).  A lane's product
    with a 64-bit multiplier stays below 2**128 and its key sum below
    2**65, so no carry reaches the next lane, and one big-int operation
    advances every lane.  The k lanes' constants are built once.
    """

    def __init__(self, seed: int, k: int):
        # Checked before any lane is built: k lanes take 16 k bytes per constant.
        if not 0 <= k - 1 < 2**32:
            raise ValueError("terminal index exceeds the key lane")
        self.seed = seed
        ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
        self._ones = ones
        self._offsets = sum(j << (128 * j) for j in range(k))  # lane j holds key offset j
        self._mask = _MASK64 * ones
        self._w1 = _PHILOX_W1 * ones
        # The seed's key word for rounds 2..10 in every lane; round 1 uses the seed itself.
        self._seed_keys = tuple(((seed + r * _PHILOX_W0) & _MASK64) * ones for r in range(1, 10))
        self._lanes = struct.Struct("<" + "Q8x" * k)  # reads each lane's low word

    def uniforms(self, round_index: int) -> list[float]:
        """The uniforms of (round_index, j) for j = 0, ..., k - 1."""
        if not 0 <= round_index < 2**32:
            raise ValueError("round index exceeds the key lane")
        return self._philox(round_index << 32)

    def _philox(self, base_key: int) -> list[float]:
        """The uniforms of the k keys ``base_key + j``, lane j holding key j."""
        ones, mask, w1, lanes = self._ones, self._mask, self._w1, self._lanes
        key = base_key * ones + self._offsets
        # Round 1: counter [1, 0, 0, 0] makes both products constants.
        x0, x1, x2, x3 = self.seed * ones, 0, key, _PHILOX_M0 * ones
        for seed_key in self._seed_keys:
            key = (key + w1) & mask
            p = _PHILOX_M0 * x0
            q = _PHILOX_M1 * x2
            x0, x1, x2, x3 = (
                ((q >> 64) & mask) ^ x1 ^ seed_key,
                q & mask,
                ((p >> 64) & mask) ^ x3 ^ key,
                p & mask,
            )
        return [(x >> 11) * 2.0**-53 for x in lanes.unpack(x0.to_bytes(lanes.size, "little"))]


def _exponential(mean: float, u: float) -> float:
    # u is uniform on [0, 1); 1 - u is in (0, 1], so the log is finite.
    return -mean * math.log(1.0 - u)


def compute_base_mean(inst: Instance, params: GrowthParams) -> float:
    """Base round mean: (delta / (100 log k)) times the smallest D_v.

    The smallest D_v over the non-terminals is the lightest edge from a
    terminal to a non-terminal, bit for bit: a shortest path from a
    terminal leaves the terminal set along such an edge, and float
    addition is monotone with ``0.0 + w == w``.  So no distance row is
    built here.
    """
    adjacency = inst.graph.adjacency
    is_terminal = inst.is_terminal
    d_min = min(
        (w for t in inst.terminals for v, w in adjacency[t] if not is_terminal(v)),
        default=None,
    )
    if d_min is None:  # the graph is connected, so only when every vertex is a terminal
        raise NoNonTerminalsError("every vertex is a terminal")
    base_mean = params.delta / (100.0 * math.log(inst.k)) * d_min
    if base_mean == 0.0:
        raise GraphError(f"base mean underflows to 0 at smallest D_v {d_min!r}")
    return base_mean


def _default_round_cap(inst: Instance, params: GrowthParams, base_mean: float, rate: float) -> int:
    # Coarse upper bound on the largest pairwise distance: twice the
    # eccentricity of the first terminal.
    reach = 2.0 * max(inst.row(0))
    n = inst.graph.vertex_count
    ratio = n * reach / base_mean
    if not math.isfinite(ratio):
        raise GraphError(
            f"edge weights span too wide a range: distance {reach!r} over "
            f"base mean {base_mean!r} overflows the round cap"
        )
    if rate <= 1.0:
        raise ParamOutOfRegimeError(
            f"growth rate {rate!r} does not exceed 1; the round means would never grow"
        )
    cap = 10 * math.ceil(math.log(ratio) / math.log(rate))
    if cap > MAX_DERIVED_ROUNDS:
        raise ParamOutOfRegimeError(
            f"delta={params.delta!r} derives a round cap of {cap} rounds, over "
            f"{MAX_DERIVED_ROUNDS}; raise --delta or pass --max-rounds"
        )
    return max(cap, 16)


class _Frontier:
    """One terminal's Dijkstra inside its cell plus the unassigned vertices.

    The heap and distance map persist for the whole run.  When a vertex is
    absorbed, its shortest path to the terminal already lies inside the
    cell; the region (cell plus unassigned) only shrinks as other cells
    grow, so every pending entry stays exact while its vertex is
    unassigned.  Entries for vertices another cell has claimed are skipped
    on pop.  New vertices therefore come out in the order a fresh bounded
    Dijkstra over the current region would absorb them.
    """

    __slots__ = ("terminal", "dist", "heap")

    def __init__(self, terminal: int, source: int):
        self.terminal = terminal
        self.dist = {source: 0.0}
        self.heap = [(0.0, source)]

    def grow(self, adjacency, assignment, radius: float) -> list[int]:
        """Absorb every unassigned vertex within ``radius``, in pop order.

        Stops at the first entry beyond the radius and leaves it queued.
        """
        terminal = self.terminal
        dist = self.dist
        heap = self.heap
        pop = heapq.heappop
        push = heapq.heappush
        absorbed = []
        while heap and heap[0][0] <= radius:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            owner = assignment[u]
            if owner == -1:
                assignment[u] = terminal
                absorbed.append(u)
            elif owner != terminal:
                continue
            for v, w in adjacency[u]:
                if assignment[v] != -1:
                    continue
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    push(heap, (nd, v))
        return absorbed


def run(inst: Instance, params: GrowthParams) -> tuple[TerminalPartition, RunTrace]:
    """Grow balls until every vertex is assigned; return partition and trace.

    Deterministic in (inst, params.seed).  Each round's k increments are
    computed together; when coverage completes in the middle of a round,
    the remaining terminals' increments are never recorded.
    """
    sampler = SubstreamSampler(params.seed, inst.k)

    def increments(round_index: int, mean: float) -> list[float]:
        return [_exponential(mean, u) for u in sampler.uniforms(round_index)]

    return _run_loop(inst, params, increments)


def replay_trace(inst: Instance, trace: RunTrace) -> TerminalPartition:
    """Re-run the growth loop from a trace's recorded draws.

    Raises :class:`TraceMismatchError` when the trace runs out of rounds,
    or out of draws within a round, while vertices are still unassigned,
    and when a round's draws are not in terminal order 0, 1, ....
    """
    rounds = iter(trace.rounds)

    def increments(round_index: int, mean: float) -> list[float]:
        record = next(rounds, None)
        if record is None or record.index != round_index:
            raise TraceMismatchError(f"the trace records no round {round_index}")
        if [terminal for terminal, _ in record.draws] != list(range(len(record.draws))):
            raise TraceMismatchError(f"round {round_index}'s draws are not in terminal order")
        return [value for _, value in record.draws]

    partition, _ = _run_loop(inst, trace.params, increments)
    return partition


def _run_loop(inst, params, increments):
    """The growth loop; ``increments(round_index, mean)`` gives a round's
    increments in terminal order."""
    n = inst.graph.vertex_count
    k = inst.k
    adjacency = inst.graph.adjacency

    assignment = [-1] * n
    for j, t in enumerate(inst.terminals):
        assignment[t] = j
    unassigned = n - k

    if unassigned == 0:
        return TerminalPartition(assignment), RunTrace(params, None, None, 0)

    base_mean = compute_base_mean(inst, params)
    rate = params.growth_rate(k)
    cap = params.max_rounds
    if cap is None:
        cap = _default_round_cap(inst, params, base_mean, rate)

    trace = RunTrace(params, base_mean, rate, cap)
    radii = [0.0] * k
    frontiers = [_Frontier(j, t) for j, t in enumerate(inst.terminals)]
    round_index = 0
    mean = base_mean

    while unassigned > 0:
        if round_index >= cap:
            raise RoundCapExceededError(
                f"round cap {cap} reached with {unassigned} vertices unassigned"
            )
        draws: list[tuple[int, float]] = []
        for j, increment in zip(range(k), increments(round_index, mean)):
            draws.append((j, increment))
            radii[j] += increment
            radius = radii[j]
            absorbed = frontiers[j].grow(adjacency, assignment, radius)
            if absorbed:
                trace.events.append(AssignmentEvent(round_index, j, mean, radius, tuple(absorbed)))
                unassigned -= len(absorbed)
                if unassigned == 0:
                    break
        if unassigned and len(draws) < k:
            raise TraceMismatchError(
                f"round {round_index} has {len(draws)} of {k} draws with "
                f"{unassigned} vertices unassigned"
            )
        trace.rounds.append(RoundRecord(round_index, mean, tuple(draws)))
        round_index += 1
        mean *= rate

    return TerminalPartition(assignment), trace


# One event as ``json.dumps(..., indent=2, sort_keys=True)`` lays it out
# inside the trace's "events" list, fields in sorted key order: the head,
# shared by every vertex of one draw, then the vertex, then the close.
_EVENT_HEAD = (
    "    {\n"
    '      "mean": %s,\n'
    '      "radius": %s,\n'
    '      "round": %s,\n'
    '      "terminal": %s,\n'
    '      "vertex": '
)
_EVENT_CLOSE = "\n    },\n"


def trace_to_json(trace: RunTrace) -> str:
    """The trace as indented JSON with sorted keys: params echo, per-round
    draws, per-vertex events.

    The head goes through ``json.dumps``; the events, which are most of
    the trace, are spliced in from a fixed template.  Each draw's record
    formats the template's head, and checks its floats, once; each of its
    vertices then adds only the vertex.  The pieces are joined once.  The
    text equals ``json.dumps`` of the whole trace, one event per vertex.
    A non-finite float raises ``ValueError`` instead of writing NaN or
    Infinity.
    """
    params = trace.params
    head = json.dumps(
        {
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
            "events": [],
        },
        indent=2,
        sort_keys=True,
        allow_nan=False,
    )
    before, _, after = head.partition('"events": []')
    parts = [before, '"events": [\n']
    append = parts.append
    r = float.__repr__  # what json writes for a float
    isfinite = math.isfinite
    for round_index, terminal, mean, radius, vertices in trace.events:
        if not (isfinite(mean) and isfinite(radius)):
            raise ValueError("trace event holds a non-finite float")
        event_head = _EVENT_HEAD % (r(mean), r(radius), round_index, terminal)
        for vertex in vertices:
            append(event_head)
            append(str(vertex))
            append(_EVENT_CLOSE)
    if len(parts) == 2:  # no record holds a vertex
        return head
    parts[-1] = "\n    }\n  ]"
    parts.append(after)
    return "".join(parts)
