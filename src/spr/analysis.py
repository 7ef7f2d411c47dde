"""Per-pair path bookkeeping over run traces.

For each terminal pair the canonical path between them is cut into cells by
a greedy sweep: a cell starts at the first uncovered interior vertex and
extends as far as the anchor's length budget allows.  Replaying a run trace
then records, per cell, which terminals "reach" it: an assignment batch that
hits still-active cell vertices deactivates the whole index range between
its first and last hit, and its detour bypasses that range through the
absorbing terminal.  Chaining the deactivating reaches end-to-end (and
merging consecutive ones through the same terminal) yields a witness walk
whose length bounds the contracted distance of the pair from above.

A trial's trace is validated and indexed by vertex once (:func:`index_trace`);
each pair then visits only the batches that assign its interior vertices.
Detours are built only for the merged chain a witness walk uses, one per
merged range, from the terminals' canonical labels.

Also here: the bad-event detectors over traces (assigned to a far terminal;
assigned too early relative to the vertex's terminal distance; too many
distinct terminals reaching one cell) and the closed-form distortion bound.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import groupby

from .ball_growing import GrowthParams, RunTrace, run
from .errors import IncompleteCellsError, TraceMismatchError
from .graph import Instance
from .partition import contract, distortion
from .preprocess import exact_minor

__all__ = [
    "PathCell",
    "TerminalDetour",
    "Reach",
    "ReachLog",
    "DetourPath",
    "BadEventReport",
    "TraceIndex",
    "path_partition",
    "partition_pairs",
    "index_trace",
    "track_reaches",
    "merge_detours",
    "build_detour_path",
    "detect_bad_events",
    "distortion_bound",
    "distortion_bound_coefficient",
    "TrialResult",
    "ExperimentReport",
    "run_experiment",
]


@dataclass(frozen=True)
class PathCell:
    """A run of consecutive interior path vertices, anchored at its first one.

    ``start`` and ``end`` are inclusive indices into the pair's canonical
    path sequence.  The threshold is the anchor's internal-length budget;
    the final cell of a path is kept even if its external length falls
    short of it.
    """

    pair: tuple[int, int]
    start: int
    end: int
    anchor: int
    internal_length: float
    external_length: float
    threshold: float
    is_final: bool


@dataclass(frozen=True)
class TerminalDetour:
    """Replacement walk for indices [q_min, q_max]: into the terminal and back.

    The walk is inbound (v_{q_min} -> t), outbound (t -> v_{q_max}), then the
    path edge to v_{q_max + 1}.  The inbound leg is the canonical
    t -> v_{q_min} path reversed.
    """

    q_min: int
    q_max: int
    terminal: int
    vertices: tuple[int, ...]
    length: float


@dataclass(frozen=True)
class Reach:
    order: int
    terminal: int
    q_min: int
    q_max: int


@dataclass
class ReachLog:
    pair: tuple[int, int]
    path: tuple[int, ...]
    cells: list[PathCell]
    reaches: list[list[Reach]]  # indexed like cells
    cover: dict[int, Reach]  # interior index -> the reach that deactivated it
    fully_deactivated: bool


@dataclass(frozen=True)
class DetourPath:
    vertices: tuple[int, ...]
    length: float
    detours: tuple[TerminalDetour, ...]


@dataclass(frozen=True)
class TraceIndex:
    """One trial's trace, validated and keyed by vertex.

    A batch is one (round, terminal) run of consecutive assignment events.
    Batch h < k stands for terminal h itself, which counts as assigned
    before the first round; the trace's batches follow from k on, in run
    order.  ``batch_of[v]`` is the batch that assigns v (-1 if none does)
    and ``batch_terminal[b]`` the terminal index batch b absorbs into.
    """

    batch_of: list[int]
    batch_terminal: list[int]


def path_partition(
    inst: Instance, i: int, j: int, params: GrowthParams
) -> list[PathCell]:
    """Greedy sweep of the pair's canonical path into anchored cells.

    Each cell starts at the first uncovered interior vertex v_a and extends
    to the largest b with dist(v_a, v_b) <= threshold(v_a), where the
    threshold is c2 * D(v_a) * delta / (5 log k).  Terminal anchors have
    D = 0 and produce singleton cells.
    """
    if i == j:
        raise ValueError("a path partition needs two distinct terminals")
    path = inst.terminal_path(i, j)
    last = len(path) - 1
    if last < 2:
        return []
    prefix = [0.0]
    for x, y in zip(path, path[1:]):
        prefix.append(prefix[-1] + inst.graph.edge_weight(x, y))
    nearest = inst.nearest_terminal_distances()
    scale = params.c2 * params.delta / (5.0 * math.log(inst.k))

    cells: list[PathCell] = []
    a = 1
    while a <= last - 1:
        anchor = path[a]
        tau = scale * nearest[anchor]
        b = a
        while b + 1 <= last - 1 and prefix[b + 1] - prefix[a] <= tau:
            b += 1
        cells.append(
            PathCell(
                pair=(i, j),
                start=a,
                end=b,
                anchor=anchor,
                internal_length=prefix[b] - prefix[a],
                external_length=prefix[b + 1] - prefix[a - 1],
                threshold=tau,
                is_final=(b == last - 1),
            )
        )
        a = b + 1
    return cells


def index_trace(inst: Instance, trace: RunTrace) -> TraceIndex:
    """Validate a trace against the instance and index its batches by vertex.

    One pass: a vertex already indexed is a terminal (batch < k) or was
    assigned by an earlier event.
    """
    n = inst.graph.vertex_count
    k = inst.k
    batch_of = [-1] * n
    for h, t in enumerate(inst.terminals):
        batch_of[t] = h
    batch_terminal = list(range(k))
    key = None
    for event in trace.events:
        v = event.vertex
        if not 0 <= v < n:
            raise TraceMismatchError(f"event vertex {v} out of range")
        if batch_of[v] >= 0:
            if batch_of[v] < k:
                raise TraceMismatchError(f"terminal {v} has an assignment event")
            raise TraceMismatchError(f"vertex {v} assigned twice")
        if not 0 <= event.terminal < k:
            raise TraceMismatchError(f"event terminal {event.terminal} out of range")
        if (event.round_index, event.terminal) != key:
            key = (event.round_index, event.terminal)
            batch_terminal.append(event.terminal)
        batch_of[v] = len(batch_terminal) - 1
    return TraceIndex(batch_of, batch_terminal)


def track_reaches(
    inst: Instance, index: TraceIndex, i: int, j: int, cells: list[PathCell]
) -> ReachLog:
    """Replay a trial's batches against one pair's cells and log every reach.

    Batches are processed in run order, after one batch per interior vertex
    that is itself a terminal, so those trigger their own singleton reaches
    up front.  A batch touching only inactive vertices of a cell is not a
    reach.  Only batches that assign an interior vertex can reach a cell, so
    the interior indices are grouped by batch and nothing else is visited.
    """
    path = inst.terminal_path(i, j)
    last = len(path) - 1
    log = ReachLog((i, j), path, cells, [[] for _ in cells], {}, True)
    if last < 2:
        return log

    cell_at = [-1] * last
    for ci, cell in enumerate(cells):
        for q in range(cell.start, cell.end + 1):
            cell_at[q] = ci
    batch_of = index.batch_of
    hits = sorted(
        (batch_of[path[q]], q)
        for q in range(1, last)
        if cell_at[q] >= 0 and batch_of[path[q]] >= 0
    )
    active = [False] + [True] * (last - 1)
    order = 0
    for batch, group in groupby(hits, key=lambda hit: hit[0]):
        spans: dict[int, list[int]] = {}  # cell -> [first, last] active hit
        for _, q in group:
            if active[q]:
                span = spans.get(cell_at[q])
                if span is None:
                    spans[cell_at[q]] = [q, q]
                else:
                    span[1] = q
        terminal = index.batch_terminal[batch]
        for ci in sorted(spans):
            q_min, q_max = spans[ci]
            reach = Reach(order, terminal, q_min, q_max)
            order += 1
            log.reaches[ci].append(reach)
            for q in range(q_min, q_max + 1):
                if active[q]:
                    active[q] = False
                    log.cover[q] = reach

    log.fully_deactivated = not any(active[1:last])
    return log


def merge_detours(reaches: list[Reach]) -> list[Reach]:
    """Fuse consecutive reaches with adjacent ranges and the same terminal.

    Merging replaces the middle excursion with a single pass through the
    shared terminal; it repeats until no adjacent same-terminal pair is
    left.  Ranges that do not abut are never merged.  A merged reach keeps
    the first one's order and spans from its q_min to the last one's q_max.
    """
    merged: list[Reach] = []
    for reach in reaches:
        while (
            merged
            and merged[-1].terminal == reach.terminal
            and merged[-1].q_max + 1 == reach.q_min
        ):
            first = merged.pop()
            reach = Reach(first.order, first.terminal, first.q_min, reach.q_max)
        merged.append(reach)
    return merged


def _detour_length(inst: Instance, path: tuple[int, ...], reach: Reach) -> float:
    """Length of the reach's detour: into its terminal, back out, then the exit edge."""
    row = inst.row(reach.terminal)
    first, last = path[reach.q_min], path[reach.q_max]
    return row[first] + row[last] + inst.graph.edge_weight(last, path[reach.q_max + 1])


def _make_detour(inst: Instance, path: tuple[int, ...], reach: Reach) -> TerminalDetour:
    """The reach's detour, both legs read from the terminal's canonical labels."""
    j = reach.terminal
    first, last = path[reach.q_min], path[reach.q_max]
    return TerminalDetour(
        reach.q_min,
        reach.q_max,
        j,
        inst.path(j, first)[::-1] + inst.path(j, last)[1:] + (path[reach.q_max + 1],),
        _detour_length(inst, path, reach),
    )


def _detour_chain(log: ReachLog) -> list[Reach]:
    """The merged deactivating reaches a pair's witness walk detours through.

    Within each cell the chain follows the reach that deactivated the
    current index, which always resumes exactly where the previous detour
    stopped; cells abut, so the chain spans the whole interior.
    """
    if not log.fully_deactivated:
        raise IncompleteCellsError(f"pair {log.pair} has active cells left")
    chain: list[Reach] = []
    for cell in log.cells:
        pos = cell.start
        while pos <= cell.end:
            reach = log.cover[pos]
            if reach.q_min != pos:
                raise AssertionError(
                    "deactivation chain broke; cover ranges must tile each cell"
                )
            chain.append(reach)
            pos = reach.q_max + 1
    return merge_detours(chain)


def build_detour_path(inst: Instance, i: int, j: int, log: ReachLog) -> DetourPath:
    """Concatenate deactivating detours into a terminal-to-terminal walk.

    The walk starts with the first path edge, follows :func:`_detour_chain`
    and is generally not simple.  Its length is an upper bound on the
    contracted distance of the pair.  Detours are built once per merged
    range of the chain, each rooted at its terminal.
    """
    path = log.path
    if len(path) < 3:
        w = inst.graph.edge_weight(path[0], path[1])
        return DetourPath((path[0], path[1]), w, ())
    detours = tuple(_make_detour(inst, path, reach) for reach in _detour_chain(log))
    vertices = [path[0]]
    total = inst.graph.edge_weight(path[0], path[1])
    for detour in detours:
        vertices.extend(detour.vertices if len(vertices) == 1 else detour.vertices[1:])
        total += detour.length
    return DetourPath(tuple(vertices), total, detours)


def _detour_path_length(inst: Instance, log: ReachLog) -> float:
    """``build_detour_path(...).length``, the same float, without the walk."""
    path = log.path
    total = inst.graph.edge_weight(path[0], path[1])
    if len(path) < 3:
        return total
    for reach in _detour_chain(log):
        total += _detour_length(inst, path, reach)
    return total


@dataclass
class BadEventReport:
    far_events: list[tuple[int, int, float, float]] = field(default_factory=list)
    early_events: list[tuple[int, float, float]] = field(default_factory=list)
    many_events: list[tuple[tuple[int, int], int, int, int, float]] = field(
        default_factory=list
    )
    reach_logs: dict[tuple[int, int], ReachLog] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return {
            "far": len(self.far_events),
            "early": len(self.early_events),
            "many": len(self.many_events),
        }


def _round_of(means: list[float], rate: float, z: float) -> int:
    """Index of the first round whose mean reaches z (the Round-z convention).

    ``means`` starts at the run's base mean and holds the round means in
    order, as the run's repeated multiplication by ``rate`` produced them.
    It is extended in place, past the end of the trace if z needs it.
    """
    while means[-1] < z:
        means.append(means[-1] * rate)
    return bisect_left(means, z)


def partition_pairs(
    inst: Instance, params: GrowthParams
) -> dict[tuple[int, int], list[PathCell]]:
    """:func:`path_partition` of every pair i < j.

    The cells depend on the instance, ``delta`` and ``c2`` only, so one
    result serves every trial of an experiment.
    """
    k = inst.k
    return {(i, j): path_partition(inst, i, j, params) for i in range(k) for j in range(i + 1, k)}


def detect_bad_events(
    inst: Instance,
    trace: RunTrace,
    params: GrowthParams,
    cells: dict[tuple[int, int], list[PathCell]] | None = None,
) -> BadEventReport:
    """Scan a trace for the three bad-event families.

    far: a vertex assigned to a terminal at distance >= c1 * D_v.
    early: a vertex assigned during or before the first round whose mean
    reaches c2 * D_v * delta / log k.
    many: a path cell reached by at least c3 * log k distinct terminals.

    ``cells`` is :func:`partition_pairs` of the same instance and params,
    computed here when omitted.
    """
    if cells is None:
        cells = partition_pairs(inst, params)
    index = index_trace(inst, trace)
    report = BadEventReport()
    nearest = inst.nearest_terminal_distances()
    log_k = math.log(inst.k)
    means = [trace.base_mean]

    for event in trace.events:
        dv = nearest[event.vertex]
        far_threshold = params.c1 * dv
        dist = inst.row(event.terminal)[event.vertex]
        if dist >= far_threshold:
            report.far_events.append((event.vertex, event.terminal, dist, far_threshold))
        z = params.c2 * dv * params.delta / log_k
        if event.round_index <= _round_of(means, trace.growth_rate, z):
            report.early_events.append((event.vertex, event.round_mean, z))

    many_threshold = params.c3 * log_k
    for (i, j), pair_cells in cells.items():
        log = track_reaches(inst, index, i, j, pair_cells)
        report.reach_logs[(i, j)] = log
        for ci, cell in enumerate(pair_cells):
            distinct = len({reach.terminal for reach in log.reaches[ci]})
            if distinct >= many_threshold:
                report.many_events.append(
                    ((i, j), cell.start, cell.end, distinct, many_threshold)
                )
    return report


def distortion_bound_coefficient(params: GrowthParams) -> float:
    return 40.0 * params.c3 * (params.c1 + 1.0) / params.c2


def distortion_bound(params: GrowthParams, k: float) -> float:
    """Closed-form worst-case distortion: 1 + 40 c3 (c1 + 1) / c2 * log^2 k."""
    if k < 2:
        raise ValueError("the bound needs at least two terminals")
    log_k = math.log(k)
    return 1.0 + distortion_bound_coefficient(params) * log_k * log_k


# -- experiment harness ------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    distortion: float
    rounds: int
    far: int
    early: int
    many: int
    detour_pairs: int
    detour_violations: int
    min_detour_slack: float


@dataclass
class ExperimentReport:
    seed: int
    trials: list[TrialResult]
    graph_summary: dict
    preprocess_summary: dict | None

    def summary(self) -> dict:
        values = [t.distortion for t in self.trials]
        n = len(self.trials)
        return {
            "trials": n,
            "distortion_median": statistics.median(values),
            "distortion_max": max(values),
            "bad_event_mean_counts": {
                "far": sum(t.far for t in self.trials) / n,
                "early": sum(t.early for t in self.trials) / n,
                "many": sum(t.many for t in self.trials) / n,
            },
            "trials_with_bad_event": sum(
                1 for t in self.trials if t.far or t.early or t.many
            ),
            "detour_violations": sum(t.detour_violations for t in self.trials),
        }


def run_experiment(
    inst: Instance,
    params: GrowthParams,
    trials: int,
    preprocess: bool = True,
) -> ExperimentReport:
    """Repeated runs with derived seeds; per-trial distortion and diagnostics.

    Trial t uses seed (params.seed + t).  When ``preprocess`` is set the
    trials run on the distance-exact reduced instance, which leaves all
    terminal distances (and hence distortion) unchanged.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    pre = exact_minor(inst) if preprocess else None
    work = pre.minor if pre is not None else inst

    results: list[TrialResult] = []
    cells = None
    for index in range(trials):
        trial_params = replace(params, seed=(params.seed + index) % 2**64)
        part, trace = run(work, trial_params)
        # The analysis reads all k full rows (cached after the first
        # trial); built first, ``contract`` reads its terminal distances
        # from them instead of running bounded searches.
        work.nearest_terminal_distances()
        minor = contract(work, part)
        dist_result = distortion(work, minor)
        if cells is None:
            # After the first run, where the per-trial analysis would first
            # need them, so errors keep their order.
            cells = partition_pairs(work, params)
        report = detect_bad_events(work, trace, trial_params, cells)

        pairs = 0
        violations = 0
        slack = math.inf
        # Both in (i, j) order: the logs sorted, the distortion rows as built.
        logs = sorted(report.reach_logs.items())
        for (_, log), (_, _, _, d1, _) in zip(logs, dist_result.pairs, strict=True):
            pairs += 1
            margin = _detour_path_length(work, log) - d1
            slack = min(slack, margin)
            if margin < 0:
                violations += 1

        counts = report.counts()
        results.append(
            TrialResult(
                trial=index,
                seed=trial_params.seed,
                distortion=dist_result.max_ratio,
                rounds=trace.total_rounds,
                far=counts["far"],
                early=counts["early"],
                many=counts["many"],
                detour_pairs=pairs,
                detour_violations=violations,
                min_detour_slack=slack,
            )
        )

    graph_summary = {
        "vertices": inst.graph.vertex_count,
        "edges": inst.graph.edge_count,
        "terminals": inst.k,
    }
    preprocess_summary = None
    if pre is not None:
        preprocess_summary = {
            "minor_vertices": pre.minor.graph.vertex_count,
            "minor_edges": pre.minor.graph.edge_count,
            "non_terminals": pre.non_terminal_count,
            "passes": pre.passes,
        }
    return ExperimentReport(params.seed, results, graph_summary, preprocess_summary)
