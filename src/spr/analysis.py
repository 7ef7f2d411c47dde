"""Per-pair path bookkeeping over run traces.

For each terminal pair the canonical path between them is cut into cells by
a greedy sweep: a cell starts at the first uncovered interior vertex and
extends as far as the anchor's length budget allows.  Replaying a run trace
then records, per cell, which terminals "reach" it: an assignment batch that
hits still-active cell vertices deactivates the whole index range between
its first and last hit, and its detour bypasses that range through the
absorbing terminal.  Chaining the deactivating reaches end-to-end (and
fusing consecutive ones through the same terminal) gives a witness walk
whose length bounds the contracted distance of the pair from above.

A trial's trace is validated and indexed by vertex once (:func:`index_trace`).
A reach never leaves its cell, so a cell's replay depends only on its vertex
sequence and the trace; pairs share most of their cells, and each trial
replays every distinct cell once (:func:`_replay_cell`), visiting only the
batches that assign its vertices.  The many-event counts and the witness
walks' lengths (:func:`_pair_detour_length`) are read from those replays:
``spr experiment`` sums each walk's detours and builds no walk and no reach
log.  Both exist only in the test suite, as the oracles for those replays.

Also here: the bad-event detectors over traces (assigned to a far terminal;
assigned too early relative to the vertex's terminal distance; too many
distinct terminals reaching one cell) and the closed-form distortion bound.
"""

from __future__ import annotations

import math
import statistics
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter

from .ball_growing import GrowthParams, RunTrace, run
from .errors import IncompleteCellsError, TraceMismatchError
from .graph import Instance
from .partition import contract, distortion
from .preprocess import exact_minor

__all__ = [
    "PathCell",
    "BadEventReport",
    "TraceIndex",
    "path_partition",
    "partition_pairs",
    "index_trace",
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
class TraceIndex:
    """One trial's trace, validated and keyed by vertex.

    A batch is one draw's assignment event.  Batch h < k stands for
    terminal h itself, which counts as assigned before the first round;
    the trace's events follow from k on, in run order.  ``batch_of[v]``
    is the batch that assigns v (-1 if none does) and
    ``batch_terminal[b]`` the terminal index batch b absorbs into.
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
    # The canonical labels take only tight parents (dist[u] + w == dist[v]),
    # so the left fold of the edge weights along the path is the source's
    # row, bit for bit.
    row = inst.row(i)
    prefix = [row[v] for v in path]
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
    for event in trace.events:
        if not 0 <= event.terminal < k:
            raise TraceMismatchError(f"event terminal {event.terminal} out of range")
        batch = len(batch_terminal)
        batch_terminal.append(event.terminal)
        for v in event.vertices:
            if not 0 <= v < n:
                raise TraceMismatchError(f"event vertex {v} out of range")
            if batch_of[v] >= 0:
                if batch_of[v] < k:
                    raise TraceMismatchError(f"terminal {v} has an assignment event")
                raise TraceMismatchError(f"vertex {v} assigned twice")
            batch_of[v] = batch
    return TraceIndex(batch_of, batch_terminal)


def _replay_cell(index: TraceIndex, vertices: tuple[int, ...]):
    """Replay a trial's batches against one cell's vertex sequence.

    Returns ``(reaches, cover)``.  ``reaches`` lists the cell's reaches in
    batch order as ``(batch, terminal, first, last)``, positions counted
    from the cell's first vertex: a batch that hits active positions
    deactivates the whole range between its first and last such hit.  A
    batch touching only inactive positions is not a reach.  ``cover[q]``
    is the index in ``reaches`` of the reach that deactivated position q,
    or None while q stays active.  A reach never leaves its cell, so the
    result depends on the vertex sequence and the trace only.
    """
    batch_of = index.batch_of
    hits = sorted((batch_of[v], q) for q, v in enumerate(vertices) if batch_of[v] >= 0)
    reaches = []
    cover = [None] * len(vertices)
    for batch, group in groupby(hits, key=itemgetter(0)):
        active = [q for _, q in group if cover[q] is None]
        if active:
            r = len(reaches)
            reaches.append((batch, index.batch_terminal[batch], active[0], active[-1]))
            for q in range(active[0], active[-1] + 1):
                if cover[q] is None:
                    cover[q] = r
    return reaches, cover


def _cover_chain(reaches, cover):
    """The deactivating reaches that tile a cell, as (terminal, first, last).

    Following the reach that deactivated the current position always
    resumes exactly where the previous one stopped.  None if a position
    is still active.
    """
    if None in cover:
        return None
    chain = []
    pos = 0
    while pos < len(cover):
        _, terminal, first, last = reaches[cover[pos]]
        if first != pos:
            raise AssertionError("deactivation chain broke; cover ranges must tile each cell")
        chain.append((terminal, first, last))
        pos = last + 1
    return chain


def _replay_pairs(inst: Instance, index: TraceIndex, cells: dict[tuple[int, int], list[PathCell]]):
    """Every pair's cells replayed, each distinct vertex sequence once.

    Maps each pair to one ``(reaches, cover, distinct, chain)`` per cell:
    :func:`_replay_cell`'s result, the number of distinct terminals that
    reach the cell, and its :func:`_cover_chain`.  Pairs share most of
    their cells, so the replays are shared too.
    """
    memo = {}
    replays = {}
    for (i, j), pair_cells in cells.items():
        path = inst.terminal_path(i, j)
        pair_replays = replays[(i, j)] = []
        for cell in pair_cells:
            vertices = path[cell.start : cell.end + 1]
            replay = memo.get(vertices)
            if replay is None:
                reaches, cover = _replay_cell(index, vertices)
                replay = memo[vertices] = (
                    reaches,
                    cover,
                    len({reach[1] for reach in reaches}),
                    _cover_chain(reaches, cover),
                )
            pair_replays.append(replay)
    return replays


def _detour_length(
    inst: Instance, path: tuple[int, ...], terminal: int, q_min: int, q_max: int
) -> float:
    """Length of the detour for [q_min, q_max]: into the terminal, back out, then the exit edge."""
    row = inst.row(terminal)
    first, last = path[q_min], path[q_max]
    return row[first] + row[last] + inst.graph.edge_weight(last, path[q_max + 1])


def _pair_detour_length(inst: Instance, pair, cells, replays) -> float:
    """Length of the pair's witness walk, summed from the cells' replays.

    The sum starts at the first path edge and follows the cells' cover
    chains in order.  Consecutive entries through one terminal fuse into
    one detour, which replaces the excursion between them with a single
    pass through that terminal; the chains tile the interior, so
    consecutive entries always abut.  Raises
    :class:`IncompleteCellsError` if a cell has an active vertex left.
    """
    path = inst.terminal_path(*pair)
    total = inst.graph.edge_weight(path[0], path[1])
    runs = []  # [terminal, q_min, q_max] of each fused detour
    for cell, (_, _, _, chain) in zip(cells, replays):
        if chain is None:
            raise IncompleteCellsError(f"pair {pair} has active cells left")
        start = cell.start
        for terminal, first, last in chain:
            if runs and runs[-1][0] == terminal:
                runs[-1][2] = start + last
            else:
                runs.append([terminal, start + first, start + last])
    for terminal, q_min, q_max in runs:
        total += _detour_length(inst, path, terminal, q_min, q_max)
    return total


@dataclass
class BadEventReport:
    far_events: list[tuple[int, int, float, float]] = field(default_factory=list)
    early_events: list[tuple[int, float, float]] = field(default_factory=list)
    many_events: list[tuple[tuple[int, int], int, int, int, float]] = field(
        default_factory=list
    )

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


def detect_bad_events(inst: Instance, trace: RunTrace, params: GrowthParams) -> BadEventReport:
    """Scan a trace for the three bad-event families.

    far: a vertex assigned to a terminal at distance >= c1 * D_v.
    early: a vertex assigned during or before the first round whose mean
    reaches c2 * D_v * delta / log k.
    many: a path cell reached by at least c3 * log k distinct terminals.
    """
    return _bad_events(inst, trace, params, partition_pairs(inst, params))[0]


def _bad_events(inst, trace, params, cells):
    """:func:`detect_bad_events`' report and the :func:`_replay_pairs` replays it read.

    ``cells`` is :func:`partition_pairs` of the same instance and params.
    """
    index = index_trace(inst, trace)
    far_events = []
    early_events = []
    nearest = inst.nearest_terminal_distances()
    log_k = math.log(inst.k)
    means = [trace.base_mean]

    for event in trace.events:
        row = inst.row(event.terminal)
        for v in event.vertices:
            dv = nearest[v]
            far_threshold = params.c1 * dv
            dist = row[v]
            if dist >= far_threshold:
                far_events.append((v, event.terminal, dist, far_threshold))
            z = params.c2 * dv * params.delta / log_k
            if event.round_index <= _round_of(means, trace.growth_rate, z):
                early_events.append((v, event.round_mean, z))

    many_threshold = params.c3 * log_k
    many_events = []
    replays = _replay_pairs(inst, index, cells)
    for pair, pair_cells in cells.items():
        for cell, (_, _, distinct, _) in zip(pair_cells, replays[pair]):
            if distinct >= many_threshold:
                many_events.append((pair, cell.start, cell.end, distinct, many_threshold))
    return BadEventReport(far_events, early_events, many_events), replays


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
        with warnings.catch_warnings():
            # ``params`` warned once if its delta is past the analyzed regime.
            warnings.simplefilter("ignore", UserWarning)
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
        report, replays = _bad_events(work, trace, trial_params, cells)

        pairs = 0
        violations = 0
        slack = math.inf
        # Both in (i, j) order: the cells sorted, the distortion rows as built.
        for (pair, pair_cells), (_, _, _, d1, _) in zip(
            sorted(cells.items()), dist_result.pairs, strict=True
        ):
            pairs += 1
            margin = _pair_detour_length(work, pair, pair_cells, replays[pair]) - d1
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
