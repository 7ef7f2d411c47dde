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
sequence and the trace.  Pairs share most of their cells, so an experiment
finds the distinct ones once (:func:`_distinct_cells`), and each trial
replays each once (:func:`_replay_cell`), visiting only the batches that
assign its vertices; a cell's replay returns its count of distinct
terminals and its cover chain.  The many-event counts and the witness walks' lengths
(:func:`_pair_detour_length`) are read from that table by index:
``spr experiment`` sums each walk's detours and builds no walk and no reach
log.  Both exist only in the test suite, as the oracles for those replays.

Also here: the bad-event detectors over traces (assigned to a far terminal;
assigned too early relative to the vertex's terminal distance; too many
distinct terminals reaching one cell) and the closed-form distortion bound.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .ball_growing import GrowthParams, RunTrace, trial
from .errors import IncompleteCellsError, TraceMismatchError
from .graph import Instance

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
    "run_experiment",
    "summary",
]


class PathCell(NamedTuple):
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


class TraceIndex(NamedTuple):
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
    D = 0 and produce singleton cells.  (i, j) is a key of ``inst.terminal_paths()``.
    """
    if not 0 <= i < j < inst.k:
        raise ValueError(f"a path partition needs 0 <= i < j < {inst.k}, got ({i}, {j})")
    path = inst.terminal_paths()[(i, j)]
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
    assigned by an earlier event.  Every event must name a recorded round.
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
        if not 0 <= event.round_index < len(trace.rounds):
            raise TraceMismatchError(f"event round {event.round_index} is not recorded")
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

    Returns ``(distinct, chain)``: how many distinct terminals reach the
    cell, and its cover chain, None while a position stays active.  A
    batch that hits active positions is a reach ``(terminal, first,
    last)``, positions counted from the cell's first vertex: it
    deactivates the whole range between its first and last such hit.  A
    batch touching only inactive positions is not a reach.  The chain
    lists the deactivating reaches that tile the cell: following the reach
    that deactivated the current position always resumes exactly where
    the previous one stopped.  A reach never leaves its cell, so the
    result depends on the vertex sequence and the trace only.
    """
    batch_of = index.batch_of
    hits = sorted((batch_of[v], q) for q, v in enumerate(vertices) if batch_of[v] >= 0)
    terminals = set()
    cover = [None] * len(vertices)
    for batch, group in groupby(hits, key=itemgetter(0)):
        active = [q for _, q in group if cover[q] is None]
        if active:
            reach = (index.batch_terminal[batch], active[0], active[-1])
            terminals.add(reach[0])
            for q in range(active[0], active[-1] + 1):
                if cover[q] is None:
                    cover[q] = reach
    if None in cover:
        return len(terminals), None
    chain = []
    pos = 0
    while pos < len(cover):
        reach = cover[pos]
        if reach[1] != pos:
            raise AssertionError("deactivation chain broke; cover ranges must tile each cell")
        chain.append(reach)
        pos = reach[2] + 1
    return len(terminals), chain


def _distinct_cells(inst: Instance, cells: dict[tuple[int, int], list[PathCell]]):
    """The distinct vertex sequences of :func:`partition_pairs`' cells.

    Returns ``(sequences, slots)``: the sequences in first-seen order, and
    per pair the index in ``sequences`` of each of its cells.
    """
    first_seen: dict[tuple[int, ...], int] = {}
    slots = {}
    for pair, pair_cells in cells.items():
        path = inst.terminal_paths()[pair]
        slots[pair] = [
            first_seen.setdefault(path[cell.start : cell.end + 1], len(first_seen))
            for cell in pair_cells
        ]
    return list(first_seen), slots


def _detour_length(
    inst: Instance, path: tuple[int, ...], terminal: int, q_min: int, q_max: int
) -> float:
    """Length of the detour for [q_min, q_max]: into the terminal, back out, then the exit edge."""
    row = inst.row(terminal)
    first, last = path[q_min], path[q_max]
    return row[first] + row[last] + inst.graph.edge_weight(last, path[q_max + 1])


def _pair_detour_length(inst: Instance, pair, cells, chains) -> float:
    """Length of the pair's witness walk, summed from its cells' cover chains.

    The sum starts at the first path edge and follows ``chains``, one per
    cell, in order.  Consecutive entries through one terminal fuse into
    one detour, which replaces the excursion between them with a single
    pass through that terminal; the chains tile the interior, so
    consecutive entries always abut.  Raises
    :class:`IncompleteCellsError` if a cell has an active vertex left.
    """
    path = inst.terminal_paths()[pair]
    total = inst.graph.edge_weight(path[0], path[1])
    terminal = None  # of the detour being fused, over [q_min, q_max]
    for cell, chain in zip(cells, chains):
        if chain is None:
            raise IncompleteCellsError(f"pair {pair} has active cells left")
        for through, first, last in chain:
            if through != terminal:
                if terminal is not None:
                    total += _detour_length(inst, path, terminal, q_min, q_max)
                terminal, q_min = through, cell.start + first
            q_max = cell.start + last
    if terminal is not None:
        total += _detour_length(inst, path, terminal, q_min, q_max)
    return total


class BadEventReport(NamedTuple):
    far_events: list[tuple[int, int, float, float]]
    early_events: list[tuple[int, float, float]]
    many_events: list[tuple[tuple[int, int], int, int, int, float]]

    def counts(self) -> dict[str, int]:
        return {
            "far": len(self.far_events),
            "early": len(self.early_events),
            "many": len(self.many_events),
        }


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
    cells = partition_pairs(inst, params)
    return _bad_events(inst, trace, params, cells, *_distinct_cells(inst, cells))[0]


def _bad_events(inst, trace, params, cells, sequences, slots):
    """:func:`detect_bad_events`' report and the table of :func:`_replay_cell` results it read.

    ``cells`` is :func:`partition_pairs` of the same instance and params,
    and ``sequences`` and ``slots`` are :func:`_distinct_cells` of them.
    """
    index = index_trace(inst, trace)
    far_events = []
    early_events = []
    nearest = inst.nearest_terminal_distances()
    log_k = math.log(inst.k)
    rounds = trace.rounds

    for event in trace.events:
        row = inst.row(event.terminal)
        # Round means never decrease: no earlier round reaches z iff the one before is below z.
        mean = rounds[event.round_index].mean
        previous = rounds[event.round_index - 1].mean if event.round_index else None
        for v in event.vertices:
            dv = nearest[v]
            far_threshold = params.c1 * dv
            dist = row[v]
            if dist >= far_threshold:
                far_events.append((v, event.terminal, dist, far_threshold))
            z = params.c2 * dv * params.delta / log_k
            if previous is None or previous < z:
                early_events.append((v, mean, z))

    many_threshold = params.c3 * log_k
    many_events = []
    table = [_replay_cell(index, vertices) for vertices in sequences]
    for pair, pair_cells in cells.items():
        for cell, slot in zip(pair_cells, slots[pair]):
            distinct = table[slot][0]
            if distinct >= many_threshold:
                many_events.append((pair, cell.start, cell.end, distinct, many_threshold))
    return BadEventReport(far_events, early_events, many_events), table


def distortion_bound_coefficient(params: GrowthParams) -> float:
    return 40.0 * params.c3 * (params.c1 + 1.0) / params.c2


def distortion_bound(params: GrowthParams, k: float) -> float:
    """Closed-form worst-case distortion: 1 + 40 c3 (c1 + 1) / c2 * log^2 k."""
    if k < 2:
        raise ValueError("the bound needs at least two terminals")
    log_k = math.log(k)
    return 1.0 + distortion_bound_coefficient(params) * log_k * log_k


# -- experiment harness ------------------------------------------------


class TrialResult(NamedTuple):
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


def run_experiment(work: Instance, params: GrowthParams, trials: int) -> list[TrialResult]:
    """Repeated :func:`~spr.ball_growing.trial` runs on ``work``, each with its diagnostics.

    Trial t uses seed (params.seed + t) mod 2**64.  ``work`` is the
    instance the balls grow on: the input, or its distance-exact minor,
    which leaves all terminal distances (and hence distortion) unchanged.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    # The analysis reads all k full rows; built first, ``contract`` reads
    # its terminal distances from them instead of running bounded searches.
    work.nearest_terminal_distances()

    results: list[TrialResult] = []
    cells = None
    for index in range(trials):
        trial_params = params._replace(seed=(params.seed + index) % 2**64)
        _, trace, dist_result = trial(work, trial_params)
        if cells is None:
            # After the first run, where the per-trial analysis would first
            # need them, so errors keep their order.
            cells = partition_pairs(work, params)
            sequences, slots = _distinct_cells(work, cells)
        report, table = _bad_events(work, trace, trial_params, cells, sequences, slots)

        violations = 0
        slack = math.inf
        # Both in (i, j) order, as partition_pairs and distortion build them.
        for (pair, pair_cells), (_, _, _, d1, _) in zip(cells.items(), dist_result.pairs, strict=True):
            chains = [table[slot][1] for slot in slots[pair]]
            margin = _pair_detour_length(work, pair, pair_cells, chains) - d1
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
                detour_pairs=len(cells),
                detour_violations=violations,
                min_detour_slack=slack,
            )
        )
    return results


def summary(trials: list[TrialResult]) -> dict:
    """Median and max distortion, mean bad-event counts and totals over an experiment's trials."""
    values = sorted(t.distortion for t in trials)
    n = len(values)
    mid = n // 2
    return {
        "trials": n,
        "distortion_median": values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2,
        "distortion_max": max(values),
        "bad_event_mean_counts": {
            "far": sum(t.far for t in trials) / n,
            "early": sum(t.early for t in trials) / n,
            "many": sum(t.many for t in trials) / n,
        },
        "trials_with_bad_event": sum(1 for t in trials if t.far or t.early or t.many),
        "detour_violations": sum(t.detour_violations for t in trials),
    }
