import math
import random
from collections import Counter
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spr import (
    GrowthParams,
    Instance,
    TerminalMinor,
    WeightedGraph,
    build_graph,
    contract,
    detect_bad_events,
    distortion_bound,
    distortion_bound_coefficient,
    exact_minor,
    index_trace,
    path_partition,
    run,
)
from spr import analysis
from spr import graph as graph_module
from spr.ball_growing import AssignmentEvent, RoundRecord, RunTrace
from spr.errors import IncompleteCellsError, TraceMismatchError
from spr.graph import Skeleton

from conftest import (
    NON_DYADIC_WEIGHTS,
    canonical_path,
    detour_walk,
    eager_walk_length,
    per_pair_experiment,
    random_connected_instance,
    replay_reaches,
    reweighted,
)

PARAMS = GrowthParams(seed=0)


def make_trace(inst, events, base_mean=0.001):
    """Handcrafted trace: only events matter for reach tracking.

    ``events`` lists (vertex, terminal, round, radius) per vertex; each
    run of consecutive vertices with one (round, terminal) becomes one
    draw's record.  Rounds 0 up to the last one named are recorded, with
    no draws, their means by repeated multiplication as a run makes them.
    """
    params = GrowthParams(seed=0)
    rate = params.growth_rate(inst.k)
    records = []
    for (terminal, round_index), batch in groupby(events, key=itemgetter(1, 2)):
        batch = list(batch)
        vertices = tuple(event[0] for event in batch)
        records.append(AssignmentEvent(round_index, terminal, batch[0][3], vertices))
    rounds = []
    mean = base_mean
    for _ in range(max((event[2] + 1 for event in events), default=0)):
        rounds.append(RoundRecord(mean, ()))
        mean *= rate
    return RunTrace(params, base_mean, rate, 1000, rounds=rounds, events=records)


def heavy_path():
    """t0 -500- a -1- b -1- c -500- t1: one big cell over the interior."""
    edges = [(0, 1, 500.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 500.0)]
    return Instance(build_graph(5, edges), [0, 4])


def numbered_reaches(inst, index, i, j, cells):
    """The pair's reaches from ``_replay_cell``, in :func:`replay_reaches`' shape.

    ``order`` numbers the pair's reaches by (batch, cell index) and
    positions become path indices.  The pair is fully deactivated when
    no cell has an active position left.
    """
    path = inst.terminal_paths()[(i, j)]
    replays = [analysis._replay_cell(index, path[cell.start : cell.end + 1]) for cell in cells]
    numbered = sorted(
        (reach[0], ci, r) for ci, replay in enumerate(replays) for r, reach in enumerate(replay[0])
    )
    reaches = [[None] * len(replay[0]) for replay in replays]
    for order, (_, ci, r) in enumerate(numbered):
        _, terminal, first, last = replays[ci][0][r]
        reaches[ci][r] = (order, terminal, cells[ci].start + first, cells[ci].start + last)
    cover = {
        cell.start + q: cell_reaches[r]
        for cell, replay, cell_reaches in zip(cells, replays, reaches)
        for q, r in enumerate(replay[1])
        if r is not None
    }
    return reaches, cover, all(None not in replay[1] for replay in replays)


def oracle_checked_reaches(inst, trace, i, j, cells):
    """:func:`numbered_reaches`, asserted equal to the literal replay."""
    got = numbered_reaches(inst, index_trace(inst, trace), i, j, cells)
    assert got == replay_reaches(inst, trace, i, j, cells)
    return got


class TestPathPartition:
    def test_single_interior_vertex(self, path3):
        cells = path_partition(path3, 0, 1, PARAMS)
        assert len(cells) == 1
        cell = cells[0]
        assert (cell.start, cell.end) == (1, 1)
        assert cell.anchor == 1
        assert cell.internal_length == 0.0
        assert cell.external_length == 2.0
        assert cell.is_final

    def test_small_threshold_gives_singletons(self, path4):
        # unit weights: anchor distance 1, threshold ~0.005 < 1
        cells = path_partition(path4, 0, 1, PARAMS)
        assert [(c.start, c.end) for c in cells] == [(1, 1), (2, 2)]

    def test_large_threshold_merges_interior(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        assert [(c.start, c.end) for c in cells] == [(1, 3)]
        cell = cells[0]
        # anchor a is 500 away from its nearest terminal
        assert cell.threshold == pytest.approx(
            (1 / 27) * 500 * 0.5 / (5 * math.log(2)), rel=1e-12
        )
        assert cell.internal_length == 2.0 <= cell.threshold

    def test_adjacent_terminals_have_no_cells(self):
        inst = Instance(build_graph(2, [(0, 1, 3.0)]), [0, 1])
        assert path_partition(inst, 0, 1, PARAMS) == []

    def test_same_terminal_rejected(self, path3):
        with pytest.raises(ValueError):
            path_partition(path3, 1, 1, PARAMS)

    def test_pair_must_be_ordered_and_in_range(self, star3):
        for i, j in ((1, 0), (2, 1), (-1, 1), (0, 3)):
            message = rf"^a path partition needs 0 <= i < j < 3, got \({i}, {j}\)$"
            with pytest.raises(ValueError, match=message):
                path_partition(star3, i, j, PARAMS)
        assert star3._terminal_paths is None

    def test_cells_tile_interior_and_respect_thresholds(self):
        for seed in range(8):
            inst = exact_minor(random_connected_instance(seed, n=40, k=5)).minor
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    path = inst.terminal_paths()[(i, j)]
                    assert path == canonical_path(inst, i, inst.terminals[j])
                    cells = path_partition(inst, i, j, PARAMS)
                    covered = []
                    for cell in cells:
                        covered.extend(range(cell.start, cell.end + 1))
                        assert cell.internal_length <= cell.threshold
                        assert cell.external_length >= cell.threshold
                        if not cell.is_final:
                            assert cell.external_length > cell.threshold
                    assert covered == list(range(1, len(path) - 1))

    def test_half_sum_of_thresholds_bounds_distance(self):
        for seed in range(8):
            inst = exact_minor(random_connected_instance(seed, n=40, k=5)).minor
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    cells = path_partition(inst, i, j, PARAMS)
                    d = inst.terminal_distances()[(i, j)]
                    assert d >= 0.5 * sum(c.threshold for c in cells)

    def test_lengths_are_the_per_edge_fold_on_floats(self):
        wide = 0
        params = GrowthParams(c2=40.0, seed=0)
        for seed in range(4):
            inst = reweighted(random_connected_instance(seed, n=40, k=5), NON_DYADIC_WEIGHTS, seed)
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    path = inst.terminal_paths()[(i, j)]
                    fold = [0.0]
                    for x, y in zip(path, path[1:]):
                        fold.append(fold[-1] + inst.graph.edge_weight(x, y))
                    for cell in path_partition(inst, i, j, params):
                        internal = fold[cell.end] - fold[cell.start]
                        external = fold[cell.end + 1] - fold[cell.start - 1]
                        assert cell.internal_length.hex() == internal.hex()
                        assert cell.external_length.hex() == external.hex()
                        wide += cell.end > cell.start
        assert wide > 20


class TestTrackReaches:
    def test_whole_interior_in_one_event(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(
            inst,
            [
                (1, 0, 0, 501.0),
                (2, 0, 0, 501.0),
                (3, 0, 0, 501.0),
            ],
        )
        (reaches,), _, complete = oracle_checked_reaches(inst, trace, 0, 1, cells)
        assert complete
        assert [reach[2:] for reach in reaches] == [(1, 3)]

    def test_two_batches_same_cell_two_reaches(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(
            inst,
            [
                (1, 0, 0, 501.0),
                (3, 1, 1, 501.0),
                (2, 0, 2, 502.0),
            ],
        )
        (reaches,), _, complete = oracle_checked_reaches(inst, trace, 0, 1, cells)
        assert reaches == [(0, 0, 1, 1), (1, 1, 3, 3), (2, 0, 2, 2)]
        assert complete

    def test_inactive_vertex_triggers_no_reach(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(
            inst,
            [
                # one batch absorbs a and c; b turns inactive in between
                (1, 0, 0, 501.0),
                (3, 0, 0, 501.0),
                # b is assigned later while already inactive
                (2, 1, 1, 501.0),
            ],
        )
        (reaches,), _, complete = oracle_checked_reaches(inst, trace, 0, 1, cells)
        assert [reach[2:] for reach in reaches] == [(1, 3)]
        assert complete

    def test_interior_terminal_counts_as_initial_reach(self):
        # t0 - v - t2 - w - t1 on a line; t2 sits inside SP(t0, t1)
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
        inst = Instance(build_graph(5, edges), [0, 4, 2])
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(
            inst,
            [
                (1, 0, 0, 1.1),
                (3, 1, 0, 1.2),
            ],
        )
        reaches, _, complete = oracle_checked_reaches(inst, trace, 0, 1, cells)
        assert complete
        middle = [reach for cell in reaches for reach in cell if reach[2] == 2]
        assert middle and middle[0][1] == 2  # the interior terminal itself
        assert middle[0][0] == 0  # before any trace event

    def test_matches_literal_replay(self):
        pairs = interior_terminal_pairs = wide_cells = many_cells = shared_cells = 0
        for inst, trace, params in oracle_cases():
            index = index_trace(inst, trace)
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    cells = path_partition(inst, i, j, params)
                    reaches, cover, complete = replay_reaches(inst, trace, i, j, cells)
                    assert numbered_reaches(inst, index, i, j, cells) == (reaches, cover, complete)
                    pairs += 1
                    path = inst.terminal_paths()[(i, j)]
                    interior_terminal_pairs += any(inst.is_terminal(v) for v in path[1:-1])
                    wide_cells += sum(cell.end > cell.start for cell in cells)
                    distinct = [len({r[1] for r in cell}) for cell in reaches]
                    many_cells += sum(d >= params.c3 * math.log(inst.k) for d in distinct)
                    shared_cells += sum(d >= 2 for d in distinct)
        assert pairs > 500 and interior_terminal_pairs > 20
        assert wide_cells > 200 and many_cells > 1000 and shared_cells > 100

    def test_trace_mismatch(self, path3):
        cases = [
            ([(7, 0, 0)], "event vertex 7 out of range"),
            ([(0, 1, 0)], "terminal 0 has an assignment event"),
            ([(1, 0, 0), (1, 1, 1)], "vertex 1 assigned twice"),
            ([(1, 2, 0)], "event terminal 2 out of range"),
            ([(1, -1, 0)], "event terminal -1 out of range"),
        ]
        for events, message in cases:
            trace = make_trace(path3, [(v, t, r, 1.0) for v, t, r in events])
            with pytest.raises(TraceMismatchError, match=f"^{message}$"):
                index_trace(path3, trace)

    @pytest.mark.parametrize("past_the_end", [True, False])
    def test_event_in_an_unrecorded_round(self, path3, past_the_end):
        trace = make_trace(path3, [(1, 0, 2, 1.0)])
        round_index = 3 if past_the_end else -1
        trace.events[0] = trace.events[0]._replace(round_index=round_index)
        with pytest.raises(TraceMismatchError, match=f"^event round {round_index} is not recorded$"):
            index_trace(path3, trace)


def synthetic_trace(inst, seed, keep=1.0):
    """Random events over the non-terminals, a fraction ``keep`` of them.

    Rounds advance at random, and a (round, terminal) key may recur after
    another key, so batches of the same key need not be consecutive.
    """
    rng = random.Random(seed)
    vertices = inst.non_terminals()
    rng.shuffle(vertices)
    events = []
    round_index, terminal = 0, 0
    for v in vertices[: int(keep * len(vertices))]:
        if rng.random() < 0.5:
            round_index += rng.random() < 0.2
            terminal = rng.randrange(inst.k)
        events.append((v, terminal, round_index, 1.0))
    return make_trace(inst, events)


# c2 = 5 and 40 give multi-vertex cells; c3 = 1/2 lets a cell's terminals be many.
CELL_PARAMS = [GrowthParams(c2=c2, c3=0.5, seed=0) for c2 in (1.0 / 27.0, 5.0, 40.0)]


def oracle_cases():
    """(instance, trace, params) triples the per-cell replay must reproduce exactly."""
    narrow, _, wide = CELL_PARAMS
    for seed in range(7):
        base = random_connected_instance(seed + 400, n=24, k=2 + seed)
        for inst in (base, exact_minor(base).minor, reweighted(base, NON_DYADIC_WEIGHTS, seed)):
            for params in CELL_PARAMS:
                _, trace = run(inst, GrowthParams(seed=seed + 11))
                yield inst, trace, params
                yield inst, synthetic_trace(inst, seed, keep=0.8), params
    # terminals inside other pairs' paths: a line with every third vertex a terminal
    line = Instance(
        build_graph(13, [(v, v + 1, 1.0 + v % 2) for v in range(12)]), [0, 12, 6, 3, 9]
    )
    for seed in range(4):
        yield line, synthetic_trace(line, seed), wide
        yield line, synthetic_trace(line, seed, keep=0.5), narrow
    inst = heavy_path()
    for events in (
        [(1, 0, 0), (2, 0, 0), (3, 0, 0)],
        [(1, 0, 0), (3, 1, 1), (2, 0, 2)],
        [(1, 0, 0), (3, 0, 0), (2, 1, 1)],
        [(2, 1, 0), (1, 0, 1), (3, 0, 1)],
        [(1, 0, 0)],
    ):
        trace = make_trace(inst, [(v, t, r, 501.0) for v, t, r in events])
        yield inst, trace, narrow


def pair_chains(inst, index, cells):
    """Each pair's cover chains, from one replay of each distinct cell."""
    sequences, slots = analysis._distinct_cells(inst, cells)
    table = analysis._replay_distinct(index, sequences)
    return {pair: [table[slot][1] for slot in pair_slots] for pair, pair_slots in slots.items()}


def detour_length(inst, index, pair, cells):
    """``_pair_detour_length`` of one pair, its cells replayed on their own."""
    chains = pair_chains(inst, index, {pair: cells})[pair]
    return analysis._pair_detour_length(inst, pair, cells, chains)


def walk_weight(inst, vertices):
    return sum(inst.graph.edge_weight(x, y) for x, y in zip(vertices, vertices[1:]))


def fused_runs(ranges):
    """The fused-run check: a chain of reaches, summed and walked.

    ``ranges`` lists (terminal, q_min, q_max) reaches, one batch each in
    list order, that tile the interior of t0 -500- v1 -1- ... -1- vm -500-
    t1; terminals 2 and 3 hang off v1 and vm by weight-500 edges, so the
    interior is one cell.  ``_pair_detour_length`` must be the oracle
    walk's length, the same float, and the walk's edges must sum to it.
    Returns the walk's detours as (terminal, q_min, q_max).
    """
    m = max(q_max for _, _, q_max in ranges)
    edges = [(0, 1, 500.0), (m, m + 1, 500.0), (1, m + 2, 500.0), (m, m + 3, 500.0)]
    edges += [(q, q + 1, 1.0) for q in range(1, m)]
    inst = Instance(build_graph(m + 4, edges), [0, m + 1, m + 2, m + 3])
    events = [
        (q, terminal, r, 1.0)
        for r, (terminal, q_min, q_max) in enumerate(ranges)
        for q in range(q_min, q_max + 1)
    ]
    trace = make_trace(inst, events)
    cells = path_partition(inst, 0, 1, CELL_PARAMS[2])
    assert [(cell.start, cell.end) for cell in cells] == [(1, m)]
    _, cover, complete = replay_reaches(inst, trace, 0, 1, cells)
    assert complete
    vertices, length, detours = detour_walk(inst, inst.terminal_paths()[(0, 1)], cells, cover)
    assert detour_length(inst, index_trace(inst, trace), (0, 1), cells).hex() == length.hex()
    assert walk_weight(inst, vertices) == length
    return [tuple(detour) for detour in detours]


class TestMergeDetours:
    """Consecutive detours through one terminal fuse into one."""

    def test_adjacent_same_terminal_merge(self):
        assert fused_runs([(2, 1, 2), (2, 3, 4)]) == [(2, 1, 4)]

    def test_distinct_terminals_unchanged(self):
        detours = [(2, 1, 2), (3, 3, 4)]
        assert fused_runs(detours) == detours

    def test_alternating_terminals_unchanged(self):
        detours = [(2, 1, 1), (3, 2, 2), (2, 3, 3)]
        assert fused_runs(detours) == detours

    def test_merge_cascades(self):
        assert fused_runs([(2, 1, 1), (2, 2, 2), (2, 3, 3)]) == [(2, 1, 3)]

    def test_non_adjacent_ranges_never_merge(self):
        # Terminal 2's two reaches leave v3 between them to a later batch.
        assert fused_runs([(2, 1, 2), (2, 4, 4), (3, 3, 3)]) == [(2, 1, 2), (3, 3, 3), (2, 4, 4)]

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_abutting_chain_has_no_adjacent_duplicates(self, labels):
        detours = fused_runs([(label, q, q) for q, label in enumerate(labels, 1)])
        for a, b in zip(detours, detours[1:]):
            assert a[0] != b[0]
        assert detours[0][1] == 1
        assert detours[-1][2] == len(labels)


class TestBuildDetourPath:
    """``_pair_detour_length`` against the witness walk that conftest builds."""

    def test_path3_detour(self, path3):
        trace = make_trace(path3, [(1, 0, 0, 0.9)])
        cells = path_partition(path3, 0, 1, PARAMS)
        _, cover, _ = replay_reaches(path3, trace, 0, 1, cells)
        vertices, length, _ = detour_walk(path3, path3.terminal_paths()[(0, 1)], cells, cover)
        assert vertices == (0, 1, 0, 1, 2)
        assert length == 4.0
        assert detour_length(path3, index_trace(path3, trace), (0, 1), cells) == 4.0

    def test_no_interior_degenerates_to_edge(self):
        inst = Instance(build_graph(2, [(0, 1, 3.0)]), [0, 1])
        trace = make_trace(inst, [])
        assert detour_walk(inst, inst.terminal_paths()[(0, 1)], [], {}) == ((0, 1), 3.0, [])
        assert detour_length(inst, index_trace(inst, trace), (0, 1), []) == 3.0

    def test_incomplete_cells_raise(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(inst, [(1, 0, 0, 500.5)])
        assert not oracle_checked_reaches(inst, trace, 0, 1, cells)[2]
        with pytest.raises(IncompleteCellsError, match=r"^pair \(0, 1\) has active cells left$"):
            detour_length(inst, index_trace(inst, trace), (0, 1), cells)

    def test_length_without_the_walk_is_the_same_float(self):
        complete = incomplete = 0
        for inst, trace, params in oracle_cases():
            index = index_trace(inst, trace)
            cells = analysis.partition_pairs(inst, params)
            chains = pair_chains(inst, index, cells)
            for pair, pair_cells in cells.items():
                _, cover, covered = replay_reaches(inst, trace, *pair, pair_cells)
                if not covered:
                    with pytest.raises(IncompleteCellsError):
                        analysis._pair_detour_length(inst, pair, pair_cells, chains[pair])
                    incomplete += 1
                    continue
                _, walk_length, _ = detour_walk(inst, inst.terminal_paths()[pair], pair_cells, cover)
                length = analysis._pair_detour_length(inst, pair, pair_cells, chains[pair])
                assert length.hex() == walk_length.hex()
                complete += 1
        assert complete > 300 and incomplete > 0

    def test_walk_edges_sum_to_length(self):
        for seed in range(6):
            inst = exact_minor(random_connected_instance(seed, n=35, k=4)).minor
            part, trace = run(inst, GrowthParams(seed=seed + 3))
            index = index_trace(inst, trace)
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    cells = path_partition(inst, i, j, PARAMS)
                    _, cover, _ = replay_reaches(inst, trace, i, j, cells)
                    vertices, length, _ = detour_walk(inst, inst.terminal_paths()[(i, j)], cells, cover)
                    assert walk_weight(inst, vertices) == length
                    assert detour_length(inst, index, (i, j), cells) == length

    def test_lazy_walk_matches_eager_length(self):
        checked = 0
        for inst, trace, params in oracle_cases():
            index = index_trace(inst, trace)
            integer = inst.graph.is_integer_weighted()
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    cells = path_partition(inst, i, j, params)
                    _, cover, complete = replay_reaches(inst, trace, i, j, cells)
                    if not complete:
                        continue
                    length = detour_length(inst, index, (i, j), cells)
                    eager = eager_walk_length(inst, inst.terminal_paths()[(i, j)], cells, cover)
                    if integer:
                        assert length == eager
                    else:
                        assert length == pytest.approx(eager, rel=1e-12)
                    checked += 1
        assert checked > 300

    def test_only_terminals_are_labelled(self, monkeypatch):
        # The analysis labels from terminals only, once per terminal but the
        # last, and not at all on a minor that exact_minor left labelled.
        sources = []
        label = WeightedGraph._label

        def recording(graph, s, dist, closure):
            sources.append(s)
            return label(graph, s, dist, closure)

        monkeypatch.setattr(WeightedGraph, "_label", recording)
        for seed in range(4):
            base = random_connected_instance(seed + 30, n=60, k=6)
            fresh = Instance(base.graph, base.terminals)
            for inst, labelled in ((exact_minor(base).minor, ()), (fresh, base.terminals[:-1])):
                sources.clear()
                params = GrowthParams(seed=seed)
                _, trace = run(inst, params)
                cells = analysis.partition_pairs(inst, params)
                chains = pair_chains(inst, index_trace(inst, trace), cells)
                for pair, pair_cells in cells.items():
                    analysis._pair_detour_length(inst, pair, pair_cells, chains[pair])
                assert sources == list(labelled)

    def test_detour_dominates_contracted_distance(self):
        for seed in range(8):
            inst = exact_minor(random_connected_instance(seed, n=40, k=5)).minor
            params = GrowthParams(seed=seed * 7 + 1)
            part, trace = run(inst, params)
            minor_dist = contract(inst, part).all_distances()
            index = index_trace(inst, trace)
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    cells = path_partition(inst, i, j, params)
                    _, cover, _ = replay_reaches(inst, trace, i, j, cells)
                    _, length, detours = detour_walk(inst, inst.terminal_paths()[(i, j)], cells, cover)
                    assert detour_length(inst, index, (i, j), cells) == length >= minor_dist[(i, j)]
                    for a, b in zip(detours, detours[1:]):
                        assert a[0] != b[0]

    def test_star_pair_detour(self, star3):
        params = GrowthParams(seed=11)
        part, trace = run(star3, params)
        minor = contract(star3, part)
        cells = path_partition(star3, 1, 2, params)
        length = detour_length(star3, index_trace(star3, trace), (1, 2), cells)
        assert length >= minor.all_distances()[(1, 2)]


class TestDetectBadEvents:
    def test_small_instances_have_no_far_events(self):
        for seed in range(6):
            inst = exact_minor(random_connected_instance(seed, n=30, k=4)).minor
            params = GrowthParams(seed=seed)
            _, trace = run(inst, params)
            report = detect_bad_events(inst, trace, params)
            assert report.far_events == []
            assert report.many_events == []  # threshold c3 log k exceeds k

    def test_round_zero_assignment_is_early(self, path3):
        base = 0.0072134752044448166  # delta/(100 ln 2) for min D_v = 1
        trace = make_trace(
            path3,
            [(1, 0, 0, 0.9)],
            base_mean=base,
        )
        report = detect_bad_events(path3, trace, GrowthParams())
        assert len(report.early_events) == 1
        vertex, mean, threshold = report.early_events[0]
        assert (vertex, mean) == (1, base)
        assert threshold == pytest.approx((1 / 27) * 1.0 * 0.5 / math.log(2), rel=1e-12)

    def test_late_assignment_is_not_early(self, path3):
        base = 0.0072134752044448166
        trace = make_trace(
            path3,
            [(1, 0, 40, 2.0)],
            base_mean=base,
        )
        report = detect_bad_events(path3, trace, GrowthParams())
        assert report.early_events == []

    def test_far_event_with_tiny_c1(self, path4):
        params = GrowthParams(c1=1.0, seed=2)
        _, trace = run(path4, params)
        report = detect_bad_events(path4, trace, params)
        # with c1 = 1 every assignment at distance >= D_v flags itself
        assert report.far_events

    def test_many_event_with_tiny_c3(self):
        inst = heavy_path()
        params = GrowthParams(c3=0.1, seed=0)
        cells_trace = make_trace(
            inst,
            [
                (1, 0, 0, 501.0),
                (2, 0, 0, 501.0),
                (3, 0, 0, 501.0),
            ],
        )
        report = detect_bad_events(inst, cells_trace, params)
        assert report.many_events
        pair, start, end, count, threshold = report.many_events[0]
        assert pair == (0, 1)
        assert count == 1


def literal_early_events(inst, trace, params):
    """The early events as the rule states them, the round means rebuilt.

    A vertex is early when its round comes no later than the first round
    whose mean reaches z = c2 * D_v * delta / log k.  The means are
    counted by the run's own multiplication loop from the base mean, past
    the last recorded round if z needs it.
    """
    nearest = inst.nearest_terminal_distances()
    early = []
    for event in trace.events:
        mean = trace.base_mean
        for _ in range(event.round_index):
            mean *= trace.growth_rate
        for v in event.vertices:
            z = params.c2 * nearest[v] * params.delta / math.log(inst.k)
            reaching, reaching_mean = 0, trace.base_mean
            while reaching_mean < z:
                reaching_mean *= trace.growth_rate
                reaching += 1
            if event.round_index <= reaching:
                early.append((v, mean, z))
    return early


class TestRoundOf:
    """Round(z), the first round whose mean reaches z, decides the early events.

    ``detect_bad_events``' early list is checked against
    :func:`literal_early_events`, which counts rounds by multiplication.
    """

    C2 = (1.0 / 27.0, 0.5, 5.0, 400.0)

    def test_matches_multiplication_loop(self):
        early = late = 0
        for seed in range(8):
            base = random_connected_instance(seed + 60, n=30, k=2 + seed % 5)
            floats = reweighted(base, NON_DYADIC_WEIGHTS, seed)
            for inst in (base, floats, exact_minor(base).minor, exact_minor(floats).minor):
                for c2 in self.C2:
                    params = GrowthParams(c2=c2, seed=seed)
                    _, trace = run(inst, params)
                    expected = literal_early_events(inst, trace, params)
                    assert detect_bad_events(inst, trace, params).early_events == expected
                    early += len(expected)
                    late += sum(len(event.vertices) for event in trace.events) - len(expected)
        assert early > 100 and late > 100

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-9, max_value=1e9),
        st.integers(0, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_threshold(self, base_mean, c2, round_index):
        # Rounds are recorded up to the event's only, so a z past them is
        # decided by the recorded means alone.
        inst = Instance(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]), [0, 2])
        trace = make_trace(inst, [(1, 0, round_index, 1.0)], base_mean=base_mean)
        params = GrowthParams(c2=c2)
        expected = literal_early_events(inst, trace, params)
        assert detect_bad_events(inst, trace, params).early_events == expected


def experiment_instances():
    """An integer and a non-dyadic float instance, each run raw and preprocessed."""
    integer = random_connected_instance(8, n=40, k=6)
    floats = reweighted(random_connected_instance(9, n=40, k=6), NON_DYADIC_WEIGHTS, 9)
    for inst in (integer, floats):
        for preprocess in (False, True):
            yield inst, preprocess


class TestReplayOncePerCell:
    def test_experiment_matches_per_pair_oracle(self):
        wide_cells = many = 0
        for inst, preprocess in experiment_instances():
            work = exact_minor(inst).minor if preprocess else inst
            for params in CELL_PARAMS:
                params = params._replace(seed=3)
                report = analysis.run_experiment(inst, params, trials=2, preprocess=preprocess)
                got = [
                    (t.many, t.detour_violations, t.min_detour_slack.hex()) for t in report.trials
                ]
                expected = [
                    (m, v, slack.hex())
                    for m, v, slack in per_pair_experiment(inst, params, 2, preprocess)
                ]
                assert got == expected
                cells = analysis.partition_pairs(work, params).values()
                wide_cells += sum(cell.end > cell.start for pair in cells for cell in pair)
                many += sum(t.many for t in report.trials)
        assert wide_cells > 30 and many > 100

    def test_each_distinct_cell_replayed_once_per_trial(self, monkeypatch):
        replayed = []
        replay_cell = analysis._replay_cell

        def counting(index, vertices):
            replayed.append(vertices)
            return replay_cell(index, vertices)

        monkeypatch.setattr(analysis, "_replay_cell", counting)
        inst = exact_minor(random_connected_instance(8, n=40, k=6)).minor
        params = CELL_PARAMS[2]
        cells = analysis.partition_pairs(inst, params)
        sequences = [
            inst.terminal_paths()[pair][cell.start : cell.end + 1]
            for pair, pair_cells in cells.items()
            for cell in pair_cells
        ]
        assert len(set(sequences)) < len(sequences)  # pairs share cells
        analysis.run_experiment(inst, params, trials=3, preprocess=False)
        assert Counter(replayed) == {vertices: 3 for vertices in sequences}
        # One pair's reaches replay through the same function, each cell once.
        replayed.clear()
        _, trace = run(inst, params)
        oracle_checked_reaches(inst, trace, 0, 1, cells[(0, 1)])
        assert replayed == sequences[: len(cells[(0, 1)])]


class TestOnePassPerTrial:
    def test_trace_checked_once_per_trial(self, monkeypatch):
        calls = []
        original = analysis.index_trace
        monkeypatch.setattr(
            analysis, "index_trace", lambda inst, trace: calls.append(1) or original(inst, trace)
        )
        inst = random_connected_instance(8, n=40, k=6)
        analysis.run_experiment(inst, GrowthParams(seed=1), trials=3)
        assert len(calls) == 3

    def test_minor_distances_computed_once_per_trial(self, monkeypatch):
        calls = []
        original = TerminalMinor.all_distances
        monkeypatch.setattr(
            TerminalMinor, "all_distances", lambda minor: calls.append(1) or original(minor)
        )
        inst = random_connected_instance(8, n=40, k=6)
        analysis.run_experiment(inst, GrowthParams(seed=1), trials=3)
        assert len(calls) == 3

    def test_pair_cells_computed_once_per_experiment(self, monkeypatch):
        calls = []
        original = analysis.path_partition
        monkeypatch.setattr(
            analysis, "path_partition", lambda *args: calls.append(args[1:3]) or original(*args)
        )
        inst = random_connected_instance(8, n=40, k=6)
        analysis.run_experiment(inst, GrowthParams(seed=1), trials=3)
        assert sorted(calls) == [(i, j) for i in range(6) for j in range(i + 1, 6)]

    def test_builds_each_full_row_once_and_no_bounded_row(self, monkeypatch):
        searches = []
        dijkstra = WeightedGraph._dijkstra

        def counted(graph, s, targets=None):
            searches.append((s, targets))
            return dijkstra(graph, s, targets)

        monkeypatch.setattr(WeightedGraph, "_dijkstra", counted)
        inst = random_connected_instance(8, n=40, k=6)
        analysis.run_experiment(inst, GrowthParams(seed=1), trials=3)
        assert all(targets is None for _, targets in searches)
        assert len({s for s, _ in searches}) == len(searches) == inst.k

    def test_raw_path_searches_from_each_terminal_once(self, monkeypatch):
        # The path cells read the cached full rows: k searches, not 2k - 1.
        sources = []
        search = graph_module._level_search

        def counted(links, s, targets):
            sources.append(s)
            return search(links, s, targets)

        monkeypatch.setattr(graph_module, "_level_search", counted)
        for k in (5, 8):
            inst = random_connected_instance(8, n=40, k=k)
            sources.clear()
            analysis.run_experiment(inst, GrowthParams(seed=1), trials=3, preprocess=False)
            assert sorted(sources) == sorted(inst.terminals)

    def test_default_path_builds_no_skeleton_after_exact_minor(self, monkeypatch):
        # The fixpoint pass leaves its terminal paths cached on the minor,
        # and the analysis reads those; on the raw path one skeleton serves.
        events = []
        minor_of = analysis.exact_minor
        build = Skeleton.__init__

        def recording_minor(inst):
            result = minor_of(inst)
            events.append("exact_minor returned")
            return result

        def recording_build(sk, graph, keep):
            events.append("skeleton")
            build(sk, graph, keep)

        monkeypatch.setattr(analysis, "exact_minor", recording_minor)
        monkeypatch.setattr(Skeleton, "__init__", recording_build)
        inst = random_connected_instance(8, n=40, k=6)
        analysis.run_experiment(inst, GrowthParams(seed=1), trials=3)
        assert events.count("skeleton") >= 2 and events[-1] == "exact_minor returned"
        events.clear()
        fresh = Instance(inst.graph, inst.terminals)  # exact_minor left inst's table cached
        analysis.run_experiment(fresh, GrowthParams(seed=1), trials=3, preprocess=False)
        assert events == ["skeleton"]

    def test_slack_from_lengths_builds_no_walk(self):
        integer = random_connected_instance(8, n=40, k=6)
        floats = reweighted(random_connected_instance(9, n=40, k=6), NON_DYADIC_WEIGHTS, 9)
        for seed, inst in enumerate((integer, floats)):
            params = GrowthParams(seed=seed)
            work = exact_minor(inst).minor
            expected = []
            for trial in range(3):
                trial_params = GrowthParams(seed=seed + trial)
                part, trace = run(work, trial_params)
                minor_dist = contract(work, part).all_distances()
                slack = math.inf
                for pair, cells in analysis.partition_pairs(work, trial_params).items():
                    _, cover, _ = replay_reaches(work, trace, *pair, cells)
                    walk_length = detour_walk(work, work.terminal_paths()[pair], cells, cover)[1]
                    slack = min(slack, walk_length - minor_dist[pair])
                expected.append(slack)
            report = analysis.run_experiment(inst, params, trials=3)
            assert [t.min_detour_slack.hex() for t in report.trials] == [x.hex() for x in expected]

    def test_out_of_regime_params_warn_once_per_experiment(self):
        inst = random_connected_instance(8, n=20, k=3)
        with pytest.warns(UserWarning, match="analyzed regime") as record:
            analysis.run_experiment(inst, GrowthParams(delta=0.75, seed=1), trials=3)
        assert len(record) == 1

    def test_cell_table_built_once_per_experiment(self, monkeypatch):
        calls = []
        original = analysis._distinct_cells
        monkeypatch.setattr(
            analysis, "_distinct_cells", lambda *args: calls.append(1) or original(*args)
        )
        inst = random_connected_instance(8, n=40, k=6)
        for preprocess in (False, True):
            calls.clear()
            analysis.run_experiment(inst, GrowthParams(seed=1), trials=3, preprocess=preprocess)
            assert len(calls) == 1

    def test_given_cells_match_computed_ones(self, monkeypatch):
        tables = []
        distinct_cells = analysis._distinct_cells
        monkeypatch.setattr(
            analysis, "_distinct_cells", lambda *args: tables.append(distinct_cells(*args)) or tables[-1]
        )
        inst = random_connected_instance(4, n=30, k=5)
        params = GrowthParams(seed=2)
        _, trace = run(inst, params)
        cells = analysis.partition_pairs(inst, params)
        distinct = analysis._distinct_cells(inst, cells)
        given_cells = analysis._bad_events(inst, trace, params, cells, *distinct)[0]
        computed = detect_bad_events(inst, trace, params)
        assert given_cells == computed
        assert len(tables) == 2
        assert tables[0] == tables[1]
        assert tables[0][1].keys() == cells.keys()


class TestDistortionBound:
    def test_default_coefficient(self):
        assert distortion_bound_coefficient(GrowthParams()) == pytest.approx(
            174_992_400.0, rel=1e-12
        )

    def test_doubling_c3_doubles_coefficient(self):
        base = distortion_bound_coefficient(GrowthParams())
        doubled = distortion_bound_coefficient(GrowthParams(c3=60.0))
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_at_k_equal_e(self):
        value = distortion_bound(GrowthParams(), math.e)
        assert value == pytest.approx(1 + 174_992_400.0, rel=1e-12)

    def test_below_two_hundred_million_log_squared(self):
        for k in (3, 4, 10, 100, 10**6):
            assert distortion_bound(GrowthParams(), k) <= 2e8 * math.log(k) ** 2

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            distortion_bound(GrowthParams(), 1)
