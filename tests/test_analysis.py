import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spr import (
    GrowthParams,
    Instance,
    Reach,
    TerminalMinor,
    WeightedGraph,
    build_detour_path,
    build_graph,
    contract,
    detect_bad_events,
    distortion_bound,
    distortion_bound_coefficient,
    exact_minor,
    index_trace,
    merge_detours,
    path_partition,
    run,
    track_reaches,
)
from spr import analysis
from spr.analysis import _round_of
from spr.ball_growing import AssignmentEvent, RunTrace
from spr.errors import IncompleteCellsError, TraceMismatchError

from conftest import (
    NON_DYADIC_WEIGHTS,
    eager_walk_length,
    random_connected_instance,
    replay_reaches,
    reweighted,
)

PARAMS = GrowthParams(seed=0)


def make_trace(inst, events, base_mean=None, rate=None):
    """Handcrafted trace: only events matter for reach tracking."""
    params = GrowthParams(seed=0)
    if base_mean is None:
        base_mean = 0.001
    if rate is None:
        rate = params.growth_rate(inst.k)
    return RunTrace(params, base_mean, rate, 1000, rounds=[], events=list(events))


def heavy_path():
    """t0 -500- a -1- b -1- c -500- t1: one big cell over the interior."""
    edges = [(0, 1, 500.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 500.0)]
    return Instance(build_graph(5, edges), [0, 4])


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

    def test_cells_tile_interior_and_respect_thresholds(self):
        for seed in range(8):
            inst = exact_minor(random_connected_instance(seed, n=40, k=5)).minor
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    path = inst.path(i, inst.terminals[j])
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


class TestTrackReaches:
    def test_whole_interior_in_one_event(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(
            inst,
            [
                AssignmentEvent(1, 0, 0, 0.001, 501.0),
                AssignmentEvent(2, 0, 0, 0.001, 501.0),
                AssignmentEvent(3, 0, 0, 0.001, 501.0),
            ],
        )
        log = track_reaches(inst, index_trace(inst, trace), 0, 1, cells)
        assert log.fully_deactivated
        (reaches,) = log.reaches
        assert len(reaches) == 1
        assert (reaches[0].q_min, reaches[0].q_max) == (1, 3)

    def test_two_batches_same_cell_two_reaches(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(
            inst,
            [
                AssignmentEvent(1, 0, 0, 0.001, 501.0),
                AssignmentEvent(3, 1, 1, 0.002, 501.0),
                AssignmentEvent(2, 0, 2, 0.003, 502.0),
            ],
        )
        log = track_reaches(inst, index_trace(inst, trace), 0, 1, cells)
        (reaches,) = log.reaches
        assert [(r.terminal, r.q_min, r.q_max) for r in reaches] == [
            (0, 1, 1),
            (1, 3, 3),
            (0, 2, 2),
        ]
        assert log.fully_deactivated

    def test_inactive_vertex_triggers_no_reach(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(
            inst,
            [
                # one batch absorbs a and c; b turns inactive in between
                AssignmentEvent(1, 0, 0, 0.001, 501.0),
                AssignmentEvent(3, 0, 0, 0.001, 501.0),
                # b is assigned later while already inactive
                AssignmentEvent(2, 1, 1, 0.002, 501.0),
            ],
        )
        log = track_reaches(inst, index_trace(inst, trace), 0, 1, cells)
        (reaches,) = log.reaches
        assert len(reaches) == 1
        assert (reaches[0].q_min, reaches[0].q_max) == (1, 3)
        assert log.fully_deactivated

    def test_interior_terminal_counts_as_initial_reach(self):
        # t0 - v - t2 - w - t1 on a line; t2 sits inside SP(t0, t1)
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
        inst = Instance(build_graph(5, edges), [0, 4, 2])
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(
            inst,
            [
                AssignmentEvent(1, 0, 0, 0.001, 1.1),
                AssignmentEvent(3, 1, 0, 0.001, 1.2),
            ],
        )
        log = track_reaches(inst, index_trace(inst, trace), 0, 1, cells)
        assert log.fully_deactivated
        middle = [r for rs in log.reaches for r in rs if r.q_min == 2]
        assert middle and middle[0].terminal == 2  # the interior terminal itself
        assert middle[0].order == 0  # before any trace event

    def test_matches_literal_replay(self):
        pairs = interior_terminal_pairs = 0
        for inst, trace, params in oracle_cases():
            index = index_trace(inst, trace)
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    cells = path_partition(inst, i, j, params)
                    log = track_reaches(inst, index, i, j, cells)
                    reaches, cover, complete = replay_reaches(inst, trace, i, j, cells)
                    as_tuples = [
                        [(r.order, r.terminal, r.q_min, r.q_max) for r in cell]
                        for cell in log.reaches
                    ]
                    assert as_tuples == reaches
                    assert {
                        q: (r.order, r.terminal, r.q_min, r.q_max) for q, r in log.cover.items()
                    } == cover
                    assert log.fully_deactivated == complete
                    pairs += 1
                    interior_terminal_pairs += any(inst.is_terminal(v) for v in log.path[1:-1])
        assert pairs > 500 and interior_terminal_pairs > 20

    def test_trace_mismatch(self, path3):
        cases = [
            ([(7, 0, 0)], "event vertex 7 out of range"),
            ([(0, 1, 0)], "terminal 0 has an assignment event"),
            ([(1, 0, 0), (1, 1, 1)], "vertex 1 assigned twice"),
            ([(1, 2, 0)], "event terminal 2 out of range"),
            ([(1, -1, 0)], "event terminal -1 out of range"),
        ]
        for events, message in cases:
            trace = make_trace(path3, [AssignmentEvent(v, t, r, 0.01, 1.0) for v, t, r in events])
            with pytest.raises(TraceMismatchError, match=f"^{message}$"):
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
        events.append(AssignmentEvent(v, terminal, round_index, 0.001, 1.0))
    return make_trace(inst, events)


def oracle_cases():
    """(instance, trace, params) triples the one-pass tracker must replay exactly."""
    wide = GrowthParams(c2=40.0, seed=0)  # multi-vertex cells
    for seed in range(7):
        base = random_connected_instance(seed + 400, n=24, k=2 + seed)
        for inst in (base, exact_minor(base).minor, reweighted(base, NON_DYADIC_WEIGHTS, seed)):
            for params in (PARAMS, wide):
                _, trace = run(inst, GrowthParams(seed=seed + 11))
                yield inst, trace, params
                yield inst, synthetic_trace(inst, seed, keep=0.8), params
    # terminals inside other pairs' paths: a line with every third vertex a terminal
    line = Instance(
        build_graph(13, [(v, v + 1, 1.0 + v % 2) for v in range(12)]), [0, 12, 6, 3, 9]
    )
    for seed in range(4):
        yield line, synthetic_trace(line, seed), wide
        yield line, synthetic_trace(line, seed, keep=0.5), PARAMS
    inst = heavy_path()
    for events in (
        [(1, 0, 0), (2, 0, 0), (3, 0, 0)],
        [(1, 0, 0), (3, 1, 1), (2, 0, 2)],
        [(1, 0, 0), (3, 0, 0), (2, 1, 1)],
        [(2, 1, 0), (1, 0, 1), (3, 0, 1)],
        [(1, 0, 0)],
    ):
        trace = make_trace(inst, [AssignmentEvent(v, t, r, 0.001, 501.0) for v, t, r in events])
        yield inst, trace, PARAMS


def _reach(q_min, q_max, terminal):
    return Reach(q_min, terminal, q_min, q_max)


class TestMergeDetours:
    def test_adjacent_same_terminal_merge(self):
        merged = merge_detours([_reach(1, 2, 5), _reach(3, 4, 5)])
        assert len(merged) == 1
        assert (merged[0].q_min, merged[0].q_max, merged[0].terminal) == (1, 4, 5)

    def test_distinct_terminals_unchanged(self):
        detours = [_reach(1, 2, 5), _reach(3, 4, 6)]
        assert merge_detours(detours) == detours

    def test_alternating_terminals_unchanged(self):
        detours = [
            _reach(1, 1, 5),
            _reach(2, 2, 6),
            _reach(3, 3, 5),
        ]
        assert merge_detours(detours) == detours

    def test_merge_cascades(self):
        merged = merge_detours(
            [
                _reach(1, 1, 5),
                _reach(2, 2, 5),
                _reach(3, 3, 5),
            ]
        )
        assert len(merged) == 1
        assert (merged[0].q_min, merged[0].q_max) == (1, 3)

    def test_non_adjacent_ranges_never_merge(self):
        detours = [_reach(1, 2, 5), _reach(4, 4, 5)]
        assert merge_detours(detours) == detours

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_abutting_chain_has_no_adjacent_duplicates(self, labels):
        detours = [_reach(i + 1, i + 1, label) for i, label in enumerate(labels)]
        merged = merge_detours(detours)
        for a, b in zip(merged, merged[1:]):
            assert a.terminal != b.terminal
        assert merged[0].q_min == 1
        assert merged[-1].q_max == len(labels)


class TestBuildDetourPath:
    def test_path3_detour(self, path3):
        trace = make_trace(path3, [AssignmentEvent(1, 0, 0, 0.007, 0.9)])
        log = track_reaches(path3, index_trace(path3, trace), 0, 1, path_partition(path3, 0, 1, PARAMS))
        walk = build_detour_path(path3, 0, 1, log)
        assert walk.vertices == (0, 1, 0, 1, 2)
        assert walk.length == 4.0

    def test_no_interior_degenerates_to_edge(self):
        inst = Instance(build_graph(2, [(0, 1, 3.0)]), [0, 1])
        trace = make_trace(inst, [])
        log = track_reaches(inst, index_trace(inst, trace), 0, 1, [])
        walk = build_detour_path(inst, 0, 1, log)
        assert walk.vertices == (0, 1)
        assert walk.length == 3.0

    def test_incomplete_cells_raise(self):
        inst = heavy_path()
        cells = path_partition(inst, 0, 1, PARAMS)
        trace = make_trace(inst, [AssignmentEvent(1, 0, 0, 0.001, 500.5)])
        log = track_reaches(inst, index_trace(inst, trace), 0, 1, cells)
        assert not log.fully_deactivated
        with pytest.raises(IncompleteCellsError):
            build_detour_path(inst, 0, 1, log)

    def test_walk_edges_sum_to_length(self):
        for seed in range(6):
            inst = exact_minor(random_connected_instance(seed, n=35, k=4)).minor
            part, trace = run(inst, GrowthParams(seed=seed + 3))
            index = index_trace(inst, trace)
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    cells = path_partition(inst, i, j, PARAMS)
                    log = track_reaches(inst, index, i, j, cells)
                    walk = build_detour_path(inst, i, j, log)
                    total = sum(
                        inst.graph.edge_weight(x, y)
                        for x, y in zip(walk.vertices, walk.vertices[1:])
                    )
                    assert total == walk.length

    def test_lazy_walk_matches_eager_length(self):
        checked = 0
        for inst, trace, params in oracle_cases():
            index = index_trace(inst, trace)
            integer = inst.graph.is_integer_weighted()
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    log = track_reaches(inst, index, i, j, path_partition(inst, i, j, params))
                    if not log.fully_deactivated:
                        continue
                    walk = build_detour_path(inst, i, j, log)
                    _, cover, _ = replay_reaches(inst, trace, i, j, log.cells)
                    eager = eager_walk_length(inst, log.path, log.cells, cover)
                    if integer:
                        assert walk.length == eager
                    else:
                        assert walk.length == pytest.approx(eager, rel=1e-12)
                    checked += 1
        assert checked > 300

    def test_one_detour_per_merged_range(self, monkeypatch):
        calls = []
        make_detour = analysis._make_detour

        def counting(inst, path, reach):
            calls.append(reach)
            return make_detour(inst, path, reach)

        monkeypatch.setattr(analysis, "_make_detour", counting)
        chained = merged = 0
        for seed in range(4):
            inst = exact_minor(random_connected_instance(seed + 30, n=60, k=6)).minor
            params = GrowthParams(seed=seed)
            _, trace = run(inst, params)
            report = detect_bad_events(inst, trace, params)
            for (i, j), log in report.reach_logs.items():
                calls.clear()
                walk = build_detour_path(inst, i, j, log)
                assert len(calls) == len(walk.detours)
                chained += len(set(log.cover.values()))
                merged += len(walk.detours)
        assert merged < chained  # some chains do merge

    def test_only_terminals_are_labelled(self):
        for seed in range(4):
            inst = exact_minor(random_connected_instance(seed + 30, n=60, k=6)).minor
            params = GrowthParams(seed=seed)
            _, trace = run(inst, params)
            report = detect_bad_events(inst, trace, params)
            for (i, j), log in report.reach_logs.items():
                build_detour_path(inst, i, j, log)
            assert inst._labels
            assert set(inst._labels) <= set(range(inst.k))

    def test_detour_dominates_contracted_distance(self):
        for seed in range(8):
            inst = exact_minor(random_connected_instance(seed, n=40, k=5)).minor
            params = GrowthParams(seed=seed * 7 + 1)
            part, trace = run(inst, params)
            minor = contract(inst, part)
            minor_dist = minor.all_distances()
            index = index_trace(inst, trace)
            for i in range(inst.k):
                for j in range(i + 1, inst.k):
                    cells = path_partition(inst, i, j, params)
                    log = track_reaches(inst, index, i, j, cells)
                    walk = build_detour_path(inst, i, j, log)
                    assert walk.length >= minor_dist[(i, j)]
                    for a, b in zip(walk.detours, walk.detours[1:]):
                        assert a.terminal != b.terminal

    def test_star_pair_detour(self, star3):
        params = GrowthParams(seed=11)
        part, trace = run(star3, params)
        minor = contract(star3, part)
        cells = path_partition(star3, 1, 2, params)
        log = track_reaches(star3, index_trace(star3, trace), 1, 2, cells)
        walk = build_detour_path(star3, 1, 2, log)
        assert walk.length >= minor.all_distances()[(1, 2)]


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
            [AssignmentEvent(1, 0, 0, base, 0.9)],
            base_mean=base,
            rate=GrowthParams().growth_rate(2),
        )
        report = detect_bad_events(path3, trace, GrowthParams())
        assert len(report.early_events) == 1
        vertex, mean, threshold = report.early_events[0]
        assert vertex == 1
        assert threshold == pytest.approx((1 / 27) * 1.0 * 0.5 / math.log(2), rel=1e-12)

    def test_late_assignment_is_not_early(self, path3):
        base = 0.0072134752044448166
        trace = make_trace(
            path3,
            [AssignmentEvent(1, 0, 40, base * 1.7**40, 2.0)],
            base_mean=base,
            rate=GrowthParams().growth_rate(2),
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
                AssignmentEvent(1, 0, 0, 0.001, 501.0),
                AssignmentEvent(2, 0, 0, 0.001, 501.0),
                AssignmentEvent(3, 0, 0, 0.001, 501.0),
            ],
        )
        report = detect_bad_events(inst, cells_trace, params)
        assert report.many_events
        pair, start, end, count, threshold = report.many_events[0]
        assert pair == (0, 1)
        assert count == 1


class TestRoundOf:
    @staticmethod
    def literal(base_mean, rate, z):
        mean, index = base_mean, 0
        while mean < z:
            mean *= rate
            index += 1
        return index

    def test_matches_multiplication_loop(self):
        inst = random_connected_instance(3, n=30, k=4)
        _, trace = run(inst, GrowthParams(seed=5))
        base, rate = trace.base_mean, trace.growth_rate
        recorded = [r.mean for r in trace.rounds]
        below = [base / 2, base * (1 - 1e-16), base]
        between = [(a + b) / 2 for a, b in zip(recorded, recorded[1:])]
        past = [recorded[-1] * rate, recorded[-1] * rate * 1.0000001, recorded[-1] * 1e6]
        means = [base]
        for z in below + recorded + between + past + recorded[::-1]:
            assert _round_of(means, rate, z) == self.literal(base, rate, z)
        assert _round_of([base], rate, recorded[-1]) == len(recorded) - 1
        assert len(means) > len(recorded)  # extended past the trace's last round

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-9, max_value=1e9))
    @settings(max_examples=200, deadline=None)
    def test_any_threshold(self, base_mean, z):
        rate = GrowthParams().growth_rate(3)
        assert _round_of([base_mean], rate, z) == self.literal(base_mean, rate, z)


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

    def test_given_cells_match_computed_ones(self):
        inst = random_connected_instance(4, n=30, k=5)
        params = GrowthParams(seed=2)
        _, trace = run(inst, params)
        cells = analysis.partition_pairs(inst, params)
        given_cells = detect_bad_events(inst, trace, params, cells)
        computed = detect_bad_events(inst, trace, params)
        assert given_cells == computed
        assert given_cells.reach_logs.keys() == cells.keys()


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
