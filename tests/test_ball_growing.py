import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spr import (
    GrowthParams,
    Instance,
    WeightedGraph,
    build_graph,
    compute_base_mean,
    contract,
    distortion,
    replay_trace,
    run,
    trace_to_json,
    validate,
)
from spr.ball_growing import (
    AssignmentEvent,
    RoundRecord,
    RunTrace,
    SubstreamSampler,
    _default_round_cap,
    _exponential,
)
from spr.errors import (
    GraphError,
    NoNonTerminalsError,
    ParamOutOfRegimeError,
    RoundCapExceededError,
    TraceMismatchError,
)

from conftest import (
    NON_DYADIC_WEIGHTS,
    random_connected_instance,
    restricted_distances,
    reweighted,
    trace_to_dict,
)


class TestSampleErv:
    def test_unit_mean_at_one_over_e(self):
        # u = 1 - 1/e gives -ln(1/e) = 1.
        assert _exponential(1.0, 1.0 - 1.0 / math.e) == pytest.approx(1.0, rel=1e-12)

    def test_scaling(self):
        assert _exponential(5.0, 1.0 - 1.0 / math.e) == pytest.approx(5.0, rel=1e-12)

    def test_empirical_mean_within_two_percent(self):
        rng = np.random.default_rng(1234)
        draws = [_exponential(2.0, rng.random()) for _ in range(100_000)]
        assert 1.96 <= sum(draws) / len(draws) <= 2.04


class TestSubstreams:
    def test_rekeying_matches_fresh_generators(self):
        sampler = SubstreamSampler(99, 5)
        for round_index in range(8):
            uniforms = sampler.uniforms(round_index)
            for terminal in range(5):
                key = np.array(
                    [99, (round_index << 32) | terminal], dtype=np.uint64
                )
                fresh = np.random.Generator(np.random.Philox(key=key)).random()
                assert uniforms[terminal] == fresh

    @staticmethod
    def numpy_uniform(seed, round_index, terminal):
        key = np.array([seed, (round_index << 32) | terminal], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key)).random()

    @staticmethod
    def one_key(seed, round_index, terminal):
        """The uniform of one (round, terminal) key, terminal any 32-bit index."""
        return SubstreamSampler(seed, 1)._philox((round_index << 32) | terminal)[0]

    def test_matches_numpy_philox_on_random_keys(self):
        rng = random.Random(2024)
        for _ in range(2000):
            seed, round_index, terminal = rng.getrandbits(64), rng.getrandbits(32), rng.getrandbits(32)
            assert self.one_key(seed, round_index, terminal) == self.numpy_uniform(
                seed, round_index, terminal
            ), (seed, round_index, terminal)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_matches_numpy_philox_on_the_edge_lanes(self, seed):
        lanes = (0, 1, 2**31, 2**32 - 1)
        for round_index in lanes:
            for terminal in lanes:
                expected = self.numpy_uniform(seed, round_index, terminal)
                assert self.one_key(seed, round_index, terminal) == expected, (round_index, terminal)

    @pytest.mark.parametrize(
        "round_index, terminal, lane",
        [(0, 2**32, "terminal"), (0, -1, "terminal"), (2**32, 0, "round"), (-1, 0, "round")],
    )
    def test_keys_outside_their_lane_are_refused(self, round_index, terminal, lane):
        # Key (round, terminal) is lane ``terminal`` of a round of terminal + 1
        # lanes.  The lane count is refused before any lane is built: 2**32 + 1
        # lanes would take 64 GB per constant.
        with pytest.raises(ValueError, match=f"{lane} index exceeds the key lane"):
            SubstreamSampler(5, terminal + 1).uniforms(round_index)

    @pytest.mark.parametrize("k", [1, 8, 32, 64])
    def test_round_lanes_match_numpy_philox(self, k):
        for seed in (0, 99, 2**64 - 1):
            sampler = SubstreamSampler(seed, k)
            for round_index in (0, 1, 453, 2**32 - 1):
                expected = [self.numpy_uniform(seed, round_index, j) for j in range(k)]
                assert sampler.uniforms(round_index) == expected, (seed, round_index)

    @pytest.mark.parametrize(
        "round_index, k, lane",
        [(0, 2**32 + 1, "terminal"), (0, 0, "terminal"), (2**32, 1, "round"), (-1, 4, "round")],
    )
    def test_rounds_outside_their_lanes_are_refused(self, round_index, k, lane):
        # A bad lane count is refused before any lane is built.
        with pytest.raises(ValueError, match=f"{lane} index exceeds the key lane"):
            SubstreamSampler(5, k).uniforms(round_index)

    def test_order_independent(self):
        a = SubstreamSampler(7, 3)
        b = SubstreamSampler(7, 3)
        forward = range(4)
        values_fwd = {r: a.uniforms(r) for r in forward}
        values_rev = {r: b.uniforms(r) for r in reversed(forward)}
        assert values_fwd == values_rev


class TestBaseMean:
    def test_k4_unit_min(self):
        # star with 4 terminal leaves and one center: min D_v = 1
        edges = [(4, i, 1.0) for i in range(4)]
        inst = Instance(build_graph(5, edges), [0, 1, 2, 3])
        value = compute_base_mean(inst, GrowthParams())
        assert value == pytest.approx(0.5 / (100 * math.log(4)), rel=1e-12)
        assert value == pytest.approx(0.0036067376022224087, rel=1e-9)

    def test_scales_with_min_distance(self):
        edges = [(4, i, 10.0) for i in range(4)]
        inst = Instance(build_graph(5, edges), [0, 1, 2, 3])
        value = compute_base_mean(inst, GrowthParams())
        assert value == pytest.approx(10 * 0.5 / (100 * math.log(4)), rel=1e-12)

    def test_k2(self, path3):
        value = compute_base_mean(path3, GrowthParams())
        assert value == pytest.approx(0.5 / (100 * math.log(2)), rel=1e-12)
        assert value == pytest.approx(0.0072134752044448166, rel=1e-9)

    def test_all_terminals_rejected(self):
        inst = Instance(build_graph(2, [(0, 1, 1.0)]), [0, 1])
        with pytest.raises(NoNonTerminalsError):
            compute_base_mean(inst, GrowthParams())

    def test_builds_only_the_terminal_rows_that_distortion_reads(self, monkeypatch):
        inst = random_connected_instance(2, n=40, k=5)
        params = GrowthParams(seed=1)
        searches = []
        dijkstra = WeightedGraph._dijkstra

        def counted(graph, s, targets=None):
            searches.append((s, None if targets is None else tuple(targets)))
            return dijkstra(graph, s, targets)

        monkeypatch.setattr(WeightedGraph, "_dijkstra", counted)
        compute_base_mean(inst, params)
        assert searches == []
        part, _ = run(inst, params)
        assert distortion(inst, contract(inst, part)).max_ratio >= 1.0
        # Row t0 is one full search, for the round cap, and contract and
        # distortion reuse it.  t1..t(k-2) each get one search bounded at
        # the later terminals; t(k-1) is never a source.
        t = inst.terminals
        assert searches == [(t[0], None)] + [(t[i], t[i + 1 :]) for i in range(1, inst.k - 1)]
        assert list(inst._rows) == [0]

    @staticmethod
    def row_minimum(inst):
        """The smallest D_v over the non-terminals, from the k full terminal rows."""
        rows = [inst.graph._dijkstra(t) for t in inst.terminals]
        return min(min(column) for v, column in enumerate(zip(*rows)) if not inst.is_terminal(v))

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(3, 30),
        k_share=st.floats(0.0, 1.0),
        weights=st.sampled_from([None, NON_DYADIC_WEIGHTS, (1e16, 0.5, 1e-7), (0.1, 1e-300, 7.0)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_minimum_equals_the_row_minimum(self, seed, n, k_share, weights):
        k = 2 + int(k_share * (n - 3))
        inst = random_connected_instance(seed, n=n, k=k)
        if weights is not None:
            inst = reweighted(inst, weights, seed)
        params = GrowthParams()
        expected = params.delta / (100.0 * math.log(k)) * self.row_minimum(inst)
        assert compute_base_mean(inst, params) == expected


class TestRun:
    def test_trivial_when_every_vertex_is_terminal(self):
        inst = Instance(build_graph(2, [(0, 1, 1.0)]), [0, 1])
        part, trace = run(inst, GrowthParams(seed=3))
        assert part.assignment == (0, 1)
        assert trace.total_rounds == 0
        assert trace.events == []

    def test_path_middle_vertex(self, path3):
        for seed in range(10):
            part, trace = run(path3, GrowthParams(seed=seed))
            assert validate(path3, part) == []
            assert part.assignment[1] in (0, 1)
            minor = contract(path3, part)
            assert minor.all_distances()[(0, 1)] == 2.0
            assert distortion(path3, minor).max_ratio == 1.0

    def test_deterministic_trace_serialization(self, star3):
        first = run(star3, GrowthParams(seed=42))
        second = run(star3, GrowthParams(seed=42))
        assert first[0].assignment == second[0].assignment
        a = json.dumps(trace_to_dict(first[1]), sort_keys=True)
        b = json.dumps(trace_to_dict(second[1]), sort_keys=True)
        assert a == b

    def test_different_seeds_eventually_differ(self, star3):
        outcomes = {
            run(star3, GrowthParams(seed=s))[0].assignment for s in range(30)
        }
        assert len(outcomes) > 1

    def test_validity_over_random_corpus(self):
        for seed in range(15):
            inst = random_connected_instance(seed, n=30, k=2 + seed % 7)
            part, _ = run(inst, GrowthParams(seed=seed * 17 + 1))
            assert validate(inst, part) == []

    def test_round_means_are_repeated_multiplication(self):
        inst = random_connected_instance(5, n=25, k=4)
        _, trace = run(inst, GrowthParams(seed=8))
        mean = trace.base_mean
        for record in trace.rounds:
            assert record.mean == mean
            mean *= trace.growth_rate

    def test_radii_increments_positive_and_radius_monotone(self):
        inst = random_connected_instance(6, n=25, k=4)
        _, trace = run(inst, GrowthParams(seed=11))
        for record in trace.rounds:
            for _, value in record.draws:
                assert value > 0
        # per-terminal radii reconstructed from draws are nondecreasing,
        # and each event's recorded radius matches the reconstruction
        radii = [0.0] * inst.k
        events = iter(trace.events)
        event = next(events, None)
        for record in trace.rounds:
            for terminal, value in record.draws:
                radii[terminal] += value
                if (
                    event is not None
                    and event.round_index == record.index
                    and event.terminal == terminal
                ):
                    assert event.radius == radii[terminal]
                    assert event.round_mean == record.mean
                    event = next(events, None)
        assert event is None

    def test_every_vertex_assigned_exactly_once(self):
        inst = random_connected_instance(9, n=40, k=5)
        part, trace = run(inst, GrowthParams(seed=2))
        assigned = [v for event in trace.events for v in event.vertices]
        assert sorted(assigned) == sorted(inst.non_terminals())
        for event in trace.events:
            for v in event.vertices:
                assert part.assignment[v] == event.terminal

    def test_replay_reproduces_partition(self):
        for seed in range(8):
            inst = random_connected_instance(seed + 50, n=30, k=4)
            part, trace = run(inst, GrowthParams(seed=seed))
            assert replay_trace(inst, trace).assignment == part.assignment

    @staticmethod
    def replay_case():
        inst = random_connected_instance(50, n=30, k=4)
        part, trace = run(inst, GrowthParams(seed=0))
        assert trace.total_rounds > 2
        assert replay_trace(inst, trace).assignment == part.assignment
        return inst, trace

    def test_replay_refuses_a_short_round(self):
        inst, trace = self.replay_case()
        record = trace.rounds[1]
        trace.rounds[1] = RoundRecord(record.index, record.mean, record.draws[:2])
        message = r"^round 1 has 2 of 4 draws with \d+ vertices unassigned$"
        with pytest.raises(TraceMismatchError, match=message):
            replay_trace(inst, trace)

    def test_replay_refuses_missing_rounds(self):
        inst, trace = self.replay_case()
        last = trace.rounds.pop()
        with pytest.raises(TraceMismatchError, match=f"^the trace records no round {last.index}$"):
            replay_trace(inst, trace)
        del trace.rounds[1]
        with pytest.raises(TraceMismatchError, match="^the trace records no round 1$"):
            replay_trace(inst, trace)

    def test_replay_refuses_draws_out_of_terminal_order(self):
        inst, trace = self.replay_case()
        record = trace.rounds[0]
        first, second, *rest = record.draws
        trace.rounds[0] = RoundRecord(record.index, record.mean, (second, first, *rest))
        with pytest.raises(TraceMismatchError, match="^round 0's draws are not in terminal order$"):
            replay_trace(inst, trace)

    def test_round_cap_exceeded(self):
        inst = random_connected_instance(1, n=30, k=3)
        with pytest.raises(RoundCapExceededError):
            run(inst, GrowthParams(seed=1, max_rounds=1))

    def test_termination_within_documented_cap(self):
        for seed in range(6):
            inst = random_connected_instance(seed, n=40, k=4)
            params = GrowthParams(seed=seed)
            _, trace = run(inst, params)
            n = inst.graph.vertex_count
            w_max = max(Instance(inst.graph, range(n)).terminal_distances().values())
            rate = params.growth_rate(inst.k)
            cap = 10 * math.ceil(
                math.log(n * w_max / trace.base_mean) / math.log(rate)
            )
            assert trace.total_rounds <= cap

    def test_derived_round_cap_over_a_million_is_refused(self, star3):
        def derived_cap(delta):
            params = GrowthParams(delta=delta)
            base_mean = compute_base_mean(star3, params)
            return _default_round_cap(star3, params, base_mean, params.growth_rate(star3.k))

        assert derived_cap(1.8e-4) == 982_390
        with pytest.raises(
            ParamOutOfRegimeError, match="delta=0.00017 derives a round cap of 1043870 rounds"
        ):
            derived_cap(1.7e-4)

    def test_round_cap_overflow_raises(self):
        # Eccentricity 1e307 over a base mean of ~0.002 overflows the cap's log.
        edges = [(0, 3, 1e307), (1, 3, 0.5), (2, 3, 0.5)]
        inst = Instance(build_graph(4, edges), [0, 1, 2])
        with pytest.raises(GraphError, match="overflows the round cap"):
            run(inst, GrowthParams(seed=0))

    def test_underflowing_base_mean_raises(self):
        inst = Instance(build_graph(3, [(0, 1, 5e-324), (1, 2, 1.0)]), [0, 2])
        for params in (GrowthParams(), GrowthParams(max_rounds=5)):
            with pytest.raises(GraphError, match="base mean underflows"):
                run(inst, params)

    @staticmethod
    def naive_events(inst, params):
        """The loop spelled out with a restricted Dijkstra per step, no frontier state.

        New vertices of a step are ordered by restricted distance, then id.
        Returns the (vertex, terminal, round, radius) event sequence.
        """
        n = inst.graph.vertex_count
        k = inst.k
        cells = [{t} for t in inst.terminals]
        unassigned = set(range(n)) - set(inst.terminals)
        rate = params.growth_rate(k)
        sampler = SubstreamSampler(params.seed, k)
        radii = [0.0] * k
        mean = compute_base_mean(inst, params)
        level = 0
        events = []
        while unassigned:
            uniforms = sampler.uniforms(level)
            for j in range(k):
                if not unassigned:
                    break
                radii[j] += -mean * math.log(1.0 - uniforms[j])
                allowed = unassigned | cells[j]
                center = inst.terminals[j]
                dist = restricted_distances(inst.graph, allowed, center)
                ball = {v for v, d in dist.items() if d <= radii[j]}
                for v in sorted(ball - cells[j], key=lambda v: (dist[v], v)):
                    events.append((v, j, level, radii[j]))
                cells[j] |= ball
                unassigned -= ball
            level += 1
            mean *= rate
        return events

    CORPUS = [
        # (instance seed, n, k, weights or None for the integer weights 1..10)
        *((seed + 70, 25, 4, None) for seed in range(6)),
        *((seed + 80, 30, 2 + seed, None) for seed in range(7)),
        *((seed + 90, 30, 2 + seed, NON_DYADIC_WEIGHTS) for seed in range(7)),
        (97, 40, 8, NON_DYADIC_WEIGHTS),
        (98, 40, 8, (1.0, 2.0, 3.0)),  # many equal-distance ties
    ]

    def test_matches_literal_loop(self):
        for inst_seed, n, k, weights in self.CORPUS:
            inst = random_connected_instance(inst_seed, n=n, k=k)
            if weights is not None:
                inst = reweighted(inst, weights, inst_seed)
            params = GrowthParams(seed=inst_seed % 7)
            part, trace = run(inst, params)
            expected = self.naive_events(inst, params)
            got = [
                (v, e.terminal, e.round_index, e.radius) for e in trace.events for v in e.vertices
            ]
            assert got == expected, (inst_seed, n, k, weights)
            assignment = [-1] * n
            for j, t in enumerate(inst.terminals):
                assignment[t] = j
            for v, j, _, _ in expected:
                assignment[v] = j
            assert part.assignment == tuple(assignment)
            assert replay_trace(inst, trace).assignment == part.assignment

    # sha256 of the partition and trace JSON as the non-incremental growth
    # loop (a fresh bounded Dijkstra per expansion) produced them.
    GOLDEN = [
        (101, 30, 3, 5, "81ca41e9380613380191f8c69b0a20d2af8fd9418bb748d5ba7bfaae3bafa8f6"),
        (202, 40, 5, 17, "fd820cc883411923cb9e63e303cc6ea7237c8bb577cb429ec0e2ae2fe0079201"),
        (303, 25, 8, 2**64 - 1, "954cafac24cd857ef729ff17f9e3bca44352af06cc4b8620653b18b07791cd7a"),
    ]

    @pytest.mark.parametrize(
        "inst_seed, n, k, seed, digest", GOLDEN, ids=[f"instance{g[0]}" for g in GOLDEN]
    )
    def test_golden_digest(self, inst_seed, n, k, seed, digest):
        inst = random_connected_instance(inst_seed, n=n, k=k)
        part, trace = run(inst, GrowthParams(seed=seed))
        blob = json.dumps(
            {"assignment": list(part.assignment), "trace": trace_to_dict(trace)},
            sort_keys=True,
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# Positive floats from subnormal to 1e16-scale, plus any finite value.
trace_floats = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e15, max_value=1e17),
    finite_floats,
)
ids = st.integers(0, 2**40)


@st.composite
def random_traces(draw):
    """RunTraces with arbitrary finite floats: none, some or many records."""
    params = GrowthParams(
        delta=draw(st.floats(min_value=1e-3, max_value=0.5)),
        c1=draw(st.floats(min_value=1e-3, max_value=1e6)),
        max_rounds=draw(st.none() | st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    rounds = [
        RoundRecord(index, draw(trace_floats), tuple(draw(st.lists(st.tuples(ids, trace_floats), max_size=3))))
        for index in range(draw(st.integers(0, 4)))
    ]
    # One record per draw; a hand-built one may hold no vertex.  A record may reuse
    # the previous record's mean, as the next terminal's draw in one round
    # does, or its terminal, round and mean, so that only the radius tells
    # the two records apart.
    events = []
    for terminal, round_index, mean, radius, vertices, reuse in draw(
        st.lists(
            st.tuples(
                ids, ids, trace_floats, trace_floats,
                st.lists(ids, max_size=4),
                st.sampled_from(["none", "mean", "all but radius"]),
            ),
            max_size=6,
        )
    ):
        if events and reuse != "none":
            last = events[-1]
            mean = last.round_mean
            if reuse == "all but radius":
                terminal, round_index = last.terminal, last.round_index
        events.append(AssignmentEvent(round_index, terminal, mean, radius, tuple(vertices)))
    base = draw(st.none() | trace_floats)
    rate = None if base is None else draw(trace_floats)
    return RunTrace(params, base, rate, draw(st.integers(0, 10**6)), rounds, events)


def dumped(trace):
    return json.dumps(trace_to_dict(trace), indent=2, sort_keys=True)


class TestTraceJson:
    @given(trace=random_traces())
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps_on_random_traces(self, trace):
        assert trace_to_json(trace) == dumped(trace)

    @pytest.mark.parametrize("weights", [None, NON_DYADIC_WEIGHTS, (1e16, 0.5, 3.0), (0.1, 1e-7, 2.0)])
    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("max_rounds", [None, 10**5])
    def test_equals_json_dumps_on_runs(self, weights, k, max_rounds):
        inst = random_connected_instance(k * 11, n=35, k=k)
        if weights is not None:
            inst = reweighted(inst, weights, k)
        _, trace = run(inst, GrowthParams(seed=k, max_rounds=max_rounds))
        assert trace.events
        assert trace_to_json(trace) == dumped(trace)

    def test_one_record_per_absorbing_draw(self):
        inst = random_connected_instance(5, n=60, k=4)
        _, trace = run(inst, GrowthParams(seed=3))
        drawn = [(record.index, terminal) for record in trace.rounds for terminal, _ in record.draws]
        keys = [(event.round_index, event.terminal) for event in trace.events]
        # In run order, each key at most once, each record non-empty.
        absorbing = set(keys)
        assert keys == [key for key in drawn if key in absorbing]
        assert all(event.vertices for event in trace.events)
        assert len(trace.events) < sum(len(event.vertices) for event in trace.events)

    def test_equal_but_distinct_floats_are_not_merged(self):
        # 0.0 == -0.0, but json writes them apart: each record writes its own mean.
        terminal, round_index, radius = 3, 7, 1.5
        events = [
            AssignmentEvent(round_index, terminal, 0.0, radius, (10,)),
            AssignmentEvent(round_index, terminal, -0.0, radius, (11,)),
        ]
        trace = RunTrace(GrowthParams(), 0.5, 1.25, 16, [], events)
        text = trace_to_json(trace)
        assert text == dumped(trace)
        assert '"mean": 0.0' in text and '"mean": -0.0' in text

    def test_equals_json_dumps_without_events(self):
        inst = Instance(build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)]), [0, 1, 2])
        _, trace = run(inst, GrowthParams(seed=4))
        assert trace.events == []
        assert trace_to_json(trace) == dumped(trace)
        assert json.loads(trace_to_json(trace))["events"] == []

    @pytest.mark.parametrize("field", ["round_mean", "radius"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_event_float_raises(self, path3, field, value):
        _, trace = run(path3, GrowthParams(seed=0))
        (event,) = trace.events
        trace.events[0] = event._replace(**{field: value})
        with pytest.raises(ValueError, match="non-finite"):
            trace_to_json(trace)

    def test_non_finite_head_float_raises(self, path3):
        _, trace = run(path3, GrowthParams(seed=0))
        trace.base_mean = math.inf
        with pytest.raises(ValueError):
            trace_to_json(trace)


class TestParams:
    def test_delta_outside_regime_warns(self):
        with pytest.warns(UserWarning) as record:
            GrowthParams(delta=0.75)
        # The warning names the caller's line, not the generated __init__.
        assert [w.filename for w in record] == [__file__]

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GrowthParams(delta=0.0)
        with pytest.raises(ValueError):
            GrowthParams(seed=-1)

    @pytest.mark.parametrize("name", ["delta", "c1", "c2", "c3"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            GrowthParams(**{name: value})

    def test_growth_rate(self):
        params = GrowthParams()
        assert params.growth_rate(4) == pytest.approx(1 + 0.5 / math.log(4), rel=1e-12)
