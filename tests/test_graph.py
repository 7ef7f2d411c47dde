import inspect
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spr import Instance, WeightedGraph, build_graph, exact_minor
from spr import graph as graph_module
from spr.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphError,
    NonPositiveWeightError,
    SelfLoopError,
)

from conftest import (
    NON_DYADIC_WEIGHTS,
    brute_canonical,
    floyd_warshall,
    heap_dijkstra,
    heap_skeleton_search,
    label_reads,
    lollipop,
    parallel_chains,
    path_graph,
    pendant_tree,
    random_connected_instance,
    restricted_distances,
    reweighted,
    subdivide,
    subdivide_unevenly,
)


def skeleton_search(sk, s, targets):
    """The bounded search ``Skeleton.shortest_paths`` runs, with its tentative entries."""
    return graph_module._level_search(sk._links, sk._chains, s, targets)


class TestBuildGraph:
    def test_path_graph(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert g.adjacency[1] == ((0, 1.0), (2, 1.0))

    def test_single_edge(self):
        g = build_graph(2, [(0, 1, 2.5)])
        assert Instance(g, [0, 1]).row(0)[1] == 2.5

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeightError):
            build_graph(2, [(0, 1, 0.0)])
        with pytest.raises(NonPositiveWeightError):
            build_graph(2, [(0, 1, -3.0)])
        with pytest.raises(NonPositiveWeightError):
            build_graph(2, [(0, 1, math.inf)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(0, 1, 1.0), (1, 1, 1.0)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 5, 1.0)])

    def test_huge_vertex_count_rejected_before_allocation(self, monkeypatch):
        def refuse(self, vertex_count, edges):
            raise AssertionError("per-vertex storage allocated")

        monkeypatch.setattr(WeightedGraph, "__init__", refuse)
        with pytest.raises(DisconnectedError):
            build_graph(10**9, [(0, 1, 1.0)])
        with pytest.raises(DisconnectedError):
            build_graph(10**9, [])
        # Per-edge errors keep their types.
        with pytest.raises(SelfLoopError):
            build_graph(10**9, [(1, 1, 1.0)])
        with pytest.raises(NonPositiveWeightError):
            build_graph(10**9, [(0, 1, -1.0)])

    def test_overflowing_weight_total(self):
        # Each weight is finite; any path through both would be inf.
        with pytest.raises(GraphError, match="sum to inf"):
            build_graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
        build_graph(3, [(0, 1, 8e307), (1, 2, 8e307)])


def everywhere(g):
    """An instance whose terminal j is vertex j, so any vertex can be a source."""
    return Instance(g, range(g.vertex_count))


class TestShortestPath:
    def test_path_graph(self):
        inst = Instance(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]), [0, 2])
        assert inst.path(0, 2) == (0, 1, 2)
        assert inst.row(0)[2] == 2.0

    def test_cycle_tie_break(self):
        # Both 0-1-2 and 0-3-2 have length 2 and two hops; the
        # lexicographically smaller sequence wins.
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        inst = Instance(g, [0, 2])
        assert inst.path(0, 2) == (0, 1, 2)
        assert inst.path(1, 0) == (2, 1, 0)

    def test_hop_count_beats_sequence(self):
        # 0-3 direct (weight 2) vs 0-1-3 (1+1): same length, fewer hops wins.
        g = build_graph(4, [(0, 3, 2.0), (0, 1, 1.0), (1, 3, 1.0), (1, 2, 5.0)])
        assert Instance(g, [0, 3]).path(0, 3) == (0, 3)

    def test_identity(self):
        inst = Instance(build_graph(2, [(0, 1, 1.0)]), [0, 1])
        assert inst.path(1, 1) == (1,)
        assert inst.row(1)[1] == 0.0

    def test_against_enumeration(self):
        for seed in range(40):
            inst = everywhere(random_connected_instance(seed, n=8, k=2, wmax=4).graph)
            rng = random.Random(seed + 999)
            for _ in range(6):
                s, t = rng.randrange(8), rng.randrange(8)
                seq, length = brute_canonical(inst.graph, s, t)
                assert inst.path(s, t) == seq
                assert inst.row(s)[t] == length

    def test_swallowed_weight_raises(self):
        # 1e16 + 0.5 rounds to 1e16, so the hop/parent pass would see vertices
        # 1 and 2 at one distance joined by a tight edge.
        inst = Instance(build_graph(3, [(0, 2, 1e16), (1, 2, 0.5)]), [0, 1])
        with pytest.raises(GraphError, match=r"edge \(2, 1\) of weight 0.5 is lost to rounding"):
            inst.path(0, 1)
        assert inst.row(0)[1] == 1e16  # plain distances stay defined
        assert inst.path(1, 0) == (1, 2, 0)

    def test_canonical_subpath_property(self):
        for seed in range(25):
            inst = everywhere(random_connected_instance(seed, n=20, k=2).graph)
            rng = random.Random(seed)
            for _ in range(10):
                s, t = rng.randrange(20), rng.randrange(20)
                path = inst.path(s, t)
                v = rng.choice(path)
                assert inst.path(s, v) + inst.path(v, t)[1:] == path

    def test_out_of_range_indices_raise(self):
        inst = Instance(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]), [2, 0])
        for j in (-1, -2, 2):
            with pytest.raises(GraphError, match=f"terminal index {j} out of range"):
                inst.row(j)
            with pytest.raises(GraphError, match=f"terminal index {j} out of range"):
                inst.path(j, 1)
            with pytest.raises(GraphError, match=f"terminal index {j} out of range"):
                inst.terminal_path(0, j)
        for v in (-1, 3):
            with pytest.raises(GraphError, match=f"vertex {v} out of range"):
                inst.path(0, v)
        assert inst._rows == {} and inst._labels == {}


class TestShortestPaths:
    """The skeleton's target-bounded query against per-target queries on a second graph."""

    @staticmethod
    def instances():
        for seed in range(12):
            inst = random_connected_instance(seed, n=40, k=6)
            yield inst.graph
            yield exact_minor(inst).minor.graph
            yield reweighted(inst, NON_DYADIC_WEIGHTS, seed).graph
            yield subdivide(inst, parts=3).graph

    def test_matches_shortest_path(self):
        rng = random.Random(5)
        for g in self.instances():
            n = g.vertex_count
            for _ in range(4):
                s = rng.randrange(n)
                targets = rng.sample(range(n), rng.randint(1, min(n, 6)))
                if rng.random() < 0.3:
                    targets.append(s)
                inst = everywhere(g)
                found = g.skeleton({s, *targets}).shortest_paths(s, targets)
                assert inst._rows == {} and inst._labels == {}
                assert found == [inst.path(s, t) for t in targets]
                # Labels of s cached on an instance do not change the answer.
                assert g.skeleton({s, *targets}).shortest_paths(s, targets) == found

    def test_against_enumeration(self):
        for seed in range(40):
            g = random_connected_instance(seed, n=8, k=2, wmax=4).graph
            rng = random.Random(seed + 999)
            s = rng.randrange(8)
            targets = rng.sample(range(8), rng.randint(1, 8))
            assert g.skeleton({s, *targets}).shortest_paths(s, targets) == [
                brute_canonical(g, s, t)[0] for t in targets
            ]

    def test_empty_and_out_of_range(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert g.skeleton({1}).shortest_paths(1, []) == []
        with pytest.raises(GraphError):
            g.skeleton({0, 3}).shortest_paths(0, [3])

    def test_exact_minor_caches_nothing_on_its_input(self):
        for seed in range(5):
            inst = subdivide(random_connected_instance(seed, n=30, k=5), parts=3)
            exact_minor(inst)
            assert inst._rows == {}
            assert inst._labels == {}
            assert inst._terminal_distances is None and inst._terminal_paths == {}

    def test_lost_edge_at_farthest_target_raises(self):
        # Vertex 2 lies at the target's distance 1e16 (1e16 + 0.5 rounds
        # down), so its lost edge (2, 1) is tight into the target; a search
        # that stopped as soon as vertex 1 was popped would never see it.
        inst = Instance(build_graph(4, [(0, 1, 1e16), (1, 2, 0.5), (2, 3, 0.5)]), (0, 1))
        message = r"^edge \(2, 1\) of weight 0.5 is lost to rounding at distance 1e\+16 from vertex 0$"
        with pytest.raises(GraphError, match=message):
            inst.graph.skeleton({0, 1}).shortest_paths(0, [1])
        with pytest.raises(GraphError, match=message):
            exact_minor(inst)

    def test_lost_edges_at_the_target_distance_raise_in_full_order(self):
        # Vertices 1-4 all lie at distance 1e16.  Full labelling meets vertex
        # 1 first and names its lost edge to 2; vertex 2 is reached only
        # through 1 and 4, which are settled after the target 3.
        edges = [(0, 3, 1e16), (1, 3, 0.5), (1, 2, 0.5), (0, 4, 1e16), (2, 4, 0.5)]
        message = r"^edge \(2, 1\) of weight 0.5 is lost to rounding"
        with pytest.raises(GraphError, match=message):
            Instance(build_graph(5, edges), [0, 3]).path(0, 3)
        with pytest.raises(GraphError, match=message):
            build_graph(5, edges).skeleton({0, 3}).shortest_paths(0, [3])

    def test_lost_edge_off_the_paths_is_not_read(self):
        # The lost edge (2, 3) is on no shortest path from 0 to 1.
        g = build_graph(4, [(0, 1, 1.0), (0, 2, 1e16), (2, 3, 0.5)])
        assert g.skeleton({0, 1}).shortest_paths(0, [1]) == [(0, 1)]
        with pytest.raises(GraphError, match=r"edge \(3, 2\) of weight 0.5"):
            Instance(g, [0, 1]).path(0, 1)


def check_skeleton(inst):
    """Skeleton rows and paths against full rows and full labelling.

    Each terminal is a source and the others its targets.  Within the
    farthest target's distance the search and the closure fill must give
    the full row's float at every vertex the labelling reads; with every
    chain filled, at every vertex.  Beyond it every entry must stay above
    that distance.
    """
    g = inst.graph
    n = g.vertex_count
    terms = list(inst.terminals)
    sk = g.skeleton(terms)
    branch = [v for v in range(n) if v in sk.keep or len(g.adjacency[v]) != 2]
    for a, s in enumerate(terms):
        targets = terms[:a] + terms[a + 1 :]
        full = g._dijkstra(s)
        far = max(full[t] for t in targets)
        row = skeleton_search(sk, s, targets)

        def check_row(vertices):
            for v in vertices:
                if full[v] <= far:
                    assert row[v] == full[v], (s, v)
                else:
                    assert row[v] > far, (s, v)

        sk._fill_closure(row, targets)
        check_row(label_reads(g, full, targets))
        sk._fill_closure(row, [v for v in branch if full[v] <= far])
        check_row(range(n))
        assert sk.shortest_paths(s, targets) == [inst.path(a, t) for t in targets]


def raised(call):
    with pytest.raises(GraphError) as info:
        call()
    return str(info.value)


class TestSkeleton:
    """Chain-folded search against full rows and per-target labelling."""

    def test_subdivided(self):
        for seed in range(8):
            inst = random_connected_instance(seed, n=12, k=4)
            check_skeleton(subdivide_unevenly(inst, seed))
            check_skeleton(subdivide(inst, parts=2 + seed % 4))

    def test_pendant_trees(self):
        for seed in range(8):
            check_skeleton(pendant_tree(seed, n=25, k=4))

    def test_lollipop(self):
        check_skeleton(lollipop())
        check_skeleton(lollipop(stem=1, loop=2, weight=0.1))
        inst = lollipop(stem=2, loop=3)
        chains = inst.graph.skeleton(inst.terminals)._chains
        assert sorted((end, inner) for end, _, inner in chains[2]) == [
            (0, [1]),
            (2, [3, 4, 5]),
            (2, [5, 4, 3]),
        ]

    def test_parallel_chains(self):
        weight_lists = [[1.0, 1.0, 1.0], [1.5, 1.5], [0.5, 2.0, 0.5], [1.5, 1.5]]
        check_skeleton(parallel_chains(weight_lists))
        check_skeleton(parallel_chains([[0.1, 0.2], [0.2, 0.1], [0.3]]))
        inst = parallel_chains(weight_lists)
        chains = inst.graph.skeleton(inst.terminals)._chains
        assert sorted(inner for _, _, inner in chains[0]) == [[2, 3], [4], [5, 6], [7]]

    def test_path_is_one_chain(self):
        check_skeleton(path_graph([1.0] * 6, [0, 6]))
        check_skeleton(path_graph(NON_DYADIC_WEIGHTS, [0, 6]))
        chains = path_graph([1.0] * 6, [0, 6]).graph.skeleton([0, 6])._chains
        assert chains[0] == [[6, [1.0] * 6, [1, 2, 3, 4, 5]]]

    def test_terminals_inside_chains(self):
        check_skeleton(path_graph([2.0, 1.0, 3.0, 1.0, 2.0, 1.0], [2, 5]))
        check_skeleton(path_graph(NON_DYADIC_WEIGHTS, [4, 1, 3]))
        for seed in range(6):
            sub = subdivide(random_connected_instance(seed, n=10, k=2), parts=3)
            rng = random.Random(seed)
            terms = rng.sample(range(10, sub.graph.vertex_count), 3) + [rng.randrange(10)]
            check_skeleton(Instance(sub.graph, terms))

    def test_non_dyadic_weights(self):
        for seed in range(8):
            inst = random_connected_instance(seed, n=12, k=4)
            check_skeleton(subdivide_unevenly(inst, seed, weights=NON_DYADIC_WEIGHTS))
            check_skeleton(reweighted(pendant_tree(seed, n=20, k=3), NON_DYADIC_WEIGHTS, seed))

    def test_lost_weight_on_a_chain_raises_as_full_labelling(self):
        # 1e16 + 0.5 rounds to 1e16: the chain's interior sits at its
        # entry vertex's distance.
        message = r"^edge \(2, 1\) of weight 0.5 is lost to rounding at distance 1e\+16 from vertex 0$"
        for inst in (
            path_graph([1e16, 0.5, 0.5, 1.0], [0, 4]),
            lollipop(stem=1, loop=3, weight=0.5, stem_weight=1e16),
        ):
            g = inst.graph
            t = inst.terminals[1]
            full = raised(lambda: inst.path(0, t))
            assert full == raised(lambda: g.skeleton(inst.terminals).shortest_paths(0, [t]))
            assert re.match(message, full)
            with pytest.raises(GraphError, match=message):
                exact_minor(inst)

    def test_branch_ties_at_the_farthest_target_are_settled(self):
        # Branch vertices 1 (the target) and 2 both lie at 1e16; 3 is
        # reached only through them, at 1e16 too, so a search that stopped
        # at the target's pop would leave 3 unreached and miss its lost
        # edge into the target.
        edges = [(0, 1, 1e16), (0, 2, 1e16), (2, 3, 0.5), (1, 3, 0.5), (3, 4, 2.0), (2, 5, 2.0)]
        g = build_graph(6, edges)
        message = raised(lambda: Instance(g, [0, 1]).path(0, 1))
        assert message == "edge (3, 1) of weight 0.5 is lost to rounding at distance 1e+16 from vertex 0"
        assert raised(lambda: g.skeleton([0, 1]).shortest_paths(0, [1])) == message

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_subdivided_float_weights(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        for _ in range(data.draw(st.integers(0, n))):
            u, v = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
            edges.add((u, v))
        weights = st.sampled_from(data.draw(st.sampled_from([NON_DYADIC_WEIGHTS, (1.0, 2.0, 3.0)])))
        next_id = n
        split = []
        for u, v in sorted(edges):
            parts = data.draw(st.integers(1, 4))
            chain = [u] + list(range(next_id, next_id + parts - 1)) + [v]
            next_id += parts - 1
            split += [(x, y, data.draw(weights)) for x, y in zip(chain, chain[1:])]
        k = data.draw(st.integers(2, min(4, next_id)))
        terms = data.draw(st.lists(st.integers(0, next_id - 1), min_size=k, max_size=k, unique=True))
        check_skeleton(Instance(build_graph(next_id, split), terms))

    def test_keep_is_checked(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for keep in ([3], [0, -1]):
            with pytest.raises(GraphError):
                g.skeleton(keep)
        sk = g.skeleton([0, 2])
        for s, targets in ((1, [2]), (0, [1]), (0, [2, 1])):
            with pytest.raises(GraphError, match="not kept"):
                sk.shortest_paths(s, targets)


class TestLevelQueue:
    """Both searches against the (distance, vertex) heap, every entry compared."""

    @staticmethod
    def instances():
        for seed in range(6):
            inst = random_connected_instance(seed, n=30, k=5)
            yield inst
            yield reweighted(inst, NON_DYADIC_WEIGHTS, seed)
            yield subdivide(inst, parts=3)
            yield subdivide_unevenly(inst, seed, weights=NON_DYADIC_WEIGHTS)
            yield pendant_tree(seed, n=20, k=3)
        yield lollipop()
        yield lollipop(stem=1, loop=2, weight=0.1)
        yield parallel_chains([[1.0, 1.0, 1.0], [1.5, 1.5], [0.5, 2.0, 0.5], [1.5, 1.5]])
        yield parallel_chains([[0.1, 0.2], [0.2, 0.1], [0.3]])
        yield TestLevelQueue.lost_at_the_target()

    @staticmethod
    def lost_at_the_target():
        # 1e16 + 0.5 rounds to 1e16: branch vertex 2 is reached from the
        # target 1 at the target's own distance, a second batch at D, and
        # only through it do 3, 4 and 5 get their tentative entries.
        edges = [(0, 1, 1e16), (1, 2, 0.5), (2, 3, 2.0), (2, 4, 4.0), (2, 5, 8.0)]
        return Instance(build_graph(6, edges), [0, 1])

    def test_rows_match_the_pair_heap(self):
        for inst in self.instances():
            g = inst.graph
            for s in range(g.vertex_count):
                assert g._dijkstra(s) == heap_dijkstra(g, s), s

    def test_skeleton_search_matches_the_pair_heap(self):
        for inst in self.instances():
            terms = list(inst.terminals)
            sk = inst.graph.skeleton(terms)
            for a, s in enumerate(terms):
                others = terms[:a] + terms[a + 1 :]
                for targets in (others, others[:1], [], [s], terms, [s, *others[::-1]]):
                    assert skeleton_search(sk, s, targets) == heap_skeleton_search(sk, s, targets), (s, targets)

    def test_bounded_rows_match_the_pair_heap(self):
        rng = random.Random(0)
        instances = list(self.instances())
        instances += [
            reweighted(random_connected_instance(seed, n=30, k=5), (1e16, 0.5, 3.0), seed)
            for seed in range(6)
        ]
        for inst in instances:
            g = inst.graph
            n = g.vertex_count
            # Every vertex is a branch vertex: the reference is a bounded
            # search on the pair heap over the whole graph.
            reference = g.skeleton(range(n))
            terms = list(inst.terminals)
            for s in sorted({*terms, *rng.sample(range(n), 3)}):
                full = heap_dijkstra(g, s)
                for targets in (terms, terms[1:], [], [s], rng.sample(range(n), 3), list(range(n))):
                    row = g._dijkstra(s, targets)
                    assert row == heap_skeleton_search(reference, s, targets), (s, targets)
                    assert [row[t].hex() for t in targets] == [full[t].hex() for t in targets]

    def test_bounded_row_stops_beyond_the_last_target(self):
        inst = path_graph([1.0, 2.0, 3.0, 4.0], [0, 4])
        row = inst.graph._dijkstra(0, [1])
        # Vertex 1 settles at 1.0 and relaxes 2; the next level is beyond.
        assert row == [0.0, 1.0, 3.0, math.inf, math.inf]
        # The source is settled, so it relaxes its edges; with no target
        # the search stops before it.
        assert inst.graph._dijkstra(0, [0]) == [0.0, 1.0, math.inf, math.inf, math.inf]
        assert inst.graph._dijkstra(0, []) == [0.0] + [math.inf] * 4

    def test_target_in_the_second_batch_at_the_last_distance(self):
        inst = self.lost_at_the_target()
        g = inst.graph
        full = heap_dijkstra(g, 0)
        # 1e16 + 0.5 == 1e16: target 2 settles in a second batch at D.
        row = g._dijkstra(0, [1, 2])
        assert row[1] == row[2] == full[2] == 1e16
        assert row == full
        # With target 1 alone, the second batch at D is settled too.
        assert g._dijkstra(0, [1]) == full

    def test_second_batch_at_the_last_target_distance_is_settled(self):
        inst = self.lost_at_the_target()
        sk = inst.graph.skeleton(inst.terminals)
        row = skeleton_search(sk, 0, [1])
        assert row == heap_skeleton_search(sk, 0, [1])
        assert row[:3] == [0.0, 1e16, 1e16]
        # Stopping once no target is pending would leave these inf.
        assert row[3:] == [1e16 + 2.0, 1e16 + 4.0, 1e16 + 8.0]


class TestTerminalDistances:
    """The terminal-pair table against pair-heap rows, bit for bit."""

    @staticmethod
    def instances():
        for seed in range(8):
            inst = random_connected_instance(seed, n=30, k=2 + seed % 5)
            yield inst
            yield reweighted(inst, NON_DYADIC_WEIGHTS, seed)
            yield subdivide(inst, parts=3)
            yield subdivide_unevenly(inst, seed, weights=NON_DYADIC_WEIGHTS)

    def test_matches_heap_rows_bit_for_bit(self):
        for inst in self.instances():
            terms = inst.terminals
            expected = {}
            for i in range(inst.k - 1):
                row = heap_dijkstra(inst.graph, terms[i])
                for j in range(i + 1, inst.k):
                    expected[(i, j)] = row[terms[j]]
            table = inst.terminal_distances()
            assert list(table) == list(expected)
            assert [d.hex() for d in table.values()] == [d.hex() for d in expected.values()]
            # Each search is bounded at the later terminals, so no row is cached.
            assert inst._rows == {}

    def test_read_from_the_lower_terminal(self):
        inst = path_graph([0.1, 0.2, 0.3], [0, 3])
        assert inst.terminal_distances() == {(0, 1): 0.6000000000000001}
        # Folded from t1 the same path sums to 0.3 + 0.2 + 0.1 == 0.6.
        assert inst.row(1)[0] == 0.6


class TestOneBoundedSearch:
    """exact_minor's only search is the skeleton's; nothing is cached."""

    def test_exact_minor_starts_no_dijkstra(self, monkeypatch):
        search = graph_module._level_search
        chained = []

        def skeleton_only(links, chains, s, targets):
            if chains is None:
                raise AssertionError("a plain Dijkstra row was computed")
            chained.append(s)
            return search(links, chains, s, targets)

        monkeypatch.setattr(graph_module, "_level_search", skeleton_only)
        for seed in range(4):
            inst = random_connected_instance(seed, n=30, k=5)
            exact_minor(subdivide(inst, parts=3))
            exact_minor(inst)
        assert chained

    def test_dijkstra_takes_optional_targets(self):
        parameters = inspect.signature(WeightedGraph._dijkstra).parameters
        assert list(parameters) == ["self", "s", "targets"]
        assert parameters["targets"].default is None
        assert not hasattr(WeightedGraph, "shortest_paths")

    def test_skeleton_is_not_cached_on_the_graph(self):
        assert WeightedGraph.__slots__ == ("vertex_count", "adjacency")
        inst = subdivide(random_connected_instance(1, n=20, k=4), parts=3)
        g = inst.graph
        sk = g.skeleton(inst.terminals)
        sk.shortest_paths(inst.terminals[0], inst.terminals[1:])
        assert g.skeleton(inst.terminals) is not sk
        assert inst._rows == {} and inst._labels == {}


class TestStorage:
    def test_edge_weight_reads_the_adjacency(self):
        assert set(WeightedGraph.__slots__) == {"vertex_count", "adjacency"}
        n = 6
        g = build_graph(n, [(0, v, float(v)) for v in range(1, n)] + [(2, 4, 0.5)])
        for v in range(1, n):
            assert g.edge_weight(0, v) == g.edge_weight(v, 0) == float(v)
        assert g.edge_weight(4, 2) == g.edge_weight(2, 4) == 0.5
        for u, v in [(1, 2), (3, 3), (0, 0), (-1, 0), (0, -1), (-1, -1), (n, 0), (0, n), (5, n)]:
            with pytest.raises(KeyError):
                g.edge_weight(u, v)

    def test_edge_order_and_orientation_do_not_matter(self):
        for seed in range(6):
            base = random_connected_instance(seed, n=25, k=3).graph
            n, ordered = base.vertex_count, sorted(base.edges)
            assert list(base.edges) == ordered and all(u < v for u, v, _ in ordered)
            rng = random.Random(seed)
            shuffled = rng.sample(ordered, len(ordered))
            mixed = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in shuffled]
            graphs = [build_graph(n, edges) for edges in (ordered, shuffled, ordered[::-1], mixed)]
            graphs.append(WeightedGraph(n, iter(mixed)))
            for g in graphs:
                assert g.adjacency == base.adjacency
                assert g.edges == tuple(ordered)
                assert g.edge_count == len(ordered)
                assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adjacency)

    def test_labels_are_cached_parent_arrays(self):
        g = random_connected_instance(3, n=30, k=2).graph
        inst = Instance(g, [4, 17])
        path = inst.path(0, 17)
        parent = inst._labels[0]
        assert isinstance(parent, list) and len(parent) == g.vertex_count
        assert all(parent[v] == u for u, v in zip(path, path[1:]))


class TestDistance:
    def test_examples(self):
        inst = everywhere(build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        assert inst.row(0)[2] == 2.0
        assert inst.row(1)[1] == 0.0
        assert Instance(build_graph(2, [(0, 1, 2.5)]), [0, 1]).row(0)[1] == 2.5

    def test_metric_properties_integer_weights(self):
        for seed in range(15):
            inst = everywhere(random_connected_instance(seed, n=25, k=2).graph)
            oracle = floyd_warshall(inst.graph)
            rng = random.Random(seed)
            for _ in range(20):
                a, b, c = (rng.randrange(25) for _ in range(3))
                dab, dba = inst.row(a)[b], inst.row(b)[a]
                assert dab == dba  # integer sums are exact
                assert dab == oracle[a][b]
                assert inst.row(a)[c] <= dab + inst.row(b)[c]


def restricted_ball(g, allowed, center, radius):
    return {v for v, d in restricted_distances(g, allowed, center).items() if d <= radius}


class TestRestrictedBall:
    """The restricted-distance oracle that the literal growth loop reads."""

    def test_examples(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert restricted_ball(g, {0, 1, 2}, 0, 1.0) == {0, 1}
        assert restricted_ball(g, {0, 2}, 0, 10.0) == {0}
        assert restricted_ball(g, {0, 1, 2}, 0, 0.0) == {0}

    def test_full_allowed_matches_distance(self):
        for seed in range(10):
            inst = random_connected_instance(seed, n=20, k=2)
            g = inst.graph
            everything = set(range(20))
            rows = everywhere(g)
            for c in random.Random(seed).sample(range(20), 5):
                dist = restricted_distances(g, everything, c)
                assert dist == {v: rows.row(c)[v] for v in range(20)}


class TestNearestTerminal:
    def test_weighted_path(self):
        inst = Instance(build_graph(3, [(0, 1, 1.0), (1, 2, 3.0)]), [0, 2])
        assert inst.nearest_terminal_distances() == [0.0, 1.0, 0.0]

    def test_unit_path(self, path4):
        assert path4.nearest_terminal_distances()[2] == 1.0


class TestInstance:
    def test_needs_two_terminals(self):
        g = build_graph(2, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            Instance(g, [0])
        with pytest.raises(GraphError):
            Instance(g, [0, 0])

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_nearest_terminal_is_minimum(self, seed):
        inst = random_connected_instance(seed, n=15, k=3)
        best = inst.nearest_terminal_distances()
        rows = [heap_dijkstra(inst.graph, t) for t in inst.terminals]
        for v in range(15):
            assert best[v] == min(row[v] for row in rows)


HUGE_WEIGHTS = (1e16, 3e16, 0.5, 1.0, 2.0, 3.0)  # 1e16 + 1.0 rounds to 1e16


@st.composite
def float_weighted_instances(draw):
    """Small connected graphs whose distance sums round: (n, edges, terminals)."""
    weights = st.sampled_from(draw(st.sampled_from([NON_DYADIC_WEIGHTS, HUGE_WEIGHTS])))
    n = draw(st.integers(min_value=3, max_value=9))
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(min_value=0, max_value=v - 1)), v)] = draw(weights)
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        edges[(u, v)] = draw(weights)
    k = draw(st.integers(min_value=2, max_value=min(4, n - 1)))
    terminals = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return n, sorted((u, v, w) for (u, v), w in edges.items()), terminals


class TestNearestTerminalFloatWeights:
    """D_v is the bitwise minimum of the terminal rows, even where distance
    sums round."""

    @given(float_weighted_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_terminal_rows_bit_for_bit(self, instance):
        n, edges, terminals = instance
        inst = Instance(build_graph(n, edges), terminals)
        nearest = inst.nearest_terminal_distances()
        rows = [heap_dijkstra(inst.graph, t) for t in terminals]
        for v in range(n):
            low = min(row[v] for row in rows)
            assert nearest[v].hex() == low.hex()
