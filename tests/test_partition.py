import random

import numpy as np
import pytest

from spr import (
    Instance,
    TerminalPartition,
    build_graph,
    contract,
    distortion,
    oracle_optimal,
    validate,
)
from spr import partition
from spr.errors import InvalidPartitionError, TooLargeError

from conftest import random_connected_instance, random_valid_partition


class TestValidate:
    def test_valid_path(self, path3):
        assert validate(path3, TerminalPartition([0, 0, 1])) == []
        assert validate(path3, TerminalPartition([0, 1, 1])) == []

    def test_crossed_assignment_disconnects_both_cells(self, path4):
        violations = validate(path4, TerminalPartition([0, 1, 0, 1]))
        assert {v.cell for v in violations} == {0, 1}

    def test_terminal_in_foreign_cell(self, path3):
        violations = validate(path3, TerminalPartition([0, 0, 0]))
        assert any("terminal" in v.reason for v in violations)

    def test_bad_cell_index(self, path3):
        violations = validate(path3, TerminalPartition([0, 5, 1]))
        assert violations

    def test_wrong_length(self, path3):
        assert validate(path3, TerminalPartition([0, 1]))

    def test_disconnected_cell_lists_missing_vertices_sorted(self):
        # path 0-1-2-3-4 with terminals 0 and 2; cell 0 = {0, 3, 4}
        inst = Instance(build_graph(5, [(i, i + 1, 1.0) for i in range(4)]), [0, 2])
        violations = validate(inst, TerminalPartition([0, 1, 1, 0, 0]))
        assert [(v.cell, v.reason) for v in violations] == [
            (0, "cell 0 disconnected: [3, 4] unreachable from terminal 0")
        ]

    def test_non_integer_cell_ids_rejected(self, path3):
        for bad in (0.0, True, "0", None):
            violations = validate(path3, TerminalPartition([0, bad, 1]))
            assert [v.cell for v in violations] == [-1]
        assert validate(path3, TerminalPartition(np.array([0, 0, 1]))) == []

    def test_agrees_with_per_cell_search(self):
        # Reference: the per-cell member-set search, O(n k).
        def reference(inst, assignment):
            bad = set()
            for j, t in enumerate(inst.terminals):
                members = {v for v, c in enumerate(assignment) if c == j}
                seen, stack = {t}, [t]
                while stack:
                    u = stack.pop()
                    for v, _ in inst.graph.adjacency[u]:
                        if v in members and v not in seen:
                            seen.add(v)
                            stack.append(v)
                if assignment[t] != j or seen != members:
                    bad.add(j)
            return bad

        rng = random.Random(5)
        for seed in range(20):
            inst = random_connected_instance(seed, n=15, k=3)
            for _ in range(10):
                assignment = [rng.randrange(3) for _ in range(15)]
                got = {v.cell for v in validate(inst, TerminalPartition(assignment))}
                assert got == reference(inst, assignment)


class TestContract:
    def test_path(self, path3):
        minor = contract(path3, TerminalPartition([0, 0, 1]))
        assert minor.edges == ((0, 1, 2.0),)

    def test_star_center_in_first_cell(self, star3):
        minor = contract(star3, TerminalPartition([0, 1, 2, 0]))
        assert minor.edges == ((0, 1, 2.0), (0, 2, 2.0))

    def test_single_edge_identity(self):
        inst = Instance(build_graph(2, [(0, 1, 4.0)]), [0, 1])
        minor = contract(inst, TerminalPartition([0, 1]))
        assert minor.edges == ((0, 1, 4.0),)

    def test_invalid_partition_raises(self, path4):
        with pytest.raises(InvalidPartitionError):
            contract(path4, TerminalPartition([0, 1, 0, 1]))

    def test_edges_are_the_cell_pairs_some_edge_joins(self):
        # Reference: every edge read once, with no cell search.
        rng = random.Random(7)
        for seed in range(12):
            inst = random_connected_instance(seed, n=25, k=2 + seed % 4)
            part = random_valid_partition(inst, rng)
            a = part.assignment
            pairs = {tuple(sorted((a[u], a[v]))) for u, v, _ in inst.graph.edges if a[u] != a[v]}
            source = inst.terminal_distances()
            minor = contract(inst, part)
            assert minor.edges == tuple((i, j, source[(i, j)]) for i, j in sorted(pairs))


class TestDistortion:
    def test_path_is_exact(self, path3):
        result = distortion(path3, contract(path3, TerminalPartition([0, 0, 1])))
        assert result.max_ratio == 1.0

    def test_star_detour(self, star3):
        result = distortion(star3, contract(star3, TerminalPartition([0, 1, 2, 0])))
        assert result.max_ratio == 2.0
        table = {(i, j): ratio for i, j, _, _, ratio in result.pairs}
        assert table[(1, 2)] == 2.0
        assert table[(0, 1)] == 1.0

    def test_two_terminals_always_one(self):
        for seed in range(5):
            inst = random_connected_instance(seed, n=12, k=2)
            part = random_valid_partition(inst, random.Random(seed))
            result = distortion(inst, contract(inst, part))
            assert result.max_ratio == 1.0

    def test_lower_bound_over_random_partitions(self):
        # Contracted distances never undercut source distances: exact
        # integer comparison over 1000 random valid partitions.
        checked = 0
        for seed in range(20):
            inst = random_connected_instance(seed, n=24, k=4)
            rng = random.Random(seed * 31 + 5)
            for _ in range(50):
                part = random_valid_partition(inst, rng)
                minor = contract(inst, part)
                dists = minor.all_distances()
                touched = set()
                for i, j, _ in minor.edges:
                    touched.update((i, j))
                assert touched == set(range(inst.k))  # no isolated terminal
                for i in range(inst.k):
                    for j in range(i + 1, inst.k):
                        d0 = inst.terminal_distances()[(i, j)]
                        assert dists[(i, j)] >= d0
                checked += 1
        assert checked == 1000

    def test_ratios_at_least_one(self):
        for seed in range(10):
            inst = random_connected_instance(seed, n=20, k=5)
            part = random_valid_partition(inst, random.Random(seed))
            result = distortion(inst, contract(inst, part))
            for _, _, _, _, ratio in result.pairs:
                assert ratio >= 1.0 - 1e-9


class TestOracle:
    def test_star(self, star3):
        best = oracle_optimal(star3)
        assert best.distortion == 2.0

    def test_path(self, path3):
        best = oracle_optimal(path3)
        assert best.distortion == 1.0

    def test_no_non_terminals(self):
        inst = Instance(build_graph(2, [(0, 1, 1.0)]), [0, 1])
        best = oracle_optimal(inst)
        assert best.distortion == 1.0
        assert best.partition.assignment == (0, 1)

    def test_too_large(self):
        inst = random_connected_instance(0, n=12, k=3)  # 9 non-terminals
        with pytest.raises(TooLargeError):
            oracle_optimal(inst)

    def test_too_many_candidates_refused_before_enumerating(self, monkeypatch):
        class Enumerated(Exception):
            pass

        def reached(inst, part):
            raise Enumerated

        monkeypatch.setattr(partition, "contract", reached)
        inst = random_connected_instance(0, n=13, k=5)  # 5^8 = 390,625 candidates
        with pytest.raises(TooLargeError, match=r"^5\^8 candidate partitions exceed"):
            oracle_optimal(inst)
        inst = random_connected_instance(0, n=12, k=4)  # 4^8, exactly the limit
        with pytest.raises(Enumerated):
            oracle_optimal(inst)

    def test_ties_resolve_to_lexicographically_smallest(self, star3):
        best = oracle_optimal(star3)
        # center to cell 0 is the smallest of the three equivalent optima
        assert best.partition.assignment == (0, 1, 2, 0)

    def test_dominates_random_partitions(self):
        for seed in range(8):
            inst = random_connected_instance(seed, n=10, k=3)
            if len(inst.non_terminals()) > 8:
                continue
            best = oracle_optimal(inst)
            rng = random.Random(seed)
            for _ in range(20):
                part = random_valid_partition(inst, rng)
                result = distortion(inst, contract(inst, part))
                assert best.distortion <= result.max_ratio + 1e-12
