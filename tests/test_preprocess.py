import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spr import (
    Instance,
    build_graph,
    exact_minor,
    format_graph_text,
    load_instance,
    verify_exact,
)
from spr.errors import VerificationFailedError
from spr.graph import Skeleton
from spr.preprocess import FLOAT_REL_TOL, PreprocessResult

from conftest import (
    NON_DYADIC_WEIGHTS,
    assert_minor_model,
    floyd_warshall,
    invoke,
    random_connected_instance,
    reweighted,
    subdivide,
    subdivide_unevenly,
)


class TestExactMinor:
    def test_path_collapses_to_edge(self, path4):
        result = exact_minor(path4)
        assert result.minor.graph.vertex_count == 2
        assert result.non_terminal_count == 0
        assert result.minor.graph.edges == ((0, 1, 3.0),)

    def test_star_keeps_center(self, star3):
        result = exact_minor(star3)
        assert result.non_terminal_count == 1
        for a in range(3):
            for b in range(a + 1, 3):
                assert result.minor.terminal_distances()[(a, b)] == 2.0

    def test_two_terminals_always_single_edge(self):
        for seed in range(10):
            inst = random_connected_instance(seed, n=30, k=2)
            result = exact_minor(inst)
            assert result.minor.graph.vertex_count == 2
            assert result.non_terminal_count == 0
            d = inst.terminal_distances()[(0, 1)]
            assert result.minor.graph.edges == ((0, 1, d),)

    def test_exact_distances_and_size(self):
        for seed in range(15):
            k = 3 + seed % 6
            inst = random_connected_instance(seed, n=60, k=k)
            result = exact_minor(inst)
            oracle = floyd_warshall(inst.graph)
            for a in range(k):
                for b in range(a + 1, k):
                    d0 = oracle[inst.terminals[a]][inst.terminals[b]]
                    d1 = result.minor.terminal_distances()[(a, b)]
                    assert d1 == d0  # bit-equal on integer weights
            assert result.non_terminal_count <= k**4

    def test_every_retained_non_terminal_has_degree_three(self):
        for seed in range(10):
            inst = random_connected_instance(seed, n=50, k=5)
            result = exact_minor(inst)
            minor = result.minor
            for v in range(minor.graph.vertex_count):
                if not minor.is_terminal(v):
                    assert len(minor.graph.adjacency[v]) >= 3

    def test_idempotent_on_own_output(self):
        for seed in range(10):
            inst = random_connected_instance(seed, n=50, k=6)
            once = exact_minor(inst)
            twice = exact_minor(once.minor)
            assert twice.minor.graph.edges == once.minor.graph.edges
            assert twice.minor.terminals == once.minor.terminals
            assert twice.passes == 1  # nothing left to do

    def test_branch_sets_model_the_minor(self):
        for seed in range(10):
            inst = random_connected_instance(seed, n=40, k=5)
            assert_minor_model(inst, exact_minor(inst))
            small = random_connected_instance(seed, n=20, k=4)  # Floyd-Warshall is cubic
            for variant in (subdivide(small, parts=3), subdivide_unevenly(small, seed)):
                assert_minor_model(variant, exact_minor(variant))

    def test_subdivision_does_not_grow_minor(self):
        for seed in range(6):
            inst = random_connected_instance(seed, n=30, k=5)
            base = exact_minor(inst)
            sub = exact_minor(subdivide(inst, parts=5))
            assert sub.minor.graph.vertex_count == base.minor.graph.vertex_count
            # Same structure with all weights scaled by the segment count.
            scaled = tuple((u, v, 5.0 * w) for u, v, w in base.minor.graph.edges)
            assert sub.minor.graph.edges == scaled

    def test_vertex_map_consistent(self):
        inst = random_connected_instance(3, n=30, k=4)
        result = exact_minor(inst)
        minor_ids = [m for m in result.vertex_map if m is not None]
        assert sorted(minor_ids) == list(range(result.minor.graph.vertex_count))
        for j, t in enumerate(inst.terminals):
            assert result.vertex_map[t] == result.minor.terminals[j]


class TestVerifyExact:
    def test_passes_on_fresh_result(self, path4, star3):
        for inst in (path4, star3):
            result = exact_minor(inst)
            report = verify_exact(inst, result)
            assert report.max_abs_deviation == 0.0
            assert result.non_terminal_count <= inst.k**4

    def test_builds_no_skeleton(self, monkeypatch):
        # The check must not share the search whose output it certifies.
        def refuse(*args):
            raise AssertionError("verify_exact built a skeleton")

        for seed in range(4):
            inst = subdivide(random_connected_instance(seed, n=30, k=5), parts=3)
            result = exact_minor(inst)
            with monkeypatch.context() as patch:
                patch.setattr(Skeleton, "__init__", refuse)
                assert verify_exact(inst, result).max_abs_deviation == 0.0

    def test_tampered_weight_fails(self, star3):
        result = exact_minor(star3)
        g = result.minor.graph
        tampered_edges = [(u, v, w + 1.0) for u, v, w in g.edges]
        tampered = PreprocessResult(
            minor=Instance(
                build_graph(g.vertex_count, tampered_edges), result.minor.terminals
            ),
            vertex_map=result.vertex_map,
            branch_of=result.branch_of,
            passes=result.passes,
        )
        with pytest.raises(VerificationFailedError):
            verify_exact(star3, tampered)

    def test_integer_sums_past_2_to_the_53_use_the_relative_rule(self, tmp_path):
        # The weights are integers but sum past 2^52, so sums round: the
        # input's row folds 2^53 + 3 + 3 to 2^53 + 8, while the minor's
        # edge is 2^53 + (3 + 3) = 2^53 + 6.
        path = tmp_path / "g.txt"
        path.write_text("4 3 2\n0 3\n0 2 9007199254740992\n2 1 3\n1 3 3\n")
        code, _, err = invoke(["preprocess", str(path)])
        assert (code, err) == (0, "")
        inst = load_instance(path)
        assert inst.graph.is_integer_weighted() and not inst.graph.is_exact()
        result = exact_minor(inst)
        report = verify_exact(inst, result)
        assert report.max_abs_deviation == 2.0
        assert report.max_rel_deviation <= FLOAT_REL_TOL
        # A minor weight planted off by 2^40 is still caught.
        g = result.minor.graph
        planted = [(u, v, w + 2.0**40) for u, v, w in g.edges]
        tampered = result._replace(
            minor=Instance(build_graph(g.vertex_count, planted), result.minor.terminals)
        )
        with pytest.raises(VerificationFailedError, match=r"terminal pair \(0, 1\)"):
            verify_exact(inst, tampered)

    def test_non_exact_failure_names_the_pair_past_the_relative_tolerance(self, tmp_path):
        # Pair (0, 2) deviates most in absolute terms, 0.26, but that is
        # 2.6e-10 relative, inside the tolerance; (1, 2) is 6.7e-3 off.
        path = tmp_path / "g.txt"
        path.write_text("3 2 3\n0 1 2\n0 1 1000000000.5\n1 2 1.5\n")
        inst = load_instance(path)
        result = exact_minor(inst)
        doctored = [(0, 1, 1000000000.75), (1, 2, 1.51)]
        tampered = result._replace(minor=Instance(build_graph(3, doctored), result.minor.terminals))
        with pytest.raises(VerificationFailedError, match=r"^terminal pair \(1, 2\) deviates by ") as info:
            verify_exact(inst, tampered)
        assert info.value.pair == (1, 2)
        assert "relative" in str(info.value)


def golden_instance(weights):
    """The integer instance is generated; the non-dyadic one is stored.

    The stored file is the integer instance with each weight redrawn from
    NON_DYADIC_WEIGHTS, drawn in the order the edges were generated in, so
    its pinned digest does not depend on the order ``reweighted`` reads.
    """
    if weights == "integer":
        return subdivide(random_connected_instance(5, n=40, k=6), parts=3)
    return load_instance(Path(__file__).parent / "data" / "golden-non-dyadic.txt")


class TestGoldenDigest:
    # sha256 of `spr preprocess` stdout followed by its sidecar JSON, as the
    # full-labelling preprocessing produced them (two passes each).
    GOLDEN = {
        "integer": "c84556f71391a3452ce078eec7e77bd34dc56550cd4b04ffa00eb517998e9616",
        "non-dyadic": "4101d1e71fed5cb65d682a31d3790d2823806e7ed2721e1b79ed77e6dfa29bca",
    }

    @pytest.mark.parametrize("weights", sorted(GOLDEN))
    def test_cli_output(self, tmp_path, weights):
        graph, sidecar = tmp_path / "g.txt", tmp_path / "s.json"
        graph.write_text(format_graph_text(golden_instance(weights)))
        code, out, _ = invoke(["preprocess", str(graph), "--sidecar", str(sidecar)])
        assert code == 0
        digest = hashlib.sha256(out.encode() + sidecar.read_bytes()).hexdigest()
        assert digest == self.GOLDEN[weights]

    @pytest.mark.parametrize("weights", sorted(GOLDEN))
    def test_minor_model(self, weights):
        inst = golden_instance(weights)
        result = exact_minor(inst)
        assert result.passes == 2
        assert_minor_model(inst, result)


class TestMinorModelOracle:
    """The oracle rejects a broken branch-set model.

    On a star whose three arms are split in three, each terminal's set is
    itself plus its arm's two inner vertices, and the center's set is the
    center alone.
    """

    @pytest.fixture
    def split_star(self, star3):
        inst = subdivide(star3, parts=3)
        result = exact_minor(inst)
        assert result.branch_of == [0, 1, 2, 3, 0, 0, 1, 1, 2, 2]
        assert_minor_model(inst, result)
        return inst, result

    @staticmethod
    def refused(inst, broken, oracle_message, library_message):
        """Both the oracle and ``verify_exact`` reject the broken model."""
        with pytest.raises(AssertionError, match=oracle_message):
            assert_minor_model(inst, broken)
        with pytest.raises(VerificationFailedError, match=f"^{library_message}$"):
            verify_exact(inst, broken)

    def test_vertex_moved_to_a_non_adjacent_set(self, split_star):
        inst, result = split_star
        branch_of = list(result.branch_of)
        branch_of[5] = 1  # beside vertex 4 and the center, far from set 1
        self.refused(
            inst,
            result._replace(branch_of=branch_of),
            "branch set 1 is not connected",
            "minor vertex 1: its branch set is not connected in the input",
        )

    def test_split_set(self, split_star):
        inst, result = split_star
        branch_of = list(result.branch_of)
        branch_of[4] = None  # set 0 keeps 0 and 5, which only 4 joined
        self.refused(
            inst,
            result._replace(branch_of=branch_of),
            "branch set 0 is not connected",
            "minor vertex 0: its branch set is not connected in the input",
        )

    def test_vertex_mapped_outside_its_set(self, split_star):
        inst, result = split_star
        vertex_map = list(result.vertex_map)
        vertex_map[6] = 0  # an inner vertex of arm 1 stands for terminal 0
        self.refused(
            inst,
            result._replace(vertex_map=vertex_map),
            "vertex 6 maps to 0 outside branch set 0",
            "minor vertex 0: no vertex of its branch set maps to it",
        )

    def test_minor_edge_between_sets_no_input_edge_joins(self, split_star):
        # Terminals 0 and 1 are 6 apart through the center, so the new edge
        # changes no distance.
        inst, result = split_star
        mg = result.minor.graph
        minor = Instance(build_graph(mg.vertex_count, [*mg.edges, (0, 1, 6.0)]), result.minor.terminals)
        self.refused(
            inst,
            result._replace(minor=minor),
            "no input edge joins branch sets 0 and 1",
            r"minor edge \(0, 1\): no input edge joins branch sets 0 and 1",
        )

    def test_minor_weight_raised_by_one(self, split_star):
        inst, result = split_star
        mg = result.minor.graph
        raised = [(u, v, w + 1.0 if (u, v) == (0, 3) else w) for u, v, w in mg.edges]
        minor = Instance(build_graph(mg.vertex_count, raised), result.minor.terminals)
        with pytest.raises(AssertionError, match=r"minor edge \(0, 3\) weighs 4.0; the input distance is 3.0"):
            assert_minor_model(inst, result._replace(minor=minor))


class TestFloatWeights:
    """Random non-dyadic weights: distance sums round, ties are inexact."""

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=6, max_value=40),
        k=st.integers(min_value=2, max_value=6),
        parts=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_fixpoint_tolerance_and_determinism(self, tmp_path_factory, seed, n, k, parts):
        inst = random_connected_instance(seed, n=n, k=k)
        if parts > 1:
            inst = subdivide(inst, parts=parts)
        inst = reweighted(inst, NON_DYADIC_WEIGHTS, seed)
        result = exact_minor(inst)
        assert_minor_model(inst, result)
        again = exact_minor(result.minor)
        assert again.passes == 1
        assert again.minor.graph.edges == result.minor.graph.edges
        assert verify_exact(inst, result).max_rel_deviation <= FLOAT_REL_TOL

        path = tmp_path_factory.mktemp("float") / "g.txt"
        path.write_text(format_graph_text(inst))
        traces = [path.with_name(f"trace{i}.json") for i in range(2)]
        runs = [
            invoke(["run", "--seed", str(seed), "--trace", str(trace), str(path)])
            for trace in traces
        ]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]
        assert traces[0].read_bytes() == traces[1].read_bytes()
