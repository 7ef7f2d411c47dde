import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spr import (
    Instance,
    build_graph,
    exact_minor,
    format_graph_text,
    replay_contraction_log,
    verify_exact,
)
from spr.errors import VerificationFailedError
from spr.preprocess import FLOAT_REL_TOL, PreprocessResult

from conftest import (
    NON_DYADIC_WEIGHTS,
    floyd_warshall,
    invoke,
    random_connected_instance,
    reweighted,
    subdivide,
)


def minor_as_edge_set(result):
    """Minor edges translated back to original vertex ids."""
    to_original = [None] * result.minor.graph.vertex_count
    for orig, minor_id in enumerate(result.vertex_map):
        if minor_id is not None:
            to_original[minor_id] = orig
    return {
        (min(to_original[u], to_original[v]), max(to_original[u], to_original[v])): w
        for u, v, w in result.minor.graph.edges
    }


class TestExactMinor:
    def test_path_collapses_to_edge(self, path4):
        result = exact_minor(path4)
        assert result.minor.graph.vertex_count == 2
        assert result.non_terminal_count == 0
        assert result.minor.graph.edges == ((0, 1, 3.0),)

    def test_star_keeps_center(self, star3):
        result = exact_minor(star3)
        assert result.non_terminal_count == 1
        mg = result.minor.graph
        for a in range(3):
            for b in range(a + 1, 3):
                assert mg.distance(result.minor.terminals[a], result.minor.terminals[b]) == 2.0

    def test_two_terminals_always_single_edge(self):
        for seed in range(10):
            inst = random_connected_instance(seed, n=30, k=2)
            result = exact_minor(inst)
            assert result.minor.graph.vertex_count == 2
            assert result.non_terminal_count == 0
            d = inst.graph.distance(*inst.terminals)
            assert result.minor.graph.edges == ((0, 1, d),)

    def test_exact_distances_and_size(self):
        for seed in range(15):
            k = 3 + seed % 6
            inst = random_connected_instance(seed, n=60, k=k)
            result = exact_minor(inst)
            oracle = floyd_warshall(inst.graph)
            mg = result.minor.graph
            for a in range(k):
                for b in range(a + 1, k):
                    d0 = oracle[inst.terminals[a]][inst.terminals[b]]
                    d1 = mg.distance(result.minor.terminals[a], result.minor.terminals[b])
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

    def test_contraction_log_replays_to_minor(self):
        for seed in range(10):
            inst = random_connected_instance(seed, n=40, k=5)
            result = exact_minor(inst)
            adj = replay_contraction_log(inst.graph, result.contraction_log)
            replayed_edges = {
                (min(u, v), max(u, v)): w
                for u in adj
                for v, w in adj[u].items()
            }
            assert replayed_edges == minor_as_edge_set(result)
            retained = {orig for orig, m in enumerate(result.vertex_map) if m is not None}
            assert set(adj) == retained

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
            assert report.non_terminal_count <= inst.k**4

    def test_tampered_weight_fails(self, star3):
        result = exact_minor(star3)
        g = result.minor.graph
        tampered_edges = [(u, v, w + 1.0) for u, v, w in g.edges]
        tampered = PreprocessResult(
            minor=Instance(
                build_graph(g.vertex_count, tampered_edges), result.minor.terminals
            ),
            vertex_map=result.vertex_map,
            contraction_log=result.contraction_log,
            passes=result.passes,
        )
        with pytest.raises(VerificationFailedError):
            verify_exact(star3, tampered)


def golden_instance(weights):
    inst = subdivide(random_connected_instance(5, n=40, k=6), parts=3)
    return inst if weights == "integer" else reweighted(inst, NON_DYADIC_WEIGHTS, 1)


class TestGoldenDigest:
    # sha256 of `spr preprocess` stdout followed by its sidecar JSON, and of
    # repr(contraction_log), as the full-labelling preprocessing produced them
    # (two passes each).
    GOLDEN = {
        "integer": (
            "c84556f71391a3452ce078eec7e77bd34dc56550cd4b04ffa00eb517998e9616",
            "1fed9d792fd193dec88c87ba375cdd3755f12a7220bf5575bb792ed3324a36fc",
        ),
        "non-dyadic": (
            "4101d1e71fed5cb65d682a31d3790d2823806e7ed2721e1b79ed77e6dfa29bca",
            "d57707d00527c28fe521c46184478291c7e7b4d870d6653d8a39d6ccc3af39b8",
        ),
    }

    @pytest.mark.parametrize("weights", sorted(GOLDEN))
    def test_cli_output(self, tmp_path, weights):
        graph, sidecar = tmp_path / "g.txt", tmp_path / "s.json"
        graph.write_text(format_graph_text(golden_instance(weights)))
        code, out, _ = invoke(["preprocess", str(graph), "--sidecar", str(sidecar)])
        assert code == 0
        digest = hashlib.sha256(out.encode() + sidecar.read_bytes()).hexdigest()
        assert digest == self.GOLDEN[weights][0]

    @pytest.mark.parametrize("weights", sorted(GOLDEN))
    def test_contraction_log(self, weights):
        result = exact_minor(golden_instance(weights))
        assert result.passes == 2
        digest = hashlib.sha256(repr(result.contraction_log).encode()).hexdigest()
        assert digest == self.GOLDEN[weights][1]


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
