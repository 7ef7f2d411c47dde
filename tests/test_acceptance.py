"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every tolerance is pinned here; nothing is calibrated at run
time.
"""

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from spr import (
    GrowthParams,
    contract,
    distortion,
    distortion_bound_coefficient,
    erlang_cdf_lower,
    erlang_cdf_lower_poisson,
    erlang_tail_upper,
    exact_minor,
    geometric_tail_chernoff,
    index_trace,
    lemma4_bound,
    lemma4_bound_loose,
    lemma5_bound,
    lemma5_threshold,
    lemma6_bound,
    run,
    validate,
    verify_exact,
    format_graph_text,
)
from spr.analysis import _distinct_cells, _pair_detour_length, _replay_cell, partition_pairs
from spr.cli import main as cli_main
from spr.errors import VerificationFailedError

from conftest import detour_walk, oracle_optimal, random_connected_instance, replay_reaches, subdivide

RUNS_PER_GRAPH = 50
CORPUS_SIZE = 20


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def run_corpus():
    """20 random graphs (n <= 100, k in 2..10, integer weights <= 10),
    50 seeded runs each; shared by criteria 1, 2, and 10."""
    graphs = []
    for index in range(CORPUS_SIZE):
        n = 20 + (index * 80) // (CORPUS_SIZE - 1)
        k = 2 + index % 9
        graphs.append(random_connected_instance(1000 + index, n=n, k=k))

    started = time.perf_counter()
    outcomes = []
    invalid = 0
    for g_index, inst in enumerate(graphs):
        for s in range(RUNS_PER_GRAPH):
            part, _ = run(inst, GrowthParams(seed=g_index * 1000 + s))
            if validate(inst, part):
                invalid += 1
            outcomes.append((g_index, part))
    elapsed = time.perf_counter() - started
    return {
        "graphs": graphs,
        "outcomes": outcomes,
        "invalid": invalid,
        "elapsed": elapsed,
    }


def test_criterion_1_partition_validity(run_corpus):
    total = len(run_corpus["outcomes"])
    ok = run_corpus["invalid"] == 0 and total == 1000 and run_corpus["elapsed"] < 60.0
    report(
        "1 partition validity",
        ok,
        f"{total} runs, {run_corpus['invalid']} invalid, {run_corpus['elapsed']:.1f}s",
    )


def test_criterion_2_distance_lower_bound(run_corpus):
    graphs = run_corpus["graphs"]
    violations = 0
    pairs_checked = 0
    for g_index, part in run_corpus["outcomes"]:
        inst = graphs[g_index]
        minor = contract(inst, part)
        minor_dist = minor.all_distances()
        for i in range(inst.k):
            for j in range(i + 1, inst.k):
                pairs_checked += 1
                d0 = inst.terminal_distances()[(i, j)]
                if minor_dist[(i, j)] < d0:
                    violations += 1
    report(
        "2 distance lower bound",
        violations == 0,
        f"{pairs_checked} pairs, {violations} violations",
    )


def test_criterion_3_preprocessing_exactness_and_size():
    failures = []
    for index in range(100):
        n = 20 + (index * 180) // 99
        k = 2 + index % 9
        inst = random_connected_instance(2000 + index, n=n, k=k)
        result = exact_minor(inst)
        try:
            verify_exact(inst, result)  # bit-equal distances, count <= k^4
        except VerificationFailedError as exc:
            failures.append(f"instance {index}: {exc}")
            continue
        for a in range(k):
            for b in range(a + 1, k):
                d0 = inst.terminal_distances()[(a, b)]
                d1 = result.minor.terminal_distances()[(a, b)]
                if d0 != d1:
                    failures.append(f"instance {index}: pair ({a},{b}) {d0} != {d1}")
        sub = exact_minor(subdivide(inst, parts=5))
        if sub.minor.graph.vertex_count != result.minor.graph.vertex_count:
            failures.append(
                f"instance {index}: subdivision changed the minor "
                f"({result.minor.graph.vertex_count} -> {sub.minor.graph.vertex_count})"
            )
    report("3 preprocessing exactness and size", not failures, "; ".join(failures[:3]))


def test_criterion_4_oracle_dominance(path3, path4, star3):
    failures = []

    exact = oracle_optimal(star3)
    if exact.distortion != 2.0:
        failures.append(f"star oracle {exact.distortion} != 2.0")
    if oracle_optimal(path3).distortion != 1.0:
        failures.append("3-vertex path oracle != 1.0")

    tiny = [path3, path4, star3]
    for seed in range(40):
        inst = random_connected_instance(3000 + seed, n=6 + seed % 5, k=2 + seed % 3)
        if len(inst.non_terminals()) <= 8:
            tiny.append(inst)
    for index, inst in enumerate(tiny):
        best = oracle_optimal(inst).distortion
        for s in range(10):
            part, _ = run(inst, GrowthParams(seed=s))
            observed = distortion(inst, contract(inst, part)).max_ratio
            if observed < best - 1e-12:
                failures.append(f"instance {index}: run beat the oracle")
    report(
        "4 oracle dominance",
        not failures,
        f"{len(tiny)} instances x 10 seeds; " + "; ".join(failures[:3]),
    )


def _invoke_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def test_criterion_5_determinism(tmp_path):
    inst = random_connected_instance(4000, n=60, k=6)
    graph_path = tmp_path / "determinism.txt"
    graph_path.write_text(format_graph_text(inst))
    trace_a = tmp_path / "a.json"
    trace_b = tmp_path / "b.json"
    code_a, out_a = _invoke_cli(
        ["run", "--seed", "11", "--trace", str(trace_a), str(graph_path)]
    )
    code_b, out_b = _invoke_cli(
        ["run", "--seed", "11", "--trace", str(trace_b), str(graph_path)]
    )
    ok = (
        code_a == code_b == 0
        and out_a.encode() == out_b.encode()
        and trace_a.read_bytes() == trace_b.read_bytes()
    )
    report("5 determinism", ok, "byte-identical partition and trace JSON")


def test_criterion_6_lemma4_certification():
    started = time.perf_counter()
    failures = []
    for m in (1, 2, 5, 10, 20):
        for kappa in (0.02, 0.05, 0.1, 0.25):
            exact = erlang_cdf_lower(m, kappa * m)
            if exact > lemma4_bound_loose(m, kappa) or exact > lemma4_bound(m, kappa):
                failures.append(f"(m={m}, kappa={kappa}) exact above the bound")
            poisson = erlang_cdf_lower_poisson(m, kappa * m)
            if abs(exact - poisson) > 1e-12 * max(exact, poisson):
                failures.append(f"(m={m}, kappa={kappa}) Poisson sum off by >1e-12 relative")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    report("6 lemma 4 certification", not failures, f"{elapsed:.1f}s; " + "; ".join(failures[:3]))


def test_criterion_7_lemma6_certification():
    failures = []
    for m in (5, 10, 30, 50):
        for c in (6.0, 8.0, 10.0):
            exact, bound = erlang_tail_upper(m, c * m), lemma6_bound(m, c)
            if exact > bound:
                failures.append(f"(m={m}, C={c}): {exact} > {bound}")
    report("7 lemma 6 certification", not failures, "; ".join(failures))


def test_criterion_8_lemma5_dominance():
    failures = []
    for k in (4, 10):
        chernoff = geometric_tail_chernoff(0.5, k, lemma5_threshold(18.0, 0.5, k))
        bound = lemma5_bound(18.0, 0.5, k)
        assert bound == 2.0 / k**6
        if chernoff > bound:
            failures.append(f"k={k}: {chernoff} > {bound}")
    report("8 lemma 5 dominance", not failures, "; ".join(failures))


def test_criterion_9_detour_dominance():
    failures = []
    runs = 0
    for index in range(20):
        base = random_connected_instance(5000 + index, n=30 + 3 * index, k=3 + index % 8)
        inst = exact_minor(base).minor
        for s in range(5):
            params = GrowthParams(seed=index * 97 + s)
            part, trace = run(inst, params)
            runs += 1
            minor_dist = contract(inst, part).all_distances()
            cells = partition_pairs(inst, params)
            sequences, slots = _distinct_cells(inst, cells)
            trace_index = index_trace(inst, trace)
            table = [_replay_cell(trace_index, vertices) for vertices in sequences]
            for (i, j), pair_cells in cells.items():
                _, cover, complete = replay_reaches(inst, trace, i, j, pair_cells)
                if not complete:
                    failures.append(f"run {runs}: pair ({i},{j}) incomplete")
                    continue
                _, length, detours = detour_walk(inst, inst.terminal_paths()[(i, j)], pair_cells, cover)
                chains = [table[slot][1] for slot in slots[(i, j)]]
                summed = _pair_detour_length(inst, (i, j), pair_cells, chains)
                if summed != length:
                    failures.append(f"run {runs}: summed length {summed} != walk {length}")
                if length < minor_dist[(i, j)]:
                    failures.append(f"run {runs}: detour {length} < {minor_dist[(i, j)]}")
                for a, b in zip(detours, detours[1:]):
                    if a[0] == b[0]:
                        failures.append(f"run {runs}: consecutive same terminal")
    report("9 detour dominance", runs == 100 and not failures, f"{runs} traced runs; " + "; ".join(failures[:3]))


def test_criterion_10_bound_calculator(run_corpus):
    failures = []
    coefficient = distortion_bound_coefficient(GrowthParams())
    if abs(coefficient - 174_992_400.0) > 1e-12 * 174_992_400.0:
        failures.append(f"coefficient {coefficient!r}")
    graphs = run_corpus["graphs"]
    for g_index, part in run_corpus["outcomes"]:
        inst = graphs[g_index]
        observed = distortion(inst, contract(inst, part)).max_ratio
        ceiling = 2e8 * math.log(inst.k) ** 2
        if observed > ceiling:
            failures.append(f"distortion {observed} above 2e8 log^2 k")
    report("10 bound calculator", not failures, f"coefficient {coefficient:.0f}; " + "; ".join(failures[:3]))


def test_criterion_11_experiment_report(tmp_path):
    inst = random_connected_instance(6000, n=200, k=8)
    graph_path = tmp_path / "experiment.txt"
    graph_path.write_text(format_graph_text(inst))
    code, out = _invoke_cli(
        [
            "experiment",
            "--graph",
            str(graph_path),
            "--trials",
            "100",
            "--seed",
            "77",
        ]
    )
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    payload = json.loads(out)
    summary = payload.get("summary", {})
    for key in ("distortion_median", "distortion_max", "bad_event_mean_counts"):
        if key not in summary:
            failures.append(f"summary missing {key}")
    results = payload.get("results", [])
    if len(results) != 100:
        failures.append(f"{len(results)} trials reported")
    for row in results:
        value = row["distortion"]
        if not (math.isfinite(value) and value >= 1.0 - 1e-9):
            failures.append(f"trial {row['trial']}: distortion {value}")
    report(
        "11 experiment reporting",
        not failures,
        f"median {summary.get('distortion_median'):.3f}, max {summary.get('distortion_max'):.3f}; "
        + "; ".join(failures[:3]),
    )
