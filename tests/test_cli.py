import errno
import gc
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spr
from spr import GrowthParams, WeightedGraph, format_graph_text, parse_graph_text
from spr import ball_growing, cli, partition
from spr.cli import _build_parser, main

from conftest import invoke, random_connected_instance

STAR = """# three terminals around a center
4 3 3
0 1 2
3 0 1.0
3 1 1.0
3 2 1.0
"""


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(STAR)
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    inst = random_connected_instance(21, n=30, k=4)
    path = tmp_path / "random.txt"
    path.write_text(format_graph_text(inst))
    return str(path)


def assert_failed_before_stdout(code, out, err):
    """A failed side-file write leaves stdout empty and one error line."""
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert "Traceback" not in err


class FullStdout(io.StringIO):
    """A stdout on a full disk: every write and flush fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def invoke_on_full_disk(argv):
    """Run the CLI in-process with a stdout that cannot be written: (exit code, stderr)."""
    err = io.StringIO()
    with redirect_stdout(FullStdout()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def file_names(directory):
    return sorted(path.name for path in directory.iterdir())


def assert_directory_target_refused(argv, directory, tmp_path, listing):
    """A side file aimed at a directory: no result, one error naming it, nothing left."""
    code, out, err = invoke(argv)
    assert_failed_before_stdout(code, out, err)
    message = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(directory)!r}"
    assert err.splitlines()[-1] == f"error: {message}"
    assert file_names(tmp_path) == listing
    assert file_names(directory) == []


class TestRun:
    def test_happy_path(self, star_file):
        code, out, err = invoke(["run", "--seed", "7", star_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["seed"] == 7
        assert len(payload["assignment"]) == 4
        assert payload["distortion"] >= 1.0
        assert "seed: 7" in err

    def test_deterministic_output(self, star_file, tmp_path):
        trace_a = tmp_path / "a.json"
        trace_b = tmp_path / "b.json"
        code_a, out_a, _ = invoke(["run", "--seed", "5", "--trace", str(trace_a), star_file])
        code_b, out_b, _ = invoke(["run", "--seed", "5", "--trace", str(trace_b), star_file])
        assert code_a == code_b == 0
        assert out_a == out_b
        assert trace_a.read_bytes() == trace_b.read_bytes()

    def test_trace_file_schema(self, random_file, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, _, _ = invoke(
            ["run", "--seed", "3", "--trace", str(trace_path), random_file]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["schema_version"] == 1
        assert trace["total_rounds"] == len(trace["rounds"])
        assert all("mean" in r and "draws" in r for r in trace["rounds"])
        assert all("vertex" in e and "terminal" in e for e in trace["events"])

    def test_unwritable_trace_prints_no_result(self, star_file, tmp_path):
        trace = tmp_path / "no" / "such" / "t.json"
        assert_failed_before_stdout(*invoke(["run", "--seed", "1", "--trace", str(trace), star_file]))

    def test_full_stdout_leaves_no_trace(self, star_file, tmp_path):
        trace = tmp_path / "t.json"
        code, err = invoke_on_full_disk(["run", "--seed", "1", "--trace", str(trace), star_file])
        assert code == 1
        assert err.splitlines()[-1] == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert file_names(tmp_path) == ["star.txt"]

    def test_trace_on_a_directory_prints_no_result(self, star_file, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        argv = ["run", "--seed", "1", "--trace", str(target), star_file]
        assert_directory_target_refused(argv, target, tmp_path, ["dir", "star.txt"])

    def test_trace_through_a_symlink_writes_its_target(self, star_file, tmp_path):
        plain = tmp_path / "plain.json"
        assert invoke(["run", "--seed", "1", "--trace", str(plain), star_file])[0] == 0
        real = tmp_path / "real.json"
        real.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        assert invoke(["run", "--seed", "1", "--trace", str(link), star_file])[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == plain.read_bytes()
        assert file_names(tmp_path) == ["link.json", "plain.json", "real.json", "star.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_trace_on_a_fifo_prints_no_result(self, star_file, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        code, out, err = invoke(["run", "--seed", "1", "--trace", str(fifo), star_file])
        assert_failed_before_stdout(code, out, err)
        assert err.splitlines()[-1] == f"error: {fifo} is not a regular file"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert file_names(tmp_path) == ["fifo", "star.txt"]

    def test_random_seed_is_echoed(self, star_file):
        code, out, err = invoke(["run", star_file])
        assert code == 0
        payload = json.loads(out)
        assert "seed: " in err
        assert payload["seed"] == int(err.split("seed: ")[1].split()[0])


class TestPreprocess:
    def test_writes_reduced_graph_and_sidecar(self, random_file, tmp_path):
        out_path = tmp_path / "reduced.txt"
        code, _, _ = invoke(["preprocess", random_file, "-o", str(out_path)])
        assert code == 0
        reduced = parse_graph_text(out_path.read_text())
        assert reduced.k == 4
        sidecar = json.loads((tmp_path / "reduced.txt.json").read_text())
        assert sidecar["schema_version"] == 1
        assert sidecar["statistics"]["max_abs_deviation"] == 0.0
        assert len(sidecar["vertex_map"]) == 30
        assert file_names(tmp_path) == ["random.txt", "reduced.txt", "reduced.txt.json"]

    def test_unwritable_sidecar_prints_no_result(self, random_file, tmp_path):
        sidecar = tmp_path / "no" / "such" / "s.json"
        assert_failed_before_stdout(*invoke(["preprocess", random_file, "--sidecar", str(sidecar)]))

    def test_unwritable_sidecar_leaves_no_output(self, random_file, tmp_path):
        sidecar = tmp_path / "no" / "such" / "s.json"
        argv = ["preprocess", random_file, "-o", str(tmp_path / "out.txt"), "--sidecar", str(sidecar)]
        code, out, err = invoke(argv)
        assert_failed_before_stdout(code, out, err)
        assert str(sidecar) in err
        assert file_names(tmp_path) == ["random.txt"]

    def test_sidecar_on_a_directory_leaves_no_output(self, random_file, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        argv = ["preprocess", random_file, "-o", str(tmp_path / "out.txt"), "--sidecar", str(target)]
        assert_directory_target_refused(argv, target, tmp_path, ["dir", "random.txt"])

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_sidecar_on_the_output_file_is_refused_at_once(self, random_file, tmp_path, monkeypatch, spelling):
        def reached(inst):
            raise AssertionError("preprocessing started")

        monkeypatch.setattr(cli, "load_instance", reached)
        out = str(tmp_path / "out.txt")
        sidecar = out if spelling == "same" else f"{tmp_path}/./out.txt"
        code, stdout, err = invoke(["preprocess", random_file, "-o", out, "--sidecar", sidecar])
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [f"error: --sidecar {sidecar} names the --output file"]
        assert file_names(tmp_path) == ["random.txt"]

    def test_round_trip_is_canonical(self, random_file, tmp_path):
        out_path = tmp_path / "reduced.txt"
        invoke(["preprocess", random_file, "-o", str(out_path)])
        text = out_path.read_text()
        assert format_graph_text(parse_graph_text(text)) == text

    def test_pipeline_composition(self, random_file, tmp_path):
        # run with implicit preprocessing == run --no-preprocess on the
        # preprocessed file
        out_path = tmp_path / "reduced.txt"
        invoke(["preprocess", random_file, "-o", str(out_path)])
        _, direct, _ = invoke(["run", "--seed", "9", random_file])
        _, explicit, _ = invoke(["run", "--seed", "9", "--no-preprocess", str(out_path)])
        assert direct == explicit


class TestEval:
    def test_valid_partition(self, star_file, tmp_path):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"assignment": [0, 1, 2, 0]}))
        code, out, _ = invoke(["eval", star_file, str(part)])
        assert code == 0
        payload = json.loads(out)
        assert payload["distortion"] == 2.0
        pairs = {(p["i"], p["j"]): p["ratio"] for p in payload["pairs"]}
        assert pairs[(1, 2)] == 2.0

    def test_float_cell_id_exits_one(self, star_file, tmp_path):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"assignment": [0, 1, 2, 0.0]}))
        code, _, err = invoke(["eval", star_file, str(part)])
        assert code == 1
        assert "invalid partition" in err
        assert "Traceback" not in err

    def test_invalid_partition_exits_one(self, star_file, tmp_path):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"assignment": [0, 0, 2, 0]}))
        code, _, err = invoke(["eval", star_file, str(part)])
        assert code == 1
        assert "invalid partition" in err

    def test_every_violation_on_one_line(self, star_file, tmp_path):
        # Terminal 1 sits in cell 0, which the center (cell 1) then splits.
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"assignment": [0, 0, 2, 1]}))
        code, out, err = invoke(["eval", star_file, str(part)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: invalid partition: terminal 1 assigned to cell 0, not 1; "
            "cell 0 disconnected: [1] unreachable from terminal 0"
        ]

    def test_huge_vertex_count_exits_one(self, tmp_path, monkeypatch):
        def refuse(self, vertex_count, edges):
            raise AssertionError("per-vertex storage allocated")

        monkeypatch.setattr(WeightedGraph, "__init__", refuse)
        graph = tmp_path / "g.txt"
        graph.write_text("1000000000 1 2\n0 1\n0 1 1\n")
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"assignment": [0, 1]}))
        code, out, err = invoke(["eval", str(graph), str(part)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: 1000000000 vertices need at least 999999999 edges, got 1"
        ]

    @pytest.mark.parametrize(
        "payload", [[0, 1, 2, 0], {"assignment": 5}, {"assignment": None}, {"cells": [0]}]
    )
    def test_payload_shape_exits_one(self, star_file, tmp_path, payload):
        part = tmp_path / "part.json"
        part.write_text(json.dumps(payload))
        code, out, err = invoke(["eval", star_file, str(part)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {part}: expected a JSON object with an 'assignment' array"
        ]

    @pytest.mark.parametrize(
        "graph_bytes, part_bytes",
        [(STAR.encode(), b"\xff\xfe"), (b"\xff" + STAR.encode(), b'{"assignment": [0, 1, 2, 0]}')],
        ids=["partition", "graph"],
    )
    def test_non_utf8_file_exits_one(self, tmp_path, graph_bytes, part_bytes):
        graph, part = tmp_path / "g.txt", tmp_path / "p.json"
        graph.write_bytes(graph_bytes)
        part.write_bytes(part_bytes)
        bad = part if graph_bytes == STAR.encode() else graph
        code, out, err = invoke(["eval", str(graph), str(part)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        ]

    def test_utf8_files_read_under_an_ascii_locale(self, tmp_path):
        graph, part = tmp_path / "g.txt", tmp_path / "p.json"
        graph.write_text("# caf\u00e9\n" + STAR, encoding="utf-8")
        part.write_text('{"assignment": [0, 1, 2, 0], "note": "\u00e9"}', encoding="utf-8")
        src = str(Path(spr.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "spr.cli", "eval", str(graph), str(part)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0"},
            timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout)["distortion"] == 2.0

    def test_non_json_partition_exits_one(self, star_file, tmp_path):
        part = tmp_path / "part.txt"
        part.write_text("assignment = [0, 1, 2, 0]\n")
        code, out, err = invoke(["eval", star_file, str(part)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {part}: Expecting value: line 1 column 1 (char 0)"]

    def test_deeply_nested_json_exits_one(self, star_file, tmp_path):
        part = tmp_path / "deep.json"
        part.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = invoke(["eval", star_file, str(part)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {part}: JSON nested too deeply"]

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=12,
    )

    @given(
        st.one_of(
            json_values,
            st.fixed_dictionaries({"assignment": json_values}),
            st.fixed_dictionaries({"assignment": st.lists(st.integers(-1, 3) | json_values, max_size=6)}),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_payload_never_crashes(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            graph, part = Path(tmp) / "star.txt", Path(tmp) / "part.json"
            graph.write_text(STAR)
            part.write_text(json.dumps(payload))
            code, _, err = invoke(["eval", str(graph), str(part)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err


class TestOracle:
    def test_star(self, star_file):
        code, out, _ = invoke(["oracle", star_file])
        assert code == 0
        assert json.loads(out)["optimal_distortion"] == 2.0

    def test_too_large_exits_one(self, tmp_path):
        inst = random_connected_instance(4, n=14, k=3)  # 11 non-terminals
        path = tmp_path / "big.txt"
        path.write_text(format_graph_text(inst))
        code, _, err = invoke(["oracle", str(path)])
        assert code == 1
        assert "error:" in err

    def test_too_many_candidates_exits_one_at_once(self, tmp_path, monkeypatch):
        def reached(inst, part):
            raise AssertionError("a candidate was enumerated")

        monkeypatch.setattr(partition, "contract", reached)
        inst = random_connected_instance(4, n=32, k=24)  # 24^8 candidates
        path = tmp_path / "wide.txt"
        path.write_text(format_graph_text(inst))
        code, out, err = invoke(["oracle", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: 24^8 candidate partitions") and err.count("\n") == 1


class TestValidateOnce:
    """Each partition is validated exactly once, inside ``contract``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = partition.validate

        def counting(inst, part):
            seen.append(part)
            return original(inst, part)

        # Rebind every module-level name bound to validate.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("spr") and getattr(
                module, "validate", None
            ) is original:
                monkeypatch.setattr(module, "validate", counting)
        return seen

    def test_run(self, calls, random_file):
        assert invoke(["run", "--seed", "1", random_file])[0] == 0
        assert len(calls) == 1

    def test_experiment(self, calls, random_file):
        code, _, _ = invoke(["experiment", "--graph", random_file, "--trials", "3", "--seed", "1"])
        assert code == 0
        assert len(calls) == 3

    def test_eval(self, calls, star_file, tmp_path):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"assignment": [0, 1, 2, 0]}))
        assert invoke(["eval", star_file, str(part)])[0] == 0
        assert len(calls) == 1

    def test_oracle(self, calls, star_file):
        assert invoke(["oracle", star_file])[0] == 0
        assert len(calls) == 3  # the center in each of the three cells


class TestExperiment:
    def test_unwritable_csv_prints_no_result(self, random_file, tmp_path):
        csv_path = tmp_path / "no" / "such" / "c.csv"
        argv = ["experiment", "--graph", random_file, "--trials", "1", "--seed", "1", "--csv", str(csv_path)]
        assert_failed_before_stdout(*invoke(argv))

    def test_full_stdout_leaves_no_csv(self, random_file, tmp_path):
        csv_path = tmp_path / "c.csv"
        argv = ["experiment", "--graph", random_file, "--trials", "1", "--seed", "1", "--csv", str(csv_path)]
        code, err = invoke_on_full_disk(argv)
        assert code == 1
        assert err.splitlines()[-1] == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert file_names(tmp_path) == ["random.txt"]

    def test_csv_on_a_directory_prints_no_result(self, random_file, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        argv = ["experiment", "--graph", random_file, "--trials", "1", "--seed", "1", "--csv", str(target)]
        assert_directory_target_refused(argv, target, tmp_path, ["dir", "random.txt"])

    def test_small_experiment(self, random_file, tmp_path):
        csv_path = tmp_path / "trials.csv"
        code, out, _ = invoke(
            [
                "experiment",
                "--graph",
                random_file,
                "--trials",
                "3",
                "--seed",
                "13",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 3
        assert payload["summary"]["distortion_max"] >= 1.0
        assert payload["preprocess"]["minor_vertices"] <= 30
        for row in payload["results"]:
            assert row["detour"]["violations"] == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 trials
        assert lines[0].startswith("trial,seed,distortion")

    # sha256 of stdout as the per-event reach replay with eager detours
    # (every leg labelled from its own source) produced it.
    GOLDEN = [
        (21, 30, 4, ["--seed", "13"], "27aadf8311398d8a3fa520d2e342dd8d7c2530f7b887ea0d240b3a9621c36fc9"),
        (
            31,
            60,
            6,
            ["--seed", "3", "--no-preprocess", "--c1", "2", "--c2", "3", "--c3", "0.5"],
            "15646cd00e8e115962305675c3affbcd41ed6f6eda1e4b1b1f6d09028c7a26d4",
        ),
    ]

    @pytest.mark.parametrize(
        "inst_seed, n, k, flags, digest", GOLDEN, ids=["preprocessed", "raw-all-bad-events"]
    )
    def test_golden_digest(self, tmp_path, inst_seed, n, k, flags, digest):
        path = tmp_path / "g.txt"
        path.write_text(format_graph_text(random_connected_instance(inst_seed, n=n, k=k)))
        code, out, _ = invoke(["experiment", "--graph", str(path), "--trials", "3", *flags])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_digest_non_dyadic(self, tmp_path):
        # Float weights whose sums round, so min_slack pins the order of the
        # detour additions; wide cells and a small c3 give many events.
        graph = Path(__file__).parent / "data" / "golden-non-dyadic.txt"
        table = tmp_path / "trials.csv"
        code, out, _ = invoke(
            ["experiment", "--graph", str(graph), "--trials", "3", "--seed", "2",
             "--no-preprocess", "--c2", "5", "--c3", "0.5", "--csv", str(table)]
        )
        assert code == 0
        assert '"many": 85' in out
        digest = hashlib.sha256(out.encode() + table.read_bytes()).hexdigest()
        assert digest == "341e3c250c9791addc7257fd4abf52bb10fb06e720ed7063a4ea86c1292a89d9"


class TestTailcheck:
    def test_lemma6_suite(self):
        code, out, _ = invoke(["tailcheck", "--suite", "lemma6", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["rows"]) == 12

    def test_lemma4_suite_small_samples(self):
        code, out, _ = invoke(
            ["tailcheck", "--suite", "lemma4", "--samples", "20000", "--seed", "2"]
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_lemma5_suite_small_samples(self):
        code, out, _ = invoke(
            ["tailcheck", "--suite", "lemma5", "--samples", "10000", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert [row["k"] for row in payload["rows"]] == [4, 10]

    def test_cdf_suite_small_samples(self):
        code, out, _ = invoke(
            ["tailcheck", "--suite", "cdf", "--samples", "20000", "--seed", "4"]
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    # sha256 of stdout at --samples 20000 --seed 4.  The Monte Carlo
    # columns pin each estimator's draw order: row-major (rows, m) blocks
    # for the Erlang sums, one vector per term for the geometric-mean sum.
    GOLDEN = {
        "cdf": "d62168e9541a3db5efa5eb81c318ceec4165bf3f2c1bfe4e1f133b5d21e7ebda",
        "lemma4": "b2647dc876adb3027e170a2afbf013204d741db6e9e94355a6f3c02f8cff7632",
        "lemma5": "d246192995d9c180bc1f9a2000f1ce78a260fe4e2e652873c30580f126199561",
        "lemma6": "02229dfb07c4ce5b776434cc76be6b033d4d63ec1ae2c2581b0dedc6e3959627",
    }

    @pytest.mark.parametrize("suite", sorted(GOLDEN))
    def test_golden_digest(self, suite):
        code, out, _ = invoke(
            ["tailcheck", "--suite", suite, "--samples", "20000", "--seed", "4"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[suite]


class TestUsage:
    def test_unknown_subcommand(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_missing_file_is_validation_failure(self):
        code, _, err = invoke(["run", "/nonexistent/graph.txt"])
        assert code == 1
        assert "error:" in err

    def test_malformed_graph(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n0 1\n0 1 1.0\n")  # header claims two edges
        code, _, err = invoke(["run", str(path)])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("5 -1 2\n", "error: negative count in header '5 -1 2'"),
            ("3 -2 2\n", "error: negative count in header '3 -2 2'"),
            ("3 2 -1\n0\n0 1 1\n1 2 1\n", "error: negative count in header '3 2 -1'"),
        ],
        ids=["m-past-the-lines", "m", "k"],
    )
    def test_negative_header_count_exits_one(self, tmp_path, text, line):
        path = tmp_path / "neg.txt"
        path.write_text(text)
        code, out, err = invoke(["run", "--seed", "0", str(path)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [line]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 0 0\n", "error: header '0 0 0' has k = 0; an instance needs at least two terminals"),
            ("2 1 2\n", "error: missing terminal line after header '2 1 2'"),
            ("3 2 0\n", "error: header '3 2 0' has k = 0; an instance needs at least two terminals"),
            ("3 2 2\n0 2\n0 1 1\n", "error: expected 2 edge lines, found 1"),
        ],
        ids=["empty-header", "header-only", "header-only-k0", "few-edges"],
    )
    def test_missing_lines_exit_one(self, tmp_path, text, line):
        path = tmp_path / "short.txt"
        path.write_text(text)
        code, out, err = invoke(["run", "--seed", "0", str(path)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [line]

    @pytest.mark.parametrize(
        "text, k", [("3 2 0\n\n0 1 1\n1 2 1\n", 0), ("3 2 1\n0\n0 1 1\n1 2 1\n", 1)], ids=["k0", "k1"]
    )
    def test_too_few_terminals_are_refused_at_the_header(self, tmp_path, text, k):
        path = tmp_path / "few.txt"
        path.write_text(text)
        code, out, err = invoke(["run", "--seed", "0", str(path)])
        assert (code, out) == (1, "")
        header = text.splitlines()[0]
        assert err.splitlines() == [
            f"error: header {header!r} has k = {k}; an instance needs at least two terminals"
        ]

    def test_program_fault_propagates(self, star_file, monkeypatch):
        # No bad input raises KeyError, so one is a fault in the program:
        # it surfaces with its traceback, not as an "error:" line.
        def fault(path):
            raise KeyError((3, 5))

        monkeypatch.setattr(cli, "load_instance", fault)
        with pytest.raises(KeyError):
            main(["run", "--seed", "0", star_file])

    def test_crlf_and_comments_accepted(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(STAR.replace("\n", "\r\n").encode())
        code, out, _ = invoke(["run", "--seed", "2", str(path)])
        assert code == 0
        assert json.loads(out)["distortion"] >= 1.0


class TestExtremeWeights:
    INPUTS = {
        "overflowing-pair": "3 2 2\n0 2\n0 1 1e308\n1 2 1e308\n",
        "1e307-path": "3 2 2\n0 2\n0 1 1e307\n1 2 0.5\n",
    }

    @pytest.mark.parametrize("mode", [[], ["--no-preprocess"]], ids=["preprocess", "raw"])
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_exits_one_with_one_error_line(self, tmp_path, name, mode):
        path = tmp_path / "g.txt"
        path.write_text(self.INPUTS[name])
        code, out, err = invoke(["run", "--seed", "0", *mode, str(path)])
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1

    def test_swallowed_weight_in_preprocessing(self, tmp_path):
        # 1e16 + 0.5 rounds to 1e16: the canonical path 0 -> 1 is undefined.
        path = tmp_path / "g.txt"
        path.write_text("3 2 2\n0 1\n0 2 1e16\n1 2 0.5\n")
        code, out, err = invoke(["run", "--seed", "0", str(path)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: edge (2, 1) of weight 0.5 is lost to rounding at distance 1e+16 from vertex 0"
        ]

    def test_lost_weight_off_the_terminal_paths(self, tmp_path):
        # 1e16 + 0.5 rounds to 1e16 on edge (2, 3), which lies on no
        # terminal-to-terminal shortest path; preprocessing never labels it.
        path = tmp_path / "g.txt"
        path.write_text("4 3 2\n0 1\n0 1 1\n0 2 1e16\n2 3 0.5\n")
        code, out, err = invoke(["run", "--seed", "0", str(path)])
        assert code == 0
        assert json.loads(out)["distortion"] == 1.0
        assert "error" not in err


class TestFlagRanges:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("run", "--seed", "-1"),
            ("run", "--seed", str(2**64)),
            ("run", "--delta", "0"),
            ("run", "--delta", "nan"),
            ("run", "--c1", "-5"),
            ("run", "--max-rounds", "0"),
            ("experiment", "--trials", "0"),
            ("tailcheck", "--samples", "10"),
        ],
    )
    def test_out_of_range_exits_two(self, star_file, command, flag, value):
        rest = {
            "run": [star_file],
            "experiment": ["--graph", star_file],
            "tailcheck": ["--suite", "lemma4"],
        }[command]
        code, out, err = invoke([command, flag, value, *rest])
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"argument {flag}:" in errors[0]

    EXTREMES = [
        *("nan", "-nan", "inf", "-inf", "-0", "0", "+1", "1_0", "\u0661"),
        *("1e308", "-1e308", "5e-324", "1e-300", "0x10", "0x1p-3"),
        *(str(2**64), str(2**64 - 1), "", " "),
    ]
    FLOAT_FLAGS = ("--delta", "--c1", "--c2", "--c3")
    FLAGS = ("--seed", *FLOAT_FLAGS, "--max-rounds", "--trials")

    @pytest.fixture(scope="class")
    def four_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "star.txt"
        path.write_text(STAR)
        return str(path)

    def check_flag_value(self, graph_file, flag, value):
        kind = float if flag in self.FLOAT_FLAGS else int
        try:
            number = kind(value)
        except ValueError:
            number = None
        # Many trials take long, which is slow, not wrong.
        if flag == "--trials" and number is not None and number > 3:
            return False
        if flag == "--trials":
            argv = ["experiment", "--seed", "0", flag, value, "--graph", graph_file]
        else:
            seed = [] if flag == "--seed" else ["--seed", "0"]
            argv = ["run", *seed, flag, value, graph_file]
        code, _, err = invoke(argv)
        assert code in (0, 1, 2), (flag, value)
        assert "Traceback" not in err, (flag, value)
        assert sum("error:" in line for line in err.splitlines()) <= 1, (flag, value)
        return True

    @pytest.mark.parametrize("flag", FLAGS)
    def test_extreme_values_end_in_one_error_line(self, four_file, flag):
        # Several extremes ("+1", "1e308", 2**64, ...) parse to a delta past
        # 1/2: the CLI prints that as one stderr line, not a Python warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for value in self.EXTREMES:
                self.check_flag_value(four_file, flag, value)

    @pytest.mark.parametrize("command", ["run", "experiment"])
    def test_delta_outside_regime_is_one_warning_line(self, star_file, command):
        graph = [star_file] if command == "run" else ["--trials", "1", "--graph", star_file]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke([command, "--seed", "1", "--delta", "0.75", *graph])
        assert code == 0 and out
        assert err.splitlines() == [
            "seed: 1",
            "warning: delta=0.75 is outside the analyzed regime (> 1/2)",
        ]

    @given(flag=st.sampled_from(FLAGS), value=st.text(max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_values_end_in_one_error_line(self, four_file, flag, value):
        assume(self.check_flag_value(four_file, flag, value))

    def test_samples_floor_is_named(self):
        code, out, err = invoke(["tailcheck", "--suite", "lemma4", "--samples", "9999"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "spr tailcheck: error: argument --samples: must be at least 10000, got 9999"
        )

    def test_growth_rate_of_one_is_refused(self, star_file):
        # 1 + 1e-300 / log 3 rounds to 1: the round means would never grow.
        code, out, err = invoke(["run", "--seed", "0", "--delta", "1e-300", star_file])
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == (
            "error: growth rate 1.0 does not exceed 1; the round means would never grow"
        )

    def test_runaway_round_cap_is_refused_at_once(self, star_file, monkeypatch):
        def no_growth(*args):
            raise AssertionError("the growth loop started")

        monkeypatch.setattr(ball_growing._Frontier, "grow", no_growth)
        code, out, err = invoke(["run", "--seed", "0", "--delta", "1e-8", star_file])
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert "delta=1e-08" in line
        assert "raise --delta or pass --max-rounds" in line

    def test_explicit_max_rounds_is_honoured_at_a_tiny_delta(self, star_file):
        code, out, err = invoke(
            ["run", "--seed", "0", "--delta", "1e-8", "--max-rounds", "3", star_file]
        )
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error: round cap 3 reached with 1 vertices unassigned"

    def test_defaults_come_from_growth_params(self, star_file):
        args = _build_parser().parse_args(["run", star_file])
        defaults = GrowthParams()
        assert (args.delta, args.c1, args.c2, args.c3, args.max_rounds) == (
            defaults.delta,
            defaults.c1,
            defaults.c2,
            defaults.c3,
            defaults.max_rounds,
        )


class TestCyclicGC:
    """``main`` runs each command with the cyclic collector off."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_gc(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("case, code", [("success", 0), ("error", 1), ("usage", 2)])
    def test_handler_runs_without_gc_and_state_is_restored(
        self, caller_gc, star_file, tmp_path, monkeypatch, case, code
    ):
        seen = []
        original = cli.cmd_run

        def spy(args):
            seen.append(gc.isenabled())
            return original(args)

        monkeypatch.setattr(cli, "cmd_run", spy)
        graph = str(tmp_path / "missing.txt") if case == "error" else star_file
        flags = ["--delta", "0"] if case == "usage" else ["--seed", "1"]
        assert invoke(["run", *flags, graph])[0] == code
        assert seen == ([] if case == "usage" else [False])
        assert gc.isenabled() is caller_gc

    def test_cyclic_garbage_does_not_grow_with_the_work(self, tmp_path):
        # What a command leaves for the collector is the argument parser and
        # the JSON encoders, a fixed few hundred objects.
        small, large = str(tmp_path / "small.txt"), str(tmp_path / "large.txt")
        Path(small).write_text(format_graph_text(random_connected_instance(5, n=30, k=4)))
        Path(large).write_text(format_graph_text(random_connected_instance(5, n=300, k=8)))
        run = ["run", "--seed", "1", "--no-preprocess", "--trace", str(tmp_path / "t.json")]
        experiment = ["experiment", "--seed", "1", "--graph"]

        def garbage(argv):
            gc.collect()
            assert invoke(argv)[0] == 0
            return gc.collect()

        for few, many in (
            ([*run, small], [*run, large]),
            ([*experiment, small, "--trials", "1"], [*experiment, large, "--trials", "4"]),
        ):
            garbage(few)  # warm-up: first-call caches
            assert garbage(few) == garbage(many)


class TestNumpyOffThePipeline:
    # Which optional modules each command loads, in order, in a fresh
    # interpreter: the in-process CLI tests run where all are imported.
    SCRIPT = """
import json, sys
from spr.cli import main
graph, star, part, out = sys.argv[1:5]
WATCHED = ("spr.analysis", "spr.tail_bounds", "statistics", "numpy", "csv")
report = {}
for argv in (
    ["run", "--seed", "1", "--trace", out + "/trace.json", graph],
    ["preprocess", graph, "-o", out + "/minor.txt"],
    ["eval", star, part],
    ["oracle", star],
    ["experiment", "--graph", graph, "--trials", "2", "--seed", "1"],
    ["tailcheck", "--suite", "cdf", "--samples", "20000", "--seed", "4"],
):
    code = main(argv)
    report[argv[0]] = [code, [name for name in WATCHED if name in sys.modules]]
print(json.dumps(report))
"""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("imports")
        graph, star, part = out / "random.txt", out / "star.txt", out / "part.json"
        graph.write_text(format_graph_text(random_connected_instance(21, n=30, k=4)))
        star.write_text(STAR)
        part.write_text(json.dumps({"assignment": [0, 1, 2, 0]}))
        src = str(Path(spr.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(graph), str(star), str(part), str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def test_pipeline_commands_skip_analysis_and_tail_bounds(self, report):
        for command in ("run", "preprocess", "eval", "oracle"):
            assert report[command] == [0, []], command

    def test_experiment_loads_analysis(self, report):
        assert report["experiment"] == [0, ["spr.analysis", "statistics"]]

    def test_only_tailcheck_imports_numpy(self, report):
        assert report["tailcheck"] == [0, ["spr.analysis", "spr.tail_bounds", "statistics", "numpy"]]
