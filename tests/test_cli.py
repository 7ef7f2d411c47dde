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
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spr
from spr import (
    GrowthParams,
    WeightedGraph,
    exact_minor,
    format_graph_text,
    load_instance,
    parse_graph_text,
    replay_trace,
    trial,
)
from spr import ball_growing, cli, partition
from spr.ball_growing import RoundRecord, RunTrace
from spr.cli import _build_parser, main

from conftest import invoke, random_connected_instance, subdivide

GOLDEN_GRAPH = Path(__file__).parent / "data" / "golden-non-dyadic.txt"
SUBDIVIDED_GRAPH = Path(__file__).parent / "data" / "golden-subdivided.txt"

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

    @staticmethod
    def read_trace(path):
        """The rounds of a ``--trace`` file as a RunTrace; index and terminal must be positions."""
        data = json.loads(path.read_text())
        rounds = []
        for index, record in enumerate(data["rounds"]):
            assert record["index"] == index
            draws = record["draws"]
            assert [draw["terminal"] for draw in draws] == list(range(len(draws)))
            rounds.append(RoundRecord(record["mean"], tuple(draw["value"] for draw in draws)))
        echo = data["params"]
        names = ("delta", "c1", "c2", "c3", "max_rounds", "seed")
        params = GrowthParams(**{name: echo[name] for name in names})
        return RunTrace(params, data["base_mean"], data["growth_rate"], data["round_cap"], rounds, [])

    @pytest.mark.parametrize("preprocess", [True, False], ids=["default", "no-preprocess"])
    @pytest.mark.parametrize("graph", ["golden", "subdivided"])
    def test_trace_replays_to_the_printed_assignment(self, tmp_path, graph, preprocess):
        if graph == "golden":
            path = GOLDEN_GRAPH
        else:
            path = tmp_path / "g.txt"
            path.write_text(format_graph_text(subdivide(random_connected_instance(31, n=40, k=6), parts=3)))
        trace_path = tmp_path / "trace.json"
        argv = ["run", "--seed", "1", "--trace", str(trace_path), str(path)]
        code, out, _ = invoke(argv if preprocess else [*argv, "--no-preprocess"])
        assert code == 0
        inst = load_instance(path)
        if preprocess:
            inst = exact_minor(inst).minor
        trace = self.read_trace(trace_path)
        assert trace.total_rounds > 1
        assert list(replay_trace(inst, trace).assignment) == json.loads(out)["assignment"]

    def test_large_side_file_is_written_without_a_copy(self, tmp_path):
        # A trace of several MB reaches its file neither joined with its
        # newline nor encoded whole: either copy would set the command's
        # peak memory.
        text = "".join(f'{{"vertex": {v}, "terminal": 3}},\n' for v in range(60_000))
        path = tmp_path / "big.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._publish("", {str(path): (text, "\n")})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == (text + "\n").encode()
        assert len(text) > 1_500_000 and peak < len(text) / 4

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


class TestSideFileTargets:
    """A file a command writes never replaces its input: refused before any work."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--seed", "0", "IN", "--trace", "IN"], "--trace IN"),
            (["run", "--seed", "0", "--no-preprocess", "IN", "--trace", "LINK"], "--trace LINK"),
            (["experiment", "--seed", "0", "--trials", "1", "--graph", "IN", "--csv", "DOTTED"], "--csv DOTTED"),
            (["preprocess", "IN", "-o", "IN"], "--output IN"),
            (["preprocess", "IN", "--sidecar", "IN"], "--sidecar IN"),
            (["preprocess", "IN", "-o", "STEM"], "--sidecar IN"),  # the <output>.json default
        ],
        ids=["run", "run-symlink", "experiment-dotted", "preprocess-output", "preprocess-sidecar", "preprocess-default-sidecar"],
    )
    def test_input_is_never_replaced(self, tmp_path, monkeypatch, argv, message):
        def reached(path):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "load_instance", reached)
        graph = tmp_path / "g.txt.json"
        graph.write_text(STAR)
        (tmp_path / "link").symlink_to(graph)
        names = {
            "IN": str(graph),
            "LINK": str(tmp_path / "link"),
            "DOTTED": f"{tmp_path}/./g.txt.json",
            "STEM": str(tmp_path / "g.txt"),
        }
        flag, target = message.split()
        code, out, err = invoke([names.get(word, word) for word in argv])
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {flag} {names[target]} names the input graph"]
        assert graph.read_text() == STAR
        assert file_names(tmp_path) == ["g.txt.json", "link"]


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

    def test_each_disconnected_cell_lists_its_unreached_vertices(self, tmp_path):
        graph = tmp_path / "path.txt"
        graph.write_text("4 3 2\n0 3\n0 1 1\n1 2 1\n2 3 1\n")
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"assignment": [0, 1, 0, 1]}))
        code, out, err = invoke(["eval", str(graph), str(part)])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: invalid partition: cell 0 disconnected: [2] unreachable from terminal 0; "
            "cell 1 disconnected: [1] unreachable from terminal 3"
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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        part_bytes = json.dumps({"assignment": [0, 1, 2, 0]}).encode()
        files = {}
        for name, data in (("g", STAR.encode()), ("p", part_bytes)):
            for prefix in (b"", bom):
                path = tmp_path / f"{name}{len(prefix)}"
                path.write_bytes(prefix + data)
                files[name, prefix] = str(path)
        plain = invoke(["eval", files["g", b""], files["p", b""]])
        assert plain[0] == 0
        for g, p in ((bom, b""), (b"", bom), (bom, bom)):
            assert invoke(["eval", files["g", g], files["p", p]]) == plain
        for extra in ([], ["--no-preprocess"]):
            runs = [invoke(["run", "--seed", "3", *extra, files["g", g]]) for g in (b"", bom)]
            assert runs[0][0] == 0
            assert runs[1] == runs[0]

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


class TestValidateOnce:
    """Each partition is validated exactly once, inside ``contract``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # validate and contract both run the checks through this one helper.
        seen = []
        original = partition._check_cells

        def counting(inst, part):
            seen.append(part)
            return original(inst, part)

        monkeypatch.setattr(partition, "_check_cells", counting)
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
        table = tmp_path / "trials.csv"
        code, out, _ = invoke(
            ["experiment", "--graph", str(GOLDEN_GRAPH), "--trials", "3", "--seed", "2",
             "--no-preprocess", "--c2", "5", "--c3", "0.5", "--csv", str(table)]
        )
        assert code == 0
        assert '"many": 85' in out
        digest = hashlib.sha256(out.encode() + table.read_bytes()).hexdigest()
        assert digest == "341e3c250c9791addc7257fd4abf52bb10fb06e720ed7063a4ea86c1292a89d9"


class TestTrialIsRun:
    """Experiment trial t with seed s is ``spr run --seed (s + t) mod 2**64``."""

    @staticmethod
    def run_printed(graph, seed, mode, trace):
        code, out, _ = invoke(["run", str(graph), "--seed", str(seed), "--trace", str(trace), *mode])
        assert code == 0
        return json.loads(out), json.loads(trace.read_text())

    @pytest.mark.parametrize("mode", [[], ["--no-preprocess"]], ids=["preprocess", "raw"])
    @pytest.mark.parametrize("graph", [GOLDEN_GRAPH, SUBDIVIDED_GRAPH], ids=["non-dyadic", "subdivided"])
    def test_each_trial_is_a_run(self, tmp_path, graph, mode):
        code, out, _ = invoke(["experiment", "--graph", str(graph), "--trials", "3", "--seed", "0", *mode])
        assert code == 0
        rows = json.loads(out)["results"]
        inst = load_instance(str(graph))
        work = inst if mode else exact_minor(inst).minor
        assert [row["trial"] for row in rows] == [0, 1, 2]
        for t, row in enumerate(rows):
            printed, trace = self.run_printed(graph, t, mode, tmp_path / "trace.json")
            assert (row["seed"], row["distortion"]) == (printed["seed"], printed["distortion"])
            assert row["rounds"] == trace["total_rounds"]
            part, _, _ = trial(work, GrowthParams(seed=t))
            assert list(part.assignment) == printed["assignment"]

    def test_trial_seeds_wrap_at_two_to_the_64(self, tmp_path):
        argv = ["experiment", "--graph", str(GOLDEN_GRAPH), "--trials", "2", "--seed", str(2**64 - 1)]
        code, out, _ = invoke(argv)
        assert code == 0
        row = json.loads(out)["results"][1]
        printed, trace = self.run_printed(GOLDEN_GRAPH, 0, [], tmp_path / "trace.json")
        assert (row["seed"], row["distortion"], row["rounds"]) == (
            0,
            printed["distortion"],
            trace["total_rounds"],
        )


class TestGoldenSubdivided:
    """Every command on an integer graph whose edges are split in 4, so chains are folded.

    The file is ``perfbench/gen.py``'s ``subdivide(sparse_random_instance(7,
    40, 5), 4)``: 274 vertices, 312 edges, 5 terminals.
    """

    # sha256 of stdout followed by each side file ("SIDE", then for
    # preprocess its sidecar "SIDE.json"), as the skeleton that pre-filled
    # every chain at a closure vertex produced them.
    GOLDEN = {
        "run": (
            ["run", "G", "--seed", "0", "--trace", "SIDE"],
            "b9516c4748c57ac6052943e0ada4266fafd6c4bd42905253aedf98fd341943e6",
        ),
        "run-no-preprocess": (
            ["run", "G", "--seed", "0", "--no-preprocess", "--trace", "SIDE"],
            "efdd4a75fdbb52d7ff64450d834279ecd329f04d11673afcd0c4c8f8e79440fc",
        ),
        "preprocess": (
            ["preprocess", "G", "-o", "SIDE"],
            "8da1e678027c5139eec872286e4f812d231b421be594888252ecc0c9ed93e2b1",
        ),
        "experiment": (
            ["experiment", "--graph", "G", "--trials", "2", "--seed", "0"],
            "764dadb6076fe70a063bc122268358d77d80ed29cae008955b15149139711bcf",
        ),
        "experiment-no-preprocess": (
            ["experiment", "--graph", "G", "--trials", "2", "--seed", "0", "--no-preprocess"],
            "8b409e76e84662877e489330be0f74567706560caaad0dba66caca0d449b8c44",
        ),
    }

    @pytest.mark.parametrize("command", list(GOLDEN))
    def test_golden_digest(self, tmp_path, command):
        argv, digest = self.GOLDEN[command]
        side = tmp_path / "side"
        names = {"G": str(SUBDIVIDED_GRAPH), "SIDE": str(side)}
        code, out, _ = invoke([names.get(arg, arg) for arg in argv])
        assert code == 0
        blob = out.encode()
        for path in (side, tmp_path / "side.json"):
            if path.exists():
                blob += path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestTailcheck:
    # Names that mention samples are kept as stable test ids; no suite
    # takes a sample count.

    def test_lemma6_suite(self):
        code, out, _ = invoke(["tailcheck", "--suite", "lemma6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["rows"]) == 12

    def test_lemma4_suite_small_samples(self):
        code, out, _ = invoke(["tailcheck", "--suite", "lemma4"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 20
        assert all(row["pass"] for row in rows)

    def test_lemma5_suite_small_samples(self):
        code, out, _ = invoke(["tailcheck", "--suite", "lemma5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert [row["k"] for row in payload["rows"]] == [4, 10]
        for row in payload["rows"]:
            assert sorted(row) == ["M", "bound", "chernoff", "delta", "k", "pass", "threshold"]
            assert 0.0 < row["chernoff"] <= row["bound"]

    def test_cdf_suite_small_samples(self):
        code, out, _ = invoke(["tailcheck", "--suite", "cdf"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 16
        assert all(row["pass"] and "poisson" in row for row in rows)

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 7.28 TiB for an array", "error: Unable to allocate 7.28 TiB for an array"),
            ("", "error: out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_sample_count_too_large_to_allocate_exits_one(self, monkeypatch, message, line):
        # An allocation that fails inside a command is one error line, not a
        # traceback.  The evaluation is replaced: no suite allocates that much.
        from spr import tail_bounds

        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(tail_bounds, "geometric_tail_chernoff", refuse)
        code, out, err = invoke(["tailcheck", "--suite", "lemma5"])
        assert (code, out) == (1, "")
        assert err.splitlines() == [line]

    # sha256 of stdout.  Every column is a deterministic evaluation.
    GOLDEN = {
        "cdf": "52ebf8debb7c25b9e4d7b7bc91c744c76ab7128e33d77a79e59e6d9b21f4dfdc",
        "lemma4": "fc50df19f6102df1ab603594388afe181a57cb84d41af49e272e202060ebc8fa",
        "lemma5": "74bea1308294d89f994d27e4fe5f5da5b158ddeadab04e8f81d5432101cf5b65",
        "lemma6": "b353d554be81c371614a971190c1b9d06d7c6fa4412728e45afd39e913879023",
    }

    @pytest.mark.parametrize("suite", sorted(GOLDEN))
    def test_golden_digest(self, suite):
        code, out, _ = invoke(["tailcheck", "--suite", suite])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[suite]

    @pytest.mark.parametrize("suite", sorted(GOLDEN))
    def test_two_runs_print_the_same_bytes(self, suite):
        first, second = invoke(["tailcheck", "--suite", suite]), invoke(["tailcheck", "--suite", suite])
        assert first == second
        assert first[2] == ""
        payload = json.loads(first[1])
        assert payload["schema_version"] == 2
        assert "seed" not in payload

    @pytest.mark.parametrize("flag", ["--seed", "--samples"])
    def test_takes_no_seed_or_sample_count(self, flag):
        code, out, err = invoke(["tailcheck", "--suite", "lemma4", flag, "20000"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"spr: error: unrecognized arguments: {flag} 20000"

    @pytest.mark.parametrize(
        "suite, name", [("lemma4", "lemma4_bound"), ("lemma5", "lemma5_bound"), ("lemma6", "lemma6_bound")]
    )
    def test_a_bound_scaled_down_fails_the_suite(self, monkeypatch, suite, name):
        from spr import tail_bounds

        bound = getattr(tail_bounds, name)
        monkeypatch.setattr(tail_bounds, name, lambda *args: bound(*args) * 1e-20)
        code, out, _ = invoke(["tailcheck", "--suite", suite])
        assert code == 1
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("evaluation", ["erlang_cdf_lower", "erlang_cdf_lower_poisson"])
    def test_one_shifted_cdf_evaluation_fails_the_suite(self, monkeypatch, evaluation):
        from spr import tail_bounds

        value = getattr(tail_bounds, evaluation)

        def shifted(m, x):
            return value(m, x) + (1e-10 if (m, x) == (5, 5.0) else 0.0)

        monkeypatch.setattr(tail_bounds, evaluation, shifted)
        code, out, _ = invoke(["tailcheck", "--suite", "cdf"])
        assert code == 1
        failed = [(row["m"], row["x"]) for row in json.loads(out)["rows"] if not row["pass"]]
        assert failed == [(5, 5.0)]


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

    def test_disconnected_graph_with_enough_edges_exits_one(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("4 3 2\n0 3\n0 1 1\n1 2 1\n0 2 1\n")
        code, out, err = invoke(["run", "--seed", "0", str(path)])
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: graph has 4 vertices but only 3 reachable from 0"]

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

    OFF_PATH = "4 3 2\n0 1\n0 1 1\n0 2 1e16\n2 3 0.5\n"
    ON_PATH = "3 2 2\n0 1\n0 2 1e16\n1 2 0.5\n"
    COMMANDS = {  # plain `run` is test_lost_weight_off_the_terminal_paths
        "run-raw": ["run", "--seed", "0", "--no-preprocess"],
        "preprocess": ["preprocess"],
        "experiment": ["experiment", "--seed", "0", "--trials", "2", "--graph"],
        "experiment-raw": ["experiment", "--seed", "0", "--trials", "2", "--no-preprocess", "--graph"],
    }

    @pytest.mark.parametrize("name", [*sorted(INPUTS), "on-path"])
    def test_run_and_experiment_print_the_same_error(self, tmp_path, name):
        # Both load and reduce the input before they print the seed line.
        path = tmp_path / "g.txt"
        path.write_text(self.INPUTS.get(name, self.ON_PATH))
        ran = invoke(["run", "--seed", "0", str(path)])
        experimented = invoke(["experiment", "--seed", "0", "--trials", "1", "--graph", str(path)])
        assert ran == experimented
        code, out, err = ran
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_ignores_a_lost_weight_off_the_terminal_paths(self, tmp_path, command):
        # Only the terminal paths are labelled, whichever command reads them.
        path = tmp_path / "g.txt"
        path.write_text(self.OFF_PATH)
        code, out, err = invoke([*self.COMMANDS[command], str(path)])
        assert code == 0, err
        assert out and "error" not in err

    @pytest.mark.parametrize("extra", [[], ["--max-rounds", "5", "--trace"]], ids=["derived-cap", "traced"])
    def test_overflowing_base_mean_exits_one(self, tmp_path, extra):
        # delta / (100 ln 2) * 1000 overflows to inf: the derived cap would
        # take log(0) and the trace would hold an inf.
        path = tmp_path / "g.txt"
        path.write_text("3 2 2\n0 2\n0 1 1000\n1 2 1000\n")
        argv = ["run", str(path), "--no-preprocess", "--seed", "0", "--delta", "1e308", *extra]
        if extra:
            argv.append(str(tmp_path / "t.json"))
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: base mean overflows at smallest D_v 1000.0, delta 1e+308"
        ]
        assert file_names(tmp_path) == ["g.txt"]

    @pytest.mark.parametrize("mode", [[], ["--no-preprocess"]], ids=["preprocess", "raw"])
    def test_experiment_exits_one_on_a_lost_weight_on_a_terminal_path(self, tmp_path, mode):
        path = tmp_path / "g.txt"
        path.write_text(self.ON_PATH)
        code, out, err = invoke(["experiment", "--seed", "0", "--trials", "2", *mode, "--graph", str(path)])
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: edge (2, 1) of weight 0.5 is lost to rounding at distance 1e+16 from vertex 0"
        ]
        assert "Traceback" not in err


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
        ],
    )
    def test_out_of_range_exits_two(self, star_file, command, flag, value):
        rest = {
            "run": [star_file],
            "experiment": ["--graph", star_file],
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
WATCHED = ("spr.analysis", "spr.tail_bounds", "statistics", "dataclasses", "numpy", "csv")
report = {}
for argv in (
    ["run", "--seed", "1", "--trace", out + "/trace.json", graph],
    ["preprocess", graph, "-o", out + "/minor.txt"],
    ["eval", star, part],
    ["experiment", "--graph", graph, "--trials", "2", "--seed", "1"],
    ["tailcheck", "--suite", "cdf"],
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
        for command in ("run", "preprocess", "eval"):
            assert report[command] == [0, []], command

    def test_experiment_loads_analysis(self, report):
        assert report["experiment"] == [0, ["spr.analysis"]]

    def test_no_command_imports_numpy(self, report):
        assert report["tailcheck"] == [0, ["spr.analysis", "spr.tail_bounds"]]
