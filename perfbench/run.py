"""End-to-end benchmark of the ``spr`` command line, with a traced split.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload raw-grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 40

Each operation is one ``spr`` command run as its own process, the way users
run it, one at a time (closed loop, a single client). The program is taken
from ``src/`` of the checkout; nothing is installed. See perfbench/README.md
for the workloads, the metrics and the layer -> end-to-end map.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates an untraced command with the same command run
under ``tracer.py`` and reports the per-layer split, averaged per traced
command, plus the tracing overhead. ``--all`` runs every workload both
ways and prints one table. The last line of stdout is always one JSON
object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
COMMAND_TIMEOUT_S = 60.0
SPR_MAIN = "import sys; from spr.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], tuple]
    # (graph path, spr seed, trace path) -> spr arguments
    argv: Callable[[str, int, str], list[str]]
    # Graphs per run, command i on graph i % pool; None: a new graph per command.
    pool: int | None
    # The run executes on the preprocessed minor, not on the input graph.
    preprocessed: bool = False
    experiment: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "raw-grid",
            lambda s: gen.grid_instance(s, 150, 150, 8),
            lambda g, s, t: ["run", "--no-preprocess", "--trace", t, "--seed", str(s), g],
            pool=None,
        ),
        Workload(
            "pre-subdiv",
            lambda s: gen.subdivide(gen.sparse_random_instance(s, 2000, 16), 5),
            lambda g, s, t: ["run", "--trace", t, "--seed", str(s), g],
            pool=2,
            preprocessed=True,
        ),
        Workload(
            "experiment",
            lambda s: gen.sparse_random_instance(s, 5000, 32),
            lambda g, s, t: ["experiment", "--graph", g, "--trials", "8", "--seed", str(s)],
            pool=None,
            experiment=True,
        ),
    )
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- processes ------------------------------------------------------------


@dataclass
class Outcome:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    spawn: float  # time.monotonic() just before the spawn; wall starts there
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], cwd: Path, tag: str) -> Outcome:
    """Run one process to completion; wall from spawn to exit, rusage of it."""
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)})
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        start,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


def spr_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", SPR_MAIN, *args]


def build(work: Path) -> dict:
    """Check that ``spr`` imports from this checkout and compile its bytecode.

    Returns the interpreter and numpy versions the commands run with.
    """
    if not (SRC / "spr" / "cli.py").is_file():
        raise BenchError(f"program source not found: {SRC / 'spr' / 'cli.py'}")
    # As an installed package would be: commands then load bytecode even
    # where PYTHONDONTWRITEBYTECODE stops them from writing it.
    res = spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "spr")], work, "compile")
    if res.code != 0:
        raise BenchError("cannot compile spr: " + res.stdout.decode()[-500:])
    probe = "import numpy, spr, spr.cli, sys; print(spr.__file__); print(numpy.__version__)"
    res = spawn([sys.executable, "-c", probe], work, "build")
    lines = res.stdout.decode().split()
    if res.code != 0 or len(lines) != 2:
        raise BenchError("cannot import spr: " + res.stderr.decode()[-500:])
    if Path(lines[0]).resolve().parent != (SRC / "spr").resolve():
        raise BenchError(f"spr imported from {lines[0]}, not from {SRC}")
    return {"python": platform.python_version(), "numpy": lines[1]}


# -- correctness ----------------------------------------------------------


def cells_ok(adj: list[list[int]], terminals: list[int], assignment) -> str | None:
    """Every vertex in some cell; each cell holds its terminal and is connected."""
    n, k = len(adj), len(terminals)
    if not isinstance(assignment, list) or len(assignment) != n:
        return "assignment does not cover every vertex"
    sizes = [0] * k
    for c in assignment:
        if type(c) is not int or not 0 <= c < k:
            return f"assignment entry {c!r} is not a cell index"
        sizes[c] += 1
    for j, t in enumerate(terminals):
        if assignment[t] != j:
            return f"terminal {t} is not in its own cell"
        seen = {t}
        stack = [t]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if assignment[v] == j and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != sizes[j]:
            return f"cell {j} is not connected"
    return None


def parse_graph(text: str):
    """(adjacency, terminals) of a graph file in the CLI's format."""
    lines = [line for line in text.splitlines() if line.strip()]
    n = int(lines[0].split()[0])
    terminals = [int(x) for x in lines[1].split()]
    adj: list[list[int]] = [[] for _ in range(n)]
    for line in lines[2:]:
        u, v, _ = line.split()
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    return adj, terminals


def check_output(w: Workload, graph, out: Outcome, seed: int, trace_bytes: bytes) -> str | None:
    """None when the command's output is correct, else the reason it is not."""
    if out.code != 0:
        return f"exit code {out.code}: {out.stderr.decode()[-300:]}"
    try:
        payload = json.loads(out.stdout)
        if payload["schema_version"] != 1:
            return "stdout lacks schema_version 1"
        if payload["seed"] != seed:
            return f"seed {payload['seed']!r} != {seed}"
        if w.experiment:
            return _check_experiment(graph, payload)
        if not payload["distortion"] >= 1.0:
            return f"distortion {payload['distortion']!r} < 1"
        reason = cells_ok(*graph, payload["assignment"])
        if reason:
            return reason
        trace = json.loads(trace_bytes)
        if trace["schema_version"] != 1 or len(trace["events"]) != len(graph[0]) - len(graph[1]):
            return "trace does not record one event per non-terminal"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    return None


def _check_experiment(graph, payload) -> str | None:
    adj, terminals = graph
    summary = payload["graph"]
    if summary["vertices"] != len(adj) or summary["terminals"] != len(terminals):
        return "graph summary does not match the input"
    results = payload["results"]
    if len(results) != 8:
        return "expected 8 trial results"
    for row in results:
        if not row["distortion"] >= 1.0:
            return f"trial {row['trial']} distortion {row['distortion']} < 1"
        if row["detour"]["violations"] != 0:
            return f"trial {row['trial']} has a detour walk shorter than the minor distance"
    return None


# -- one run --------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def _loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """Set-up, then commands until the time is up, for one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.problems: list[str] = []  # set-up and digest failures: the run is wrong
        self.setup_times: list[float] = []
        self.graphs: dict[int, tuple] = {}  # graph -> (adjacency, terminals) the run executes on
        self.expected: dict[int, bytes] = {}  # command -> output fixed by set-up

    # -- set-up

    def setup(self) -> None:
        """Untimed checks that run before the measuring window."""
        for j in range(self.w.pool or 0):
            self.prepare(j)

    def prepare(self, i: int) -> None:
        """Generate and write command i's graph, timed as one set-up sample.

        Pool graphs are rewritten, with the same bytes, before every command
        that uses them, so set-up is sampled across the whole window, like
        the commands.
        """
        j = self.graph_index(i)
        start = time.perf_counter()
        instance = self.w.make(self.seed * 1000 + j)
        self.graph_file(j).write_text(gen.format_graph(instance))
        self.setup_times.append(time.perf_counter() - start)
        if j in self.graphs:
            return
        if not self.w.pool:
            self.graphs.clear()
        self.graphs[j] = (gen.adjacency(instance), instance[2])
        if self.w.preprocessed:
            self._preprocess_checks(j)

    def graph_index(self, i: int) -> int:
        return i % self.w.pool if self.w.pool else i

    def graph_file(self, j: int) -> Path:
        return self.work / f"g{j}.txt"

    def _preprocess_checks(self, j: int) -> None:
        """The minor is a fixpoint, and running on it equals the default path.

        Command j is the first on graph j; its output must be byte-identical
        to ``run --no-preprocess`` on the minor with the same seed.
        """
        minor = self.work / f"m{j}.txt"
        again = self.work / f"mm{j}.txt"
        for src, dst in ((self.graph_file(j), minor), (minor, again)):
            res = spawn(spr_argv(["preprocess", str(src), "-o", str(dst)]), self.work, "pre")
            if res.code != 0:
                raise BenchError(f"spr preprocess failed: {res.stderr.decode()[-300:]}")
        if minor.read_bytes() != again.read_bytes():
            self.problems.append(f"graph {j}: preprocessing its own output is not the identity")
        trace = self.work / "expected-trace.json"
        argv = ["run", "--no-preprocess", "--trace", str(trace), "--seed", str(self.seed + j), str(minor)]
        res = spawn(spr_argv(argv), self.work, "expected")
        if res.code != 0:
            raise BenchError(f"spr run on the minor failed: {res.stderr.decode()[-300:]}")
        self.expected[j] = res.stdout + trace.read_bytes()
        self.graphs[j] = parse_graph(minor.read_text())

    # -- commands

    def command(self, i: int, traced: bool) -> tuple[Outcome, bytes, dict | None]:
        trace = self.work / f"trace-{i}-{int(traced)}.json"
        args = self.w.argv(str(self.graph_file(self.graph_index(i))), self.seed + i, str(trace))
        spans = None
        if traced:
            spans_file = self.work / f"spans-{i}.pickle"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_file), str(i), "--", *args]
        else:
            argv = spr_argv(args)
        out = spawn(argv, self.work, f"cmd-{i}-{int(traced)}")
        trace_bytes = trace.read_bytes() if trace.exists() else b""
        if traced and spans_file.exists():
            with open(spans_file, "rb") as handle:
                spans = pickle.load(handle)  # written by tracer.py above
            spans_file.unlink()
        if trace.exists():
            trace.unlink()
        return out, trace_bytes, spans

    def verdict(self, i: int, out: Outcome, trace_bytes: bytes) -> str | None:
        reason = check_output(self.w, self.graphs[self.graph_index(i)], out, self.seed + i, trace_bytes)
        if reason is None and i in self.expected and out.stdout + trace_bytes != self.expected[i]:
            reason = "default path differs from --no-preprocess on the preprocessed file"
        return reason

    def loop(self):
        """Command indices while the next one is expected to end in time.

        One index is one iteration: its set-up sample and its command (two
        commands when traced). The first always runs.
        """
        start = time.perf_counter()
        took: list[float] = []
        i = 0
        while not took or time.perf_counter() - start + median(took) <= self.seconds:
            began = time.perf_counter()
            self.prepare(i)
            yield i
            took.append(time.perf_counter() - began)
            i += 1


# -- metrics --------------------------------------------------------------


def self_times(spans: dict) -> tuple[dict, dict, float]:
    """Per span name: total self time and calls; plus the root spans' total."""
    name, start, end, parent = spans["spans"]
    names = spans["names"]
    count = len(start)
    child = [0.0] * count
    for index in range(count):
        if parent[index] >= 0:
            child[parent[index]] += end[index] - start[index]
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    root = 0.0
    for index in range(count):
        key = names[name[index]]
        duration = end[index] - start[index]
        self_s[key] += duration - child[index]
        calls[key] += 1
        if parent[index] < 0:
            root += duration
    return self_s, calls, root


TIMED_SPANS = tracer.SPAN_NAMES + [tracer.HOOK_SPAN]
COUNTED_SPANS = ("graph.shortest_path", "graph.distance", "partition.validate", "analysis.track_reaches")
PASSED_COUNTS = (
    "preprocess.passes",
    "preprocess.minor_vertices",
    "ball_growing.rounds",
    "ball_growing.empty_rounds",
    "ball_growing.draws",
    "ball_growing.events",
    "analysis.reaches",
)


def layer_split(out: Outcome, spans: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command."""
    self_s, calls, root = self_times(spans)
    startup = spans["main_start"] - out.spawn
    m = {
        "cli.traced_wall_s": out.wall,
        "cli.startup_s": startup,
        "cli.unaccounted_s": out.wall - startup - root,
    }
    for name in TIMED_SPANS:
        key = "cli.self_s" if name == "cli.main" else name + "_s"
        m[key] = self_s.get(name, 0.0)
    for name in COUNTED_SPANS:
        m[name + "_calls"] = calls.get(name, 0)
    counts = spans["counts"]
    for name in PASSED_COUNTS:
        m[name] = counts.get(name, 0)
    m["graph.label_sources"] = spans["label_sources"]
    names = spans["names"]
    name, _, _, parent = spans["spans"]
    sp = names.index("graph.shortest_path") if "graph.shortest_path" in names else -1
    tr = names.index("analysis.track_reaches") if "analysis.track_reaches" in names else -1
    m["analysis.detour_shortest_path_calls"] = sum(
        1 for n, p in zip(name, parent) if n == sp and p >= 0 and name[p] == tr
    )
    # Ratio parts; turned into ratios of sums over the run's commands.
    m["_input_vertices"] = counts.get("preprocess.input_vertices", 0)
    m["_absorbing_draws"] = counts.get("ball_growing.absorbing_draws", 0)
    m["_detours_used"] = counts.get("analysis.detours_used", 0)
    return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def mean_split(splits: list[dict]) -> dict[str, float]:
    keys = splits[0].keys()
    total = {k: sum(s[k] for s in splits) for k in keys}
    mean = {k: v / len(splits) for k, v in total.items() if not k.startswith("_")}
    mean["preprocess.kept_vertex_ratio"] = _ratio(total["preprocess.minor_vertices"], total["_input_vertices"])
    mean["ball_growing.absorbing_draw_ratio"] = _ratio(total["_absorbing_draws"], total["ball_growing.draws"])
    mean["analysis.detour_use_ratio"] = _ratio(total["_detours_used"], total["analysis.reaches"])
    return mean


# -- runs ---------------------------------------------------------------


def execute(w: Workload, seed: int, seconds: float, traced: bool, digests: dict) -> Result:
    """One run of one workload; prints its human summary."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        env = build(work)
        env.update(nproc=os.cpu_count(), cpu=_cpu_model(), loadavg_start=_loadavg())
        run = Run(w, seed, seconds, traced, work)
        run.setup()
        result = _measure(run, digests)
        env["loadavg_end"] = _loadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(f"env {json.dumps(env, sort_keys=True)}")
    result.show()
    return result


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    problems: list[str]
    digest: str | None
    metrics: dict[str, tuple[float, str, str]]  # name -> (value, unit, samples)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def failed_ratio(self) -> float:
        return _ratio(self.failed, self.attempted)

    def show(self) -> None:
        print(f"{self.workload}: failed_ratio {self.failed_ratio:.4g} ({self.failed}/{self.attempted}), "
              f"cmd0_sha256 {self.digest}")
        for name, (value, unit, samples) in self.metrics.items():
            print(f"  {name:36s} {value:12.6g} {unit:6s} {samples}")

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in self.metrics.items()},
        }


def _measure(run: Run, digests: dict) -> Result:
    w = run.w
    walls, cpus, rss = [], [], []
    traced_walls, splits = [], []
    attempted = failed = 0
    digest = untraced_output = None
    for i in run.loop():
        for traced in (False, True) if run.traced else (False,):
            out, trace_bytes, spans = run.command(i, traced)
            attempted += 1
            output = out.stdout + trace_bytes
            reason = run.verdict(i, out, trace_bytes)
            if not traced:
                untraced_output = output
                if i == 0:
                    digest = hashlib.sha256(output).hexdigest()
            elif reason is None and output != untraced_output:
                reason = "output under the tracer differs from the untraced output"
            elif reason is None and spans is None:
                reason = "tracer wrote no spans"
            if reason is not None:
                failed += 1
                print(f"{w.name}: command {i} failed: {reason}", file=sys.stderr)
            elif traced:
                traced_walls.append(out.wall)
                splits.append(layer_split(out, spans))
                for name in spans["missing"]:
                    print(f"{w.name}: tracer found no {name}; its metrics read 0", file=sys.stderr)
            else:
                walls.append(out.wall)
                cpus.append(out.cpu)
                rss.append(out.rss_mb)

    problems = list(run.problems)
    pinned = digests.get(w.name)
    if run.seed == DEFAULT_SEED and digest != pinned:
        problems.append(f"command 0 digest {digest} != pinned {pinned}")
    for p in problems:
        print(f"{w.name}: {p}", file=sys.stderr)

    n = len(walls)
    if run.traced:
        note = f"mean of {len(splits)} traced"
        split = mean_split(splits) if splits else {}
        split["trace.overhead_s"] = median(traced_walls) - median(walls)
        metrics = {k: (v, _unit(k), note) for k, v in sorted(split.items())}
        metrics["trace.overhead_s"] = (split["trace.overhead_s"], "s", f"medians of {len(traced_walls)} and {n}")
    else:
        metrics = {
            "op_wall_s_p50": (median(walls), "s", f"median of {n}"),
            "op_cpu_s_p50": (median(cpus), "s", f"median of {n}"),
            "ops_per_s": (_ratio(n, sum(walls)), "1/s", f"{n} commands"),
            "peak_rss_mb": (max(rss, default=0.0), "MB", f"max of {n}"),
            "setup_s": (median(run.setup_times), "s", f"median of {len(run.setup_times)}"),
        }
    return Result(w.name, attempted, failed, problems, digest, metrics)


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def report_all(seed: int, seconds: float, digests: dict) -> int:
    """Every workload untraced, then traced; one table at the end."""
    results = []
    for w in WORKLOADS.values():
        results.append((execute(w, seed, seconds, False, digests), execute(w, seed, seconds, True, digests)))
    print("\nworkload    metric                               value        unit   samples")
    for plain, traced in results:
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        rows = dict(plain.metrics)
        rows["failed_ratio"] = (_ratio(failed, attempted), "", f"{failed} of {attempted}")
        rows["trace.overhead_s"] = traced.metrics["trace.overhead_s"]
        for name, (value, unit, samples) in rows.items():
            print(f"{plain.workload:11s} {name:36s} {value:12.6g} {unit:6s} {samples}")
    summary = {
        plain.workload: {
            "correct": plain.correct and traced.correct,
            "end_to_end": plain.to_json()["metrics"],
            "per_layer": traced.to_json()["metrics"],
        }
        for plain, traced in results
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(row["correct"] for row in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    digests = json.loads(DIGESTS.read_text())
    # Exit through Python on SIGTERM, so the running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.all:
            return report_all(args.seed, args.seconds, digests)
        result = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), digests)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
