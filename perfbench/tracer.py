"""Run one ``spr`` CLI command with a span around each traced layer call.

Usage: python3 tracer.py SPANS_FILE COMMAND_ID -- <spr arguments>

The program is imported unchanged; this script rebinds the traced
functions and methods at every binding inside the ``spr`` package (so a
name imported with ``from .x import f`` is traced too), calls
``spr.cli.main`` and, after it returns, writes the spans and counters it
kept in memory to SPANS_FILE as a pickle of flat arrays (JSON would cost
about a second at exit for the ~10^5 spans of an experiment command).

A span is (name index, start, end, parent index). All times, ``main_start``
too, come from ``time.monotonic``, the clock the parent stamps its spawn
with, so the parent can subtract one from the other.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from array import array

# Layer calls that get a span: (module, class or None, names). O(1)
# accessors (edge_weight, is_terminal, ...) are left out: a span costs about
# a microsecond, which would swamp them.
TARGETS = [
    ("spr.cli", None, ["main"]),
    ("spr.textio", None, ["load_instance"]),
    ("spr.graph", None, ["build_graph"]),
    ("spr.graph", "WeightedGraph", ["shortest_path", "distance", "eccentricity"]),
    ("spr.graph", "Instance", ["nearest_terminal_all"]),
    ("spr.preprocess", None, ["exact_minor"]),
    ("spr.ball_growing", None, ["run", "compute_base_mean", "trace_to_dict"]),
    ("spr.partition", None, ["validate", "contract", "distortion"]),
    (
        "spr.analysis",
        None,
        ["run_experiment", "detect_bad_events", "path_partition", "track_reaches", "build_detour_path"],
    ),
]


def span_name(module_name: str, attr: str) -> str:
    """``spr.graph`` + ``distance`` -> ``graph.distance``."""
    return f"{module_name.rsplit('.', 1)[-1]}.{attr}"


SPAN_NAMES = [span_name(module, attr) for module, _, names in TARGETS for attr in names]

# Counting hooks run inside this span so their cost lands on the tracer,
# not on the caller's self time.
HOOK_SPAN = "tracer.hooks"


class Recorder:
    def __init__(self):
        self.names: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.sources: dict[int, set] = {}
        self.graphs: list = []  # keeps graphs alive so their ids stay unique
        self.missing: list[str] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def name_index(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def open(self, name: int) -> int:
        index = len(self.start)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.monotonic())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.monotonic()
        self.stack.pop()

    def source(self, graph, s) -> None:
        seen = self.sources.get(id(graph))
        if seen is None:
            seen = self.sources[id(graph)] = set()
            self.graphs.append(graph)
        seen.add(s)


def _hook_graph_source(rec, args, result):
    rec.source(args[0], args[1])


def _hook_nearest(rec, args, result):
    inst = args[0]
    for t in inst.terminals:
        rec.source(inst.graph, t)


def _hook_exact_minor(rec, args, result):
    rec.add("preprocess.passes", result.passes)
    rec.add("preprocess.minor_vertices", result.minor.graph.vertex_count)
    rec.add("preprocess.input_vertices", args[0].graph.vertex_count)


def _hook_run(rec, args, result):
    trace = result[1]
    absorbing = {(e.round_index, e.terminal) for e in trace.events}
    rounds = len(trace.rounds)
    rec.add("ball_growing.rounds", rounds)
    rec.add("ball_growing.empty_rounds", rounds - len({r for r, _ in absorbing}))
    rec.add("ball_growing.draws", sum(len(r.draws) for r in trace.rounds))
    rec.add("ball_growing.absorbing_draws", len(absorbing))
    rec.add("ball_growing.events", len(trace.events))


def _hook_track_reaches(rec, args, result):
    rec.add("analysis.reaches", sum(len(cell) for cell in result.reaches))


def _hook_build_detour_path(rec, args, result):
    rec.add("analysis.detours_used", len(result.detours))


HOOKS = {
    "graph.shortest_path": _hook_graph_source,
    "graph.distance": _hook_graph_source,
    "graph.eccentricity": _hook_graph_source,
    "graph.nearest_terminal_all": _hook_nearest,
    "preprocess.exact_minor": _hook_exact_minor,
    "ball_growing.run": _hook_run,
    "analysis.track_reaches": _hook_track_reaches,
    "analysis.build_detour_path": _hook_build_detour_path,
}


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)
    span = rec.name_index(name)
    hook_span = rec.name_index(HOOK_SPAN)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            h = rec.open(hook_span)
            hook(rec, args, result)
            rec.close(h)
        return result

    return traced


def install(rec: Recorder) -> None:
    """Rebind every target at its definition and at every import of it."""
    replaced = {}
    for module_name, class_name, names in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attr in names:
            fn = vars(owner).get(attr)
            if fn is None:
                rec.missing.append(".".join(filter(None, (module_name, class_name, attr))))
                continue
            wrapper = _wrap(rec, span_name(module_name, attr), fn)
            setattr(owner, attr, wrapper)
            if not class_name:
                replaced[id(fn)] = (fn, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "spr" or module_name.startswith("spr.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_FILE COMMAND_ID -- <spr arguments>", file=sys.stderr)
        return 2
    spans_file, command_id, spr_args = argv[0], int(argv[1]), argv[3:]
    import spr.cli

    rec = Recorder()
    install(rec)
    main_start = time.monotonic()
    try:
        code = spr.cli.main(spr_args)
    finally:
        sys.stdout.flush()
        payload = {
            "command_id": command_id,
            "main_start": main_start,
            "names": sorted(rec.names, key=rec.names.get),
            "counts": rec.counts,
            "label_sources": sum(len(s) for s in rec.sources.values()),
            "missing": rec.missing,
            "spans": (rec.name, rec.start, rec.end, rec.parent),
        }
        with open(spans_file, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
