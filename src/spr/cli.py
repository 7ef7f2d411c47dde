"""Command-line entry point.

Subcommands: preprocess, run, eval, experiment, tailcheck, oracle.
Exit codes: 0 success, 1 validation failure, 2 usage error.  Results go to
stdout as JSON (schema_version 1); diagnostics, including the effective
seed of randomized commands, go to stderr.  Side files (trace, CSV,
output graph, sidecar) are written under temporary names before stdout and
renamed into place only once stdout is flushed, so a command that fails
prints no result and leaves no side file.  Output is deterministic given
flags and seed.

Each command runs with the cyclic garbage collector off (see ``main``).
``spr.analysis``, ``spr.tail_bounds`` and ``csv`` are imported inside the
commands that use them, so the other commands do not pay for loading them.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import json
import math
import os
import sys
import warnings
from pathlib import Path

from .ball_growing import GrowthParams, run, trace_to_json
from .errors import InvalidPartitionError, SprError
from .partition import TerminalPartition, contract, distortion, oracle_optimal
from .preprocess import exact_minor, verify_exact
from .textio import format_graph_text, load_instance


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _publish(text: str, side_files: dict[str, str]) -> None:
    """Write ``text`` to stdout and each side file (path -> contents).

    Each side file goes to a temporary name in its target directory, then
    stdout is written and flushed, and only then are the temporary files
    renamed into place.  On any failure they are removed.  A symlinked
    path is resolved first, so the link stays and its target gets the
    bytes.  An existing target that is not a regular file (a directory,
    FIFO, socket or device) is refused before anything is staged or
    written: renaming onto it would replace it.
    """
    targets = []
    for path, contents in side_files.items():
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if os.path.exists(path) and not os.path.isfile(path):
            raise SprError(f"{path} is not a regular file")
        targets.append((path, os.path.realpath(path), contents))
    staged: list[tuple[str, str]] = []
    try:
        for path, real, contents in targets:
            temp = f"{real}.{os.getpid()}.tmp"
            try:
                with open(temp, "x", newline="") as handle:
                    staged.append((temp, real))
                    handle.write(contents)
            except OSError as exc:
                exc.filename = path
                raise
        sys.stdout.write(text)
        sys.stdout.flush()
        for temp, real in staged:
            os.replace(temp, real)
    finally:
        for temp, _ in staged:
            if os.path.exists(temp):  # renamed already, unless something failed
                os.remove(temp)


def _emit(payload, side_files: dict[str, str] | None = None) -> None:
    _publish(_dump_json(payload) + "\n", side_files or {})


def _effective_seed(seed: int | None) -> int:
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _params_from(args, seed: int) -> GrowthParams:
    # A delta past the analyzed regime warns; the warning becomes one stderr line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = GrowthParams(
            delta=args.delta,
            c1=args.c1,
            c2=args.c2,
            c3=args.c3,
            max_rounds=args.max_rounds,
            seed=seed,
        )
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return params


def _checked(kind, requirement: str, ok):
    """argparse ``type=`` that parses with ``kind`` and range-checks with ``ok``.

    A bad value makes argparse exit 2 with one error line naming the flag.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    return parse


_SEED = _checked(int, "in [0, 2**64)", lambda x: 0 <= x < 2**64)
_POSITIVE_INT = _checked(int, "a positive integer", lambda x: x >= 1)
_POSITIVE_FLOAT = _checked(float, "positive and finite", lambda x: x > 0 and math.isfinite(x))
_DEFAULTS = GrowthParams()


def _samples(text: str) -> int:
    from .tail_bounds import MIN_SAMPLES

    return _checked(int, f"at least {MIN_SAMPLES}", lambda x: x >= MIN_SAMPLES)(text)


def _add_param_flags(sub) -> None:
    sub.add_argument("--seed", type=_SEED, default=None, help="RNG seed (random if omitted)")
    sub.add_argument("--delta", type=_POSITIVE_FLOAT, default=_DEFAULTS.delta, help="growth exponent delta")
    sub.add_argument("--c1", type=_POSITIVE_FLOAT, default=_DEFAULTS.c1, help="far-event constant")
    sub.add_argument("--c2", type=_POSITIVE_FLOAT, default=_DEFAULTS.c2, help="early-event constant")
    sub.add_argument("--c3", type=_POSITIVE_FLOAT, default=_DEFAULTS.c3, help="many-event constant")
    sub.add_argument("--max-rounds", type=_POSITIVE_INT, default=_DEFAULTS.max_rounds, help="round safety cap")


def cmd_preprocess(args) -> int:
    sidecar_path = args.sidecar
    if sidecar_path is None and args.output:
        sidecar_path = args.output + ".json"
    if args.output and os.path.realpath(sidecar_path) == os.path.realpath(args.output):
        raise SprError(f"--sidecar {sidecar_path} names the --output file")
    inst = load_instance(args.graph)
    result = exact_minor(inst)
    report = verify_exact(inst, result)

    text = format_graph_text(result.minor)
    side_files = {args.output: text} if args.output else {}
    if sidecar_path:
        sidecar = {
            "schema_version": 1,
            "vertex_map": result.vertex_map,
            "statistics": {
                "original_vertices": inst.graph.vertex_count,
                "original_edges": inst.graph.edge_count,
                "minor_vertices": result.minor.graph.vertex_count,
                "minor_edges": result.minor.graph.edge_count,
                "non_terminals": result.non_terminal_count,
                "terminals": inst.k,
                "passes": result.passes,
                "max_abs_deviation": report.max_abs_deviation,
            },
        }
        side_files[sidecar_path] = _dump_json(sidecar) + "\n"
    _publish("" if args.output else text, side_files)
    return 0


def cmd_run(args) -> int:
    inst = load_instance(args.graph)
    if not args.no_preprocess:
        inst = exact_minor(inst).minor
    seed = _effective_seed(args.seed)
    params = _params_from(args, seed)
    part, trace = run(inst, params)
    result = distortion(inst, contract(inst, part))
    _emit(
        {
            "schema_version": 1,
            "assignment": list(part.assignment),
            "seed": seed,
            "distortion": result.max_ratio,
        },
        {args.trace: trace_to_json(trace) + "\n"} if args.trace else None,
    )
    return 0


def cmd_eval(args) -> int:
    inst = load_instance(args.graph)
    try:
        payload = json.loads(Path(args.partition).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidPartitionError(f"{args.partition}: {exc}") from None
    except RecursionError:
        raise InvalidPartitionError(f"{args.partition}: JSON nested too deeply") from None
    if not (isinstance(payload, dict) and isinstance(payload.get("assignment"), list)):
        raise InvalidPartitionError(
            f"{args.partition}: expected a JSON object with an 'assignment' array"
        )
    result = distortion(inst, contract(inst, TerminalPartition(payload["assignment"])))
    _emit(
        {
            "schema_version": 1,
            "distortion": result.max_ratio,
            "pairs": [
                {
                    "i": i,
                    "j": j,
                    "source_distance": d0,
                    "minor_distance": d1,
                    "ratio": ratio,
                }
                for i, j, d0, d1, ratio in result.pairs
            ],
        }
    )
    return 0


def cmd_oracle(args) -> int:
    inst = load_instance(args.graph)
    best = oracle_optimal(inst)
    _emit(
        {
            "schema_version": 1,
            "optimal_distortion": best.distortion,
            "assignment": list(best.partition.assignment),
        }
    )
    return 0


def cmd_experiment(args) -> int:
    from .analysis import run_experiment

    inst = load_instance(args.graph)
    seed = _effective_seed(args.seed)
    params = _params_from(args, seed)
    report = run_experiment(inst, params, args.trials, preprocess=not args.no_preprocess)
    rows = [
        {
            "trial": t.trial,
            "seed": t.seed,
            "distortion": t.distortion,
            "rounds": t.rounds,
            "bad_events": {"far": t.far, "early": t.early, "many": t.many},
            "detour": {
                "pairs": t.detour_pairs,
                "violations": t.detour_violations,
                "min_slack": t.min_detour_slack,
            },
        }
        for t in report.trials
    ]
    side_files = {}
    if args.csv:
        import csv

        table = io.StringIO(newline="")
        writer = csv.writer(table)
        writer.writerow(
            ["trial", "seed", "distortion", "rounds", "far", "early", "many", "detour_violations"]
        )
        for t in report.trials:
            writer.writerow(
                [t.trial, t.seed, t.distortion, t.rounds, t.far, t.early, t.many, t.detour_violations]
            )
        side_files[args.csv] = table.getvalue()
    _emit(
        {
            "schema_version": 1,
            "seed": seed,
            "graph": report.graph_summary,
            "preprocess": report.preprocess_summary,
            "results": rows,
            "summary": report.summary(),
        },
        side_files,
    )
    return 0


# -- tailcheck suites ---------------------------------------------------

LEMMA4_GRID_M = (1, 2, 5, 10, 20)
LEMMA4_GRID_KAPPA = (0.02, 0.05, 0.1, 0.25)
LEMMA5_GRID_K = (4, 10)
LEMMA5_M = 18.0
LEMMA5_DELTA = 0.5
LEMMA6_GRID_M = (5, 10, 30, 50)
LEMMA6_GRID_C = (6.0, 8.0, 10.0)


def _suite_lemma4(samples: int, seed: int) -> list[dict]:
    from .tail_bounds import (
        erlang_cdf_lower,
        lemma4_bound,
        lemma4_bound_loose,
        monte_carlo_lower,
    )

    rows = []
    index = 0
    for m in LEMMA4_GRID_M:
        for kappa in LEMMA4_GRID_KAPPA:
            exact = erlang_cdf_lower(m, kappa * m)
            loose = lemma4_bound_loose(m, kappa)
            tight = lemma4_bound(m, kappa)
            mc, _ = monte_carlo_lower(m, kappa * m, samples, seed + index)
            index += 1
            sigma = math.sqrt(exact * (1.0 - exact) / samples)
            ok = exact <= loose and exact <= tight and abs(mc - exact) <= 3.0 * sigma
            rows.append(
                {
                    "m": m,
                    "kappa": kappa,
                    "exact": exact,
                    "bound_loose": loose,
                    "bound": tight,
                    "monte_carlo": mc,
                    "pass": ok,
                }
            )
    return rows


def _suite_lemma5(samples: int, seed: int) -> list[dict]:
    from .tail_bounds import lemma5_bound, lemma5_threshold, monte_carlo_geometric

    rows = []
    for index, k in enumerate(LEMMA5_GRID_K):
        mc, std_error = monte_carlo_geometric(LEMMA5_DELTA, k, LEMMA5_M, samples, seed + index)
        bound = lemma5_bound(LEMMA5_M, LEMMA5_DELTA, k)
        rows.append(
            {
                "k": k,
                "M": LEMMA5_M,
                "delta": LEMMA5_DELTA,
                "threshold": lemma5_threshold(LEMMA5_M, LEMMA5_DELTA, k),
                "empirical": mc,
                "std_error": std_error,
                "bound": bound,
                "pass": mc <= bound + 3.0 * std_error,
            }
        )
    return rows


def _suite_lemma6() -> list[dict]:
    from .tail_bounds import erlang_tail_upper, lemma6_bound

    rows = []
    for m in LEMMA6_GRID_M:
        for c in LEMMA6_GRID_C:
            exact = erlang_tail_upper(m, c * m)
            bound = lemma6_bound(m, c)
            rows.append(
                {
                    "m": m,
                    "C": c,
                    "exact": exact,
                    "bound": bound,
                    "pass": exact <= bound,
                }
            )
    return rows


def _suite_cdf(samples: int, seed: int) -> list[dict]:
    from .tail_bounds import erlang_cdf_lower, monte_carlo_lower

    rows = []
    index = 0
    for m in (1, 2, 5, 10):
        previous = 0.0
        for factor in (0.25, 0.5, 1.0, 2.0):
            x = factor * m
            exact = erlang_cdf_lower(m, x)
            mc, _ = monte_carlo_lower(m, x, samples, seed + index)
            index += 1
            sigma = math.sqrt(exact * (1.0 - exact) / samples)
            ok = exact >= previous and abs(mc - exact) <= 3.0 * sigma
            previous = exact
            rows.append(
                {
                    "m": m,
                    "x": x,
                    "exact": exact,
                    "monte_carlo": mc,
                    "pass": ok,
                }
            )
    return rows


def cmd_tailcheck(args) -> int:
    seed = _effective_seed(args.seed)
    if args.suite == "lemma4":
        rows = _suite_lemma4(args.samples or 100_000, seed)
    elif args.suite == "lemma5":
        rows = _suite_lemma5(args.samples or 1_000_000, seed)
    elif args.suite == "lemma6":
        rows = _suite_lemma6()
    else:
        rows = _suite_cdf(args.samples or 100_000, seed)
    all_pass = all(row["pass"] for row in rows)
    _emit(
        {
            "schema_version": 1,
            "suite": args.suite,
            "seed": seed,
            "rows": rows,
            "pass": all_pass,
        }
    )
    return 0 if all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spr",
        description="Steiner point removal toolkit: exact-preserving minors, "
        "randomized ball-growing partitions, tail-bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="reduce to a distance-exact minor")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None, help="output graph path (stdout if omitted)")
    p.add_argument("--sidecar", default=None, help="sidecar JSON path (default: <output>.json)")
    p.set_defaults(handler=cmd_preprocess)

    p = sub.add_parser("run", help="one ball-growing run")
    p.add_argument("graph")
    _add_param_flags(p)
    p.add_argument("--trace", default=None, help="write the run trace JSON here")
    p.add_argument("--no-preprocess", action="store_true", help="run on the input as-is")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("eval", help="distortion of a given partition")
    p.add_argument("graph")
    p.add_argument("partition", help="JSON file with an 'assignment' array")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("experiment", help="repeated runs with diagnostics")
    p.add_argument("--graph", required=True)
    p.add_argument("--trials", type=_POSITIVE_INT, default=100)
    _add_param_flags(p)
    p.add_argument("--csv", default=None, help="also write per-trial rows as CSV")
    p.add_argument("--no-preprocess", action="store_true")
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("tailcheck", help="certify the exponential tail bounds")
    p.add_argument("--suite", choices=["lemma4", "lemma5", "lemma6", "cdf"], required=True)
    p.add_argument("--samples", type=_samples, default=None)
    p.add_argument("--seed", type=_SEED, default=None)
    p.set_defaults(handler=cmd_tailcheck)

    p = sub.add_parser("oracle", help="brute-force optimal partition (tiny graphs)")
    p.add_argument("graph")
    p.set_defaults(handler=cmd_oracle)

    return parser


def main(argv=None) -> int:
    # A command allocates hundreds of thousands of small tuples and lists,
    # but its only reference cycles are a fixed few hundred objects (the
    # argument parser, the JSON encoders), so the cyclic collector's passes
    # are pure cost.  It is off for the command only; the caller's setting
    # is restored.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        try:
            return args.handler(args)
        except (SprError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
