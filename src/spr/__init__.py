"""Steiner point removal toolkit.

Distance-exact minor preprocessing, randomized ball-growing terminal
partitions, distortion measurement, trace analysis with bad-event
instrumentation, and numeric certification of the exponential tail bounds
the guarantees rest on.

The names below are re-exported from their modules on first access
(PEP 562), so ``import spr`` or ``import spr.cli`` loads no module that
the caller does not use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "BadEventReport",
        "PathCell",
        "TraceIndex",
        "detect_bad_events",
        "distortion_bound",
        "distortion_bound_coefficient",
        "index_trace",
        "path_partition",
        "run_experiment",
    ),
    "ball_growing": (
        "AssignmentEvent",
        "GrowthParams",
        "RoundRecord",
        "RunTrace",
        "compute_base_mean",
        "replay_trace",
        "run",
        "trace_to_json",
        "trial",
    ),
    "graph": ("Instance", "WeightedGraph", "build_graph"),
    "partition": (
        "DistortionResult",
        "TerminalMinor",
        "TerminalPartition",
        "Violation",
        "contract",
        "distortion",
        "validate",
    ),
    "preprocess": ("PreprocessReport", "PreprocessResult", "exact_minor", "verify_exact"),
    "tail_bounds": (
        "erlang_cdf_lower",
        "erlang_cdf_lower_poisson",
        "erlang_tail_upper",
        "geometric_tail_chernoff",
        "lemma4_bound",
        "lemma4_bound_loose",
        "lemma5_bound",
        "lemma5_threshold",
        "lemma6_bound",
    ),
    "textio": ("format_graph_text", "load_instance", "parse_graph_text"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
