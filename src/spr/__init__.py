"""Steiner point removal toolkit.

Distance-exact minor preprocessing, randomized ball-growing terminal
partitions, distortion measurement, trace analysis with bad-event
instrumentation, and numeric certification of the exponential tail bounds
the guarantees rest on.
"""

from .analysis import (
    BadEventReport,
    DetourPath,
    PathCell,
    Reach,
    ReachLog,
    TerminalDetour,
    TraceIndex,
    build_detour_path,
    detect_bad_events,
    distortion_bound,
    distortion_bound_coefficient,
    index_trace,
    merge_detours,
    path_partition,
    run_experiment,
    track_reaches,
)
from .ball_growing import (
    AssignmentEvent,
    GrowthParams,
    RoundRecord,
    RunTrace,
    compute_base_mean,
    replay_trace,
    run,
    trace_to_json,
)
from .graph import Instance, ShortestPath, WeightedGraph, build_graph
from .partition import (
    DistortionResult,
    OracleResult,
    TerminalMinor,
    TerminalPartition,
    Violation,
    contract,
    distortion,
    oracle_optimal,
    validate,
)
from .preprocess import (
    PreprocessReport,
    PreprocessResult,
    exact_minor,
    verify_exact,
)
from .tail_bounds import (
    ErlangQuery,
    GeometricSumQuery,
    Lemma6Result,
    MonteCarloResult,
    erlang_cdf_lower,
    erlang_tail_upper,
    lemma4_bound,
    lemma4_bound_loose,
    lemma5_bound,
    lemma6_check,
    monte_carlo_tail,
)
from .textio import format_graph_text, load_instance, parse_graph_text

__version__ = "0.1.0"
