import gc
import tracemalloc

import pytest

from spr import format_graph_text, parse_graph_text
from spr.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphError,
    GraphFormatError,
    NonPositiveWeightError,
    SelfLoopError,
)

from conftest import invoke, random_connected_instance, subdivide


def test_round_trip_random_instances():
    for seed in range(8):
        inst = random_connected_instance(seed, n=20, k=3)
        text = format_graph_text(inst)
        again = parse_graph_text(text)
        assert sorted(again.graph.edges) == sorted(inst.graph.edges)
        assert again.terminals == inst.terminals
        assert format_graph_text(again) == text


def test_parse_peak_stays_near_what_the_instance_keeps():
    # Ingest temporaries (the text's lines, the duplicate-edge keys, the
    # adjacency's row lists) must be freed before the next large
    # allocation, or they set the command's peak memory.  On this
    # 9k-vertex subdivided graph the peak is 2.16 times what the instance
    # keeps with all of them alive, and 1.34 with each freed early.
    text = format_graph_text(subdivide(random_connected_instance(0, n=1000, k=16), parts=5))
    gc.collect()
    tracemalloc.start()
    try:
        inst = parse_graph_text(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.graph.vertex_count > 8000
    assert peak <= 1.6 * kept


def test_comments_and_blank_lines():
    text = """
# a comment line
3 2 2   # trailing comment
0 2
0 1 1.5
1 2 2.5
"""
    inst = parse_graph_text(text)
    assert inst.graph.vertex_count == 3
    assert inst.terminals == (0, 2)
    assert inst.graph.edge_weight(1, 2) == 2.5


def test_integer_weight_literals():
    inst = parse_graph_text("2 1 2\n0 1\n0 1 3\n")
    assert inst.graph.edge_weight(0, 1) == 3.0


def test_weights_round_trip_shortest_form():
    inst = parse_graph_text("2 1 2\n0 1\n0 1 0.1\n")
    assert "0 1 0.1" in format_graph_text(inst)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 2\n0 2\n0 1 1.0\n1 2 1.0\n",  # short header
        "3 2 2\n0\n0 1 1.0\n1 2 1.0\n",  # terminal count mismatch
        "3 2 2\n0 2\n0 1 1.0\n",  # missing edge line
        "3 2 2\n0 2\n0 1 1.0\n1 2 x\n",  # bad weight
        "3 2 2\n0 2\n0 1 1.0\n1 2 1.0\nextra 1 1\n",  # trailing junk
    ],
)
def test_malformed_inputs(text):
    with pytest.raises(GraphFormatError):
        parse_graph_text(text)


def eleven_path(terminals="0 10", edge="9 10 1", comment=""):
    """A path on vertices 0..10; int() and float() read 1_0 and \u0662 as 10 and 2."""
    edges = "".join(f"{v} {v + 1} 1\n" for v in range(9))
    return f"11 10 2{comment}\n{terminals}\n{edges}{edge}\n"


@pytest.mark.parametrize(
    "text, line",
    [
        (eleven_path(terminals="0 1_0"), "line 2 '0 1_0'"),
        (eleven_path(terminals="0 \u0662"), "line 2 '0 \u0662'"),
        (eleven_path(edge="9 1_0 1"), "line 12 '9 1_0 1'"),
        (eleven_path(edge="9 10 1_0"), "line 12 '9 10 1_0'"),
        (eleven_path(edge="9 10\u00a01"), "line 12 '9 10\\xa01'"),
        (eleven_path(comment=" _ # n m k"), "line 1 '11 10 2 _ # n m k'"),
    ],
    ids=["terminal-underscore", "terminal-arabic-indic", "edge-endpoint", "weight", "nbsp", "before-hash"],
)
def test_python_only_number_syntax_is_refused(tmp_path, text, line):
    message = f"{line}: only ASCII without '_' may precede '#'"
    with pytest.raises(GraphFormatError) as info:
        parse_graph_text(text)
    assert str(info.value) == message
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    assert invoke(["run", str(path)]) == (1, "", f"error: {message}\n")


def test_comments_may_hold_anything():
    inst = parse_graph_text(eleven_path(comment="  # Größe 1_0, \u0662"))
    assert inst.terminals == (0, 10)
    assert parse_graph_text("# \u0662_\n" + eleven_path()).terminals == (0, 10)


OUT_OF_RANGE = ("2 9 1.0", GraphError, "edge (2, 9) has an endpoint out of range")
BAD_WEIGHT = ("1 2 -1", NonPositiveWeightError, "edge (1, 2) has weight -1.0")
DUPLICATE = ("1 0 2.0", DuplicateEdgeError, "duplicate edge (0, 1)")
FAULT_PAIRS = [
    (OUT_OF_RANGE, BAD_WEIGHT, "range-then-weight"),
    (BAD_WEIGHT, OUT_OF_RANGE, "weight-then-range"),
    (OUT_OF_RANGE, DUPLICATE, "range-then-duplicate"),
    (DUPLICATE, OUT_OF_RANGE, "duplicate-then-range"),
    (BAD_WEIGHT, DUPLICATE, "weight-then-duplicate"),
    (DUPLICATE, BAD_WEIGHT, "duplicate-then-weight"),
]


def two_fault_file(first, second):
    """Five edge lines on four vertices; the faulty ones are the second and third."""
    return f"4 5 2\n0 3\n0 1 1.0\n{first}\n{second}\n1 3 1.0\n2 3 1.0\n"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("4 4 2\n0 3\n1 1 1.0\n0 1 1.0\n1 2 1.0\n1 0 2.0\n", SelfLoopError, "self-loop at vertex 1"),
        ("4 4 2\n0 3\n0 1 1.0\n1 2 1.0\n1 0 2.0\n2 2 1.0\n", DuplicateEdgeError, "duplicate edge (0, 1)"),
        *[(two_fault_file(a[0], b[0]), a[1], a[2]) for a, b, _ in FAULT_PAIRS],
        # A per-edge fault decides before the count of too few edges.
        ("5 2 2\n0 4\n0 1 1.0\n1 2 0\n", NonPositiveWeightError, "edge (1, 2) has weight 0.0"),
        ("5 2 2\n0 4\n0 1 1.0\n1 2 1.0\n", DisconnectedError, "5 vertices need at least 4 edges, got 2"),
    ],
    ids=[
        "self-loop-first",
        "duplicate-first",
        *[ids for _, _, ids in FAULT_PAIRS],
        "bad-weight-with-too-few-edges",
        "too-few-edges-alone",
    ],
)
def test_first_faulty_edge_line_decides_the_message(text, error, message):
    with pytest.raises(error) as info:
        parse_graph_text(text)
    assert str(info.value) == message
