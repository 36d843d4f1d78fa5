from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.capacity import INF
from ghkit.generators import ZWebSpec, gen_zweb
from ghkit.graph import GraphError
from ghkit.io import format_instance, load, parse_instance

from conftest import unit_k23


def test_round_trip_plain_graph():
    g = unit_k23()
    parsed = parse_instance(format_instance(g))
    assert parsed.graph == g
    assert parsed.demands == () and parsed.tsets == ()


def test_round_trip_with_demands_tsets_and_inf():
    web = gen_zweb(ZWebSpec(5, 1, (2,)), 11)
    edges = list(web.graph.edges) + [(0, web.graph.n - 1, INF)]
    g = capgraph(web.graph.n, edges, web.graph.terminals)
    demands = ((0, 1, Fraction(3, 2)), (2, 4, Fraction(1)))
    text = format_instance(g, demands=demands, tsets=web.tsets)
    parsed = parse_instance(text)
    assert parsed.graph == g
    assert parsed.demands == demands
    assert parsed.tsets == web.tsets


def test_comment_lines_ignored():
    text = "# generated for a test\n# line two\n" + format_instance(unit_k23())
    assert parse_instance(text).graph == unit_k23()


def test_load_dump(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(format_instance(unit_k23(), demands=((0, 1, Fraction(1)),)))
    inst = load(p)
    assert inst.graph == unit_k23()
    assert inst.demands == ((0, 1, Fraction(1)),)


def test_parse_errors():
    with pytest.raises(GraphError):
        parse_instance("")
    with pytest.raises(GraphError):
        parse_instance("not a header")
    with pytest.raises(GraphError):
        parse_instance("2 1 0\n0 1 1\nF: 0 1 : \n")  # 2-vertex attachment


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 2 0\n0 1 1\n", "line 3"),  # truncated edge list
        ("2 1 0\n0 1 1/0\n", "line 2"),  # zero denominator
        ("2 1 0\n0 1 1\nD 0 1\n", "line 3"),  # demand without a value
        ("2 1 -1\n0 1 1\n", "line 1: negative count in header"),
        ("2 1 0\n0 1 1\nE 0 1 1\n", "line 3: unrecognized trailer line"),
    ],
)
def test_malformed_input_names_the_line(text, line):
    with pytest.raises(GraphError, match=line):
        parse_instance(text)


BAD_TOKENS = ["", "x", "1/0", "-1", "0", "inf", "2*inf+1/0", "99", "0 1", "D", "F:"]


@given(
    st.integers(min_value=0, max_value=2**40),
    st.data(),
)
def test_corrupted_instances_raise_only_graph_error(seed, data):
    """Truncating a valid instance or replacing one of its tokens either
    parses or raises GraphError, never anything else."""
    from ghkit.suiteutil import random_connected_graph

    g = random_connected_graph(seed, max_n=5)
    text = format_instance(g, demands=((0, 1, Fraction(1, 2)),))
    tokens = text.split(" ")
    i = data.draw(st.integers(min_value=0, max_value=len(tokens) - 1))
    if data.draw(st.booleans()):
        corrupted = " ".join(tokens[:i])
    else:
        tokens[i] = data.draw(st.sampled_from(BAD_TOKENS))
        corrupted = " ".join(tokens)
    try:
        parse_instance(corrupted)
    except GraphError:
        pass


@given(st.integers(min_value=0, max_value=2**40))
def test_round_trip_random_graphs(seed):
    from ghkit.suiteutil import random_connected_graph

    g = random_connected_graph(seed, max_n=7)
    assert parse_instance(format_instance(g)).graph == g
