import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from radius_stepping import (
    EdgeListParseError,
    GraphError,
    from_edges,
    parse_edge_list,
    reachable_set,
    write_edge_list,
)


def test_parse_basic():
    g = parse_edge_list("0 1 5\n1 2 3\n")
    assert (g.n, g.m, g.max_weight) == (3, 2, 5)
    g.validate()


def test_parse_duplicate_collapses_to_min():
    g = parse_edge_list("0 1 2\n1 0 7\n")
    assert (g.n, g.m) == (2, 1)
    ns, ws = g.neighbors(0)
    assert ns.tolist() == [1] and ws.tolist() == [2]


def test_parse_zero_weight_rejected():
    with pytest.raises(GraphError):
        parse_edge_list("0 1 0\n")


def test_parse_malformed_reports_line():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("0 1 5\n0 x 2\n")
    assert err.value.lineno == 2


def test_parse_empty_is_domain_error():
    with pytest.raises(GraphError):
        parse_edge_list("# only a comment\n\n")


def test_parse_comments_crlf_default_weight():
    g = parse_edge_list("# header\r\n3 7\r\n7 9 4\r\n")
    assert (g.n, g.m, g.max_weight) == (3, 2, 4)
    assert g.labels == (3, 7, 9)
    assert [g.label_of(v) for v in range(3)] == [3, 7, 9]


def test_self_loops_dropped():
    g = parse_edge_list("0 0 3\n0 1 2\n")
    assert (g.n, g.m) == (2, 1)


def test_adjacency_sorted_by_weight_then_id():
    g = from_edges(4, [(0, 3, 2), (0, 1, 2), (0, 2, 1)])
    ns, ws = g.neighbors(0)
    assert list(zip(ws.tolist(), ns.tolist())) == [(1, 2), (2, 1), (2, 3)]


def test_write_edge_list_canonical():
    g = parse_edge_list("2 1 4\n0 1 1\n")
    # writer emits the retained input ids, canonically ordered
    assert write_edge_list(g) == "0 1 1\n1 2 4\n"
    plain = parse_edge_list("0 1 1\n1 2 4\n")
    assert write_edge_list(plain) == "0 1 1\n1 2 4\n"


def test_isolated_vertex_written_and_parsed_back():
    # 40 has only a self-loop, 7 only a bare line: both stay as vertices.
    g = parse_edge_list("10 20 2\n20 30 3\n40 40 1\n7\n")
    assert (g.n, g.m) == (5, 2)
    text = write_edge_list(g)
    assert text == "7\n10 20 2\n20 30 3\n40\n"
    again = parse_edge_list(text)
    assert sorted(again.labels) == [7, 10, 20, 30, 40]
    assert write_edge_list(again) == text
    assert write_edge_list(parse_edge_list("5\n")) == "5\n"


def test_parse_rejects_four_fields_with_line_number():
    with pytest.raises(EdgeListParseError, match="expected 1, 2 or 3 fields, got 4") as err:
        parse_edge_list("0 1 5\n3\n1 2 3 4\n")
    assert err.value.lineno == 3


# Self-loops are drawn too: a vertex with only self-loops is isolated.
edge_lists = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 9)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_parse_write_roundtrip_idempotent(edges):
    text = "".join(f"{u} {v} {w}\n" for u, v, w in edges)
    g1 = parse_edge_list(text)
    g2 = parse_edge_list(write_edge_list(g1))
    g3 = parse_edge_list(write_edge_list(g2))
    assert g2 == g3
    assert write_edge_list(g2) == write_edge_list(g3)
    assert (g1.n, g1.m, g1.max_weight) == (g2.n, g2.m, g2.max_weight)
    assert sorted(g1.labels) == sorted(g2.labels)
    g1.validate()
    g2.validate()


@settings(max_examples=40, deadline=None)
@given(edge_lists)
def test_from_edges_symmetric_and_validated(edges):
    n = 13
    g = from_edges(n, edges)
    g.validate()
    seen = {}
    for u in range(n):
        ns, ws = g.neighbors(u)
        for v, w in zip(ns.tolist(), ws.tolist()):
            seen[(u, v)] = w
    for (u, v), w in seen.items():
        assert seen[(v, u)] == w


def test_from_edges_rejects_bad_ids_and_weights():
    with pytest.raises(GraphError):
        from_edges(2, [(0, 5, 1)])
    with pytest.raises(GraphError):
        from_edges(2, [(0, 1, 0)])
    with pytest.raises(GraphError, match=r"edge weight 4611686018427387904 is not below 2\*\*62"):
        from_edges(2, [(0, 1, 2**62)])
    with pytest.raises(GraphError, match=r"\(n-1\)\*B = 2\*2305843009213693952"):
        from_edges(3, [(0, 1, 2**61), (1, 2, 2**61)])


def test_reachable_set_cases():
    lone = from_edges(1, [])
    assert reachable_set(lone, 0) == {0}
    path = from_edges(3, [(0, 1, 1), (1, 2, 1)])
    assert reachable_set(path, 1) == {0, 1, 2}
    two = from_edges(4, [(0, 1, 1), (2, 3, 1)])
    assert reachable_set(two, 0) == {0, 1}


def test_graph_is_immutable():
    g = from_edges(2, [(0, 1, 3)])
    with pytest.raises(ValueError):
        g.wt[0] = 9
