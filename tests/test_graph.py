import itertools
import random
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import radius_stepping.graph as graph
import radius_stepping.preprocess as preprocess
from radius_stepping import (
    UNREACHED,
    EdgeListParseError,
    GeneratorSpec,
    GraphError,
    RadiusAssignment,
    WeightSpec,
    ball_arrays,
    build_k_rho,
    dijkstra,
    from_edges,
    generate,
    parse_edge_list,
    read_radii,
    write_edge_list,
    write_radii,
)
from oracles import bfs, check_graph, undirected_edges


def test_parse_basic():
    g = parse_edge_list("0 1 5\n1 2 3\n")
    assert (g.n, g.m, g.max_weight) == (3, 2, 5)
    check_graph(g)


def test_graph_never_equals_a_non_graph():
    g = from_edges(2, [(0, 1, 1)])
    assert g.__eq__((g.n, g.m)) is NotImplemented
    for other in (None, 2, "g", (g.indptr, g.nbr, g.wt)):
        assert not g == other and g != other


def test_parse_duplicate_collapses_to_min():
    g = parse_edge_list("0 1 2\n1 0 7\n")
    assert (g.n, g.m) == (2, 1)
    ns, ws = g.neighbors(0)
    assert ns.tolist() == [1] and ws.tolist() == [2]


def test_parse_zero_weight_rejected():
    with pytest.raises(GraphError):
        parse_edge_list("0 1 0\n")


def test_parse_malformed_reports_line():
    for text in ("0 1 5\n0 x 2\n", "0 1 5\n0 1 2.0\n"):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(text)
        assert err.value.lineno == 2


def test_parse_empty_is_domain_error():
    # loadtxt's "input contained no data" warning never reaches the caller.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(GraphError):
            parse_edge_list("# only a comment\n\n")
    assert caught == []


def test_parse_comments_crlf_default_weight():
    g = parse_edge_list("# header\r\n3 7\r\n7 9 4\r\n")
    assert (g.n, g.m, g.max_weight) == (3, 2, 4)
    assert g.labels.tolist() == [3, 7, 9]


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
    # loadtxt would drop the comment after the third field and read the edge.
    with pytest.raises(EdgeListParseError, match="expected 1, 2 or 3 fields, got 5") as err:
        parse_edge_list("0 1 5\n1 2 3 # note\n")
    assert err.value.lineno == 2


def test_from_edges_rejects_labels_beyond_int64():
    g = from_edges(2, [(0, 1, 4)], labels=(-(2**63), 2**63 - 1))
    assert write_edge_list(g) == f"{-(2**63)} {2**63 - 1} 4\n"
    for label in (2**63, -(2**63) - 1):
        with pytest.raises(GraphError, match="vertex labels must fit int64"):
            from_edges(2, [(0, 1, 4)], labels=(0, label))



def test_labels_must_be_integers():
    # Floats were truncated, so (1.5, 1.7) collapsed to one label and the
    # edge read back as a self-loop; bools and strings were converted too.
    for labels in ((1.5, 1.7), (True, False), (True, 2), ("3", "4"), np.array([1.0, 2.0])):
        with pytest.raises(GraphError, match="vertex labels must be integers"):
            from_edges(2, [(0, 1, 5)], labels=labels)
    mine = [7, 3]
    g = from_edges(2, [(0, 1, 5)], labels=mine)
    mine[0] = 3  # the graph keeps its own array, not the caller's list
    assert g.labels.tolist() == [7, 3] and write_edge_list(g) == "3 7 5\n"
    assert from_edges(2, [(0, 1, 5)], labels=np.array([9, 4], dtype=np.uint16)).labels.tolist() == [9, 4]


def test_every_graph_has_read_only_int64_labels():
    owned = np.array([8, 6, 4], dtype=np.int64)
    mutated = from_edges(3, [(0, 1, 2)], labels=owned)
    owned[0] = 5  # the caller's array changes after the graph is made
    aug, _, added = build_k_rho(parse_edge_list("10 20 1\n20 30 1\n30 40 1\n40 50 1\n"), 1, 4)
    assert added > 0
    assert graph._loadtxt_columns("7 3 2\n3 9 5\n") is not None and graph._loadtxt_columns("7 3 2\n11\n") is None
    cases = {
        "loadtxt": (parse_edge_list("7 3 2\n3 9 5\n"), [7, 3, 9]),
        "line reader": (parse_edge_list("7 3 2\n11\n3 9 5\n"), [7, 3, 11, 9]),
        "no labels": (from_edges(3, [(0, 1, 2)]), [0, 1, 2]),
        "list": (from_edges(3, [(0, 1, 2)], labels=[5, 1, 9]), [5, 1, 9]),
        "tuple": (from_edges(3, [(0, 1, 2)], labels=(5, 1, 9)), [5, 1, 9]),
        "int32": (from_edges(3, [(0, 1, 2)], labels=np.array([5, 1, 9], dtype=np.int32)), [5, 1, 9]),
        "mutated int64": (mutated, [8, 6, 4]),
        "generate": (generate(GeneratorSpec("grid2d", dims=(3, 2))), list(range(6))),
        "augmented": (aug, [10, 20, 30, 40, 50]),
    }
    for case, (g, want) in cases.items():
        assert isinstance(g.labels, np.ndarray) and g.labels.dtype == np.int64, case
        assert len(g.labels) == g.n and not g.labels.flags.writeable, case
        assert g.labels.tolist() == want, case


# One rule for every integer sequence the package takes.  Each entry point
# below gets the same values, three items long where it matters, and hands
# back what it made of them in a form that compares with ==.
_PATH8 = from_edges(8, [(v, v + 1, 1) for v in range(7)])
_ENTRY_POINTS = {
    "from_edges triples": lambda vals, k: write_edge_list(from_edges(8, [vals])),
    "from_edges labels": lambda vals, k: from_edges(k, [], labels=vals).labels.tolist(),
    "write_radii labels": lambda vals, k: write_radii(RadiusAssignment.uniform(k, 1), labels=vals),
    "RadiusAssignment": lambda vals, k: RadiusAssignment(vals).r.tolist(),
    "ball_arrays sources": lambda vals, k: [col.tolist() for col in ball_arrays(_PATH8, vals, 2)],
}
_REFUSED = [
    [0, 1.5, 2],
    [0, np.float64(2), 1],
    np.array([0.0, 1.0, 2.0]),
    np.array([True, False, True]),
    [True, 1, 2],
    [0, np.True_, 2],
    [[0], [True], [2]],
    [[0], [np.True_], [2]],
    [0, "5", 2],
    [0, 2**63, 1],
    [0, -(2**63) - 1, 1],
    [2**70, 0, 1],
    np.array([0, 2**63, 1], dtype=np.uint64),
    np.array([0, 1, 2], dtype=object),
    np.zeros((3, 1), dtype=np.int64),
    [[0, 1], [2, 3], [4, 5]],
    [np.array(1), 2, 3],
    5,
    np.int64(5),
    None,
]
_ACCEPTED = [
    ([0, 5, 3], [0, 5, 3]),
    ((np.int64(1), np.int32(2), np.uint8(3)), [1, 2, 3]),
    (range(3), [0, 1, 2]),
    (np.array([0, 5, 3], dtype=np.int32), [0, 5, 3]),
    (np.array([0, 5, 3], dtype=np.uint16), [0, 5, 3]),
    ([], []),
    ((), []),
    (np.array([]), []),
]


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_takes_integer_sequences_by_one_rule(entry):
    take = _ENTRY_POINTS[entry]
    forms = r"must be integers, got |must fit int64$|must be a 1-D sequence, got |\(u, v, w\) triple$"
    for vals in _REFUSED:
        if vals is None and entry.endswith("labels"):  # None is "no labels"
            continue
        if entry == "from_edges triples" and isinstance(vals, np.ndarray) and vals.dtype == object:
            assert take(vals, 3) == take((0, 1, 2), 3)  # a triple is a container: its items are ints
            continue
        with pytest.raises(GraphError, match=forms):
            take(vals, 3)
    for vals, want in _ACCEPTED:
        if entry == "from_edges triples" and len(want) != 3:  # its own rule: three values per triple
            with pytest.raises(GraphError, match=r"\(u, v, w\) triple$"):
                take(vals, len(want))
            continue
        assert take(vals, len(want)) == take(np.array(want, dtype=np.int64), len(want)), (entry, vals)
    assert from_edges(3, [], labels=[0, 5, 3]).labels.tolist() == [0, 5, 3]
    label = from_edges(3, [], labels=np.array([0, 5, 3])).labels
    assert label.dtype == np.int64 and not label.flags.writeable
    assert RadiusAssignment(np.array([4, 1], dtype=np.uint8)).r.tolist() == [4, 1]
    for edges in (5, np.int64(5), None):  # neither triples nor an array of rows
        with pytest.raises(GraphError, match=r"\(u, v, w\) triple$"):
            from_edges(3, edges)


def test_labels_must_be_a_sequence_in_order():
    # A set's labels would be assigned in hash order, and a generator or an
    # object array was made a tuple before the check.
    radii = RadiusAssignment.uniform(3, 1)
    for labels in ({7, 3, 5}, (x for x in (7, 3, 5)), np.array([7, 3, 5], dtype=object)):
        with pytest.raises(GraphError, match="^vertex labels must be (a 1-D sequence|integers), got "):
            from_edges(3, [], labels=labels)
        with pytest.raises(GraphError, match="^vertex labels must be (a 1-D sequence|integers), got "):
            write_radii(radii, labels=labels)


def test_line_reader_weight_errors_carry_the_line_number():
    for text, lineno, message in (("0 1 2\n\n1 2 0\n", 3, "weight must be >= 1, got 0"),
                                  (f"0 1 2\n1 2 {2**62}\n", 2, r"weight must be below 2\*\*62")):
        with pytest.raises(EdgeListParseError, match=f"line {lineno}: {message}") as err:
            parse_edge_list(text)
        assert err.value.lineno == lineno


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
    check_graph(g1)
    check_graph(g2)


@settings(max_examples=40, deadline=None)
@given(edge_lists)
def test_from_edges_symmetric_and_validated(edges):
    n = 13
    g = from_edges(n, edges)
    check_graph(g)
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


@pytest.mark.parametrize(
    "rows",
    [[(0, 1, 1), (0, 1, 2**62)], [(0, 1, 1), (1, 0, 2**62)], [(0, 1, 1), (1, 1, 2**62)]],
    ids=["parallel", "reversed", "self-loop"],
)
def test_from_edges_checks_every_row_weight_as_the_parser_does(rows):
    # The minimum of a parallel pair (or no edge, for a self-loop) is all
    # that survives the collapse, so a heavy row was dropped unchecked.
    message = r"^edge weight 4611686018427387904 is not below 2\*\*62$"
    for edges in (rows, np.array(rows, dtype=np.int64)):
        with pytest.raises(GraphError, match=message):
            from_edges(2, edges)
    with pytest.raises(EdgeListParseError, match="line 2: weight must be below 2"):
        parse_edge_list("".join(f"{u} {v} {w}\n" for u, v, w in rows))


@pytest.mark.parametrize(
    "n, edges, labels, message",
    [
        (3, np.array([[0, 1, 1.5], [1, 2, 2.7]]), None, "^edge values must be integers, got float64$"),
        (3, [(0, 1, 1.5), (1, 2, 2.7)], None, "must be integers, got float"),
        (3, [(0.9, 1, 2)], None, "must be integers, got float"),
        (3, [(0, 1, "5")], None, "must be integers, got str"),
        (3, [(0, 1, True), (1, 2, 3)], None, "must be integers, got bool"),
        (3, np.array([[False, True, True]]), None, "^edge values must be integers, got bool$"),
        (3, np.array([["0", "1", "5"]]), None, "^edge values must be integers, got <U1$"),
        (3, np.array([[0, 1, 5]], dtype=object), None, "^edge values must be integers, got object$"),
        (3, [(0, 1, np.float64(2))], None, "must be integers, got float64"),
        (-1, [], None, "vertex count must be nonnegative, got -1"),
        (3.0, [(0, 1, 2)], None, "vertex count must be an integer, got 3.0"),
        (2**62, [], None, r"graph too large: n\*max\(n, 2\*edges\)"),
        (2**62 + 5, [(0, 1, 1)], None, "graph too large"),
        (3, np.zeros((2, 4), dtype=np.int64), None, r"^edge rows must be an \(m, 3\) array, got shape \(2, 4\)$"),
        (3, np.zeros(3, dtype=np.int64), None, r"^edge rows must be an \(m, 3\) array, got shape \(3,\)$"),
        (3, [(0, 1)], None, r"\(u, v, w\) triple"),
        (3, [(0, 1, 2), (0, 1, 2, 3)], None, r"\(u, v, w\) triple"),
        (3, [7], None, r"\(u, v, w\) triple"),
        (3, [(0, 1, 2**70)], None, "edge values must fit int64"),
        (3, [(0, 1, -(2**63) - 1)], None, "edge values must fit int64"),
        (3, np.array([[0, 1, 2**63]], dtype=np.uint64), None, "edge values must fit int64"),
        (3, [(0, 1, 2)], (5, 6), "vertex labels must be 3 distinct ids"),
        (3, [(0, 1, 2)], (5, 6, 5), "vertex labels must be 3 distinct ids"),
        (True, [], None, "vertex count must be an integer, got True"),
        (False, [], None, "vertex count must be an integer, got False"),
        # A set, bytes or dict iterates as three integers, but is no triple.
        (6, [{5, 0, 1}], None, r"^each edge must be a \(u, v, w\) triple$"),
        (6, [b"\x00\x01\x05"], None, r"^each edge must be a \(u, v, w\) triple$"),
        (6, [{0: "a", 1: "b", 5: "c"}], None, r"^each edge must be a \(u, v, w\) triple$"),
    ],
)
def test_from_edges_rejects_inexact_input(n, edges, labels, message):
    with pytest.raises(GraphError, match=message):
        from_edges(n, edges, labels=labels)


def test_from_edges_takes_every_integer_type():
    want = from_edges(3, [(0, 1, 2), (1, 2, 5)])
    assert from_edges(np.int32(3), [(np.int16(0), np.uint8(1), 2), [1, 2, np.int64(5)]]) == want
    assert from_edges(0, []).n == 0
    # Three rows are three rows in every container, never three columns.
    rows = [(0, 3, 1), (1, 2, 1), (2, 3, 5)]
    want = write_edge_list(from_edges(4, rows))
    assert want == "0 3 1\n1 2 1\n2 3 5\n"
    frozen = np.array(rows, dtype=np.int64)
    frozen.flags.writeable = False  # an int64 row array is read, never written
    forms = [tuple(np.array(t) for t in rows), [np.array(t) for t in rows], tuple(rows), frozen]
    dtypes = (np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32, np.uint64)
    forms += [np.array(rows, dtype=dtype) for dtype in dtypes]
    for edges in forms:
        assert write_edge_list(from_edges(4, edges)) == want, edges


def _reference_csr(n, triples):
    """The CSR arrays of from_edges by plain Python: the lightest weight per
    unordered pair, no self-loops, each row sorted by (weight, id)."""
    best = {}
    for u, v, w in triples:
        if u != v:
            pair = (min(u, v), max(u, v))
            best[pair] = min(w, best.get(pair, w))
    rows = [[] for _ in range(n)]
    for (u, v), w in best.items():
        rows[u].append((w, v))
        rows[v].append((w, u))
    indptr, nbr, wt = [0], [], []
    for row in rows:
        row.sort()
        nbr += [v for _, v in row]
        wt += [w for w, _ in row]
        indptr.append(len(nbr))
    return indptr, nbr, wt, len(best), max(best.values(), default=1)


def _csr_corpus(rng):
    """Seeded (n, triples): isolated vertices, parallel edges both ways with
    tied and distinct weights, self-loops, and sorted, reversed or shuffled
    input."""
    n = rng.randint(0, 60)
    if n == 2 and rng.random() < 0.5:
        heavy = [1, 2**62 - 1, 2**61, rng.randrange(1, 2**62)]
        return n, [(rng.randrange(2), rng.randrange(2), rng.choice(heavy)) for _ in range(rng.randint(0, 6))]
    hi = rng.choice([3, 3, 10**6])
    triples = []
    for _ in range(rng.randint(0, 3 * n) if n else 0):
        u, v, w = rng.randrange(n), rng.randrange(n), rng.randint(1, hi)
        triples.append((u, v, w))
        roll = rng.random()
        if roll < 0.2:
            triples.append((v, u, w))
        elif roll < 0.4:
            triples.append((rng.choice([(u, v), (v, u)]) + (rng.randint(1, hi),)))
    order = rng.choice(["sorted", "reversed", "shuffled"])
    if order == "shuffled":
        rng.shuffle(triples)
    else:
        triples.sort(reverse=order == "reversed")
    return n, triples


def test_from_edges_equals_python_reference():
    rng = random.Random(4242)
    for case in range(400):
        n, triples = _csr_corpus(rng)
        want = _reference_csr(n, triples)
        for edges in (triples, np.array(triples, dtype=np.int64).reshape(-1, 3)):
            g = from_edges(n, edges)
            got = g.indptr.tolist(), g.nbr.tolist(), g.wt.tolist(), g.m, g.max_weight
            assert got == want, (case, n, triples)


def _lexsort_csr(n, us, vs, ws):
    """from_edges' CSR arrays by two 3-key np.lexsort passes."""
    keep = us != vs
    a, b, w = np.minimum(us, vs)[keep], np.maximum(us, vs)[keep], ws[keep]
    order = np.lexsort((w, b, a))
    a, b, w = a[order], b[order], w[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    a, b, w = a[first], b[first], w[first]
    src, dst, w2 = np.concatenate((a, b)), np.concatenate((b, a)), np.concatenate((w, w))
    order = np.lexsort((dst, w2, src))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return indptr, dst[order], w2[order]


# The benchmark's inputs at seed 1, their (k, rho), and the from_edges calls
# of one set-up: the parse, and the augmentation where shortcuts are added.
BENCHMARK_INPUTS = [
    (GeneratorSpec("grid2d", dims=(100, 100), weights=WeightSpec(1, 10000, seed=1)), 2, 10, 2),
    (GeneratorSpec("random", n=10000, m=30000, seed=1, weights=WeightSpec(1, 10000, seed=1)), 1, 1, 1),
    (GeneratorSpec("adversarial", ladder=40), 1, 10, 1),
]


@pytest.mark.parametrize("spec, k, rho, count", BENCHMARK_INPUTS, ids=["grid2d-w", "random-w-rho1", "ladder-u"])
def test_from_edges_equals_lexsort_on_benchmark_inputs(spec, k, rho, count, monkeypatch):
    """Every from_edges call of a benchmark set-up gives the lexsort
    construction's arrays."""
    calls = []

    def recording(n, edges, labels=None):
        g = from_edges(n, edges, labels=labels)
        calls.append((n, edges, g))
        return g

    text = write_edge_list(generate(spec))
    monkeypatch.setattr(graph, "from_edges", recording)
    monkeypatch.setattr(preprocess, "from_edges", recording)
    build_k_rho(parse_edge_list(text), k, rho, heuristic="dp")
    assert len(calls) == count
    for n, rows, g in calls:
        want = _lexsort_csr(n, *rows.T)
        for got_arr, want_arr in zip((g.indptr, g.nbr, g.wt), want):
            assert got_arr.dtype == np.int64 and np.array_equal(got_arr, want_arr)


def test_reachable_set_cases():
    # The reachable set is the finite entries of bfs's hop distances.
    def reachable_set(g, s):
        return set(np.flatnonzero(bfs(g, s).dist.dist < UNREACHED).tolist())

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


def test_ids_must_fit_int64():
    g = parse_edge_list(f"{2**63 - 1} 1 5\n")
    assert g.labels.tolist() == [2**63 - 1, 1]
    assert parse_edge_list(f"{-(2**63)} 1 5\n").labels.tolist() == [-(2**63), 1]
    with pytest.raises(EdgeListParseError, match=r"vertex ids must be below 2\*\*63") as err:
        parse_edge_list(f"0 1 5\n# note\n{-(2**63) - 1} 1 5\n")
    assert err.value.lineno == 3
    with pytest.raises(EdgeListParseError, match=r"vertex ids must be below 2\*\*63") as err:
        parse_edge_list(f"0 1 5\n# note\n1 {2**64} 5\n")
    assert err.value.lineno == 3


# Separators str.split() takes for whitespace, besides the plain space.
SEPARATORS = ["\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\r", "\xa0", "\x85", "\u2028", "\u3000"]
# Tokens at the edge of what either reader takes; the line reader decides
# each text the loadtxt reader declines.
ODD_TOKENS = [
    str(2**63 - 1),  # 19 digits, still a valid id
    str(2**63),
    "0" * 19 + "7",
    "1_0",
    "-0",
    "-3",
    "+",
    "++1",
    "1+",
    "x",
    "\u0663",  # ARABIC-INDIC DIGIT THREE: int() reads it
    "5\xa0",  # NO-BREAK SPACE: str.split() splits on it
    "#",
]


def _token(rng):
    small, large = rng.randint(0, 30), rng.randint(0, 10**6)
    value = rng.choice([small, small, small, large, 10**17 + rng.randint(0, 10**17), 10**18 - 1])
    text = str(value).zfill(rng.choice([0, 0, 0, 3, 18]))
    return ("+" if rng.random() < 0.1 else "") + text


def _plain_line(rng, width=None):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(["", " ", "\t\x0b"])
    if roll < 0.2:
        return rng.choice(["", "  ", "\x1c"]) + "# " + rng.choice(["note", "1 2 3 4", "x_y"])
    fields = [_token(rng) for _ in range(width or rng.choice([1, 2, 2, 3, 3, 3]))]
    gap = rng.choice([" ", " ", rng.choice(SEPARATORS), "  \t"])
    pad = rng.choice(["", "", " ", rng.choice(SEPARATORS)])
    return pad + gap.join(fields) + pad


def _odd_line(rng):
    fields = [_token(rng) for _ in range(3)]
    roll = rng.random()
    if roll < 0.1:
        return "# caf\xe9 \u2003 1 2"
    if roll < 0.2:
        return " ".join(fields + ["1"])
    if roll < 0.3:
        return " ".join(fields[:2] + [rng.choice(["0", "00", "+0"])])
    fields[rng.randrange(rng.randint(1, 3))] = rng.choice(ODD_TOKENS)
    return " ".join(fields)


def _edge_text(rng, width=None):
    """A seeded edge list: plain lines, and in some cases one odd line.
    With a width, every plain data line holds that many fields."""
    lines = [_plain_line(rng, width) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.4:
        lines.insert(rng.randint(0, len(lines)), _odd_line(rng))
    ending = rng.choice(["\n", "\n", "\r\n"])
    text = ending.join(lines)
    return text + ending if rng.random() < 0.8 else text


def _by_lines(text):
    n, rows, labels = graph._line_columns(text)
    return from_edges(n, rows, labels=labels)


def _outcome(read, text):
    try:
        return "ok", read(text)
    except GraphError as exc:
        return type(exc), str(exc)


def _same(got, want):
    if got[0] != "ok" or want[0] != "ok":
        return got == want
    g, h = got[1], want[1]
    return g == h and np.array_equal(g.labels, h.labels)


@pytest.mark.parametrize("seed", [9001, 9005, 74536])
def test_fast_reader_equals_line_reader(seed):
    """The loadtxt reader either declines or returns exactly the line
    reader's columns; parse_edge_list gives the line reader's Graph or
    error.  The mixed corpus puts 1, 2 and 3 fields in one text; the
    uniform corpus gives every data line of a text 2 fields, or 3."""
    rng = random.Random(seed)
    taken = 0
    for uniform in (False, True):
        for case in range(800):
            text = _edge_text(rng, rng.choice([2, 3]) if uniform else None)
            assert _same(_outcome(parse_edge_list, text), _outcome(_by_lines, text)), (case, text)
            got = graph._loadtxt_columns(text)
            if got is None:
                continue
            taken += uniform
            want = graph._line_columns(text)
            assert got[0] == want[0], (case, text)
            for got_arr, want_arr in zip(got[1:], want[1:]):
                assert got_arr.dtype == np.int64 and np.array_equal(got_arr, want_arr), (case, text)
    assert taken >= 350  # about half the uniform cases exercise the loadtxt reader


@pytest.mark.parametrize("width", [2, 3])
def test_fast_reader_compacts_ids_at_scale(width):
    # 12,000 lines over 700 ids, each id on about 34 lines, that first
    # appear out of sorted order, with negatives and both int64 ends.
    rng = random.Random(width)
    pool = [-(2**63), 2**63 - 1, -1, 0] + [rng.randrange(-(2**63), 2**63) for _ in range(696)]
    rng.shuffle(pool)
    lines = [[rng.choice(pool), rng.choice(pool), rng.randint(1, 2**62 - 1)][:width] for _ in range(12000)]
    text = "".join(" ".join(map(str, line)) + "\n" for line in lines)
    got, want = graph._loadtxt_columns(text), graph._line_columns(text)
    assert got is not None and got[0] == want[0] == 700
    assert got[2].tolist() != sorted(got[2].tolist())
    for got_arr, want_arr in zip(got[1:], want[1:]):
        assert got_arr.dtype == np.int64 and np.array_equal(got_arr, want_arr)


def old_write_edge_list(g):
    """write_edge_list as one formatted row per edge: the oracle."""
    rows = []
    for u, v, w in undirected_edges(g):
        lu, lv = int(g.labels[u]), int(g.labels[v])
        if lu > lv:
            lu, lv = lv, lu
        rows.append((lu, lv, w))
    rows.extend((int(g.labels[u]), 0, 0) for u in np.flatnonzero(np.diff(g.indptr) == 0).tolist())
    rows.sort()
    return "".join(f"{u} {v} {w}\n" if w else f"{u}\n" for u, v, w in rows)


def old_write_radii(radii, labels):
    """write_radii as one formatted row per vertex: the oracle."""
    rows = []
    for lab, r in zip(labels, radii.r.tolist()):
        rows.append((lab, "inf" if r >= UNREACHED else str(r)))
    rows.sort()
    return "".join(f"{lab} {r}\n" for lab, r in rows)


def _writer_labels(rng, n):
    """None, or n distinct int64 labels: small or wide, with negatives and
    both int64 ends, in increasing, decreasing or random order."""
    kind = rng.choice(["none", "small", "wide", "signed"])
    if kind == "none":
        return None
    if kind == "small":
        pool = rng.sample(range(50), n)
    else:
        lo, ends = (0, [2**63 - 1]) if kind == "wide" else (-(2**63), [-(2**63), 2**63 - 1, -1, 0])
        pool = list(dict.fromkeys(ends + [rng.randrange(lo, 2**63) for _ in range(n)]))[:n]
    order = rng.choice(["increasing", "decreasing", "random"])
    if order == "random":
        rng.shuffle(pool)
    else:
        pool.sort(reverse=order == "decreasing")
    return tuple(pool)


def test_zero_vertex_graph_writes_empty_text_the_readers_refuse():
    assert write_edge_list(from_edges(0, [])) == "" and write_radii(RadiusAssignment([]), []) == ""
    with pytest.raises(GraphError, match="^empty edge list$"):
        parse_edge_list("")
    with pytest.raises(GraphError, match="^empty radii file$"):
        read_radii("", from_edges(1, []))


def test_writers_equal_per_row_formatting():
    rng = random.Random(77)
    for case in range(400):
        n = rng.randint(1, 40)
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.choice([1, rng.randint(1, 10**6), 2**40]))
            for _ in range(rng.randint(0, 2 * n))
        ]
        if rng.random() < 0.15:  # isolated vertices only: no edge, or only self-loops
            edges = [(u, u, w) for u, _, w in edges[: rng.randint(0, 3)]]
        g = from_edges(n, edges, labels=_writer_labels(rng, n))
        text = write_edge_list(g)
        assert text == old_write_edge_list(g), case
        assert write_edge_list(parse_edge_list(text)) == text, case
        r = np.array([rng.choice([0, 3, rng.randrange(UNREACHED), UNREACHED]) for _ in range(n)])
        radii = RadiusAssignment(r=r)
        text = write_radii(radii, g.labels)
        assert text == old_write_radii(radii, g.labels), case
        assert read_radii(text, g).r.tolist() == r.tolist(), case


# Every decimal width and both int64 ends: 10**j - 1 and 10**j for j = 0..18,
# their negatives, and -2**63 and 2**63 - 1.
EDGE_VALUES = sorted({s * x for j in range(19) for x in (10**j - 1, 10**j) for s in (1, -1)} | {-(2**63), 2**63 - 1})


def _first_difference(got, want):
    """None if the texts are equal, else the first line where they differ:
    a short failure message where a diff of the whole texts would take long."""
    if got == want:
        return None
    pairs = itertools.zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)


def _rows_text(rows, brief, tail):
    """_render's text, one formatted row at a time: the oracle."""
    return "".join(f"{row[0]}{tail}\n" if b else " ".join(map(str, row)) + "\n" for row, b in zip(rows.tolist(), brief.tolist()))


@pytest.mark.parametrize("block", [None, 1, 2, 5, 7])
def test_render_equals_per_row_formatting_across_blocks(monkeypatch, block):
    # Each value in each column, next to values of every other width, over
    # several blocks; a small block puts a boundary between most rows.
    if block is not None:
        monkeypatch.setattr(graph, "_BLOCK", block)
    rng = random.Random(block or 0)
    values = EDGE_VALUES * 3
    for cols, tail in ((3, ""), (2, " inf")):
        count = 2 * len(values) + 2 * (graph._BLOCK // cols + 1)
        rows = np.array([rng.choice(values) for _ in range(count * cols)], dtype=np.int64).reshape(count, cols)
        rows[: len(values), 0] = values
        rows[len(values) : 2 * len(values), -1] = values
        brief = np.array([rng.random() < 0.2 for _ in range(count)])
        assert _first_difference(graph._render(rows, brief, tail), _rows_text(rows, brief, tail)) is None


def test_writers_equal_per_row_formatting_past_one_block():
    # More rows than a block, labels and radii of every width, and UNREACHED
    # radii, which print as inf.  Weights stay below 10**15, so that paths
    # stay below UNREACHED.
    rng = random.Random(33)
    n = graph._BLOCK // 2 + 500
    weights = [v for v in EDGE_VALUES if 1 <= v < 10**15]
    radius_values = [v for v in EDGE_VALUES if 0 <= v <= UNREACHED] + [UNREACHED]
    for case in range(3):
        edges = [(rng.randrange(n), rng.randrange(n), rng.choice(weights)) for _ in range(n)]
        labels = rng.sample(EDGE_VALUES, len(EDGE_VALUES)) + [rng.randrange(-(2**63), 2**63) for _ in range(n)]
        g = from_edges(n, edges, labels=list(dict.fromkeys(labels))[:n])
        text = write_edge_list(g)
        assert len(text.splitlines()) > graph._BLOCK // 3
        assert _first_difference(text, old_write_edge_list(g)) is None, case
        assert _first_difference(write_edge_list(parse_edge_list(text)), text) is None, case
        r = np.array([rng.choice(radius_values) for _ in range(n)])
        radii = RadiusAssignment(r=r)
        text = write_radii(radii, g.labels)
        assert _first_difference(text, old_write_radii(radii, g.labels)) is None, case
        assert np.array_equal(read_radii(text, g).r, r), case


@pytest.mark.parametrize("at", [-1, 0])
def test_isolated_vertex_line_on_a_block_edge(at):
    # Edge rows (3i, 10**12 + i, w) with two lone vertices 3j + 1 and 3j + 2
    # between edge rows j and j + 1, so that the lone lines are the last two
    # of a block (at=-1) or straddle its edge (at=0).
    step = graph._BLOCK // 3
    edges = 2 * step + 10
    j = step - 2 + at
    labels = [3 * i for i in range(edges)] + [10**12 + i for i in range(edges)] + [3 * j + 1, 3 * j + 2]
    g = from_edges(len(labels), [(i, edges + i, i % 97 + 1) for i in range(edges)], labels=labels)
    lines = write_edge_list(g).splitlines(keepends=True)
    assert lines[j + 1 : j + 3] == [f"{3 * j + 1}\n", f"{3 * j + 2}\n"]
    assert _first_difference("".join(lines), old_write_edge_list(g)) is None


def test_render_labeled_prints_distances_as_sssp_does():
    # Two components over more than one block: the far one is unreached.
    n = graph._BLOCK // 2 + 300
    rng = random.Random(5)
    edges = [(i, i + 1, rng.randint(1, 10**9)) for i in range(n - 1) if i != n // 3]
    labels = rng.sample(range(-(10**15), 10**15), n)
    g = from_edges(n, edges, labels=labels)
    dist = dijkstra(g, 0).dist
    assert (dist == UNREACHED).sum() == n - n // 3 - 1
    want = "".join(f"{lab} {d if d < UNREACHED else 'inf'}\n" for lab, d in zip(labels, dist.tolist()))
    assert _first_difference(graph._render_labeled(g.labels, dist), want) is None
