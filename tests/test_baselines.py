import ast
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import radius_stepping
import radius_stepping.baselines as baselines
import radius_stepping.engine as engine
import radius_stepping.graph as graph
from radius_stepping import (
    UNREACHED,
    delta_stepping,
    dijkstra,
    from_edges,
    generate,
    GeneratorSpec,
    RadiusAssignment,
    StepLog,
    radius_step_fast,
)
from conftest import random_graph
from oracles import SizeCapError, bellman_ford, bfs, hop_matrix, k_radius_bruteforce, reference_loop

PATH = [(0, 1, 2), (1, 2, 3)]
TRIANGLE = [(0, 1, 5), (0, 2, 1), (2, 1, 1)]


def test_dijkstra_path():
    g = from_edges(3, PATH)
    assert dijkstra(g, 0).dist.tolist() == [0, 2, 5]


def test_dijkstra_unreached():
    g = from_edges(4, [(0, 1, 1), (1, 2, 1)])
    assert dijkstra(g, 0)[3] == UNREACHED


def test_dijkstra_triangle_shortcut():
    g = from_edges(3, TRIANGLE)
    assert dijkstra(g, 0)[1] == 2


@pytest.mark.parametrize("edges,s", [(PATH, 0), (TRIANGLE, 0), (TRIANGLE, 1)])
def test_bellman_ford_matches_dijkstra_examples(edges, s):
    g = from_edges(3, edges)
    assert bellman_ford(g, s).same_as(dijkstra(g, s))


def test_bellman_ford_isolated_vertex():
    g = from_edges(4, [(0, 1, 1), (1, 2, 1)])
    res = bellman_ford(g, 0)
    assert res[3] == UNREACHED
    assert res.same_as(dijkstra(g, 0))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_agreement_random(seed):
    g, s = random_graph(seed, n_hi=60, m_cap=200)
    oracle = dijkstra(g, s)
    assert bellman_ford(g, s).same_as(oracle)
    run = delta_stepping(g, s, max(1, g.max_weight // 3))
    assert run.dist.same_as(oracle)


def test_bfs_grid_corner_rounds():
    g = generate(GeneratorSpec(kind="grid2d", dims=(3, 3)))
    assert bfs(g, 0).rounds == 4


def test_bfs_single_vertex():
    g = from_edges(1, [])
    res = bfs(g, 0)
    assert res.rounds == 0 and res.dist[0] == 0


def test_bfs_path_middle():
    g = from_edges(5, [(i, i + 1, 1) for i in range(4)])
    assert bfs(g, 2).rounds == 2


def test_delta_stepping_degenerate_single_bucket():
    g, s = random_graph(77, n_hi=40, m_cap=120)
    run = delta_stepping(g, s, g.n * g.max_weight)
    assert run.step_count == 1
    assert run.dist.same_as(dijkstra(g, s))


def same_run(run, g, s, delta):
    """run equals the literal loop's at zero radii and bucket width delta."""
    ref = reference_loop(g, s, np.zeros(g.n, dtype=np.int64), delta)
    return list(run.steps) == list(ref.steps) and run.dist.same_as(ref.dist)


def test_delta_stepping_unit_path_buckets():
    # unit path 0-1-2 with delta=1: buckets {0}, {1}, {2}; s settles before
    # step 1, so the two buckets beyond it are the steps
    g = from_edges(3, [(0, 1, 1), (1, 2, 1)])
    run = delta_stepping(g, 0, 1)
    assert (run.step_count, run.total_substeps()) == (2, 2)
    assert run.dist.dist.tolist() == [0, 1, 2]
    assert same_run(run, g, 0, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, "L", "nL", 2**70]), st.sampled_from([3, 100]))
def test_delta_stepping_exact_across_delta_sweep(seed, delta_kind, w_hi):
    g, s = random_graph(seed, n_hi=40, m_cap=120, w_hi=w_hi)
    delta = {"L": g.max_weight, "nL": g.n * g.max_weight}.get(delta_kind, delta_kind)
    assert delta_stepping(g, s, delta).dist.same_as(dijkstra(g, s))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["1", "L/3", "L", "nL"]))
def test_delta_stepping_core_matches_the_literal_loop(seed, delta_kind):
    # The relaxation floor decides how the core batches Delta-stepping's
    # buckets; the literal loop under the same key must see the same steps.
    g, s = random_graph(seed, n_hi=60, m_cap=180)
    L = g.max_weight
    delta = {"1": 1, "L/3": -(-L // 3), "L": L, "nL": g.n * L}[delta_kind]
    zeros = np.zeros(g.n, dtype=np.int64)
    fast, ref = engine._stepping(g, s, zeros, delta), reference_loop(g, s, zeros, delta)
    signature = [(rec.d, rec.active, rec.substeps, rec.relaxations) for rec in fast.steps]
    assert signature == [(rec.d, rec.active, rec.substeps, rec.relaxations) for rec in ref.steps]
    assert fast.dist.same_as(ref.dist) and fast.dist.same_as(dijkstra(g, s))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_delta_stepping_at_width_1_is_radius_stepping_at_zero_radii(seed):
    # One formula, end(delta + r): at width 1 and r = 0 both are min(delta).
    g, s = random_graph(seed, n_hi=60, m_cap=180)
    bucket, radius = delta_stepping(g, s, 1), radius_step_fast(g, RadiusAssignment.uniform(g.n, 0), s)
    for column in StepLog.__slots__:
        assert np.array_equal(getattr(bucket.steps, column), getattr(radius.steps, column)), column
    assert bucket.dist.same_as(radius.dist)


@pytest.mark.parametrize(
    "edges,delta,steps,substeps",
    [
        # s has no edge: it settles before step 1 and nothing is left
        ([(1, 2, 4)], 3, 0, 0),
        # s's lightest edge is >= delta: buckets [4, 6) and [6, 8)
        ([(0, 1, 5), (1, 2, 1), (0, 3, 7)], 2, 2, 2),
        # distances near 2**61 all lie in the one bucket of delta = 2**70
        ([(0, 1, 2**60), (1, 2, 2**60), (2, 3, 2**60 - 1)], 2**70, 1, 3),
    ],
)
def test_delta_stepping_counts_the_source_bucket(edges, delta, steps, substeps):
    # As in every engine, s settles before step 1: the bucket of s is a
    # step only with another vertex in it, and the pass over s no substep.
    g = from_edges(1 + max(max(u, v) for u, v, _ in edges), edges)
    run = delta_stepping(g, 0, delta)
    assert (run.step_count, run.total_substeps()) == (steps, substeps)
    assert run.dist.same_as(dijkstra(g, 0))
    assert same_run(run, g, 0, min(delta, UNREACHED))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_dijkstra_triangle_consistency(seed):
    g, s = random_graph(seed, n_hi=50, m_cap=150)
    res = dijkstra(g, s)
    assert res[s] == 0
    for u in range(g.n):
        if res[u] == UNREACHED:
            continue
        ns, ws = g.neighbors(u)
        for v, w in zip(ns.tolist(), ws.tolist()):
            assert res[v] <= res[u] + w


def test_hop_matrix_triangle():
    g = from_edges(3, TRIANGLE)
    hm = hop_matrix(g)
    # the two-hop path 0-2-1 has weight 2, beating the direct weight-5 edge
    assert hm[0, 1] == 2 and hm[1, 0] == 2
    assert hm[0, 0] == 0
    assert (hm == hm.T).all()


def test_k_radius_path():
    g = from_edges(3, PATH)
    rbar = k_radius_bruteforce(g, 1)
    assert rbar[0] == 5  # vertex 2 sits two hops out at distance 5


def test_k_radius_complete_graph_infinite():
    g = from_edges(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    for k in (1, 2, 3):
        assert (k_radius_bruteforce(g, k) == UNREACHED).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_k_radius_antitone_in_k(seed):
    g, _ = random_graph(seed, n_hi=30, m_cap=80)
    prev = k_radius_bruteforce(g, 1)
    for k in (2, 3):
        cur = k_radius_bruteforce(g, k)
        assert (cur >= prev).all()
        prev = cur


def test_size_cap_enforced():
    g = generate(GeneratorSpec(kind="grid2d", dims=(21, 20)))  # 420 vertices, above the cap of 400
    with pytest.raises(SizeCapError):
        hop_matrix(g)
    with pytest.raises(SizeCapError):
        k_radius_bruteforce(g, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_bfs_equals_dijkstra_on_unit_weights(seed):
    g, s = random_graph(seed, n_hi=40, m_cap=100, w_lo=1, w_hi=1)
    assert bfs(g, s).dist.same_as(dijkstra(g, s))


def test_engine_and_baselines_import_without_a_cycle():
    # DistanceVector lives in graph, so engine needs nothing from baselines,
    # and baselines imports engine at module level.
    def imports(module):
        tree = ast.parse(Path(module.__file__).read_text())
        every = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        return every, [node for node in tree.body if node in every]

    every, _ = imports(engine)
    assert "baselines" not in {node.module for node in every if isinstance(node, ast.ImportFrom)}
    every, top = imports(baselines)
    assert every == top  # no import inside a function
    assert baselines.DistanceVector is graph.DistanceVector is radius_stepping.DistanceVector


def test_every_export_resolves_once():
    names = radius_stepping.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(radius_stepping, name) is not None
