import itertools
import random
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from radius_stepping import (
    UNREACHED,
    Ball,
    GeneratorSpec,
    GraphError,
    RadiusAssignment,
    WeightSpec,
    ball_arrays,
    build_k_rho,
    check_bounds,
    compute_ball,
    dijkstra,
    from_edges,
    generate,
    min_hop_ball_tree,
    parse_edge_list,
    radius_step_fast,
    read_radii,
    shortcut_dp,
    validate_k_rho,
    write_edge_list,
    write_radii,
)
import radius_stepping.preprocess as preprocess
from conftest import MUTANT_GRID, children, drop_planned_shortcut, random_graph, tree_ball
from oracles import (
    _lex_dijkstra,
    ball_bruteforce,
    build_1_rho,
    check_graph,
    k_radius_bruteforce,
    shortcut_greedy,
    shortcut_targets_all_levels,
)

PATH = [(0, 1, 2), (1, 2, 3)]
STAR = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]
TRIANGLE = [(0, 1, 5), (0, 2, 1), (2, 1, 1)]


def test_ball_path_forced():
    g = from_edges(3, PATH)
    ball = compute_ball(g, 0, 2)
    assert ball.members == ((0, 0), (1, 2))
    assert ball.r_rho == 2


def test_ball_star_tie_inclusive():
    g = from_edges(5, STAR)
    ball = compute_ball(g, 0, 3)
    assert [v for v, _ in ball.members] == [0, 1, 2, 3, 4]
    assert ball.r_rho == 1


def test_ball_star_strict_mode():
    g = from_edges(5, STAR)
    ball = compute_ball(g, 0, 3, tie_inclusive=False)
    assert ball.members == ((0, 0), (1, 1), (2, 1))


def test_ball_small_component_is_whole_component():
    g = from_edges(4, [(0, 1, 4), (2, 3, 1)])
    ball = compute_ball(g, 0, 5)
    assert ball.members == ((0, 0), (1, 4))
    assert ball.r_rho == 4


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 4, 8]))
def test_ball_matches_full_dijkstra_oracle(seed, rho):
    g, v = random_graph(seed, n_hi=100, m_cap=300)
    ball = compute_ball(g, v, rho)
    oracle = dijkstra(g, v)
    want = {u for u in range(g.n) if oracle[u] <= ball.r_rho}
    assert {u for u, _ in ball.members} == want
    for u, d in ball.members:
        assert oracle[u] == d
    dists = [d for _, d in ball.members]
    assert dists == sorted(dists)


def test_build_1_rho_trivial_rho():
    g, _ = random_graph(4242, n_hi=60, m_cap=150)
    aug, radii = build_1_rho(g, 1)
    assert aug.m == g.m
    assert (radii.r == 0).all()


def test_build_k_rho_without_shortcuts_returns_the_input():
    # rho=1 balls are trivial, and a complete unit graph is within one hop.
    sparse = parse_edge_list("10 20 2\n20 30 3\n40\n")
    complete = from_edges(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    for g, k, rho in ((sparse, 1, 1), (complete, 1, 4), (complete, 2, 3)):
        aug, _, added = build_k_rho(g, k, rho)
        assert aug is g and np.array_equal(aug.labels, g.labels)
        assert added == 0


def test_build_1_rho_path_adds_far_edge():
    g = from_edges(3, PATH)
    aug, radii = build_1_rho(g, 3)
    assert aug.m == g.m + 1
    ns, ws = aug.neighbors(0)
    assert dict(zip(ns.tolist(), ws.tolist()))[2] == 5
    assert radii.r.tolist() == [5, 3, 5]


def test_build_1_rho_complete_graph_adds_nothing():
    g = from_edges(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    for rho in (1, 2, 3, 4):
        aug, _ = build_1_rho(g, rho)
        assert aug.m == g.m


def test_build_1_rho_collapses_heavier_direct_edge():
    g = from_edges(3, TRIANGLE)
    aug, _ = build_1_rho(g, 3)
    # the weight-5 edge 0-1 is off every shortest path; ball distance is 2
    ns, ws = aug.neighbors(0)
    assert dict(zip(ns.tolist(), ws.tolist()))[1] == 2
    assert aug.m == g.m


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 4, 8]))
def test_augmentation_preserves_distances(seed, rho):
    g, s = random_graph(seed, n_hi=80, m_cap=240)
    aug, _ = build_1_rho(g, rho)
    assert dijkstra(aug, s).same_as(dijkstra(g, s))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 4, 8]))
def test_strict_mode_budget(seed, rho):
    g, _ = random_graph(seed, n_hi=60, m_cap=150)
    aug, _ = build_1_rho(g, rho, tie_inclusive=False)
    assert aug.m - g.m <= g.n * rho


def test_min_hop_tree_star():
    g = from_edges(5, STAR)
    ball = compute_ball(g, 0, 5)
    assert ball.depth == (0, 1, 1, 1, 1)


def test_min_hop_tree_triangle():
    g = from_edges(3, TRIANGLE)
    ball = compute_ball(g, 0, 3)
    assert ball.members == ((0, 0), (2, 1), (1, 2))
    assert ball.parent[2] == 1
    assert ball.depth[2] == 2


def test_min_hop_ball_tree_keys_the_ball_tree_by_vertex():
    g = from_edges(3, TRIANGLE)
    tree = min_hop_ball_tree(compute_ball(g, 0, 3))
    assert tree.root == 0
    assert tree.parent == {2: 0, 1: 2}
    assert tree.depth == {0: 0, 2: 1, 1: 2}
    assert tree.dist == {0: 0, 2: 1, 1: 2}


def _min_hops_via_dag(g, root, oracle):
    # independent oracle: BFS over the shortest-path DAG
    from collections import deque

    hops = {root: 0}
    q = deque([root])
    while q:
        u = q.popleft()
        ns, ws = g.neighbors(u)
        for v, w in zip(ns.tolist(), ws.tolist()):
            if oracle[u] + w == oracle[v] and v not in hops:
                hops[v] = hops[u] + 1
                q.append(v)
    return hops


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_min_hop_tree_depths_match_dag_oracle(seed):
    g, root = random_graph(seed, n_hi=30, m_cap=90)
    ball = compute_ball(g, root, 8)
    oracle = dijkstra(g, root)
    hops = _min_hops_via_dag(g, root, oracle)
    verts = [u for u, _ in ball.members]
    for v, depth in zip(verts, ball.depth):
        assert depth == hops[v]
    for v, i in zip(verts[1:], ball.parent[1:]):
        p = verts[i]
        assert oracle[p] + dict(zip(*[a.tolist() for a in g.neighbors(v)]))[p] == oracle[v]


def chain_tree(depths):
    parent = {}
    depth = {0: 0}
    for i in range(1, len(depths)):
        parent[i] = i - 1
        depth[i] = depths[i]
    return tree_ball(parent, depth)


def test_greedy_chain_targets():
    tree = chain_tree(list(range(6)))
    assert [t for t, _ in shortcut_greedy(tree, 2)] == [3, 5]


def test_greedy_all_within_k_empty():
    tree = chain_tree([0, 1, 2])
    assert shortcut_greedy(tree, 2) == ()
    assert shortcut_dp(tree, 2) == ()


def test_dp_ties_prefer_the_shortcut():
    # On 0-1-2-3 at k=2 a shortcut to 2 or to 3 costs one edge either way;
    # the tie goes to shortcutting the shallower node.
    tree = chain_tree([0, 1, 2, 3])
    assert shortcut_dp(tree, 2) == ((2, 2),)
    assert shortcut_greedy(tree, 2) == ((3, 3),)


def test_dp_pathological_chain_plus_leaves():
    for k in (2, 3):
        rho = k + 6
        leaves = rho - k - 2
        parent = {i: i - 1 for i in range(1, k + 1)}
        depth = {i: i for i in range(k + 1)}
        nxt = k + 1
        for _ in range(leaves):
            parent[nxt] = k
            depth[nxt] = k + 1
            nxt += 1
        tree = tree_ball(parent, depth)
        assert len(shortcut_greedy(tree, k)) == leaves
        dp = shortcut_dp(tree, k)
        assert len(dp) == 1
        assert _tree_reach_within_k(tree, {t for t, _ in dp}, k)


def _tree_reach_within_k(tree, targets, k):
    kids = children(tree)
    depth = {tree.center: 0}
    stack = [tree.center]
    while stack:
        u = stack.pop()
        for w in kids[u]:
            depth[w] = 1 if w in targets else depth[u] + 1
            stack.append(w)
    return all(d <= k for d in depth.values())


def _dp_targets_loop(tree, k):
    # Reference for the batched level pass: the same DP, one tree at a time
    # over dicts, children before parents and then parents before children.
    kids = children(tree)
    cost = {}
    for u, _ in reversed(tree.members[1:]):
        sc = 1 + sum(cost[w][1] for w in kids[u])
        cost[u] = [min(sc, sum(cost[w][t + 1] for w in kids[u])) for t in range(k)] + [sc]
    targets = []
    stack = [(u, 0) for u in kids[tree.center]]
    while stack:
        u, t = stack.pop()
        cut = t == k or cost[u][k] <= sum(cost[w][t + 1] for w in kids[u])
        if cut:
            targets.append(u)
        stack.extend((w, 1 if cut else t + 1) for w in kids[u])
    return sorted(targets)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dp_plan_is_feasible(data):
    n = data.draw(st.integers(2, 30))
    parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    parent = {i: p for i, p in enumerate(parents, start=1)}
    depth = {0: 0}
    for i, p in enumerate(parents, start=1):
        depth[i] = depth[p] + 1
    tree = tree_ball(parent, depth)
    for k in (1, 2, 3):
        for plan in (shortcut_dp(tree, k), shortcut_greedy(tree, k)):
            assert _tree_reach_within_k(tree, {t for t, _ in plan}, k)
        assert sorted(t for t, _ in shortcut_dp(tree, k)) == _dp_targets_loop(tree, k)


def test_dp_cuts_at_depth_2_within_k():
    # root 0 - 1 - 2, then 2 -> 3, 4 at depth 3 and 3 -> 5, 4 -> 6 at depth
    # 4: one shortcut to 2 brings 5 and 6 to 3 hops, where greedy takes both.
    parent = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 4}
    depth = {0: 0, 1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 6: 4}
    tree = tree_ball(parent, depth)
    assert shortcut_dp(tree, 3) == ((2, 2),)
    assert shortcut_greedy(tree, 3) == ((5, 4), (6, 4))
    assert _dp_targets_loop(tree, 3) == [2]


def _chunk_trees(g, rhos):
    """(parent, depth) of every _ball_chunks chunk of g at each rho, both tie modes."""
    return [
        (parent, depth)
        for rho, tie_inclusive in itertools.product(rhos, (True, False))
        for _, _, (_, _, _, parent, depth) in preprocess._ball_chunks(g, np.arange(g.n), rho, tie_inclusive)
    ]


def _seeded_forest(rng):
    """parent and depth of many trees laid end to end, each node after its
    parent: lone roots, stars (depth <= 1), paths and bushes up to depth 40."""
    parent, depth = [], []
    kind = rng.choice(["lone", "stars", "mixed", "mixed"])
    for _ in range(rng.randint(0, 30)):
        size = 1 if kind == "lone" else rng.randint(1, 41)
        reach = rng.choice([1, 2, 5, size])  # a node's parent is among the last `reach` nodes
        root = len(parent)
        for i in range(size):
            p = -1 if i == 0 else root if kind == "stars" else root + rng.randint(max(0, i - reach), i - 1)
            parent.append(p)
            depth.append(0 if p < 0 else depth[p] + 1)
    return np.array(parent, dtype=np.int64), np.array(depth, dtype=np.int64)


def test_level_skipping_plan_equals_full_level_plan():
    rng = random.Random(35)
    trees = [_seeded_forest(rng) for _ in range(300)]
    assert {int(d.max(initial=0)) for _, d in trees} >= {0, 1, 40}
    trees += _chunk_trees(generate(GeneratorSpec("adversarial", ladder=10)), (5, 10, 30))
    trees += _chunk_trees(generate(GeneratorSpec("grid2d", dims=(30, 30), weights=WeightSpec(1, 100, seed=30))), (5, 10, 30))
    trees += [t for g in _tie_heavy_corpus() for t in _chunk_trees(g, RHOS)]
    trees += _chunk_trees(generate(GeneratorSpec("adversarial", ladder=40)), [10])  # the bench ladder
    dp_at_2 = 0
    for (parent, depth), k, heuristic in itertools.product(trees, (1, 2, 3, 4, 7, 50), ("dp", "greedy")):
        want = shortcut_targets_all_levels(parent, depth, k, heuristic)
        assert np.array_equal(preprocess._shortcut_targets(parent, depth, k, heuristic), want), (k, heuristic)
        if heuristic == "dp":  # the premise of the level skip: dp never cuts depth 0 or 1
            assert not (want & (depth <= 1)).any()
            dp_at_2 += int((want & (depth == 2)).sum())
    assert dp_at_2 > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 4, 8]), st.booleans(), st.sampled_from([3, 100]))
def test_build_1_rho_joins_every_ball_member_at_its_distance(seed, rho, tie_inclusive, w_hi):
    g, _ = random_graph(seed, n_hi=50, m_cap=140, w_hi=w_hi)
    aug, radii = build_1_rho(g, rho, tie_inclusive=tie_inclusive)
    for v in range(g.n):
        oracle = dijkstra(g, v)
        near = sorted((oracle[u], u) for u in range(g.n) if oracle[u] < UNREACHED)
        r_rho = near[min(rho, len(near)) - 1][0]
        assert radii.r[v] == r_rho
        ball = [p for p in near if p[0] <= r_rho] if tie_inclusive else near[:rho]
        adjacent = dict(zip(*(a.tolist() for a in aug.neighbors(v))))
        for d, u in ball:
            assert u == v or adjacent[u] == d


def _check_fused_tree(g, centers, rho, tie_inclusive, lex):
    # The balls of centers from one ball_arrays call against the oracle's:
    # the same members at their exact distances, each depth the fewest hops
    # over shortest paths, and each parent the smallest-(hops, id)
    # shortest-path predecessor.  lex[c] is _lex_dijkstra(g, c).
    want = [ball_bruteforce(g, c, rho, tie_inclusive, lex[c]) for c in centers]
    assert _split_balls(ball_arrays(g, centers, rho, tie_inclusive)) == want


def test_fused_tree_matches_lex_dijkstra_on_acceptance_corpus(acceptance_corpus):
    for g, s in acceptance_corpus:
        centers = sorted({s, g.n // 2, g.n - 1})
        lex = {c: _lex_dijkstra(g, c) for c in centers}
        for rho in (2, 5, 12):
            for tie_inclusive in (True, False):
                _check_fused_tree(g, centers, rho, tie_inclusive, lex)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 12]), st.booleans())
def test_fused_tree_matches_lex_dijkstra_under_ties(seed, rho, tie_inclusive):
    g, _ = random_graph(seed, n_hi=40, m_cap=120, w_hi=3)
    _check_fused_tree(g, range(g.n), rho, tie_inclusive, [_lex_dijkstra(g, c) for c in range(g.n)])


@pytest.mark.parametrize("heuristic", ["dp", "greedy"])
def test_build_k_rho_chunks_equal_per_vertex_plans(heuristic, monkeypatch):
    # Balls and plans made one vertex at a time, against build_k_rho over
    # several chunks, so trees from different chunks must not mix in the
    # batched plan: a weighted grid and the tie-heavy corpus, both tie modes.
    grid = generate(GeneratorSpec("grid2d", dims=(20, 15), weights=WeightSpec(1, 3, seed=7)))
    monkeypatch.setattr(preprocess, "_POOL_ENTRIES", 1000)
    assert grid.n > preprocess._pool_plan(grid, 6)[1]
    corpus = _tie_heavy_corpus()
    cases = [(grid, [(2, 6)])] + [(g, [(1, 3), (2, 5), (3, 16)]) for g in corpus[::3] + corpus[-2:]]
    pick = shortcut_dp if heuristic == "dp" else shortcut_greedy
    grid_added = 0
    for g, plans in cases:
        lex = [_lex_dijkstra(g, v) for v in range(g.n)]
        for (k, rho), tie_inclusive in itertools.product(plans, (True, False)):
            want = [(u, v, w) for u in range(g.n) for v, w in zip(*(a.tolist() for a in g.neighbors(u))) if u < v]
            r = []
            for v in range(g.n):
                ball = ball_bruteforce(g, v, rho, tie_inclusive, lex[v])
                r.append(ball.r_rho)
                want.extend((v, u, w) for u, w in pick(ball, k))
            aug, radii, added = build_k_rho(g, k, rho, heuristic=heuristic, tie_inclusive=tie_inclusive)
            assert aug == from_edges(g.n, want), (g.n, k, rho, tie_inclusive)
            assert radii.r.tolist() == r
            assert added == aug.m - g.m
            grid_added += added if g is grid else 0
    assert grid_added > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.sampled_from([2, 4, 8]))
def test_dp_adds_no_more_than_greedy_per_tree(seed, k, rho):
    # Plan sizes: per-tree DP optimality dominates greedy's feasible plan.
    # (Union counts into the graph can coincide with existing heavier edges,
    # so only the per-tree comparison is implied.)
    g, _ = random_graph(seed, n_hi=50, m_cap=140)
    for ball in _split_balls(ball_arrays(g, range(g.n), rho)):
        if len(ball.members) <= 1:
            continue
        assert len(shortcut_dp(ball, k)) <= len(shortcut_greedy(ball, k))


def _split_balls(columns):
    """ball_arrays' flat columns as one Ball per ball, with parent positions
    made local to the ball again."""
    center, vertex, dist, parent, depth = (a.tolist() for a in columns)
    starts = [i for i, p in enumerate(parent) if p < 0]
    balls = []
    for lo, hi in zip(starts, starts[1:] + [len(parent)]):
        assert set(center[lo:hi]) == {center[lo]}
        balls.append(Ball(
            center[lo],
            tuple(zip(vertex[lo:hi], dist[lo:hi])),
            dist[hi - 1],
            tuple(p - lo if p >= 0 else -1 for p in parent[lo:hi]),
            tuple(depth[lo:hi]),
        ))
    return balls


def _tie_heavy_corpus():
    """Seeded sparse graphs with weights 1-3 (or all 1): many ties, isolated
    vertices, and components smaller than most rho; plus a weighted grid and
    a small ladder."""
    rng = random.Random(20261018)
    graphs = []
    for _ in range(60):
        n = rng.randint(1, 40)
        w_hi = rng.choice([1, 3])
        m = rng.randint(0, 2 * n)
        graphs.append(from_edges(n, [(rng.randrange(n), rng.randrange(n), rng.randint(1, w_hi)) for _ in range(m)]))
    graphs.append(generate(GeneratorSpec("grid2d", dims=(9, 7), weights=WeightSpec(1, 3, seed=3))))
    graphs.append(generate(GeneratorSpec("adversarial", ladder=4)))
    return graphs


RHOS = (1, 2, 3, 5, 8, 16)


@pytest.mark.parametrize("tie_inclusive", [True, False])
def test_ball_arrays_equal_compute_ball_on_tie_heavy_corpus(tie_inclusive):
    isolated = small = 0
    for g in _tie_heavy_corpus():
        lex = [_lex_dijkstra(g, v) for v in range(g.n)]
        for rho in RHOS:
            got = _split_balls(ball_arrays(g, range(g.n), rho, tie_inclusive))
            want = [ball_bruteforce(g, v, rho, tie_inclusive, lex[v]) for v in range(g.n)]
            assert got == want, (g.n, rho)
            isolated += sum(len(b.members) == 1 for b in want) if rho > 1 else 0
            small += sum(1 < len(b.members) < rho for b in want)
    assert isolated > 0 and small > 0  # the corpus covers both cases


@pytest.mark.parametrize("tie_inclusive", [True, False])
def test_ball_arrays_across_chunks(tie_inclusive, monkeypatch):
    # A pool budget of a few rows splits the sources into many chunks; the
    # sources also come out of order and with a repeat.
    g = generate(GeneratorSpec("grid2d", dims=(8, 6), weights=WeightSpec(1, 3, seed=11)))
    sources = [47, 3, 3, 20, *range(30), 0]
    want = [ball_bruteforce(g, v, 5, tie_inclusive) for v in sources]
    monkeypatch.setattr(preprocess, "_POOL_ENTRIES", 3 * (1 + 4 * 4))
    assert preprocess._pool_plan(g, 5)[1] == 3
    assert _split_balls(ball_arrays(g, sources, 5, tie_inclusive)) == want


def _head_search_cases():
    """Graphs where the block-head search is hardest: unit ladders, whose
    heads skip long runs of members; a unit star of 60 vertices, whose
    tie-inclusive tail is most of each ball; and an 8-cycle with weights
    1-3 beside an isolated vertex and a 2-vertex component, smaller than
    most rho."""
    ladders = [generate(GeneratorSpec("adversarial", ladder=d)) for d in range(4, 9)]
    star = from_edges(60, [(0, leaf, 1) for leaf in range(1, 60)])
    split = from_edges(11, [(i, (i + 1) % 8, 1 + i % 3) for i in range(8)] + [(0, 4, 2), (9, 10, 1)])
    return ladders + [star, split]


@pytest.mark.parametrize("tie_inclusive", [True, False])
def test_ball_arrays_equal_bruteforce_where_heads_skip_far(tie_inclusive, monkeypatch):
    skipped = []
    real = preprocess._skip_members

    def skip(g, member, r, s, e):
        out = real(g, member, r, s, e)
        skipped.append(int((out - s).max(initial=0)))
        return out

    monkeypatch.setattr(preprocess, "_skip_members", skip)
    tails = 0
    for g in _head_search_cases():
        lex = [_lex_dijkstra(g, v) for v in range(g.n)]
        for rho in (2, 3, 7, 20, 100):
            # _POOL_ENTRIES set so that a chunk holds a third of the sources.
            widest = int(preprocess._pool_plan(g, min(rho, g.n))[0].max())
            monkeypatch.setattr(preprocess, "_POOL_ENTRIES", (1 + (min(rho, g.n) - 1) * widest) * (g.n // 3))
            assert preprocess._pool_plan(g, min(rho, g.n))[1] == g.n // 3
            want = [ball_bruteforce(g, v, rho, tie_inclusive, lex[v]) for v in range(g.n)]
            assert _split_balls(ball_arrays(g, range(g.n), rho, tie_inclusive)) == want, (g.n, rho)
            tails += sum(len(b.members) > 2 * rho for b in want)
    assert max(skipped) >= 8  # some head passed a long run of members
    assert (tails > 0) == tie_inclusive  # star leaves: the tail outgrows the pops


def _unit_lex(g, s):
    """_lex_dijkstra(g, s) on a unit-weight graph, by numpy BFS levels: there
    the least weight and the fewest hops of a shortest path are both the
    level."""
    dist = np.full(g.n, UNREACHED, dtype=np.int64)
    dist[s], front, level = 0, np.array([s]), 0
    while len(front):
        level += 1
        size = g.indptr[front + 1] - g.indptr[front]
        nbr = g.nbr[np.repeat(g.indptr[front] - np.cumsum(size) + size, size) + np.arange(size.sum())]
        front = np.unique(nbr[dist[nbr] == UNREACHED])
        dist[front] = level
    return dist.tolist(), dist.tolist()


def test_ball_arrays_equal_bruteforce_on_the_bench_ladder():
    # ladder-u's own graph at its rho: the search runs in chunks of 363
    # sources, each member opening a block of 80 slots.
    g = generate(GeneratorSpec("adversarial", ladder=40))
    assert preprocess._pool_plan(g, 10)[1] == 363 and preprocess._pool_plan(g, 10)[0].max() == 80
    got = _split_balls(ball_arrays(g, range(g.n), 10))
    for v in random.Random(40).sample(range(g.n), 100):
        assert got[v] == ball_bruteforce(g, v, 10, True, _unit_lex(g, v)), v


def test_ball_arrays_edge_cases():
    g = from_edges(3, PATH)
    assert all(len(col) == 0 for col in ball_arrays(g, [], 4))
    lone = from_edges(1, [])
    assert _split_balls(ball_arrays(lone, [0], 3)) == [Ball(0, ((0, 0),), 0, (-1,), (0,))]
    with pytest.raises(GraphError):
        ball_arrays(g, [3], 2)
    with pytest.raises(GraphError):
        ball_arrays(g, [0], 0)


def test_post_shortcut_k_hop_reachability():
    g, _ = random_graph(999, n_hi=40, m_cap=100)
    balls = _split_balls(ball_arrays(g, range(g.n), 6))
    for k in (1, 2, 3):
        aug, _, _ = build_k_rho(g, k, 6, heuristic="dp")
        for v, ball in enumerate(balls):
            targets = {u for u, _ in ball.members}
            # k rounds of hop expansion over the augmented graph must cover the ball
            reached = {v}
            frontier = {v}
            for _ in range(k):
                nxt = set()
                for u in frontier:
                    ns, _ = aug.neighbors(u)
                    nxt.update(w for w in ns.tolist() if w not in reached)
                reached |= nxt
                frontier = nxt
            assert targets <= reached


def test_validate_k_rho_accepts_build_output():
    g, _ = random_graph(31337, n_hi=60, m_cap=160)
    aug, radii, _ = build_k_rho(g, 2, 4, heuristic="dp")
    check_graph(aug)  # augmentation preserves every structural invariant
    assert validate_k_rho(aug, radii, 2, 4).ok


def test_validate_k_rho_flags_oversized_radius():
    g = from_edges(3, PATH)
    radii = RadiusAssignment(r=np.array([99, 99, 99], dtype=np.int64))
    report = validate_k_rho(g, radii, 1, 2)
    assert not report.ok
    assert any("exceeds k-radius" in v for v in report.violations)


def test_validate_k_rho_rho1_zero_radius_valid():
    g = from_edges(3, PATH)
    radii = RadiusAssignment(r=np.zeros(3, dtype=np.int64))
    assert validate_k_rho(g, radii, 1, 1).ok


def _bruteforce_violations(g, radii, rho, rbar, dists):
    """validate_k_rho's violations from the brute-force k-radius rbar and one
    full Dijkstra per vertex."""
    out = []
    for v, dv in enumerate(dists):
        rv = int(radii.r[v])
        if rv > int(rbar[v]):
            out.append(f"vertex {v}: r={rv} exceeds k-radius {int(rbar[v])}")
        size, need = int((dv.dist <= rv).sum()), min(rho, dv.reached_count())
        if size < need:
            out.append(f"vertex {v}: |B(v,{rv})|={size} below {need}")
    return tuple(out)


@pytest.mark.parametrize("tie_inclusive", [True, False])
def test_validate_k_rho_equals_bruteforce_oracle(tie_inclusive):
    # Connected graphs and the tie-heavy corpus (isolated vertices, small
    # components), on g and on each augmented graph, with the radii as
    # built, one less (where positive), one more, and one vertex uncapped.
    graphs = [random_graph(seed, n_hi=30, m_cap=80)[0] for seed in range(4)] + _tie_heavy_corpus()[::8]
    assert any(np.diff(g.indptr).min(initial=1) == 0 for g in graphs)
    kinds = set()
    for g in graphs:
        for k in (1, 2, 3):
            on_g = (k_radius_bruteforce(g, k), [dijkstra(g, v) for v in range(g.n)])
            for rho in (1, 3, 8, g.n + 5):
                aug, radii, _ = build_k_rho(g, k, rho, tie_inclusive=tie_inclusive)
                on_aug = on_g if aug is g else (k_radius_bruteforce(aug, k), [dijkstra(aug, v) for v in range(g.n)])
                uncapped = np.where(np.arange(g.n) == g.n // 2, UNREACHED, radii.r)
                for h, oracle in ((g, on_g), (aug, on_aug)):
                    for r in (radii.r, np.maximum(radii.r - 1, 0), radii.r + 1, uncapped):
                        checked = RadiusAssignment(r)
                        got = validate_k_rho(h, checked, k, rho).violations
                        assert got == _bruteforce_violations(h, checked, rho, *oracle), (g.n, k, rho, r)
                        kinds.update({line.split()[3] for line in got} or {"ok"})
    assert kinds == {"exceeds", "below", "ok"}


def test_validate_k_rho_across_chunks_and_slices(monkeypatch):
    # An entry budget of 7 puts a source or two in each chunk and relaxes a
    # round's pairs a few at a time, so two slices of one round lower the
    # same pair; the report must not change.
    cases = []
    for g in [random_graph(seed, n_hi=30, m_cap=80, w_hi=3)[0] for seed in range(3)] + _tie_heavy_corpus()[::12]:
        for k, rho in ((1, 4), (3, 9)):
            aug, radii, _ = build_k_rho(g, k, rho)
            for r in (radii.r + 1, np.full(g.n, UNREACHED)):
                checked = RadiusAssignment(r)
                cases.append((g, checked, k, rho, validate_k_rho(g, checked, k, rho)))
    monkeypatch.setattr(preprocess, "_CHECK_ENTRIES", 7)
    assert any(not report.ok for *_, report in cases)
    for g, checked, k, rho, report in cases:
        assert validate_k_rho(g, checked, k, rho) == report


def test_premise_verdicts_agree_across_chunks(monkeypatch):
    # A pool budget of 256 entries spreads the premise's ball search over
    # chunks of a few sources.  check_bounds must find the premise
    # failing exactly where validate_k_rho reports a |B( line, and name the
    # same first vertex and the same need.
    cases = []
    for g in _tie_heavy_corpus():
        for rho in (3, 8):
            aug, radii, _ = build_k_rho(g, 1, rho)
            lowered = radii.r.copy()
            positive = np.flatnonzero(lowered > 0)
            lowered[positive[len(positive) // 2 :][:1]] -= 1
            res = radius_step_fast(aug, radii, 0)
            for r in (radii.r, lowered, np.zeros(g.n, dtype=np.int64)):
                cases.append((aug, rho, res, RadiusAssignment(r)))
    monkeypatch.setattr(preprocess, "_POOL_ENTRIES", 256)
    chunks = []
    real = preprocess._lockstep
    monkeypatch.setattr(preprocess, "_lockstep", lambda g, *rest: chunks.append(len(rest[1])) or real(g, *rest))
    verdicts, spread = set(), 0
    for aug, rho, res, checked in cases:
        before = len(chunks)
        report = check_bounds(res, aug, rho, 1, radii=checked)
        spread += len(chunks) - before > 1
        short = [line for line in validate_k_rho(aug, checked, 1, rho).violations if "|B(" in line]
        assert report.checkable == (not short), (aug.n, rho)
        if short:
            v, need = re.fullmatch(r"vertex (\d+): \|B\(v,\d+\)\|=\d+ below (\d+)", short[0]).groups()
            assert report.reason == f"premise fails: |B({v}, r)| below {need}"
        verdicts.add(report.checkable)
    assert verdicts == {True, False} and spread > 0


def _tie_inclusive_premise(g, r, rho):
    """_ball_premise's counts from tie-inclusive balls: |B(v, r(v))| over the
    whole tie-inclusive ball and min(rho, that ball's size)."""
    center, _, dist, parent, _ = ball_arrays(g, range(g.n), rho, tie_inclusive=True)
    starts = np.flatnonzero(parent < 0)
    size = np.diff(np.append(starts, len(parent)))
    return np.add.reduceat(dist <= r[center], starts), np.minimum(size, min(rho, g.n))


def test_premise_on_strict_balls_decides_as_tie_inclusive_balls_do():
    # A member tied at r_rho cannot turn a short count into an enough one:
    # where the count is short, r(v) < r_rho.  So the strict ball gives the
    # same verdicts, and the same counts where they fall short.
    rng = np.random.default_rng(36)
    shorts = enough = 0
    for g in _tie_heavy_corpus():
        for rho in RHOS:
            r_rho = np.array([b.r_rho for b in _split_balls(ball_arrays(g, range(g.n), rho))], dtype=np.int64)
            for r in (r_rho, np.maximum(r_rho - 1, 0), rng.integers(0, r_rho.max(initial=0) + 2, g.n), 0 * r_rho):
                inside, need = preprocess._ball_premise(g, r, range(g.n), rho)
                want_inside, want_need = _tie_inclusive_premise(g, r, rho)
                short = want_inside < want_need
                assert np.array_equal(inside < need, short), (g.n, rho)
                assert np.array_equal(inside[short], want_inside[short]) and np.array_equal(need, want_need)
                shorts, enough = shorts + short.sum(), enough + (~short).sum()
    assert shorts > 0 and enough > 0


def test_premise_never_runs_the_tie_tail(monkeypatch):
    # On a unit star every leaf is tied with every other leaf, so a
    # tie-inclusive premise searched the whole star from each leaf.
    g = from_edges(300, [(0, v, 1) for v in range(1, 300)])
    modes = []
    real = preprocess._lockstep
    monkeypatch.setattr(preprocess, "_lockstep", lambda *args: modes.append(args[-1]) or real(*args))
    r_rho = np.full(g.n, 2)
    r_rho[0] = 1
    inside, need = preprocess._ball_premise(g, r_rho, range(g.n), 3)
    assert need.tolist() == inside.tolist() == [3] * g.n  # the strict ball's members, all within r_rho
    zero = RadiusAssignment.uniform(g.n, 0)
    assert check_bounds(radius_step_fast(g, zero, 0), g, 3, None, zero).reason == "premise fails: |B(0, r)| below 3"
    assert modes and not any(modes)


def test_validation_hands_no_row_to_the_premise_over_correct_builds(monkeypatch):
    # validate_k_rho falls back on _ball_premise, the build's own ball
    # search, only for a row its hop rounds leave with fewer than rho pairs.
    # On a correct build of a connected graph no row is left so.
    rows = []
    real = preprocess._ball_premise
    monkeypatch.setattr(preprocess, "_ball_premise", lambda g, r, src, rho: rows.append(len(src)) or real(g, r, src, rho))
    graphs = [
        generate(GeneratorSpec("grid2d", dims=(12, 12), weights=WeightSpec(1, 100, seed=2))),
        generate(GeneratorSpec("grid2d", dims=(12, 12))),
        generate(GeneratorSpec("adversarial", ladder=6)),
        generate(GeneratorSpec("random", n=200, m=600, seed=5, weights=WeightSpec(1, 100, seed=5))),
    ]
    for g in graphs:
        for k, rho in ((1, 2), (1, 10), (2, 10)):
            for tie_inclusive in (True, False):
                aug, radii, _ = build_k_rho(g, k, rho, tie_inclusive=tie_inclusive)
                assert validate_k_rho(aug, radii, k, rho).ok
    assert len(rows) == 24 and sum(rows) == 0
    # Radii cut to 0 keep only each source: every row goes to the premise.
    g = graphs[0]
    aug = build_k_rho(g, 1, 10)[0]
    assert not validate_k_rho(aug, RadiusAssignment.uniform(g.n, 0), 1, 10).ok
    assert rows[-1] == g.n


def test_validate_k_rho_flags_a_dropped_shortcut_above_the_old_cap(monkeypatch):
    g = generate(MUTANT_GRID)
    assert g.n > 400
    aug, radii, _ = build_k_rho(g, 1, 10)
    assert validate_k_rho(aug, radii, 1, 10).ok
    drop_planned_shortcut(monkeypatch)
    mutant, mutant_radii, _ = build_k_rho(g, 1, 10)
    assert mutant.m == aug.m - 1 and np.array_equal(mutant_radii.r, radii.r)
    report = validate_k_rho(mutant, mutant_radii, 1, 10)
    assert report.violations[0].startswith("vertex 0: r=149 exceeds k-radius")


def test_huge_k_and_rho_build_and_check_as_n():
    # At k = 2**62, dp's table of k+1 columns could not be allocated, and
    # at 2**70 greedy's modulo raised OverflowError; rho = 2**70 overflowed
    # the premise's np.minimum.  No tree node is more than n hops deep and
    # no ball holds more than n vertices, so n gives the same outputs.
    g = generate(GeneratorSpec(kind="grid2d", dims=(6, 6), weights=WeightSpec(1, 50, seed=5)))

    def built(k, rho, heuristic):
        aug, radii, added = build_k_rho(g, k, rho, heuristic=heuristic)
        return write_edge_list(aug), radii.r.tolist(), added

    for huge in (2**62, 2**70):
        for heuristic in ("dp", "greedy"):
            assert built(huge, 8, heuristic) == built(g.n, 8, heuristic)
            assert built(2, huge, heuristic) == built(2, g.n, heuristic)
        aug, radii, _ = build_k_rho(g, 2, 8)
        for r in (radii.r, radii.r // 2):
            want = validate_k_rho(aug, RadiusAssignment(r), 2, g.n).violations
            assert validate_k_rho(aug, RadiusAssignment(r), 2, huge).violations == want
            want = validate_k_rho(aug, RadiusAssignment(r), g.n, 8).violations
            assert validate_k_rho(aug, RadiusAssignment(r), huge, 8).violations == want


def test_rho_above_n_searches_as_rho_n(monkeypatch):
    # A ball holds at most n vertices, so rho = 50n must give rho = n's
    # balls, shortcuts and radii, from pool chunks of the same size.
    g = from_edges(33, [(i, j, 1 + (i * j) % 5) for i in range(30) for j in range(i + 1, 30)] + [(30, 31, 2)])
    chunks = []
    real = preprocess._lockstep

    def lockstep(g, budget, src, *rest):
        chunks.append(len(src))
        return real(g, budget, src, *rest)

    monkeypatch.setattr(preprocess, "_lockstep", lockstep)
    for tie_inclusive in (True, False):
        got = []
        for rho in (g.n, 50 * g.n):
            chunks.clear()
            aug, radii, added = build_k_rho(g, 2, rho, tie_inclusive=tie_inclusive)
            balls = [col.tolist() for col in ball_arrays(g, range(g.n), rho, tie_inclusive)]
            got.append((write_edge_list(aug), radii.r.tolist(), added, balls, list(chunks)))
        assert got[0] == got[1]


def test_radii_roundtrip():
    g, _ = random_graph(5, n_hi=30, m_cap=60)
    _, radii = build_1_rho(g, 3)
    assert np.array_equal(read_radii(write_radii(radii, g.labels), g).r, radii.r)


def test_radii_align_by_labels():
    g = parse_edge_list("7 3 2\n3 9 5\n")  # labels 7,3,9 -> compact 0,1,2
    assert read_radii("3 10\n7 20\n9 30\n", g).r.tolist() == [20, 10, 30]


def test_radii_for_graph_rejects_gaps():
    g = from_edges(3, PATH)
    with pytest.raises(GraphError):
        read_radii("0 1\n2 4\n", g)


def test_parse_radii_rejects_ids_beyond_int64():
    g = from_edges(2, [], labels=(-(2**63), 2**63 - 1))
    assert read_radii(f"{-(2**63)} 1\n{2**63 - 1} inf\n", g).r.tolist() == [1, UNREACHED]
    with pytest.raises(GraphError, match=r"radii line 3: vertex ids must fit int64, got 18446744073709551616"):
        read_radii(f"0 1\n# note\n{2**64} 2\n", g)


def test_parse_radii_rejects_lines_without_two_fields_and_empty_files():
    g = from_edges(2, [])
    for text in ("0 1\n1\n", "0 1\n1 2 3\n"):
        with pytest.raises(GraphError, match="^radii line 2: expected 'v r'$"):
            read_radii(text, g)
    for text in ("", "\n", "# only a comment\n", "  \r\n"):
        with pytest.raises(GraphError, match="^empty radii file$"):
            read_radii(text, g)


def test_parse_radii_takes_crlf_and_a_bare_cr_ending():
    g = from_edges(2, [])
    assert read_radii("0 5\r\n1 inf\r\n", g).r.tolist() == [5, 2**62]
    assert read_radii("# note\r\n0 5\r\n1 inf\r", g).r.tolist() == [5, 2**62]


def test_radii_inf_roundtrip():
    g = from_edges(2, [(0, 1, 3)])
    radii = RadiusAssignment.uniform(2, UNREACHED)
    text = write_radii(radii, g.labels)
    assert text == "0 inf\n1 inf\n"
    assert read_radii(text, g).r.tolist() == [UNREACHED, UNREACHED]


# (graph labels, file text, radii by dense id or the exact GraphError message)
READ_RADII_CASES = [
    ((7, 3, 9), "3 10\n7 20\n9 30\n", [20, 10, 30]),
    ((0, 1), "0 1\n1 inf\n", [1, UNREACHED]),
    ((0, 1), "0 inf\n1 inf\n", [UNREACHED, UNREACHED]),
    ((0, 1), "0 5\r\n1 inf\r\n", [5, UNREACHED]),
    ((0, 1), "# note\r\n0 5\r\n1 inf\r", [5, UNREACHED]),
    ((0, 1), "  # note\n\n 1 0 \n0 4611686018427387904\n", [UNREACHED, 0]),
    ((-(2**63), 2**63 - 1), f"{-(2**63)} 1\n{2**63 - 1} inf\n", [1, UNREACHED]),
    ((0, 1), "", "empty radii file"),
    ((0, 1), "\n", "empty radii file"),
    ((0, 1), "# only a comment\n", "empty radii file"),
    ((0, 1), "  \r\n", "empty radii file"),
    ((0, 1), "0 1\n1\n", "radii line 2: expected 'v r'"),
    ((0, 1), "0 1\n1 2 3\n", "radii line 2: expected 'v r'"),
    ((0, 1), "0 1.5\n", "radii line 1: expected integers 'v r', got '0 1.5'"),
    ((0, 1), "# radii\ny 3\n", "radii line 2: expected integers 'v r', got 'y 3'"),
    ((0, 1), "0 -1\n", "radii line 1: radius must be in [0, 2**62] or inf, got -1"),
    ((0, 1), f"0 {2**62 + 1}\n", f"radii line 1: radius must be in [0, 2**62] or inf, got {2**62 + 1}"),
    ((0, 1), f"0 1\n# note\n{2**64} 2\n", "radii line 3: vertex ids must fit int64, got 18446744073709551616"),
    ((0, 1), f"{-(2**63) - 1} 2\n", f"radii line 1: vertex ids must fit int64, got {-(2**63) - 1}"),
    ((0, 1), "0 1\n1 2\n0 3\n", "radii line 3: vertex 0 listed twice"),
    # A line's errors come in file order: the first bad line is named.
    ((0, 1), "0 1\n0 2\n1\n", "radii line 2: vertex 0 listed twice"),
    ((0, 1), "0 1\nx 2\n0 3\n", "radii line 2: expected integers 'v r', got 'x 2'"),
    # Then a missing vertex (the first by dense id), then labels beyond g's.
    ((0, 1, 2), "0 1\n2 4\n", "radii file is missing vertex 1"),
    ((7, 3, 9), "3 1\n9 3\n5 4\n6 5\n", "radii file is missing vertex 7"),
    ((7, 3, 9), "3 1\n7 2\n9 3\n5 4\n", "radii file covers 4 vertices, graph has 3"),
]


def test_read_radii_gives_radii_or_the_first_error_in_file_order():
    for labels, text, want in READ_RADII_CASES:
        g = from_edges(len(labels), [], labels=labels)
        if isinstance(want, str):
            with pytest.raises(GraphError) as err:
                read_radii(text, g)
            assert str(err.value) == want, text
        else:
            radii = read_radii(text, g)
            assert isinstance(radii, RadiusAssignment) and radii.r.tolist() == want, text


def test_bad_arguments():
    g = from_edges(3, PATH)
    with pytest.raises(GraphError):
        compute_ball(g, 0, 0)
    with pytest.raises(GraphError):
        build_k_rho(g, 0, 2)
    with pytest.raises(GraphError):
        build_k_rho(g, 1, 2, heuristic="magic")
    for rho, k in ((0, 1), (2, 0)):
        with pytest.raises(GraphError):
            validate_k_rho(g, RadiusAssignment(np.zeros(3, dtype=np.int64)), k, rho)
    for n in (2, 4):  # radii for too few or too many vertices
        with pytest.raises(GraphError, match="radius assignment does not match graph size"):
            validate_k_rho(g, RadiusAssignment(np.zeros(n, dtype=np.int64)), 1, 2)
    for pick in (shortcut_dp, shortcut_greedy):
        with pytest.raises(GraphError, match="k must be >= 1"):
            pick(compute_ball(g, 0, 3), 0)


def test_ball_search_rejects_non_integer_sources():
    # A float source must not be truncated to a vertex id: 0.7 and 1.9 would
    # search the balls of vertices 0 and 1.
    g = from_edges(3, PATH)
    for sources in ([0.7], [1.9], [True], np.ones(2)):
        with pytest.raises(GraphError, match="^sources must be integers, got (float|bool|float64)$"):
            ball_arrays(g, sources, 2)
    assert all(len(col) == 0 for col in ball_arrays(g, [], 4))  # an empty list is float-typed
    small = np.array([2, 0], dtype=np.uint8)
    assert [col.tolist() for col in ball_arrays(g, small, 2)] == [col.tolist() for col in ball_arrays(g, [2, 0], 2)]


def test_counts_must_be_integers():
    # A float count must be rejected, not compared against member counts.
    g = from_edges(3, PATH)
    radii = RadiusAssignment(np.zeros(3, dtype=np.int64))
    takes_rho = (
        lambda x: compute_ball(g, 0, x),
        lambda x: ball_arrays(g, [0], x),
        lambda x: build_k_rho(g, 1, x),
        lambda x: validate_k_rho(g, radii, 1, x),
    )
    takes_k = (
        lambda x: build_k_rho(g, x, 2),
        lambda x: shortcut_dp(compute_ball(g, 0, 3), x),
        lambda x: validate_k_rho(g, radii, x, 2),
    )
    for name, calls in (("rho", takes_rho), ("k", takes_k)):
        for value in (2.5, True, np.float64(2), "2"):
            for call in calls:
                with pytest.raises(GraphError, match=f"{name} must be an integer, got"):
                    call(value)
    assert compute_ball(g, 0, np.int32(2)) == compute_ball(g, 0, 2)
    # The one-ball view of ball_arrays hands back Python ints, not numpy's.
    ball = compute_ball(g, np.int64(1), 2)
    assert ball == compute_ball(g, 1, 2)
    fields = (ball.center, ball.r_rho, *ball.parent, *ball.depth, *(x for pair in ball.members for x in pair))
    assert all(type(x) is int for x in fields)


def test_radius_assignment_takes_only_integer_radii():
    # A float r would reach the engine, whose int(keys.min()) truncates thresholds.
    for r in (np.array([0.5, 1.5, 2.5]), [0.0, 1.0, 2.0], np.ones(3, dtype=bool), np.zeros((3, 1), dtype=np.int64)):
        with pytest.raises(GraphError, match="^radii must be (integers, got (float|bool)|a 1-D sequence, got shape)"):
            RadiusAssignment(r)
    with pytest.raises(GraphError, match="^radii must fit int64$"):
        RadiusAssignment(np.array([2**63], dtype=np.uint64))
    mine = np.array([1, 2, 3], dtype=np.int32)
    radii = RadiusAssignment(mine)
    mine[0] = 9  # the assignment keeps its own read-only copy
    assert radii.r.tolist() == [1, 2, 3] and radii.r.dtype == np.int64 and not radii.r.flags.writeable
    # Radii lie in [0, UNREACHED], as read_radii and the engines take them.
    with pytest.raises(GraphError, match="^radii must be nonnegative$"):
        RadiusAssignment([-1, 0])
    with pytest.raises(GraphError, match=r"^radii must be at most 4611686018427387904 \(2\*\*62, no cap\)$"):
        RadiusAssignment([UNREACHED + 1, 0])
    assert RadiusAssignment([0, UNREACHED]).r.tolist() == [0, UNREACHED]
    # So is the vertex count of a uniform assignment.
    for n in (-1, True, 2.5):
        with pytest.raises(GraphError, match=rf"^vertex count must be a nonnegative integer, got {n!r}$"):
            RadiusAssignment.uniform(n, 1)


def test_uniform_radii_must_be_integers():
    # 2.5 was truncated to 2 and True read as 1; 2**63 raised a bare OverflowError.
    for value in (2.5, True, 2**63, np.float64(1), "1"):
        with pytest.raises(GraphError, match="^radii must (be integers, got (float64|bool|<U1)|fit int64)$"):
            RadiusAssignment.uniform(3, value)
    assert RadiusAssignment.uniform(3, UNREACHED).r.tolist() == [UNREACHED] * 3
    assert RadiusAssignment.uniform(2, np.int32(4)).r.tolist() == [4, 4]


def test_a_bool_item_in_an_integer_list_is_rejected():
    # numpy read [True, 2] as [1, 2] before the dtype check: the radii were
    # [1, 2, 3], and ball_arrays searched from vertex 1.
    g = from_edges(3, PATH)
    for r in ([True, 2, 3], (0, np.False_, 1)):
        with pytest.raises(GraphError, match="^radii must be integers, got bool$"):
            RadiusAssignment(r)
    for sources in ([True, 2], (0, np.True_), [[2], [False]]):
        with pytest.raises(GraphError, match="^sources must be integers, got (bool|list)$"):
            ball_arrays(g, sources, 2)
    assert RadiusAssignment([1, np.int32(2), 3]).r.tolist() == [1, 2, 3]
    with pytest.raises(GraphError, match="^sources must be integers, got list$"):
        ball_arrays(g, [[2], [0]], 2)


def test_ball_arrays_rejects_nested_sources():
    # reshape(-1) flattened [[0, 1], [2, 0]] into four sources, so four balls
    # came back for a two-by-two array; a scalar became one source.
    g = from_edges(3, PATH)
    for sources in ([[0, 1], [2, 0]], np.zeros((2, 1), dtype=np.int64), np.int64(1), 1, [[]]):
        with pytest.raises(GraphError, match="^sources must be (integers, got list$|a 1-D sequence, got (shape|int))"):
            ball_arrays(g, sources, 2)
    assert ball_arrays(g, np.array([0, 1, 2]), 2)[0].tolist() == [0, 0, 1, 1, 2, 2]  # one ball per source


def test_write_radii_rejects_the_wrong_number_of_labels():
    # Three radii with labels (5,) would write "5 1\n" alone and drop two radii.
    radii = RadiusAssignment.uniform(3, 1)
    for labels in ((5,), (5, 6, 7, 8)):
        with pytest.raises(GraphError, match=f"{len(labels)} labels for 3 radii"):
            write_radii(radii, labels=labels)
    assert write_radii(radii, labels=(7, 5, 6)) == "5 1\n6 1\n7 1\n"


def test_write_radii_takes_labels_as_from_edges_does():
    # (1.5, 2.7) wrote "1 3\n2 3\n", bools and strings were taken, (5, 5)
    # wrote a file read_radii rejects, and 2**63 raised a bare OverflowError.
    radii = RadiusAssignment.uniform(2, 3)
    cases = [
        ((1.5, 2.7), "vertex labels must be integers"),
        ((True, False), "vertex labels must be integers"),
        (("1", "2"), "vertex labels must be integers"),
        ((5, 5), "vertex labels must be 2 distinct ids"),
        ((2**63, 1), "vertex labels must fit int64"),
    ]
    for labels, message in cases:
        with pytest.raises(GraphError, match=message):
            write_radii(radii, labels=labels)
        with pytest.raises(GraphError, match=message):
            from_edges(2, [(0, 1, 1)], labels=labels)
    assert write_radii(radii, labels=(np.int64(9), -(2**63))) == f"{-(2**63)} 3\n9 3\n"


def test_uniform_radii_need_a_vertex_count():
    # 2.0 and True raised numpy's TypeError, -1 a bare ValueError.
    for n in (2.0, True, -1, np.float64(2), "2"):
        with pytest.raises(GraphError, match="vertex count must be a nonnegative integer"):
            RadiusAssignment.uniform(n, 1)
    assert RadiusAssignment.uniform(0, 1).r.tolist() == []
    assert RadiusAssignment.uniform(np.int64(2), 1).r.tolist() == [1, 1]
