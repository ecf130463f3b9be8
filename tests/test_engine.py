import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from radius_stepping import (
    GraphError,
    GeneratorSpec,
    WeightSpec,
    RadiusAssignment,
    UNREACHED,
    build_k_rho,
    check_bounds,
    compute_ball,
    delta_stepping,
    dijkstra,
    from_edges,
    generate,
    radius_step_fast,
    radius_step_unweighted,
    step_records_csv,
)
from radius_stepping.engine import (
    SsspResult,
    StepLog,
    StepRecord,
    _ceil_log2,
    _compact,
    _finish,
    _start,
    relax_batch,
)
from conftest import corpus, random_graph, tie_heavy_corpus
from oracles import ReferenceRun, bellman_ford, bfs, build_1_rho, hop_matrix, radius_step_reference, step_sets

PATH = [(0, 1, 2), (1, 2, 3)]


def settled_sets(res):
    """The sets a reference run recorded as it settled them, or those an
    engine run's distances and thresholds give."""
    return res.sets if isinstance(res, ReferenceRun) else step_sets(res)


def step_signature(res):
    return list(zip(res.steps.d.tolist(), settled_sets(res), res.steps.substeps.tolist()))


def test_reference_spec_trace():
    g = from_edges(3, PATH)
    _, radii = build_1_rho(g, 2)
    assert radii.r.tolist() == [2, 2, 3]
    res = radius_step_reference(g, radii, 0)
    assert step_signature(res) == [(4, (1,), 1), (8, (2,), 1)]
    assert res.dist.dist.tolist() == [0, 2, 5]


def test_infinite_radii_single_step_bellman_ford():
    g, s = random_graph(808, n_hi=40, m_cap=100)
    radii = RadiusAssignment.uniform(g.n, UNREACHED)
    res = radius_step_reference(g, radii, s)
    assert res.step_count == 1
    assert res.dist.same_as(dijkstra(g, s))
    # N(s) is relaxed at init, so the substeps are exactly the max hop count:
    # hops 2..H to converge, one more to observe the fixpoint.
    hops = hop_matrix(g)[s]
    finite = hops < UNREACHED
    assert res.steps[0].substeps == int(hops[finite].max())


def test_zero_radii_dijkstra_by_distance_class():
    g, s = random_graph(909, n_hi=40, m_cap=100)
    radii = RadiusAssignment.uniform(g.n, 0)
    res = radius_step_reference(g, radii, s)
    oracle = dijkstra(g, s)
    finite = oracle.dist[oracle.dist < UNREACHED]
    distinct_nonzero = len(set(finite.tolist())) - 1
    assert res.step_count == distinct_nonzero
    assert res.dist.same_as(oracle)


def test_threshold_at_the_relaxation_floor_takes_an_ordinary_step():
    # s-a-b with unit weights and r(a) = 1: the threshold delta(a) + r(a) = 2
    # equals the floor delta(a) + w_min(a) = 2, so relaxing a can still pull
    # b in at distance 2 and the step needs a second substep.
    g = from_edges(3, [(0, 1, 1), (1, 2, 1)])
    radii = RadiusAssignment(r=np.array([0, 1, 0], dtype=np.int64))
    for engine in (radius_step_reference, radius_step_fast):
        assert step_signature(engine(g, radii, 0)) == [(2, (1, 2), 2)]


def test_floor_steps_past_edges_into_settled_vertices(monkeypatch):
    # Each vertex's lightest edge leads back to the vertex that reached it.
    # A floor of delta + first weight settles 1, 2, 3 and {4, 5} in four
    # batches; stepped past those edges it settles {1, 2}, {3, 4} and {5}.
    # 4 and 5 have one edge each, so their floor term becomes UNREACHED.
    import radius_stepping.engine as eng

    calls = []
    monkeypatch.setattr(eng, "relax_batch", lambda *a: calls.append(1) or relax_batch(*a))
    g = from_edges(6, [(0, 1, 1), (0, 2, 5), (1, 3, 10), (3, 5, 40), (2, 4, 30)])
    radii = RadiusAssignment.uniform(6, 0)
    fast = radius_step_fast(g, radii, 0)
    assert len(calls) == 3
    ref = radius_step_reference(g, radii, 0)
    assert list(fast.steps) == list(ref.steps) and step_sets(fast) == ref.sets
    assert fast.dist.dist.tolist() == [0, 1, 5, 11, 35, 51]
    # No edge at all: the floor has no row to read.
    empty = from_edges(3, [])
    assert radius_step_fast(empty, RadiusAssignment.uniform(3, 0), 1).dist.dist.tolist() == [UNREACHED, 0, UNREACHED]
    run = delta_stepping(empty, 1, 2)
    assert (run.step_count, run.total_substeps(), run.dist.dist.tolist()) == (0, 0, [UNREACHED, 0, UNREACHED])


def test_step_log_of_batched_and_ordinary_rounds_equals_the_reference(monkeypatch):
    # Step 1 is ordinary: its threshold 1 + r(1) = 6 takes 5 in at 6, and
    # relaxing 1 lowers 5 to 5, so it takes 2 substeps and scans 10 edges,
    # more than the 6 its vertices have.  Steps 2 and 3 lie below the floor
    # and settle in one batch, whose union lists step 2's vertices as 4, 2.
    import radius_stepping.engine as eng

    calls = []
    monkeypatch.setattr(eng, "relax_batch", lambda g, delta, active, settled: calls.append(
        np.asarray(active).tolist()) or relax_batch(g, delta, active, settled))
    g = from_edges(6, [(0, 1, 1), (0, 4, 9), (0, 5, 6), (1, 5, 4), (2, 5, 4), (3, 5, 7)])
    radii = RadiusAssignment(np.array([5, 5, 1, 0, 0, 0]))
    fast = radius_step_fast(g, radii, 0)
    assert calls == [[1, 5], [5], [4, 2, 3]]
    ref = radius_step_reference(g, radii, 0)
    for col in StepLog.__slots__:
        assert np.array_equal(getattr(fast.steps, col), getattr(ref.steps, col)), col
    assert list(fast.steps) == list(ref.steps) == [
        StepRecord(1, 6, 2, 2, 3, 10),
        StepRecord(2, 9, 2, 1, 5, 2),
        StepRecord(3, 12, 1, 1, 6, 1),
    ]
    assert step_sets(fast) == ref.sets == ((1, 5), (2, 4), (3,))
    assert fast.dist.same_as(ref.dist) and fast.dist.dist.tolist() == [0, 1, 9, 12, 9, 5]


def test_heaviest_weight_and_radius_stay_inside_int64():
    # (n-1)*L reaches 2**62 but the spanning-forest bound (n-1)*B = 2 does
    # not, so the graph is accepted; delta + w and delta + r then come within
    # one of the int64 maximum without wrapping.
    g = from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, UNREACHED - 1)])
    radii = RadiusAssignment.uniform(3, UNREACHED)
    for engine in (radius_step_reference, radius_step_fast):
        assert engine(g, radii, 0).dist.dist.tolist() == [0, 1, 2]
    with pytest.raises(GraphError, match="radii must be at most"):
        radius_step_fast(g, RadiusAssignment.uniform(3, UNREACHED + 1), 0)


def test_negative_radii_are_rejected():
    # The assignment refuses them, so no engine can receive them.
    with pytest.raises(GraphError, match="^radii must be nonnegative$"):
        RadiusAssignment(np.array([1, -1, 1]))


def test_fast_single_edge_explicit_radii():
    g = from_edges(2, [(0, 1, 7)])
    res = radius_step_fast(g, RadiusAssignment.uniform(2, 7), 0)
    assert step_signature(res) == [(14, (1,), 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 4, 8]))
def test_engines_equivalent(seed, rho):
    g, s = random_graph(seed, n_hi=60, m_cap=180)
    aug, radii = build_1_rho(g, rho)
    ref = radius_step_reference(aug, radii, s)
    fast = radius_step_fast(aug, radii, s)
    assert ref.sets == step_sets(fast)
    assert step_signature(ref) == step_signature(fast)
    assert ref.dist.same_as(fast.dist)
    assert ref.total_relaxations == fast.total_relaxations
    assert ref.dist.same_as(dijkstra(aug, s))


def test_monotone_settlement_and_active_union(acceptance_corpus):
    # step_sets reads each step's set off the distances and thresholds.  On
    # every run, radius engines at two rho and at inf radii and delta_stepping
    # at several Delta, the sets are disjoint, sized as active_count says,
    # and together with s they are the vertices bfs reaches.
    graphs = acceptance_corpus + [(g, g.n // 2) for g in tie_heavy_corpus()]
    for g, s in graphs:
        runs = [radius_step_fast(g, RadiusAssignment.uniform(g.n, UNREACHED), s)]
        for rho in (1, 4):
            aug, radii = build_1_rho(g, rho)
            runs.append(radius_step_fast(aug, radii, s))
        runs += [delta_stepping(g, s, delta) for delta in (1, 3, g.max_weight, g.n * g.max_weight)]
        reached = set(np.flatnonzero(bfs(g, s).dist.dist < UNREACHED).tolist())
        for res in runs:
            ds = res.steps.d.tolist()
            assert all(a < b for a, b in zip(ds, ds[1:]))
            prefix = 1
            settled = {s}
            for rec, step in zip(res.steps, step_sets(res), strict=True):
                assert rec.substeps >= 1
                assert rec.active_count == len(step)
                prefix += rec.active_count
                assert rec.settled_prefix == prefix
                assert not settled & set(step)
                settled |= set(step)
            assert settled == reached


def test_steps_independent_of_k():
    g, s = random_graph(4141, n_hi=60, m_cap=180)
    signatures = []
    for k in (1, 2, 3):
        aug, radii, _ = build_k_rho(g, k, 4, heuristic="dp")
        res = radius_step_fast(aug, radii, s)
        signatures.append((res.steps.d.tolist(), step_sets(res)))
        assert max(rec.substeps for rec in res.steps) <= k + 2
    assert signatures[0] == signatures[1] == signatures[2]


def test_substep_commutes_under_edge_reversal():
    # The same active set, reversed and in seeded shuffles, scans its edges
    # in other orders; the min-combine must not notice.
    for seed in range(8):
        g, s = random_graph(seed, n_hi=80, m_cap=300)
        oracle = dijkstra(g, s)
        active = np.array([v for v in range(g.n) if 0 < oracle[v] < UNREACHED][:60], dtype=np.int64)
        base = np.where(oracle.dist < UNREACHED, oracle.dist + 3, UNREACHED)
        settled = np.zeros(g.n, dtype=bool)
        fwd = base.copy()
        moved_f, n_f = relax_batch(g, fwd, active, settled)
        rng = np.random.default_rng(seed)
        for order in [active[::-1]] + [rng.permutation(active) for _ in range(3)]:
            other = base.copy()
            moved_o, n_o = relax_batch(g, other, order, settled)
            assert np.array_equal(fwd, other)
            assert sorted(moved_f) == sorted(moved_o)
            assert n_f == n_o


@pytest.mark.parametrize("path", ["scalar", "vector", "two-settled"])
def test_relax_batch_raises_when_a_settled_distance_moves(path):
    # Vertex 0 is settled at 9, yet every active leaf offers it 1; the case
    # runs with one active leaf and with a wide batch of them.  In the third
    # case the leaves offer 1 to settled vertex 70 and 2 to settled vertex 0
    # (each row scans 70 first) and 1 to unsettled 71: the smaller settled
    # id is named.  No case writes delta.
    leaves = 1 if path == "scalar" else 64
    if path == "two-settled":
        edges = [(v, t, w) for v in range(1, leaves + 1) for t, w in ((70, 1), (0, 2), (71, 1))]
        g = from_edges(72, edges)
    else:
        g = from_edges(leaves + 1, [(0, v, 1) for v in range(1, leaves + 1)])
    delta = np.zeros(g.n, dtype=np.int64)
    settled = np.zeros(g.n, dtype=bool)
    delta[0] = 9
    settled[0] = True
    if path == "two-settled":
        delta[70:] = 9, UNREACHED
        settled[70] = True
    before = delta.copy()
    with pytest.raises(GraphError, match="settled distance moved at vertex 0$"):
        relax_batch(g, delta, np.arange(1, leaves + 1), settled)
    assert delta.tobytes() == before.tobytes()


def min_over_candidates(g, delta, active):
    """relax_batch in pure Python: each target's least candidate below its delta."""
    best = {}
    for u in active:
        for v, w in zip(*(a.tolist() for a in g.neighbors(u))):
            cand = int(delta[u]) + w
            if cand < min(best.get(v, cand + 1), int(delta[v])):
                best[v] = cand
    out = delta.copy()
    for v, cand in best.items():
        out[v] = cand
    return sorted(best), out


def test_relax_batch_ties_on_one_target_match_the_python_min():
    # On a unit-weight ladder a whole BFS layer is active, and rung and rail
    # neighbours get the same candidate from several active vertices.  On a
    # star every leaf offers the centre the same candidate; on the weighted
    # star they offer ties and distinct values at once.
    ladder = generate(GeneratorSpec("adversarial", ladder=12))
    hops = bfs(ladder, 0).dist.dist
    leaves = 40
    star = from_edges(leaves + 1, [(0, v, 1) for v in range(1, leaves + 1)])
    wstar = from_edges(leaves + 1, [(0, v, 1 + v % 3) for v in range(1, leaves + 1)])
    cases = [(ladder, np.where(hops <= h, hops, UNREACHED), np.flatnonzero(hops == h)) for h in (1, 2, 3)]
    for g in (star, wstar):
        delta = np.full(g.n, 5, dtype=np.int64)
        delta[0] = UNREACHED
        cases.append((g, delta, np.arange(1, leaves + 1)))
    rng = np.random.default_rng(18)
    settled = np.zeros(max(g.n for g, _, _ in cases), dtype=bool)
    for g, base, active in cases:
        want_moved, want_delta = min_over_candidates(g, base, active.tolist())
        assert len(want_moved) < sum(len(g.neighbors(u)[0]) for u in active.tolist())  # targets repeat
        for order in [active, active[::-1]] + [rng.permutation(active) for _ in range(4)]:
            delta = base.copy()
            moved, scanned = relax_batch(g, delta, order, settled[: g.n])
            assert np.all(np.diff(moved) > 0)
            assert moved.tolist() == want_moved
            assert np.array_equal(delta, want_delta)
            assert scanned == int((g.indptr[active + 1] - g.indptr[active]).sum())


@pytest.mark.parametrize("rho", [1, 6])
def test_compaction_runs_and_leaves_the_step_log_as_the_reference(monkeypatch, rho):
    # A weighted random graph of 2,000 vertices: F grows to hundreds of
    # vertices and settles them a few at a time, so dead positions come to
    # outnumber live ones more than once per query.
    import radius_stepping.engine as eng

    calls = []
    monkeypatch.setattr(eng, "_compact", lambda *a: calls.append(1) or _compact(*a))
    g = generate(GeneratorSpec("random", n=2000, m=6000, seed=18, weights=WeightSpec(1, 10_000, seed=18)))
    aug, radii, _ = build_k_rho(g, 1, rho)
    for s in (0, 1234):
        calls.clear()
        fast = radius_step_fast(aug, radii, s)
        assert len(calls) >= 2
        ref = radius_step_reference(aug, radii, s)
        for col in StepLog.__slots__:
            assert np.array_equal(getattr(fast.steps, col), getattr(ref.steps, col)), col
        assert step_sets(fast) == ref.sets
        assert fast.dist.same_as(dijkstra(g, s))
        calls.clear()
        assert delta_stepping(aug, s, 2_000).dist.same_as(dijkstra(aug, s))
        assert len(calls) >= 2


def test_a_threshold_at_int64_max_leaves_settled_positions_dead():
    # Vertex 3 lies at 2**62 - 1 with r = 2**62, so its key is INT64_MAX,
    # the value a settled position holds.  Vertex 2 settles in the batch
    # before and leaves a dead position beside 3 that the step at d =
    # INT64_MAX must not take in again.
    b = (UNREACHED - 1) // 3
    g = from_edges(4, [(0, 1, b), (1, 2, b), (2, 3, b), (1, 3, 2 * b)])
    radii = RadiusAssignment(np.array([0, 0, 0, UNREACHED]))
    fast = radius_step_fast(g, radii, 0)
    ref = radius_step_reference(g, radii, 0)
    assert list(fast.steps) == list(ref.steps) and step_sets(fast) == ref.sets
    assert list(zip(fast.steps.d.tolist(), step_sets(fast))) == [(b, (1,)), (2 * b, (2,)), (2**63 - 1, (3,))]
    assert fast.dist.dist.tolist() == [0, b, 2 * b, 3 * b]


def test_strict_radii_share_r_rho_and_stay_exact():
    g, s = random_graph(606, n_hi=60, m_cap=180)
    aug_t, radii_t = build_1_rho(g, 4)
    aug_s, radii_s = build_1_rho(g, 4, tie_inclusive=False)
    # the rho-th distance does not depend on the tie mode
    assert np.array_equal(radii_t.r, radii_s.r)
    oracle = dijkstra(g, s)
    res = radius_step_fast(aug_s, radii_s, s)
    assert res.dist.same_as(oracle)
    assert check_bounds(res, aug_s, 4, 1, radii=radii_s).ok


def test_unweighted_rho1_matches_bfs_rounds():
    g = generate(GeneratorSpec(kind="grid2d", dims=(10, 10)))
    _, radii = build_1_rho(g, 1)
    res = radius_step_unweighted(g, radii, 0)
    rounds = bfs(g, 0).rounds
    assert res.step_count == rounds
    assert res.dist.same_as(bfs(g, 0).dist)


def test_unweighted_rho10_beats_bfs():
    g = generate(GeneratorSpec(kind="grid2d", dims=(31, 31)))
    _, radii = build_1_rho(g, 10)
    res = radius_step_unweighted(g, radii, 0)
    ref = bfs(g, 0)
    assert res.dist.same_as(ref.dist)
    assert 2 * res.step_count <= ref.rounds


def test_unweighted_single_vertex_zero_steps():
    g = from_edges(1, [])
    res = radius_step_unweighted(g, RadiusAssignment.uniform(1, 0), 0)
    assert res.step_count == 0
    assert res.dist[0] == 0


def test_unweighted_rejects_weighted_input():
    g = from_edges(2, [(0, 1, 3)])
    with pytest.raises(GraphError):
        radius_step_unweighted(g, RadiusAssignment.uniform(2, 0), 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from([1, 3, 100]))
def test_engines_exact_under_arbitrary_radii(seed, radii_seed, w_hi):
    # The stepping loop settles correct distances for any nonnegative radii;
    # the radii only shape the step schedule.  Weights in [1, 3] make ties;
    # unit weights also run the unweighted engine.
    import random as _random

    g, s = random_graph(seed, n_hi=40, m_cap=120, w_hi=w_hi)
    rng = _random.Random(radii_seed)
    values = [rng.choice([0, 1, rng.randint(0, 3 * g.max_weight), UNREACHED]) for _ in range(g.n)]
    radii = RadiusAssignment(r=np.asarray(values, dtype=np.int64))
    oracle = dijkstra(g, s)
    ref = radius_step_reference(g, radii, s)
    assert ref.dist.same_as(oracle)
    engines = [radius_step_fast] + ([radius_step_unweighted] if w_hi == 1 else [])
    for engine in engines:
        res = engine(g, radii, s)
        assert res.dist.same_as(oracle)
        assert step_signature(ref) == step_signature(res)
        assert ref.total_relaxations == res.total_relaxations


def test_check_bounds_without_k_skips_substep_cap():
    g = generate(GeneratorSpec(kind="grid2d", dims=(8, 8)))
    _, radii = build_1_rho(g, 6)
    res = radius_step_unweighted(g, radii, 0)
    report = check_bounds(res, g, 6, k=None, radii=radii, assume_premise=True)
    assert report.checkable and report.ok


def test_disconnected_terminates_with_unreached():
    weighted = from_edges(5, [(0, 1, 2), (2, 3, 1), (3, 4, 5)])
    unit = from_edges(6, [(0, 1, 1), (1, 5, 1), (2, 3, 1), (3, 4, 1)])
    cases = [
        (weighted, (radius_step_reference, radius_step_fast), {1: 2}),
        (unit, (radius_step_reference, radius_step_fast, radius_step_unweighted), {1: 1, 5: 2}),
    ]
    for g, engines, reached in cases:
        _, radii = build_1_rho(g, 2)
        for engine in engines:
            res = engine(g, radii, 0)
            assert res.dist[2] == UNREACHED
            assert {v: res.dist[v] for v in reached} == reached
            assert {v for step in settled_sets(res) for v in step} == set(reached)


def test_fast_engine_exact_at_scale(monkeypatch):
    # Wide active sets; at rho=1 nearly every step is settled by the batch
    # rule, so relax_batch runs far fewer times than there are steps.
    import radius_stepping.engine as eng

    calls = []
    monkeypatch.setattr(eng, "relax_batch", lambda *a: calls.append(1) or relax_batch(*a))
    grid = generate(GeneratorSpec(kind="grid2d", dims=(60, 60), weights=WeightSpec(1, 10_000, seed=3)))
    sparse = generate(GeneratorSpec(kind="random", n=2000, m=6000, seed=8, weights=WeightSpec(1, 500, seed=9)))
    grid_w = generate(GeneratorSpec(kind="grid2d", dims=(50, 50), weights=WeightSpec(1, 100, seed=4)))
    for g, rho in ((grid, 20), (sparse, 16), (grid_w, 1)):
        aug, radii = build_1_rho(g, rho)
        for s in (0, g.n // 2):
            calls.clear()
            res = radius_step_fast(aug, radii, s)
            assert res.dist.same_as(dijkstra(aug, s))
            assert check_bounds(res, aug, rho, 1, radii=radii, assume_premise=True).ok
            if rho == 1:
                assert 2 * len(calls) < res.step_count


def test_check_bounds_on_validated_run():
    g, s = random_graph(2024, n_hi=60, m_cap=160)
    aug, radii, _ = build_k_rho(g, 2, 4, heuristic="dp")
    res = radius_step_fast(aug, radii, s)
    report = check_bounds(res, aug, 4, 2, radii=radii)
    assert report.checkable and report.ok
    assert res.step_count <= report.step_limit


def test_check_bounds_flags_work_beyond_k_plus_2_per_edge():
    g, s = random_graph(2024, n_hi=60, m_cap=160)
    aug, radii, _ = build_k_rho(g, 2, 4, heuristic="dp")
    res = radius_step_fast(aug, radii, s)
    limit = 4 * 2 * aug.m
    assert res.total_relaxations <= limit
    log = res.steps
    relaxations = log.relaxations.copy()
    relaxations[-1] += limit + 1 - res.total_relaxations
    doctored = SsspResult(res.dist, StepLog(log.d, log.active_count, log.substeps, relaxations))
    report = check_bounds(doctored, aug, 4, 2, radii=radii)
    assert report.violations == (f"{limit + 1} relaxations exceed (k+2)*2m = {limit}",)
    assert check_bounds(doctored, aug, 4, None, radii=radii).ok


def test_check_bounds_flags_steps_beyond_the_step_limit():
    # Zero radii on a unit path settle one vertex a step: 3 steps against a
    # limit of 4 at rho = 1.  The log played twice still settles one vertex
    # in every window, so the step count is its only violation.
    g = from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    radii = RadiusAssignment.uniform(4, 0)
    res = radius_step_fast(g, radii, 0)
    assert check_bounds(res, g, 1, 1, radii=radii).ok
    log = res.steps
    twice = [np.concatenate((c, c)) for c in (log.d, log.active_count, log.substeps, log.relaxations)]
    report = check_bounds(SsspResult(res.dist, StepLog(*twice)), g, 1, 1, radii=radii)
    assert (res.step_count, report.step_limit) == (3, 4)
    assert report.violations == ("6 steps exceed limit 4",)


def test_check_bounds_zero_radii_not_checkable():
    g, s = random_graph(2025, n_hi=40, m_cap=100)
    radii = RadiusAssignment.uniform(g.n, 0)
    res = radius_step_fast(g, radii, s)
    report = check_bounds(res, g, 4, 1, radii=radii)
    assert not report.checkable
    assert "premise" in report.reason


def test_check_bounds_rejects_radii_of_the_wrong_length():
    g = from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    res = radius_step_fast(g, RadiusAssignment.uniform(4, 1), 0)
    for n in (3, 5):  # radii for too few or too many vertices
        radii = RadiusAssignment.uniform(n, 1)
        with pytest.raises(GraphError, match="radius assignment does not match graph size"):
            check_bounds(res, g, 2, 1, radii=radii)


def test_check_bounds_rejects_a_result_of_another_graph():
    # A run on a 3-vertex path checked against a 5-vertex path came back ok.
    path3 = from_edges(3, [(0, 1, 1), (1, 2, 1)])
    path5 = from_edges(5, [(i, i + 1, 1) for i in range(4)])
    res = radius_step_fast(path3, RadiusAssignment.uniform(3, 1), 0)
    for assume_premise in (False, True):
        with pytest.raises(GraphError, match="result covers 3 vertices, graph has 5"):
            check_bounds(res, path5, 1, 1, RadiusAssignment.uniform(5, 1), assume_premise=assume_premise)
    assert check_bounds(res, path3, 1, 1, RadiusAssignment.uniform(3, 1)).ok


def test_check_bounds_small_radii_not_checkable():
    # radii too small for rho: flagged as unverifiable, not a bound failure
    g = from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    radii = RadiusAssignment(r=np.array([1, 1, 1, 1], dtype=np.int64))
    res = radius_step_fast(g, radii, 0)
    report = check_bounds(res, g, 4, 1, radii=radii)
    assert not report.checkable
    assert report.violations == ()


def test_step_records_csv_shape():
    g = from_edges(3, PATH)
    _, radii = build_1_rho(g, 2)
    text = step_records_csv(radius_step_fast(g, radii, 0))
    lines = text.splitlines()
    assert lines[0] == "i,d_i,active_count,substeps,settled_prefix"
    assert lines[1] == "1,4,1,1,2"
    assert lines[2] == "2,8,1,1,3"


def test_step_records_csv_across_render_blocks():
    # A render block holds 8,192 // 5 = 1,638 rows; a path at zero radii
    # settles one vertex a step, so its 2,000 steps span two blocks.
    n = 2001
    g = from_edges(n, [(i, i + 1, 1 + 7919 * i % 10**6) for i in range(n - 1)])
    res = radius_step_fast(g, RadiusAssignment.uniform(n, 0), 0)
    log = res.steps
    assert len(log) == n - 1
    rows = zip(range(1, n), *(c.tolist() for c in (log.d, log.active_count, log.substeps, log.settled_prefix)))
    body = "".join("%d,%d,%d,%d,%d\n" % row for row in rows)
    assert step_records_csv(res) == "i,d_i,active_count,substeps,settled_prefix\n" + body


def test_finish_raises_on_a_reached_vertex_left_unsettled():
    g = from_edges(3, PATH)
    delta, settled, _ = _start(g, 0)  # vertex 1 is reached at 2 and unsettled
    with pytest.raises(GraphError, match="^a reached vertex never settled$"):
        _finish(g, delta, settled, 0, [])


def records_from_columns(log):
    """The records a StepLog stands for, rebuilt field by field from its columns."""
    records = []
    prefix = 1
    for i in range(len(log.d)):
        count = int(log.active_count[i])
        assert count == int(log.offsets[i + 1] - log.offsets[i])
        prefix += count
        substeps, relaxations = int(log.substeps[i]), int(log.relaxations[i])
        records.append(StepRecord(i + 1, int(log.d[i]), count, substeps, prefix, relaxations))
    return records


def csv_by_records(res):
    """step_records_csv as one f-string per StepRecord."""
    lines = ["i,d_i,active_count,substeps,settled_prefix\n"]
    for rec in res.steps:
        lines.append(f"{rec.index},{rec.d},{rec.active_count},{rec.substeps},{rec.settled_prefix}\n")
    return "".join(lines)


def violations_by_records(res, g, rho, k):
    """check_bounds' step, window and substep checks as a loop over StepRecords."""
    t = 1 + _ceil_log2(rho * g.max_weight)
    limit = -(-res.dist.reached_count() // rho) * t
    records = list(res.steps)
    violations = []
    if len(records) > limit:
        violations.append(f"{len(records)} steps exceed limit {limit}")
    prefix = [1] + [rec.settled_prefix for rec in records]
    for start in range(0, len(records) - t):
        gained = prefix[start + t] - prefix[start]
        if gained < rho:
            violations.append(f"window of {t} steps after step {start} settled {gained} < {rho}")
    for rec in records:
        if rec.substeps > k + 2:
            violations.append(f"step {rec.index} took {rec.substeps} substeps > {k + 2}")
    return tuple(violations)


def check_step_logs(g, radii, s):
    """Every engine that applies to g: consistent logs, equal step by step."""
    engines = [radius_step_reference, radius_step_fast]
    if g.is_unit_weight:
        engines.append(radius_step_unweighted)
    runs = [engine(g, radii, s) for engine in engines]
    for res in runs:
        log = res.steps
        records = list(log)
        assert records_from_columns(log) == records
        assert len(log) == len(records) == res.step_count
        assert [log[i] for i in range(-len(log), 0)] == records
        if records:
            assert log[-1] == records[-1] and log[0] == records[0]
        with pytest.raises(IndexError):
            log[len(log)]
        assert step_records_csv(res) == csv_by_records(res)
        assert int(log.relaxations.sum()) == res.total_relaxations
        assert res.total_substeps() == sum(rec.substeps for rec in records)
        assert [len(step) for step in settled_sets(res)] == log.active_count.tolist()
    for res in runs[1:]:
        assert list(res.steps) == list(runs[0].steps)
        assert step_sets(res) == runs[0].sets


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 3, 100]))
def test_step_log_columns_match_records(seed, rho, w_hi):
    g, s = random_graph(seed, n_hi=60, m_cap=180, w_hi=w_hi)
    _, radii = build_1_rho(g, rho)
    check_step_logs(g, radii, s)


def test_step_log_columns_match_records_on_corpus():
    for g, s in corpus(12, seed=515151, n_hi=80, m_cap=240):
        for k, rho in ((1, 1), (2, 4), (1, 8)):
            aug, radii, _ = build_k_rho(g, k, rho)
            check_step_logs(aug, radii, s)
    unit = generate(GeneratorSpec(kind="grid2d", dims=(12, 9)))
    for rho in (1, 3, 10):
        _, radii = build_1_rho(unit, rho)
        check_step_logs(unit, radii, 5)


def test_step_log_is_a_read_only_sequence():
    g = from_edges(3, PATH)
    _, radii = build_1_rho(g, 2)
    log = radius_step_fast(g, radii, 0).steps
    assert log[-1] == StepRecord(2, 8, 1, 1, 3, 1)
    assert log[0].relaxations == 2
    with pytest.raises(TypeError):
        log[0:1]
    with pytest.raises(ValueError):
        log.d[0] = 5
    with pytest.raises(GraphError, match="disagree"):
        StepLog([1, 2], [1, 1], [1], [1, 1])
    empty = StepLog((), (), (), ())
    assert len(empty) == 0 and list(empty) == []


def doctored_logs(log, k, t):
    """The log with one step over the k+2 cap, and with a window of t steps
    emptied into the step after it; both keep the same vertices."""
    substeps = log.substeps.copy()
    substeps[len(log) // 2] = k + 3
    yield StepLog(log.d, log.active_count, substeps, log.relaxations)
    if len(log) >= t + 2:
        counts = log.active_count.copy()
        counts[t + 1] += counts[1 : t + 1].sum()
        counts[1 : t + 1] = 0
        yield StepLog(log.d, counts, log.substeps, log.relaxations)


def test_check_bounds_columns_match_record_loop():
    kinds = set()
    for g, s in corpus(10, seed=626262, n_lo=30, n_hi=80, m_cap=240, w_hi=4):
        for k, rho in ((1, 2), (2, 4), (1, 8)):
            aug, radii, _ = build_k_rho(g, k, rho)
            res = radius_step_fast(aug, radii, s)
            t = 1 + _ceil_log2(rho * aug.max_weight)
            for log in [res.steps, *doctored_logs(res.steps, k, t)]:
                doctored = SsspResult(dist=res.dist, steps=log)
                expected = violations_by_records(doctored, aug, rho, k)
                report = check_bounds(doctored, aug, rho, k, radii=radii, assume_premise=True)
                assert report.violations == expected
                kinds |= {v.split()[0] for v in expected}
    assert kinds == {"window", "step"}


def premise_by_dijkstra(g, radii, rho):
    """The premise check as one full Dijkstra per vertex: the failure reason, or ''."""
    for v in range(g.n):
        dv = dijkstra(g, v)
        need = min(rho, dv.reached_count())
        if int((dv.dist <= int(radii.r[v])).sum()) < need:
            return f"premise fails: |B({v}, r)| below {need}"
    return ""


def test_premise_check_matches_dijkstra_loop():
    # The edgeless graph's radii are all zero, and so are its r_rho: the
    # premise holds there although rho > 1.
    outcomes = set()
    edgeless = (from_edges(3, []), 1)
    for g, s in corpus(12, seed=737373, n_hi=70, m_cap=200, w_hi=5) + [edgeless]:
        for rho in (2, 4, 8):
            aug, radii = build_1_rho(g, rho)
            res = radius_step_fast(aug, radii, s)
            shrunk = radii.r.copy()
            positive = np.flatnonzero(shrunk > 0)
            if positive.size:
                shrunk[positive[len(positive) // 2]] -= 1
            for r in (radii.r, shrunk, np.zeros_like(shrunk), np.zeros_like(shrunk) + 1):
                assignment = RadiusAssignment(r=r)
                expected = premise_by_dijkstra(aug, assignment, rho)
                report = check_bounds(res, aug, rho, 1, radii=assignment)
                assert report.checkable == (expected == "")
                assert report.reason == expected
                outcomes.add((g is edgeless[0], expected == ""))
    assert outcomes == {(False, True), (False, False), (True, True)}


def test_check_bounds_verifies_premise_on_a_large_grid():
    g = generate(GeneratorSpec(kind="grid2d", dims=(100, 100), weights=WeightSpec(1, 10_000, seed=7)))
    aug, radii, _ = build_k_rho(g, 2, 10)
    res = radius_step_fast(aug, radii, 0)
    report = check_bounds(res, aug, 10, 2, radii=radii)
    assert report.checkable and report.ok
    shrunk = radii.r.copy()
    shrunk[g.n - 1] -= 1
    report = check_bounds(res, aug, 10, 2, radii=RadiusAssignment(r=shrunk))
    assert not report.checkable
    assert report.reason == f"premise fails: |B({g.n - 1}, r)| below 10"


def test_check_bounds_premise_names_the_vertex_label():
    g = from_edges(3, [(0, 1, 1), (1, 2, 1)], labels=[70, -5, 900])
    radii = RadiusAssignment.uniform(3, 1)
    radii_short_at_900 = RadiusAssignment(r=np.array([1, 1, 0]))
    res = radius_step_fast(g, radii, 0)
    assert check_bounds(res, g, 2, 1, radii=radii).checkable
    report = check_bounds(res, g, 2, 1, radii=radii_short_at_900)
    assert report.reason == "premise fails: |B(900, r)| below 2"


def test_check_bounds_rejects_non_integer_counts():
    # rho=2.5 must raise GraphError, not AttributeError from the step limit's bit_length.
    g = from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    radii = RadiusAssignment.uniform(4, 1)
    res = radius_step_fast(g, radii, 0)
    for rho, k, message in ((2.5, 1, "rho must be an integer, got 2.5"), (2, 1.5, "k must be an integer, got 1.5"),
                            (True, 1, "rho must be an integer, got True"), (2, 0, "k must be >= 1, got 0")):
        with pytest.raises(GraphError, match=message):
            check_bounds(res, g, rho, k, radii=radii, assume_premise=True)
    assert check_bounds(res, g, np.int64(2), None, radii=radii, assume_premise=True).checkable


def test_sources_must_be_integer_vertex_ids():
    # Bools and floats are not vertex ids, though numpy would take some as indices.
    g = from_edges(3, [(0, 1, 1), (1, 2, 1)])
    radii = RadiusAssignment.uniform(3, 1)
    takes_source = (
        lambda s: radius_step_reference(g, radii, s),
        lambda s: radius_step_fast(g, radii, s),
        lambda s: radius_step_unweighted(g, radii, s),
        lambda s: dijkstra(g, s),
        lambda s: bellman_ford(g, s),
        lambda s: bfs(g, s),
        lambda s: delta_stepping(g, s, 1),
    )
    for call in takes_source:
        for s in (True, 1.0, np.float64(1), "1"):
            with pytest.raises(GraphError, match="source must be an integer vertex id"):
                call(s)
        with pytest.raises(GraphError, match="source 3 out of range for n=3"):
            call(3)
        call(np.int32(1))
    with pytest.raises(GraphError, match="vertex must be an integer vertex id"):
        compute_ball(g, True, 2)
