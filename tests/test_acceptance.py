"""End-to-end acceptance criteria.

One test per criterion; each prints a PASS/FAIL line with its elapsed time
and enforces the stated runtime budget.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.
"""
import itertools
import random
import time

import networkx as nx

from radius_stepping import (
    ADVERSARIAL_START,
    ExperimentConfig,
    GeneratorSpec,
    WeightSpec,
    build_k_rho,
    check_bounds,
    delta_stepping,
    dijkstra,
    emit_csv,
    generate,
    radius_step_fast,
    radius_step_unweighted,
    run_experiment,
    shortcut_dp,
    validate_k_rho,
)
from conftest import children, corpus, tree_ball
from oracles import bellman_ford, bfs, build_1_rho, radius_step_reference, shortcut_greedy


class Budget:
    def __init__(self, index, label, seconds):
        self.index = index
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.seconds
        print(f"[criterion {self.index:02d}] {'PASS' if ok else 'FAIL'} {self.label}: "
              f"{elapsed:.1f}s (budget {self.seconds}s)")
        if exc_type is None:
            assert ok, f"criterion {self.index} exceeded {self.seconds}s budget"
        return False


RHOS = (1, 2, 4, 8)


def test_criterion_01_oracle_equivalence(acceptance_corpus):
    with Budget(1, "oracle equivalence over 200 graphs", 60):
        for g, s in acceptance_corpus:
            oracle = dijkstra(g, s)
            assert bellman_ford(g, s).same_as(oracle)
            assert delta_stepping(g, s, max(1, g.max_weight // 3)).dist.same_as(oracle)
            for rho in RHOS:
                aug, radii = build_1_rho(g, rho)
                assert radius_step_reference(aug, radii, s).dist.same_as(oracle)
                assert radius_step_fast(aug, radii, s).dist.same_as(oracle)


def test_criterion_02_engine_equivalence(acceptance_corpus):
    with Budget(2, "reference/fast step sequences identical", 60):
        for g, s in acceptance_corpus:
            for rho in RHOS:
                aug, radii = build_1_rho(g, rho)
                ref = radius_step_reference(aug, radii, s)
                fast = radius_step_fast(aug, radii, s)
                assert [(r.d, r.active) for r in ref.steps] == [
                    (r.d, r.active) for r in fast.steps
                ]
                assert [r.substeps for r in ref.steps] == [r.substeps for r in fast.steps]


_VALIDATED_RUNS: list = []


def _validated_runs():
    """build_k_rho output, validation report, and one fast-engine run per
    (graph, k, rho) cell; the substep and step-bound criteria use the same
    runs, so the first caller pays the build cost."""
    if not _VALIDATED_RUNS:
        graphs = corpus(12, seed=424242, n_lo=10, n_hi=80, m_cap=240)
        for g, s in graphs:
            for k in (1, 2, 3):
                for rho in (2, 4, 8):
                    aug, radii, _ = build_k_rho(g, k, rho, heuristic="dp")
                    report = validate_k_rho(aug, radii, k, rho)
                    res = radius_step_fast(aug, radii, s)
                    _VALIDATED_RUNS.append((aug, radii, k, rho, report, res))
        assert len(_VALIDATED_RUNS) >= 100
    return _VALIDATED_RUNS


def test_criterion_03_substep_bound():
    with Budget(3, "substeps <= k+2 over 108 validated runs", 60):
        for aug, radii, k, rho, report, res in _validated_runs():
            assert report.ok, report.violations[:3]
            worst = max((rec.substeps for rec in res.steps), default=0)
            assert worst <= k + 2, (k, rho, worst)


def test_criterion_04_step_bound_and_window():
    with Budget(4, "step budget and settlement window", 60):
        for aug, radii, k, rho, report, res in _validated_runs():
            bounds = check_bounds(res, aug, rho, k, radii=radii, assume_premise=True)
            assert bounds.checkable and bounds.ok, (k, rho, bounds.violations[:3])


def _rooted_trees(max_nodes):
    yield tree_ball({}, {0: 0})
    for n in range(2, max_nodes + 1):
        for free in nx.nonisomorphic_trees(n):
            for root in free.nodes():
                parent = {}
                depth = {root: 0}
                for u, v in nx.bfs_edges(free, root):
                    parent[v] = u
                    depth[v] = depth[u] + 1
                relabel = {old: i for i, old in enumerate(sorted(depth, key=lambda x: (depth[x], x)))}
                p = {relabel[v]: relabel[u] for v, u in parent.items()}
                d = {relabel[v]: dep for v, dep in depth.items()}
                yield tree_ball(p, d)


def _min_shortcuts_bruteforce(tree, k):
    nodes = sorted(v for v, _ in tree.members[1:])
    kids = children(tree)

    def feasible(targets):
        depth = {tree.center: 0}
        stack = [tree.center]
        while stack:
            u = stack.pop()
            for w in kids[u]:
                depth[w] = 1 if w in targets else depth[u] + 1
                if depth[w] > k:
                    return False
                stack.append(w)
        return True

    for size in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, size):
            if feasible(set(combo)):
                return size
    raise AssertionError("no feasible shortcut set")


def test_criterion_05_dp_optimality_and_dominance():
    with Budget(5, "DP = brute force on all rooted trees <= 10 nodes", 120):
        trees = 0
        for tree in _rooted_trees(10):
            trees += 1
            for k in (1, 2, 3):
                dp = len(shortcut_dp(tree, k))
                greedy = len(shortcut_greedy(tree, k))
                assert dp == _min_shortcuts_bruteforce(tree, k)
                assert dp <= greedy
        assert trees >= 1000  # every rooted tree on <= 10 nodes, roots x free trees

        for k in (2, 3, 4):
            for rho in (k + 4, k + 9):
                leaves = rho - k - 2
                parent = {i: i - 1 for i in range(1, k + 1)}
                depth = {i: i for i in range(k + 1)}
                for j in range(leaves):
                    parent[k + 1 + j] = k
                    depth[k + 1 + j] = k + 1
                tree = tree_ball(parent, depth)
                assert len(shortcut_greedy(tree, k)) == leaves
                assert len(shortcut_dp(tree, k)) == 1


def test_criterion_06_weighted_trend(tmp_path):
    with Budget(6, "100x100 weighted grid: steps strictly decrease in rho", 120):
        cfg = ExperimentConfig(
            label="grid100x100-w",
            rhos=(1, 2, 5, 10, 20, 50),
            ks=(1,),
            heuristics=("dp",),
            source_count=20,
            seed=90125,
            generator=GeneratorSpec(
                kind="grid2d", dims=(100, 100), weights=WeightSpec(1, 10_000, seed=7)
            ),
        )
        rows = run_experiment(cfg)
        csv_text = emit_csv(rows)
        (tmp_path / "weighted_trend.csv").write_text(csv_text)
        by_rho = {r.rho: r for r in rows}
        means = [by_rho[rho].mean_steps for rho in cfg.rhos]
        assert all(a > b for a, b in zip(means, means[1:])), means
        assert by_rho[10].reduction_factor >= 10, by_rho[10]
        assert f",{by_rho[10].rho}," in csv_text  # the factor is recorded


def test_criterion_07_unweighted_trend():
    with Budget(7, "63x63 unit grid: rho=10 at most half the BFS rounds", 60):
        g = generate(GeneratorSpec(kind="grid2d", dims=(63, 63)))
        rng = random.Random(63)
        sources = sorted(rng.sample(range(g.n), 20))
        _, radii = build_1_rho(g, 10)
        total_steps = 0
        total_rounds = 0
        for s in sources:
            res = radius_step_unweighted(g, radii, s)
            ref = bfs(g, s)
            assert res.dist.same_as(ref.dist)
            total_steps += res.step_count
            total_rounds += ref.rounds
        assert total_steps / 20 <= (total_rounds / 20) / 2, (total_steps, total_rounds)


def test_criterion_08_adversarial_scan_floor():
    with Budget(8, "ladder graph forces >= d^2/2 scans before 3d settle", 5):
        d = 10
        g = generate(GeneratorSpec(kind="adversarial", ladder=d))
        profile = bfs(g, ADVERSARIAL_START).scans
        scans_at_3d = profile[3 * d - 1]
        assert scans_at_3d >= d * d / 2, scans_at_3d


def test_criterion_09_augmentation_budget(acceptance_corpus):
    with Budget(9, "strict-mode budget n*rho and distance preservation", 60):
        for g, s in acceptance_corpus:
            oracle = dijkstra(g, s)
            for rho in RHOS:
                aug, _ = build_1_rho(g, rho, tie_inclusive=False)
                assert aug.m - g.m <= g.n * rho
                assert dijkstra(aug, s).same_as(oracle)


def test_criterion_10_bench_determinism():
    with Budget(10, "byte-identical CSV on repeated bench runs", 120):
        weighted = ExperimentConfig(
            label="det-w",
            rhos=(1, 2, 5),
            ks=(1, 2),
            heuristics=("dp",),
            source_count=5,
            seed=1234,
            generator=GeneratorSpec(
                kind="grid2d", dims=(30, 30), weights=WeightSpec(1, 10_000, seed=4)
            ),
        )
        unweighted = ExperimentConfig(
            label="det-u",
            rhos=(1, 4),
            ks=(1,),
            heuristics=("dp", "greedy"),
            source_count=5,
            seed=99,
            generator=GeneratorSpec(kind="grid2d", dims=(20, 20)),
        )
        for cfg in (weighted, unweighted):
            first = emit_csv(run_experiment(cfg))
            second = emit_csv(run_experiment(cfg))
            assert first == second
