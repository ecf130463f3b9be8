import hashlib
import importlib
import re

import numpy as np
import pytest

from radius_stepping import (
    ADVERSARIAL_START,
    GeneratorSpec,
    GraphError,
    WeightSpec,
    generate,
    write_edge_list,
)
from oracles import bfs, check_graph, undirected_edges


def test_grid2d_counts():
    g = generate(GeneratorSpec(kind="grid2d", dims=(3, 3)))
    assert (g.n, g.m, g.max_weight) == (9, 12, 1)
    g2 = generate(GeneratorSpec(kind="grid2d", dims=(2, 1)))
    assert (g2.n, g2.m) == (2, 1)


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_grid2d_edge_formula(a, b):
    g = generate(GeneratorSpec(kind="grid2d", dims=(a, b)))
    assert g.n == a * b
    assert g.m == a * (b - 1) + b * (a - 1)
    check_graph(g)


def test_grid3d_counts():
    g = generate(GeneratorSpec(kind="grid3d", dims=(2, 3, 4)))
    assert g.n == 24
    # per-axis runs: (2-1)*3*4 + (3-1)*2*4 + (4-1)*2*3
    assert g.m == 12 + 16 + 18
    check_graph(g)


def test_adversarial_structure():
    g = generate(GeneratorSpec(kind="adversarial", ladder=4))
    assert g.n == 17
    assert g.m == 4 + 3 * 16
    assert len(g.neighbors(ADVERSARIAL_START)[0]) == 4
    assert bfs(g, ADVERSARIAL_START).dist.reached_count() == g.n


def test_random_connected_and_exact_m():
    spec = GeneratorSpec(kind="random", n=40, m=70, seed=9)
    g = generate(spec)
    assert (g.n, g.m) == (40, 70)
    assert bfs(g, 0).dist.reached_count() == 40
    check_graph(g)


def test_determinism_and_weight_seed():
    spec = GeneratorSpec(kind="random", n=25, m=40, seed=4, weights=WeightSpec(1, 100, seed=8))
    assert generate(spec) == generate(spec)
    other = GeneratorSpec(kind="random", n=25, m=40, seed=4, weights=WeightSpec(1, 100, seed=9))
    ga, gb = generate(spec), generate(other)
    assert ga != gb  # weights differ
    # ... but the structure seed alone fixes the topology
    assert [(u, v) for u, v, _ in undirected_edges(ga)] == [
        (u, v) for u, v, _ in undirected_edges(gb)
    ]


def test_weights_within_bounds():
    spec = GeneratorSpec(kind="grid2d", dims=(5, 5), weights=WeightSpec(3, 17, seed=0))
    g = generate(spec)
    assert 3 <= g.wt.min() and g.wt.max() <= 17


def test_unweighted_bfs_equals_weighted_distance():
    g = generate(GeneratorSpec(kind="grid2d", dims=(4, 5)))
    from radius_stepping import dijkstra

    assert bfs(g, 0).dist.same_as(dijkstra(g, 0))


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec(kind="grid2d", dims=(0, 3)),
        GeneratorSpec(kind="grid3d", dims=(2, 2)),
        GeneratorSpec(kind="adversarial", ladder=1),
        GeneratorSpec(kind="random", n=4, m=2),
        GeneratorSpec(kind="random", n=4, m=9),
        GeneratorSpec(kind="nope"),
        GeneratorSpec(kind="grid2d", dims=(2, 2), weights=WeightSpec(0, 5)),
        GeneratorSpec(kind="grid2d", dims=(2, 2), weights=WeightSpec(9, 5)),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(GraphError):
        generate(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        (GeneratorSpec(kind="grid2d", dims=(2.5, 3)), "needs integer dims"),
        (GeneratorSpec(kind="grid2d", dims=(True, 3)), "needs integer dims"),
        (GeneratorSpec(kind="grid3d", dims=(2, 2, 2.0)), "needs integer dims"),
        (GeneratorSpec(kind="adversarial", ladder=2.5), "needs an integer d"),
        (GeneratorSpec(kind="random", n=4.0, m=3), "needs an integer n"),
        (GeneratorSpec(kind="random", n=4, m=3.0), "needs integer m"),
        (GeneratorSpec(kind="grid2d", dims=(2, 2), weights=WeightSpec(1.5, 3)), "need integers 1 <= lo <= hi"),
        (GeneratorSpec(kind="grid2d", dims=(2, 2), weights=WeightSpec(1.0, 3.0)), "need integers 1 <= lo <= hi"),
        (GeneratorSpec(kind="grid2d", dims=(2, 2), weights=WeightSpec(True, True)), "need integers 1 <= lo <= hi"),
        (GeneratorSpec(kind="grid2d", dims=(2, 2), weights="x"), "^weights must be None or a WeightSpec, got 'x'$"),
        (GeneratorSpec(kind="grid2d", dims=(2, 2), weights=(1, 5)), "^weights must be None or a WeightSpec"),
        (GeneratorSpec(kind="grid2d", dims=5), r"^grid2d needs integer dims \(w, h\) >= 1, got 5$"),
        (GeneratorSpec(kind="grid3d", dims="234"), r"^grid3d needs integer dims \(x, y, z\) >= 1, got 234$"),
        (GeneratorSpec(kind=["grid2d"]), r"^unknown generator kind \['grid2d'\]$"),
    ],
)
def test_sizes_and_weights_must_be_integers(spec, message):
    # These raised a bare TypeError, ValueError or AttributeError, built a
    # 1x3 grid from dims=(True, 3), or drew weights from float bounds.
    with pytest.raises(GraphError, match=message):
        generate(spec)


@pytest.mark.parametrize(
    "spec, sizes",
    [
        (GeneratorSpec(kind="grid2d", dims=(2**32, 2**32)), f"{2**64}*{2**66 - 2**34}"),
        (GeneratorSpec(kind="grid3d", dims=(2**21, 2**21, 2**21)), f"{2**63}*{3 * 2**64 - 3 * 2**43}"),
        (GeneratorSpec(kind="adversarial", ladder=2**13), f"{2**26 + 1}*{2 * (2**13 + (2**13 - 1) * 2**26)}"),
        (GeneratorSpec(kind="random", n=10**12, m=10**12), f"{10**12}*{2 * 10**12}"),
    ],
)
def test_validate_bounds_the_graph_size(spec, sizes):
    # Only validate runs: generate would build a Python edge list of this
    # size before from_edges could reject it.
    message = f"graph too large: n*max(n, 2*edges) = {sizes} must stay below 2**63"
    with pytest.raises(GraphError, match=re.escape(message)):
        spec.validate()


def test_validate_sizes_the_graph_generate_builds(monkeypatch):
    seen = []
    gen = importlib.import_module("radius_stepping.generate")  # the package's `generate` is the function
    monkeypatch.setattr(gen, "_check_graph_size", lambda n, edges: seen.append((n, edges)))
    specs = [
        GeneratorSpec(kind="grid2d", dims=(1, 1)),
        GeneratorSpec(kind="grid2d", dims=(7, 1)),
        GeneratorSpec(kind="grid2d", dims=(4, 6)),
        GeneratorSpec(kind="grid3d", dims=(1, 1, 1)),
        GeneratorSpec(kind="grid3d", dims=(5, 1, 3)),
        GeneratorSpec(kind="grid3d", dims=(3, 4, 2)),
        GeneratorSpec(kind="adversarial", ladder=5),
        GeneratorSpec(kind="random", n=30, m=60, seed=3),
    ]
    for spec in specs:
        g = generate(spec)
        assert seen.pop() == (g.n, g.m), spec
    # One below the bound passes validate; it is not generated.
    GeneratorSpec(kind="random", n=10**9, m=10**9).validate()


@pytest.mark.parametrize("seed", [True, 1.0, 2.5])
def test_seeds_must_be_integers(seed):
    # random.Random took True as 1 and 1.0 as 1, and ran on 2.5.
    message = f"seed must be an integer, got {seed!r}"
    for spec in (
        GeneratorSpec(kind="random", n=30, m=40, seed=seed),
        GeneratorSpec(kind="grid2d", dims=(3, 3), seed=seed),
        GeneratorSpec(kind="grid2d", dims=(3, 3), weights=WeightSpec(1, 9, seed=seed)),
    ):
        with pytest.raises(GraphError, match=re.escape(message)):
            generate(spec)
    with pytest.raises(GraphError, match=re.escape(message)):
        WeightSpec(1, 9, seed=seed).validate()


def test_integer_seeds_generate_the_same_bytes():
    digest = "f404be6ee9da73b38c98820f5870152598479346f38a90621ad7d3cfddacffc5"
    for seed, wseed in ((7, 3), (np.int64(7), np.int32(3))):
        spec = GeneratorSpec(kind="random", n=30, m=40, seed=seed, weights=WeightSpec(1, 9, seed=wseed))
        text = write_edge_list(generate(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
