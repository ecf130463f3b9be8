import random

import numpy as np
import pytest

import radius_stepping.preprocess as preprocess
from radius_stepping import Ball, GeneratorSpec, WeightSpec, from_edges, generate

# A 900-vertex weighted grid, above the old 400-vertex brute-force cap.  At
# (k=1, rho=10) build_k_rho plans shortcut MUTANT_DROP from vertex 0, and
# without it vertex 0 has a ball member more than one hop away.
MUTANT_GRID = GeneratorSpec(kind="grid2d", dims=(30, 30), weights=WeightSpec(1, 100, seed=3))
MUTANT_DROP = 2


def drop_planned_shortcut(monkeypatch, index=MUTANT_DROP):
    """Make build_k_rho leave out the index-th shortcut it plans."""
    real = preprocess._augment

    def augment(g, extra):
        rows = np.concatenate(extra)
        return real(g, [rows[np.arange(len(rows)) != index]])

    monkeypatch.setattr(preprocess, "_augment", augment)


def random_graph(seed, n_lo=2, n_hi=150, m_cap=600, w_lo=1, w_hi=100):
    """One seeded random connected weighted graph plus a source vertex."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    mmax = min(m_cap, n * (n - 1) // 2)
    m = rng.randint(max(0, n - 1), mmax)
    spec = GeneratorSpec(
        kind="random",
        n=n,
        m=m,
        seed=rng.randrange(2**30),
        weights=WeightSpec(w_lo, w_hi, seed=rng.randrange(2**30)),
    )
    return generate(spec), rng.randrange(n)


def tree_ball(parent, depth):
    """A Ball over the tree rooted at 0 with the given parent and depth maps,
    each node's depth doubling as its ball distance."""
    order = sorted(depth, key=lambda u: (depth[u], u))
    pos = {u: i for i, u in enumerate(order)}
    return Ball(
        center=0,
        members=tuple((u, depth[u]) for u in order),
        r_rho=depth[order[-1]],
        parent=tuple(pos[parent[u]] if u in parent else -1 for u in order),
        depth=tuple(depth[u] for u in order),
    )


def children(ball):
    """Each member's tree children, sorted by id."""
    verts = [u for u, _ in ball.members]
    kids = {u: [] for u in verts}
    for u, p in zip(verts, ball.parent):
        if p >= 0:
            kids[verts[p]].append(u)
    return {u: sorted(c) for u, c in kids.items()}


def tie_heavy_corpus():
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


def corpus(count, seed, **kw):
    return [random_graph(1000 * seed + i, **kw) for i in range(count)]


@pytest.fixture(scope="session")
def acceptance_corpus():
    """The 200 seeded graphs shared by the oracle/equivalence/budget criteria."""
    return corpus(200, seed=20240501)
