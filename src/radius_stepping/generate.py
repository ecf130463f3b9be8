"""Synthetic graph generators: grids, a hard-for-BFS ladder, random connected.

All generators are deterministic in their seeds.  Structure is generated
first; the weight mode is applied last over the canonically sorted edge
list, so two specs that differ only in weights share a topology.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import Graph, GraphError, _check_graph_size, _check_seed, _is_int, from_edges

# The ladder construction places its designated start vertex at id 0.
ADVERSARIAL_START = 0


@dataclass(frozen=True)
class WeightSpec:
    """Uniform random integer weights in [lo, hi], seeded."""

    lo: int
    hi: int
    seed: int = 0

    def validate(self) -> None:
        if not (_is_int(self.lo) and _is_int(self.hi)) or self.lo < 1 or self.hi < self.lo:
            raise GraphError(f"need integers 1 <= lo <= hi, got [{self.lo!r}, {self.hi!r}]")
        _check_seed(self.seed)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate.

    kind: "grid2d" (dims=(w, h)), "grid3d" (dims=(x, y, z)),
    "adversarial" (ladder=d), or "random" (n, m, seed).
    weights=None means unweighted (all weights 1).
    """

    kind: str
    dims: tuple[int, ...] = ()
    ladder: int = 0
    n: int = 0
    m: int = 0
    seed: int = 0
    weights: WeightSpec | None = None

    def validate(self) -> None:
        """Check the spec, and that from_edges can take the graph's size,
        before generate builds any edge."""
        axes = {"grid2d": "(w, h)", "grid3d": "(x, y, z)"}.get(self.kind) if isinstance(self.kind, str) else None
        if axes is not None:
            dims = self.dims if isinstance(self.dims, (list, tuple)) else ()
            if len(dims) != axes.count(",") + 1 or not all(_is_int(d) and d >= 1 for d in dims):
                raise GraphError(f"{self.kind} needs integer dims {axes} >= 1, got {self.dims}")
            n = math.prod(self.dims)
            edges = sum(n // d * (d - 1) for d in self.dims)
        elif self.kind == "adversarial":
            if not _is_int(self.ladder) or self.ladder < 2:
                raise GraphError(f"adversarial needs an integer d >= 2, got {self.ladder!r}")
            n, edges = self.ladder**2 + 1, self.ladder + (self.ladder - 1) * self.ladder**2
        elif self.kind == "random":
            if not _is_int(self.n) or self.n < 1:
                raise GraphError(f"random graph needs an integer n >= 1, got {self.n!r}")
            lo = max(0, self.n - 1)
            hi = self.n * (self.n - 1) // 2
            if not _is_int(self.m) or not lo <= self.m <= hi:
                raise GraphError(f"random graph with n={self.n} needs integer m in [{lo}, {hi}], got {self.m!r}")
            n, edges = self.n, self.m
        else:
            raise GraphError(f"unknown generator kind {self.kind!r}")
        _check_graph_size(n, edges)
        _check_seed(self.seed)
        if not isinstance(self.weights, (WeightSpec, type(None))):
            raise GraphError(f"weights must be None or a WeightSpec, got {self.weights!r}")
        if self.weights is not None:
            self.weights.validate()


def _grid_edges(dims: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    # Vertex (x0, x1, ...) is x0 + d0*(x1 + d1*(...)), so a unit step along
    # axis a adds stride = d0*...*d(a-1).  Ids fall in blocks of stride*d_a
    # sharing the higher coordinates; all but the block's last stride ids
    # (x_a = d_a - 1) have the step.
    n = math.prod(dims)
    edges = []
    stride = 1
    for d in dims:
        block = stride * d
        edges.extend((v, v + stride) for lo in range(0, n, block) for v in range(lo, lo + block - stride))
        stride = block
    return n, edges


def _adversarial_edges(d: int) -> tuple[int, list[tuple[int, int]]]:
    # d columns of d vertices; consecutive columns completely joined; the
    # start vertex 0 hangs off column 1.  Any search from the start must
    # cross a d-by-d biclique, i.e. scan Theta(d^2) edges, before it can
    # settle 3d vertices.
    def col(c: int, j: int) -> int:
        return 1 + c * d + j

    edges = [(ADVERSARIAL_START, col(0, j)) for j in range(d)]
    for c in range(d - 1):
        for i in range(d):
            for j in range(d):
                edges.append((col(c, i), col(c + 1, j)))
    return d * d + 1, edges


def _random_connected_edges(n: int, m: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        edges.add((u, v))
    return n, sorted(edges)


def generate(spec: GeneratorSpec) -> Graph:
    """Build the graph described by spec; deterministic in all seeds."""
    spec.validate()
    if spec.kind in ("grid2d", "grid3d"):
        n, edges = _grid_edges(spec.dims)
    elif spec.kind == "adversarial":
        n, edges = _adversarial_edges(spec.ladder)
    else:
        n, edges = _random_connected_edges(spec.n, spec.m, int(spec.seed))

    canonical = sorted((u, v) if u < v else (v, u) for u, v in edges)
    if spec.weights is None:
        triples = [(u, v, 1) for u, v in canonical]
    else:
        wrng = random.Random(int(spec.weights.seed))
        triples = [(u, v, wrng.randint(spec.weights.lo, spec.weights.hi)) for u, v in canonical]
    return from_edges(n, triples)
