"""Synthetic graph generators: grids, a hard-for-BFS ladder, random connected.

All generators are deterministic in their seeds.  Each builder emits its
edges as packed int64 keys u*n + v with u < v; generate sorts them once,
which is the canonical edge order, and draws the weights last in that
order, so two specs that differ only in weights share a topology.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .graph import UNREACHED, Graph, GraphError, _check_graph_size, _check_seed, _is_int, from_edges

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
        if self.hi >= UNREACHED:  # from_edges takes no weight at or above the no-path sentinel
            raise GraphError(f"weights must be below 2**62, got hi={self.hi}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: "grid2d" reads dims=(w, h), "grid3d" dims=(x, y, z),
    "adversarial" ladder=d, and "random" n, m and seed; every kind reads
    weights (None: unweighted, all weights 1).  validate() refuses a field
    the kind does not read unless it holds its default (empty dims, or 0).
    """

    kind: str
    dims: tuple[int, ...] = ()
    ladder: int = 0
    n: int = 0
    m: int = 0
    seed: int = 0
    weights: WeightSpec | None = None

    def validate(self) -> None:
        """Check every field, and that from_edges can take the graph's size,
        before generate builds any edge: the kind's fields and the size
        first, then every field's type whatever the kind, then that each
        field the kind does not read holds its default."""
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
        if not isinstance(self.dims, (list, tuple)) or not all(map(_is_int, self.dims)):
            raise GraphError(f"dims must be a list or tuple of integers, got {self.dims!r}")
        for name in ("ladder", "n", "m"):
            if not _is_int(getattr(self, name)):
                raise GraphError(f"{name} must be an integer, got {getattr(self, name)!r}")
        _check_seed(self.seed)
        if not isinstance(self.weights, (WeightSpec, type(None))):
            raise GraphError(f"weights must be None or a WeightSpec, got {self.weights!r}")
        if self.weights is not None:
            self.weights.validate()
        reads = {"adversarial": ("ladder",), "random": ("n", "m", "seed")}.get(self.kind, ("dims",))
        for name in ("dims", "ladder", "n", "m", "seed"):  # well typed, so falsy is the default
            if name not in reads and getattr(self, name):
                raise GraphError(f"{self.kind} does not read {name}, got {getattr(self, name)!r}")


def _grid_keys(dims: tuple[int, ...]) -> tuple[int, np.ndarray]:
    # Vertex (x0, x1, ...) is x0 + d0*(x1 + d1*(...)), so ids laid out as
    # shape dims[::-1] put axis a at array axis ndim-1-a, and a unit step
    # along it adds stride = d0*...*d(a-1).  Every id but those with
    # x_a = d_a - 1 has the step.
    n = math.prod(dims)
    ids = np.arange(n, dtype=np.int64).reshape(dims[::-1])
    keys, stride = [], 1
    for a, d in enumerate(dims):
        u = np.delete(ids, d - 1, axis=ids.ndim - 1 - a).ravel()
        keys.append(u * n + u + stride)
        stride *= d
    return n, np.concatenate(keys)


def _adversarial_keys(d: int) -> tuple[int, np.ndarray]:
    # d columns of d vertices; consecutive columns completely joined; the
    # start vertex 0 hangs off column 1.  Any search from the start must
    # cross a d-by-d biclique, i.e. scan Theta(d^2) edges, before it can
    # settle 3d vertices.
    n = d * d + 1
    col = 1 + np.arange(d * d, dtype=np.int64).reshape(d, d)
    biclique = col[:-1, :, None] * n + col[1:, None, :]
    return n, np.concatenate([ADVERSARIAL_START * n + col[0], biclique.ravel()])


def _random_connected_keys(n: int, m: int, seed: int) -> tuple[int, np.ndarray]:
    # A random tree (each v joins an earlier vertex) keeps it connected.
    rng = random.Random(seed)
    keys = {rng.randrange(v) * n + v for v in range(1, n)}
    while len(keys) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            keys.add(u * n + v if u < v else v * n + u)
    return n, np.fromiter(keys, dtype=np.int64, count=len(keys))


def generate(spec: GeneratorSpec) -> Graph:
    """Build the graph described by spec; deterministic in all seeds."""
    spec.validate()
    if spec.kind in ("grid2d", "grid3d"):
        n, keys = _grid_keys(spec.dims)
    elif spec.kind == "adversarial":
        n, keys = _adversarial_keys(spec.ladder)
    else:
        n, keys = _random_connected_keys(spec.n, spec.m, int(spec.seed))

    # Every builder emits each edge once as u*n + v with u < v, which fits
    # int64 by validate's size bound; sorting is what makes the order
    # canonical, and the weights are drawn in that order.
    keys = np.sort(keys)
    rows = np.ones((len(keys), 3), dtype=np.int64)
    rows[:, 0], rows[:, 1] = np.divmod(keys, n)
    if spec.weights is not None:
        wrng = random.Random(int(spec.weights.seed))
        lo, hi = spec.weights.lo, spec.weights.hi
        rows[:, 2] = np.fromiter((wrng.randint(lo, hi) for _ in range(len(keys))), dtype=np.int64, count=len(keys))
    return from_edges(n, rows)
