"""Undirected weighted graphs in compressed adjacency (CSR) form.

Vertices are dense ids 0..n-1.  Weights are positive integers, so path
lengths are exact and every distance comparison is integer arithmetic.
Parallel edges collapse to the minimum weight and self-loops are dropped:
a Graph is always simple and symmetric.  Per-vertex adjacency is sorted
ascending by (weight, neighbor id), which the ball-building code relies on
to scan only the lightest edges of each vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Sentinel for "no path" in distance units.  from_edges keeps every weight
# and every distance below it, so distance + weight and distance + radius
# (radii are at most UNREACHED) never overflow int64.
UNREACHED = 2**62


class GraphError(ValueError):
    """Domain error on graph input: bad weight, empty input, bad ids."""


class EdgeListParseError(GraphError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph with integer weights >= 1.

    n: vertex count; m: undirected edge count; max_weight: heaviest stored
    weight (1 for edgeless graphs).  indptr/nbr/wt form the CSR arrays over
    directed half-edges (each undirected edge appears in both directions).
    labels maps dense ids back to the ids seen in the input, when the graph
    was read from an edge list with non-contiguous ids.
    """

    n: int
    m: int
    max_weight: int
    indptr: np.ndarray
    nbr: np.ndarray
    wt: np.ndarray
    labels: tuple[int, ...] | None = None

    def __eq__(self, other: object) -> bool:
        # Structural value only; the label map is provenance metadata.
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self.max_weight == other.max_weight
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.nbr, other.nbr)
            and np.array_equal(self.wt, other.wt)
        )

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, weights) of u, sorted by (weight, id)."""
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        return self.nbr[lo:hi], self.wt[lo:hi]

    @property
    def is_unit_weight(self) -> bool:
        return self.max_weight == 1 or self.m == 0

    def label_of(self, v: int) -> int:
        return self.labels[v] if self.labels is not None else v

    def iter_undirected_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each undirected edge once as (u, v, w), u < v, sorted by (u, v)."""
        for u in range(self.n):
            lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
            out = [
                (int(v), int(w))
                for v, w in zip(self.nbr[lo:hi], self.wt[lo:hi])
                if v > u
            ]
            out.sort()
            for v, w in out:
                yield u, v, w

    def validate(self) -> None:
        """Assert every structural invariant; raises GraphError on violation."""
        if self.n < 0 or self.m < 0:
            raise GraphError("negative counts")
        if len(self.indptr) != self.n + 1 or self.indptr[0] != 0:
            raise GraphError("bad indptr")
        if len(self.nbr) != 2 * self.m or len(self.wt) != 2 * self.m:
            raise GraphError("CSR length mismatch with edge count")
        if self.m:
            if self.wt.min() < 1:
                raise GraphError("weight below 1")
            if int(self.wt.max()) != self.max_weight:
                raise GraphError("max_weight does not match stored weights")
        elif self.max_weight != 1:
            raise GraphError("edgeless graph must have max_weight == 1")
        seen = {}
        for u in range(self.n):
            ns, ws = self.neighbors(u)
            if len(ns) and ((ns < 0).any() or (ns >= self.n).any()):
                raise GraphError("neighbor id out of range")
            if (ns == u).any():
                raise GraphError(f"self-loop at {u}")
            if len(set(ns.tolist())) != len(ns):
                raise GraphError(f"parallel edges at {u}")
            keys = list(zip(ws.tolist(), ns.tolist()))
            if keys != sorted(keys):
                raise GraphError(f"adjacency of {u} not sorted by (weight, id)")
            for v, w in zip(ns.tolist(), ws.tolist()):
                seen[(u, v)] = w
        for (u, v), w in seen.items():
            if seen.get((v, u)) != w:
                raise GraphError(f"asymmetric edge ({u},{v})")


def from_edges(
    n: int,
    edges: Iterable[tuple[int, int, int]] | tuple[np.ndarray, np.ndarray, np.ndarray],
    labels: tuple[int, ...] | None = None,
) -> Graph:
    """Build a Graph from (u, v, w) triples.

    Symmetrizes, drops self-loops, collapses parallel edges to the minimum
    weight.  Weights must be integers >= 1, and shortest paths must stay
    below UNREACHED (see _check_distance_bound).
    """
    if isinstance(edges, tuple) and len(edges) == 3 and isinstance(edges[0], np.ndarray):
        us, vs, ws = (np.asarray(a, dtype=np.int64) for a in edges)
    else:
        triples = list(edges)
        if triples:
            arr = np.asarray(triples, dtype=np.int64)
            us, vs, ws = arr[:, 0], arr[:, 1], arr[:, 2]
        else:
            us = vs = ws = np.empty(0, dtype=np.int64)
    if len(us) and ((us < 0).any() or (vs < 0).any() or (us >= n).any() or (vs >= n).any()):
        raise GraphError("vertex id out of range")
    if len(ws) and ws.min() < 1:
        raise GraphError("edge weight must be a positive integer")

    keep = us != vs
    us, vs, ws = us[keep], vs[keep], ws[keep]
    a = np.minimum(us, vs)
    b = np.maximum(us, vs)
    if len(a):
        order = np.lexsort((ws, b, a))
        a, b, ws = a[order], b[order], ws[order]
        first = np.ones(len(a), dtype=bool)
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        a, b, ws = a[first], b[first], ws[first]
    m = len(a)
    _check_distance_bound(n, a, b, ws)

    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    w2 = np.concatenate([ws, ws])
    order = np.lexsort((dst, w2, src))
    src, dst, w2 = src[order], dst[order], w2[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    if m:
        np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    max_weight = int(ws.max()) if m else 1
    for arr in (indptr, dst, w2):
        arr.flags.writeable = False
    return Graph(n=n, m=m, max_weight=max_weight, indptr=indptr, nbr=dst, wt=w2, labels=labels)


def _check_distance_bound(n: int, a: np.ndarray, b: np.ndarray, ws: np.ndarray) -> None:
    """Reject weights whose shortest paths could reach UNREACHED.

    A shortest path is no longer than the path joining its ends in a
    minimum spanning forest: at most n-1 edges, none heavier than the
    forest's heaviest edge B <= L.  So (n-1)*B < UNREACHED keeps every
    distance exact, and the cheap (n-1)*L < UNREACHED settles almost every
    graph without building the forest.  Bounding by B rather than L keeps
    augmented graphs acceptable: a shortcut weighs the distance between its
    ends, which adding it does not change, so it never raises B.
    """
    if not len(ws):
        return
    L = int(ws.max())
    if L >= UNREACHED:
        raise GraphError(f"edge weight {L} is not below 2**62")
    if (n - 1) * L < UNREACHED:
        return
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    us, vs, wl = a.tolist(), b.tolist(), ws.tolist()
    heaviest = 0
    for i in np.argsort(ws, kind="stable").tolist():
        ru, rv = find(us[i]), find(vs[i])
        if ru != rv:
            root[ru] = rv
            heaviest = wl[i]
    if (n - 1) * heaviest >= UNREACHED:
        raise GraphError(
            f"distances could reach 2**62: (n-1)*B = {n - 1}*{heaviest}, where B is "
            "the heaviest edge of a minimum spanning forest, must stay below 2**62"
        )


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" or "u v w" lines into a Graph.

    '#' starts a comment line; blank lines are skipped; missing weights
    default to 1.  A line "u" alone names a vertex, which keeps a vertex
    with no edge (as write_edge_list writes one) in the graph.  Vertex ids
    are compacted to 0..n-1 in first-appearance order, with the original
    ids kept as the graph's labels.
    """
    id_map: dict[int, int] = {}
    us: list[int] = []
    vs: list[int] = []
    ws: list[int] = []

    def compact(raw: int) -> int:
        idx = id_map.get(raw)
        if idx is None:
            idx = len(id_map)
            id_map[raw] = idx
        return idx

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) > 3:
            raise EdgeListParseError(lineno, f"expected 1, 2 or 3 fields, got {len(parts)}")
        try:
            u = int(parts[0])
            v = int(parts[1]) if len(parts) > 1 else u
            w = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise EdgeListParseError(lineno, f"malformed token in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(lineno, "vertex ids must be nonnegative")
        if len(parts) == 1:
            compact(u)
            continue
        if w <= 0:
            raise GraphError(f"line {lineno}: weight must be >= 1, got {w}")
        if w >= UNREACHED:
            raise GraphError(f"line {lineno}: weight must be below 2**62, got {w}")
        us.append(compact(u))
        vs.append(compact(v))
        ws.append(w)

    if not id_map:
        raise GraphError("empty edge list")
    n = len(id_map)
    labels = tuple(id_map.keys())
    return from_edges(
        n,
        (np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64), np.asarray(ws, dtype=np.int64)),
        labels=labels,
    )


def write_edge_list(g: Graph) -> str:
    """Render each undirected edge once as "u v w\\n" with u < v, sorted by (u, v).

    A vertex with no edge gets a line "u\\n" of its own, in label order
    among the edge lines.  Ids are the graph's labels (the retained input
    ids), so the text is a pure function of the labeled value: parsing it
    back and re-writing reproduces the same bytes, which makes parse/write
    idempotent after the first parse.
    """
    rows = []
    for u, v, w in g.iter_undirected_edges():
        lu, lv = g.label_of(u), g.label_of(v)
        if lu > lv:
            lu, lv = lv, lu
        rows.append((lu, lv, w))
    # Weight 0 marks a vertex with no edge; no edge row shares its label.
    rows.extend((g.label_of(u), 0, 0) for u in np.flatnonzero(np.diff(g.indptr) == 0).tolist())
    rows.sort()
    return "".join(f"{u} {v} {w}\n" if w else f"{u}\n" for u, v, w in rows)


def reachable_set(g: Graph, s: int) -> set[int]:
    """Vertices reachable from s, including s."""
    if not 0 <= s < g.n:
        raise GraphError(f"source {s} out of range for n={g.n}")
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        ns, _ = g.neighbors(u)
        for v in ns.tolist():
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen
