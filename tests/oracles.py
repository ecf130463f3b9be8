"""Brute-force oracles and one-call wrappers the tests check the package against.

radius_step_reference is the literal stepping loop, the executable
specification the engines are held to step by step: each step scans every
unsettled vertex, O(n) per step, so it is meant for small graphs.  Its
loop, reference_loop, takes the radii and bucket width of the package's
stepping loop, so with zero radii and a width of Delta it holds
baselines.delta_stepping to the literal loop too.  It builds its state and
step log with the engine's own _start and _finish and relaxes through
engine.relax_batch, looked up at call time.

bellman_ford is an independent distance oracle for dijkstra and the
engines, and bfs gives hop distances, rounds and the scan profile of
unit-weight runs.  check_graph asserts every structural invariant of a
Graph by a per-vertex Python loop.  ball_bruteforce cuts one vertex's ball from a full
lexicographic (distance, hops) Dijkstra; hop_matrix and
k_radius_bruteforce run one per vertex, so they refuse graphs above
SMALL_GRAPH_CAP vertices.  build_1_rho and shortcut_greedy call the
package's build_k_rho and shortcut planner in one fixed way, and
undirected_edges lists a graph's edges in write_edge_list's row order.
shortcut_targets_all_levels is the shortcut planner with dp's passes over
every tree level.  generate_rows is generate's byte reference: it builds
each family as a Python list of (u, v) tuples, sorts the tuples and draws
the weights over them, which generate does from packed edge keys.
"""
from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from radius_stepping import engine
from radius_stepping.engine import SsspResult, _finish, _start
from radius_stepping.generate import ADVERSARIAL_START, GeneratorSpec
from radius_stepping.graph import UNREACHED, DistanceVector, Graph, GraphError, _check_count, _check_vertex
from radius_stepping.preprocess import Ball, RadiusAssignment, _check_size, _shortcut_targets, build_k_rho

# Brute-force helpers refuse graphs above this size.
SMALL_GRAPH_CAP = 400


class SizeCapError(ValueError):
    """Brute-force oracle invoked on a graph above its size cap."""


def bellman_ford(g: Graph, s: int) -> DistanceVector:
    """Full relaxation passes until fixpoint; agrees exactly with dijkstra."""
    _check_vertex(g, s)
    dist = np.full(g.n, UNREACHED, dtype=np.int64)
    dist[s] = 0
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    dst = g.nbr
    w = g.wt
    while True:
        finite = dist[src] < UNREACHED
        if not finite.any():
            break
        cand = dist[src[finite]] + w[finite]
        targets = dst[finite]
        before = dist.copy()
        np.minimum.at(dist, targets, cand)
        if np.array_equal(before, dist):
            break
    dist.flags.writeable = False
    return DistanceVector(source=s, dist=dist)


def radius_step_reference(g: Graph, radii: RadiusAssignment, s: int) -> SsspResult:
    """Literal stepping loop scanning every unsettled vertex per step."""
    _check_vertex(g, s)
    _check_size(g, radii)
    return reference_loop(g, s, radii.r)


def reference_loop(g: Graph, s: int, r: np.ndarray, width: int = 1) -> SsspResult:
    """The literal loop: each touched unsettled vertex offers delta + r
    rounded up to the last value of its bucket of `width`, and a step's
    threshold is the least offer."""
    delta, settled, _ = _start(g, s)
    relaxed_at = np.full(g.n, -1, dtype=np.int64)  # delta each vertex was last relaxed at
    rounds = []
    while True:
        frontier = np.nonzero(~settled & (delta < UNREACHED))[0]
        if frontier.size == 0:
            break
        offer = delta[frontier] + r[frontier]
        d_i = int((offer - offer % width + (width - 1)).min())
        substeps = step_relaxations = 0
        while True:
            substeps += 1
            active = [v for v in frontier.tolist() if delta[v] <= d_i and relaxed_at[v] != delta[v]]
            relaxed_at[active] = delta[active]
            moved, scanned = engine.relax_batch(g, delta, active, settled)
            step_relaxations += scanned
            frontier = np.nonzero(~settled & (delta < UNREACHED))[0]
            if not any(delta[v] <= d_i for v in moved.tolist()):
                break
        active = frontier[delta[frontier] <= d_i]
        settled[active] = True
        rounds.append(((d_i,), (active.size,), active, (substeps, step_relaxations)))
    return _finish(g, delta, settled, s, rounds)


def check_graph(g: Graph) -> None:
    """Assert every structural invariant; raises GraphError on violation."""
    if g.n < 0 or g.m < 0:
        raise GraphError("negative counts")
    if len(g.indptr) != g.n + 1 or g.indptr[0] != 0:
        raise GraphError("bad indptr")
    if len(g.nbr) != 2 * g.m or len(g.wt) != 2 * g.m:
        raise GraphError("CSR length mismatch with edge count")
    if g.m:
        if g.wt.min() < 1:
            raise GraphError("weight below 1")
        if int(g.wt.max()) != g.max_weight:
            raise GraphError("max_weight does not match stored weights")
    elif g.max_weight != 1:
        raise GraphError("edgeless graph must have max_weight == 1")
    seen = {}
    for u in range(g.n):
        ns, ws = g.neighbors(u)
        if len(ns) and ((ns < 0).any() or (ns >= g.n).any()):
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


@dataclass(frozen=True)
class BfsResult:
    dist: DistanceVector  # hop units
    rounds: int  # eccentricity of the source within its component
    scans: tuple[int, ...]  # per vertex in discovery order: edge scans made before it got its distance


def bfs(g: Graph, s: int) -> BfsResult:
    """Hop distances from s, their largest value, and the scan profile:
    scans[j] counts the adjacency entries scanned up to the moment the
    (j+1)-th vertex got its distance (the source at 0 scans)."""
    _check_vertex(g, s)
    dist = np.full(g.n, UNREACHED, dtype=np.int64)
    dist[s] = 0
    q = deque([s])
    rounds = scanned = 0
    scans = [0]
    while q:
        u = q.popleft()
        du = int(dist[u])
        ns, _ = g.neighbors(u)
        for v in ns.tolist():
            scanned += 1
            if dist[v] == UNREACHED:
                dist[v] = rounds = du + 1
                scans.append(scanned)
                q.append(v)
    dist.flags.writeable = False
    return BfsResult(dist=DistanceVector(source=s, dist=dist), rounds=rounds, scans=tuple(scans))


def _lex_dijkstra(g: Graph, s: int) -> tuple[list[int], list[int]]:
    """Distances plus the fewest hop count among minimum-weight paths."""
    indptr, nbr, wt = g.indptr.tolist(), g.nbr.tolist(), g.wt.tolist()  # lists: no numpy call per pop
    dist = [UNREACHED] * g.n
    hops = [UNREACHED] * g.n
    dist[s] = 0
    hops[s] = 0
    heap = [(0, 0, s)]
    while heap:
        d, h, u = heapq.heappop(heap)
        if (d, h) != (dist[u], hops[u]):
            continue
        lo, hi = indptr[u], indptr[u + 1]
        for v, w in zip(nbr[lo:hi], wt[lo:hi]):
            nd, nh = d + w, h + 1
            if (nd, nh) < (dist[v], hops[v]):
                dist[v], hops[v] = nd, nh
                heapq.heappush(heap, (nd, nh, v))
    return dist, hops


def ball_bruteforce(
    g: Graph, v: int, rho: int, tie_inclusive: bool = True, lex: tuple[list[int], list[int]] | None = None
) -> Ball:
    """B(v, r_rho(v)) from a full Dijkstra, independent of the package's scan
    budgets: every reached vertex sorted by (distance, id), cut at the rho-th
    or extended through its ties; each member's parent is its
    smallest-(hops, id) predecessor on a shortest path.  lex, if given, is
    _lex_dijkstra(g, v), for callers that cut several balls from it."""
    _check_count("rho", rho)
    dist, hops = lex or _lex_dijkstra(g, v)
    near = sorted((dist[u], u) for u in range(g.n) if dist[u] < UNREACHED)
    r_rho = near[min(rho, len(near)) - 1][0]
    members = [(u, d) for d, u in near if d <= r_rho][: None if tie_inclusive else rho]
    pos = {u: i for i, (u, _) in enumerate(members)}
    parent = [-1]
    for u, d in members[1:]:
        ns, ws = (a.tolist() for a in g.neighbors(u))
        parent.append(pos[min((hops[w], w) for w, wt in zip(ns, ws) if dist[w] + wt == d)[1]])
    return Ball(v, tuple(members), r_rho, tuple(parent), tuple(hops[u] for u, _ in members))


def _check_cap(g: Graph) -> None:
    if g.n > SMALL_GRAPH_CAP:
        raise SizeCapError(f"graph has {g.n} vertices, brute-force cap is {SMALL_GRAPH_CAP}")


def hop_matrix(g: Graph) -> np.ndarray:
    """Read-only pairwise hop distances: edges on the min-weight path with
    fewest edges, UNREACHED between components."""
    _check_cap(g)
    out = np.full((g.n, g.n), UNREACHED, dtype=np.int64)
    for u in range(g.n):
        _, hops = _lex_dijkstra(g, u)
        out[u] = hops
    out.flags.writeable = False
    return out


def k_radius_bruteforce(g: Graph, k: int) -> np.ndarray:
    """Exact per-vertex closest distance among vertices more than k hops away.

    UNREACHED where every other vertex is within k hops.
    """
    _check_cap(g)
    _check_count("k", k)
    out = np.full(g.n, UNREACHED, dtype=np.int64)
    for u in range(g.n):
        dist, hops = _lex_dijkstra(g, u)
        best = UNREACHED
        for v in range(g.n):
            if hops[v] > k and dist[v] < best:
                best = dist[v]
        out[u] = best
    out.flags.writeable = False
    return out


def build_1_rho(g: Graph, rho: int, tie_inclusive: bool = True) -> tuple[Graph, RadiusAssignment]:
    """Add direct edges from every vertex to its ball members: build_k_rho at
    k = 1, where both heuristics skip a member joined by an equally light
    edge and collapse a heavier one to the exact distance.  r(v) = r_rho(v).
    """
    aug, radii, _ = build_k_rho(g, 1, rho, heuristic="greedy", tie_inclusive=tie_inclusive)
    return aug, radii


def shortcut_greedy(ball: Ball, k: int) -> tuple[tuple[int, int], ...]:
    """(target, ball distance) edges from the center to every member at hop
    depth k+1, 2k+1, 3k+1, ... of its min-hop tree, in member order."""
    _check_count("k", k)
    target = _shortcut_targets(np.array(ball.parent, dtype=np.int64), np.array(ball.depth, dtype=np.int64), k, "greedy")
    return tuple(ball.members[i] for i in np.flatnonzero(target).tolist())


def undirected_edges(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield each undirected edge once as (u, v, w), u < v, sorted by (u, v)."""
    for u in range(g.n):
        lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
        out = [
            (int(v), int(w))
            for v, w in zip(g.nbr[lo:hi], g.wt[lo:hi])
            if v > u
        ]
        out.sort()
        for v, w in out:
            yield u, v, w


def shortcut_targets_all_levels(parent: np.ndarray, depth: np.ndarray, k: int, heuristic: str) -> np.ndarray:
    """preprocess._shortcut_targets as it was before its levels started at
    depth 2: both of dp's passes run over every level from depth 1, with a
    stable level order."""
    k = min(k, max(1, depth.max(initial=0)))
    if heuristic == "greedy":
        return (depth > k) & ((depth - 1) % k == 0)
    levels = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])[1:]
    below = np.zeros((len(depth), k + 1), dtype=np.int64)  # children's summed cost(., t)
    for idx in reversed(levels):
        kids = below[idx]
        cost = np.empty_like(kids)
        cost[:, k] = 1 + kids[:, 1]  # shortcut u: its children restart at 1 hop
        np.minimum(cost[:, k : k + 1], kids[:, 1:], out=cost[:, :k])
        np.add.at(below, parent[idx], cost)
    hops = np.zeros(len(depth), dtype=np.int64)  # hops from the root once shortcuts are in
    target = np.zeros(len(depth), dtype=bool)
    for idx in levels:
        t = hops[parent[idx]]
        target[idx] = cut = (t == k) | (1 + below[idx, 1] <= below[idx, np.minimum(t + 1, k)])
        hops[idx] = np.where(cut, 1, t + 1)
    return target


def grid_edges(dims: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
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


def adversarial_edges(d: int) -> tuple[int, list[tuple[int, int]]]:
    # d columns of d vertices; consecutive columns completely joined; the
    # start vertex 0 hangs off column 1.
    def col(c: int, j: int) -> int:
        return 1 + c * d + j

    edges = [(ADVERSARIAL_START, col(0, j)) for j in range(d)]
    for c in range(d - 1):
        for i in range(d):
            for j in range(d):
                edges.append((col(c, i), col(c + 1, j)))
    return d * d + 1, edges


def random_connected_edges(n: int, m: int, seed: int) -> tuple[int, set[tuple[int, int]]]:
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
    return n, edges


def generate_rows(spec: GeneratorSpec) -> tuple[int, np.ndarray]:
    """(n, (m, 3) rows) of the graph spec describes: the sorted (u, v)
    tuples of the builders above, with weights drawn in that order."""
    spec.validate()
    if spec.kind in ("grid2d", "grid3d"):
        n, edges = grid_edges(spec.dims)
    elif spec.kind == "adversarial":
        n, edges = adversarial_edges(spec.ladder)
    else:
        n, edges = random_connected_edges(spec.n, spec.m, int(spec.seed))
    edges = sorted(edges)
    rows = np.ones((len(edges), 3), dtype=np.int64)
    rows[:, :2] = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if spec.weights is not None:
        wrng = random.Random(int(spec.weights.seed))
        rows[:, 2] = [wrng.randint(spec.weights.lo, spec.weights.hi) for _ in edges]
    return n, rows
