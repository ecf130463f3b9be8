"""Reference algorithms and baselines.

dijkstra and bellman_ford are the independent correctness oracles that
everything else is tested against.  delta_stepping is the Delta rule
(Meyer and Sanders) on the engine's stepping core, a baseline that differs
from radius stepping only in how a step's threshold is picked.

All functions are pure in (graph, arguments) and deterministic.  Distances
are exact integers; dijkstra, bellman_ford and delta_stepping must agree
bit-for-bit on every input.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import _stepping
from .graph import UNREACHED, DistanceVector, Graph, _check_count, _check_vertex

# Brute-force helpers refuse graphs above this size.
SMALL_GRAPH_CAP = 400


class SizeCapError(ValueError):
    """Brute-force oracle invoked on a graph above its size cap."""


def dijkstra(g: Graph, s: int) -> DistanceVector:
    """Binary-heap Dijkstra; the oracle for every other distance computation."""
    _check_vertex(g, s)
    dist = np.full(g.n, UNREACHED, dtype=np.int64)
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d != dist[u]:
            continue
        ns, ws = g.neighbors(u)
        for v, w in zip(ns.tolist(), ws.tolist()):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    dist.flags.writeable = False
    return DistanceVector(source=s, dist=dist)


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


@dataclass(frozen=True)
class BfsResult:
    dist: DistanceVector  # hop units
    rounds: int  # eccentricity of the source within its component


def bfs(g: Graph, s: int) -> BfsResult:
    _check_vertex(g, s)
    dist = np.full(g.n, UNREACHED, dtype=np.int64)
    dist[s] = 0
    q = deque([s])
    rounds = 0
    while q:
        u = q.popleft()
        du = int(dist[u])
        ns, _ = g.neighbors(u)
        for v in ns.tolist():
            if dist[v] == UNREACHED:
                dist[v] = du + 1
                rounds = max(rounds, du + 1)
                q.append(v)
    dist.flags.writeable = False
    return BfsResult(dist=DistanceVector(source=s, dist=dist), rounds=rounds)


def bfs_settle_scans(g: Graph, s: int) -> list[int]:
    """Cumulative adjacency entries scanned when each vertex settles.

    Entry j is the number of edge scans performed by BFS up to the moment
    the (j+1)-th vertex got its distance (the source settles at 0 scans).
    """
    _check_vertex(g, s)
    seen = np.zeros(g.n, dtype=bool)
    seen[s] = True
    scans = 0
    profile = [0]
    q = deque([s])
    while q:
        u = q.popleft()
        ns, _ = g.neighbors(u)
        for v in ns.tolist():
            scans += 1
            if not seen[v]:
                seen[v] = True
                profile.append(scans)
                q.append(v)
    return profile


@dataclass(frozen=True)
class DeltaSteppingRun:
    dist: DistanceVector
    steps: int  # buckets processed
    substeps: int  # relaxation passes across all buckets


def _bucket_end(w: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Delta-stepping's threshold rule: the last value of each distance's
    bucket of width w <= UNREACHED."""
    return lambda dF, F: dF // w * w + (w - 1)


def delta_stepping(g: Graph, s: int, delta: int) -> DeltaSteppingRun:
    """Fixed-width bucket SSSP on the engine's stepping core.

    One step processes the lowest nonempty bucket [j*delta, (j+1)*delta):
    its threshold is the bucket's last value, and relaxation passes over the
    bucket's members repeat until no tentative distance lands in the bucket
    anymore.  Each pass reads the distances as of the pass start and
    combines updates by min, so the pass outcome is independent of edge
    order.  The core settles s before its first step; the counts include
    the pass that relaxes s, and the bucket of s as a step of its own when
    no other vertex lies in it.
    """
    _check_vertex(g, s)
    _check_count("delta", delta)
    w = min(delta, UNREACHED)  # every distance lies in bucket 0 of a wider delta
    res = _stepping(g, s, _bucket_end(w))
    log = res.steps
    own_bucket = len(log) == 0 or int(log.d[0]) != w - 1
    return DeltaSteppingRun(dist=res.dist, steps=len(log) + own_bucket, substeps=int(log.substeps.sum()) + 1)


def _lex_dijkstra(g: Graph, s: int) -> tuple[list[int], list[int]]:
    """Distances plus the fewest hop count among minimum-weight paths."""
    dist = [UNREACHED] * g.n
    hops = [UNREACHED] * g.n
    dist[s] = 0
    hops[s] = 0
    heap = [(0, 0, s)]
    while heap:
        d, h, u = heapq.heappop(heap)
        if (d, h) != (dist[u], hops[u]):
            continue
        ns, ws = g.neighbors(u)
        for v, w in zip(ns.tolist(), ws.tolist()):
            nd, nh = d + w, h + 1
            if (nd, nh) < (dist[v], hops[v]):
                dist[v], hops[v] = nd, nh
                heapq.heappush(heap, (nd, nh, v))
    return dist, hops


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
