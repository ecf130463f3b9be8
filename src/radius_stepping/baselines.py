"""Reference algorithms and baselines.

dijkstra is the correctness oracle the engines are checked against.
delta_stepping is the Delta rule (Meyer and Sanders) on the engine's
stepping core, a baseline that differs from radius stepping only in how a
step's threshold is picked.

All functions are pure in (graph, arguments) and deterministic.  Distances
are exact integers; dijkstra and delta_stepping must agree bit-for-bit on
every input.
"""
from __future__ import annotations

import heapq

import numpy as np

from .engine import SsspResult, _Threshold, _stepping
from .graph import UNREACHED, DistanceVector, Graph, _check_count, _check_vertex


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


def _bucket_end(w: int) -> _Threshold:
    """Delta-stepping's threshold rule: the last value of each distance's
    bucket of width w <= UNREACHED."""
    return _Threshold(None, lambda x: x // w * w + (w - 1))


def delta_stepping(g: Graph, s: int, delta: int) -> SsspResult:
    """Fixed-width bucket SSSP on the engine's stepping core.

    One step processes the lowest nonempty bucket [j*delta, (j+1)*delta):
    its threshold is the bucket's last value, and relaxation passes over the
    bucket's members repeat until no tentative distance lands in the bucket
    anymore.  Each pass reads the distances as of the pass start and
    combines updates by min, so the pass outcome is independent of edge
    order.  As in every engine, s settles before step 1: the pass that
    relaxes s is no substep, and the bucket of s is a step only when
    another vertex lies in it.
    """
    _check_vertex(g, s)
    _check_count("delta", delta)
    # Every distance lies in bucket 0 of a delta wider than UNREACHED.
    return _stepping(g, s, _bucket_end(min(delta, UNREACHED)))
