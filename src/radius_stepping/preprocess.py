"""Ball construction and shortcut insertion.

The pipeline per vertex v: a truncated Dijkstra finds the nearest-rho
neighborhood (the ball), its radius and a minimum-hop shortest-path tree
over it; a heuristic picks edges from v into the tree so that every ball
member sits within k hops.  Shortcut weights are exact ball distances, so
augmentation never changes any shortest-path distance.

Ball counting includes the center: the first "closest vertex" of v is v
itself at distance 0, so rho=1 always yields the trivial ball {v} with
radius 0 and adds nothing.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .baselines import SMALL_GRAPH_CAP, dijkstra, k_radius_bruteforce
from .graph import UNREACHED, Graph, GraphError, from_edges


@dataclass(frozen=True)
class Ball:
    """The nearest-rho neighborhood of a vertex and its min-hop tree.

    members are (vertex, distance) pairs sorted by (distance, vertex id);
    the center is first with distance 0.  r_rho is the largest member
    distance.  In tie-inclusive mode every vertex at distance <= r_rho is a
    member; in strict mode exactly rho members are kept, ties broken by id.
    parent[i] is the position of member i's tree parent (-1 for the center)
    and depth[i] its fewest hops over all shortest paths from the center.
    """

    center: int
    members: tuple[tuple[int, int], ...]
    r_rho: int
    parent: tuple[int, ...]
    depth: tuple[int, ...]

    def member_set(self) -> dict[int, int]:
        return dict(self.members)


def compute_ball(g: Graph, v: int, rho: int, tie_inclusive: bool = True) -> Ball:
    """Truncated Dijkstra from v scanning only each vertex's lightest edges.

    Settles until rho vertices (counting v) are in; tie-inclusive mode keeps
    going while further vertices sit at exactly r_rho.  A component smaller
    than rho yields the whole component with r_rho its eccentricity from v.

    Each vertex keeps, of the settled predecessors reaching it at its
    current distance, the one with the smallest (depth, id): its min-hop
    tree parent, provided every edge (w, u) with d(w) + wt(w, u) = d(u) of
    a member u is relaxed.  It is, in strict mode too:
    - weights are >= 1, so d(w) < d(u) <= r_rho: w precedes the rho-th
      member, so it is among the first rho-1 members, the ones expanded,
      and its depth is final by then (its own predecessors are closer);
    - parallel edges are collapsed, so were (w, u) outside w's budget of
      scanned edges, w would have rho distinct neighbours x with
      wt(w, x) < wt(w, u), hence d(x) < d(u).  That forces r_rho < d(u),
      contradicting u being a member.  So depths are fewest-hop in all of g.
    """
    if rho < 1:
        raise GraphError(f"rho must be >= 1, got {rho}")
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    if rho == 1:  # weights are >= 1, so nothing ties with v at distance 0
        return Ball(v, ((v, 0),), 0, (-1,), (0,))
    best = {v: 0}
    via = {v: (-1, -1, -1)}  # (depth, id, position) of the best predecessor so far
    members: list[tuple[int, int]] = []
    parent, depth = [], []  # per member: position of its tree parent, hop count
    heap = [(0, v)]
    r_rho = 0
    while heap:
        d, u = heapq.heappop(heap)
        if d != best[u]:
            continue
        if len(members) >= rho and (not tie_inclusive or d > r_rho):
            break
        pd, _, p = via[u]
        members.append((u, d))
        parent.append(p)
        depth.append(pd + 1)
        if len(members) <= rho:
            r_rho = d  # running eccentricity until the rho-th settle pins it
        if len(members) < rho:
            ns, ws = g.neighbors(u)
            # Budget: the lightest rho edges (ws is sorted), extended through
            # ties with the rho-th weight.  Without the extension a vertex whose
            # rho-th and (rho+1)-th edges tie could miss a member at r_rho.
            b = len(ws) if len(ws) <= rho else int(np.searchsorted(ws, ws[rho - 1], side="right"))
            tag = (pd + 1, u, len(members) - 1)
            for w, wt in zip(ns[:b].tolist(), ws[:b].tolist()):
                nd = d + wt
                old = best.get(w, UNREACHED)
                if nd < old:
                    best[w] = nd
                    via[w] = tag
                    heapq.heappush(heap, (nd, w))
                elif nd == old and tag < via[w]:
                    via[w] = tag
    return Ball(center=v, members=tuple(members), r_rho=r_rho, parent=tuple(parent), depth=tuple(depth))


@dataclass(frozen=True)
class RadiusAssignment:
    """Per-vertex step radii plus the (rho, k) they were built for."""

    r: np.ndarray
    rho: int
    k: int
    tie_inclusive: bool = True

    @classmethod
    def uniform(cls, n: int, value: int, rho: int = 0, k: int = 0) -> "RadiusAssignment":
        arr = np.full(n, value, dtype=np.int64)
        arr.flags.writeable = False
        return cls(r=arr, rho=rho, k=k)


def write_radii(radii: RadiusAssignment, labels: tuple[int, ...] | None = None) -> str:
    """One "v r\\n" line per vertex, keyed by label (sorted), "inf" for no cap."""
    rows = []
    for v, r in enumerate(radii.r.tolist()):
        lab = labels[v] if labels is not None else v
        rows.append((lab, "inf" if r >= UNREACHED else str(r)))
    rows.sort()
    return "".join(f"{lab} {r}\n" for lab, r in rows)


def parse_radii(text: str) -> dict[int, int]:
    pairs: dict[int, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"radii line {lineno}: expected 'v r'")
        try:
            v = int(parts[0])
            r = UNREACHED if parts[1] == "inf" else int(parts[1])
        except ValueError:
            raise GraphError(f"radii line {lineno}: expected integers 'v r', got {line!r}") from None
        if not 0 <= r <= UNREACHED:
            raise GraphError(f"radii line {lineno}: radius must be in [0, 2**62] or inf, got {r}")
        pairs[v] = r
    if not pairs:
        raise GraphError("empty radii file")
    return pairs


def radii_for_graph(pairs: dict[int, int], g: Graph) -> np.ndarray:
    """Align parsed (label, radius) pairs to a graph's dense vertex ids."""
    arr = np.empty(g.n, dtype=np.int64)
    for v in range(g.n):
        lab = g.label_of(v)
        if lab not in pairs:
            raise GraphError(f"radii file is missing vertex {lab}")
        arr[v] = pairs[lab]
    if len(pairs) != g.n:
        raise GraphError(f"radii file covers {len(pairs)} vertices, graph has {g.n}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BallTree:
    """Shortest-path tree over a ball with minimal per-member hop counts.

    parent maps each non-root member to its tree parent; depth is the hop
    count from the root (minimal over all shortest-path trees); dist is the
    exact ball distance.
    """

    root: int
    parent: dict[int, int]
    depth: dict[int, int]
    dist: dict[int, int]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {u: [] for u in self.depth}
        for u, p in self.parent.items():
            out[p].append(u)
        for kids in out.values():
            kids.sort()
        return out


def min_hop_ball_tree(ball: Ball) -> BallTree:
    """The min-hop tree compute_ball recorded, keyed by vertex."""
    verts = [u for u, _ in ball.members]
    parent = {u: verts[p] for u, p in zip(verts, ball.parent) if p >= 0}
    return BallTree(ball.center, parent, dict(zip(verts, ball.depth)), ball.member_set())


@dataclass(frozen=True)
class ShortcutPlan:
    """Edges to add from one source so its ball fits within k hops."""

    source: int
    added_edges: tuple[tuple[int, int], ...]  # (target, weight = ball distance)
    heuristic: str


def _shortcut_targets(parent: np.ndarray, depth: np.ndarray, k: int, heuristic: str) -> np.ndarray:
    """Mask of the tree nodes that get an edge from their root.

    The arrays may hold many trees end to end: parent[i] is the position of
    node i's parent (-1 for a root) and depth[i] its hop count.  greedy
    shortcuts every node at depth k+1, 2k+1, ...; dp adds the fewest.
    dp's cost(u, t) counts the edges added inside u's subtree when u's
    parent ends up t hops from the root: at t == k a shortcut to u is
    forced (children restart at 1); below k it is the cheaper of
    shortcutting u or letting the subtree ride at t+1, ties going to the
    shortcut.  Costs go up the depth levels, choices come back down.
    """
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


def _plan_tree(tree: BallTree, k: int, heuristic: str) -> ShortcutPlan:
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    nodes = sorted(tree.depth)
    index = {u: i for i, u in enumerate(nodes)}
    parent = np.array([index[tree.parent[u]] if u in tree.parent else -1 for u in nodes], dtype=np.int64)
    depth = np.array([tree.depth[u] for u in nodes], dtype=np.int64)
    target = _shortcut_targets(parent, depth, k, heuristic)
    edges = tuple((u, tree.dist[u]) for u, cut in zip(nodes, target.tolist()) if cut)
    return ShortcutPlan(source=tree.root, added_edges=edges, heuristic=heuristic)


def shortcut_greedy(tree: BallTree, k: int) -> ShortcutPlan:
    """Shortcut to every member at hop depth k+1, 2k+1, 3k+1, ..."""
    return _plan_tree(tree, k, "greedy")


def shortcut_dp(tree: BallTree, k: int) -> ShortcutPlan:
    """Fewest root shortcuts bringing every tree member within k hops."""
    return _plan_tree(tree, k, "dp")


def _half_edges(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    mask = src < g.nbr
    return src[mask], g.nbr[mask], g.wt[mask]


def _augment(g: Graph, extra: list[list[np.ndarray]]) -> Graph:
    cols = _half_edges(g)
    if extra:
        cols = tuple(np.concatenate([col, *parts]) for col, parts in zip(cols, zip(*extra)))
    return from_edges(g.n, cols, labels=g.labels)


# Balls whose shortcuts are picked together, to bound memory: all n at once
# raised the benchmark's peak RSS by 28% (100x100 grid, rho=10) and 19%
# (1,601-vertex ladder), chunks of this size by under 1%.
_CHUNK = 256


def _chunk_shortcuts(balls: list[Ball], k: int, heuristic: str) -> list[np.ndarray]:
    """Centers, targets and weights of every shortcut the balls' trees need."""
    sizes = np.array([len(b.members) for b in balls], dtype=np.int64)
    flat = chain.from_iterable
    members = np.fromiter(flat(flat(b.members for b in balls)), np.int64).reshape(-1, 2)
    parent = np.fromiter(flat(b.parent for b in balls), np.int64)
    depth = np.fromiter(flat(b.depth for b in balls), np.int64)
    parent = np.where(parent >= 0, parent + np.repeat(np.cumsum(sizes) - sizes, sizes), -1)
    cut = _shortcut_targets(parent, depth, k, heuristic)
    centers = np.repeat(np.array([b.center for b in balls], dtype=np.int64), sizes)
    return [centers[cut], members[cut, 0], members[cut, 1]]


def build_1_rho(g: Graph, rho: int, tie_inclusive: bool = True) -> tuple[Graph, RadiusAssignment]:
    """Add direct edges from every vertex to its ball members: build_k_rho at
    k = 1, where both heuristics skip a member joined by an equally light
    edge and collapse a heavier one to the exact distance.  r(v) = r_rho(v).
    """
    aug, radii, _ = build_k_rho(g, 1, rho, heuristic="greedy", tie_inclusive=tie_inclusive)
    return aug, radii


def build_k_rho(
    g: Graph,
    k: int,
    rho: int,
    heuristic: str = "dp",
    tie_inclusive: bool = True,
) -> tuple[Graph, RadiusAssignment, int]:
    """Per-vertex ball and min-hop tree -> shortcut plan, unioned into g.

    Each chunk of balls has its plans picked at once.  Returns the augmented
    graph, the radius assignment r(v) = r_rho(v), and the number of
    undirected edges the union actually added.
    """
    if heuristic not in ("greedy", "dp"):
        raise GraphError(f"unknown heuristic {heuristic!r}")
    if k < 1:
        raise GraphError(f"k must be >= 1, got {k}")
    r = np.zeros(g.n, dtype=np.int64)
    extra: list[list[np.ndarray]] = []
    for lo in range(0, g.n, _CHUNK):
        balls = [compute_ball(g, v, rho, tie_inclusive) for v in range(lo, min(lo + _CHUNK, g.n))]
        r[lo : lo + len(balls)] = [b.r_rho for b in balls]
        balls = [b for b in balls if len(b.members) > 1]
        if balls:
            extra.append(_chunk_shortcuts(balls, k, heuristic))
    r.flags.writeable = False
    aug = _augment(g, extra)
    radii = RadiusAssignment(r=r, rho=rho, k=k, tie_inclusive=tie_inclusive)
    return aug, radii, aug.m - g.m


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the brute-force ball-property check."""

    rho: int
    k: int
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_k_rho(g: Graph, radii: RadiusAssignment, cap: int = SMALL_GRAPH_CAP) -> ValidationReport:
    """Check r(v) <= k-radius(v) and |B(v, r(v))| >= min(rho, component size).

    Uses the brute-force k-radius and full Dijkstra oracles, so g must be at
    most cap vertices.
    """
    rbar = k_radius_bruteforce(g, radii.k, cap=cap)
    violations: list[str] = []
    for v in range(g.n):
        rv = int(radii.r[v])
        if rv > int(rbar[v]):
            violations.append(f"vertex {v}: r={rv} exceeds k-radius {int(rbar[v])}")
        dv = dijkstra(g, v)
        comp = dv.reached_count()
        ball_size = int((dv.dist <= rv).sum())
        need = min(radii.rho, comp)
        if ball_size < need:
            violations.append(f"vertex {v}: |B(v,{rv})|={ball_size} below {need}")
    return ValidationReport(rho=radii.rho, k=radii.k, checked=g.n, violations=tuple(violations))
