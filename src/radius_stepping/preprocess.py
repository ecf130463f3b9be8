"""Ball construction and shortcut insertion.

The pipeline per vertex v: a truncated Dijkstra finds the nearest-rho
neighborhood (the ball), its radius and a minimum-hop shortest-path tree
over it; a heuristic picks edges from v into the tree so that every ball
member sits within k hops.  Shortcut weights are exact ball distances, so
augmentation never changes any shortest-path distance.

compute_ball is that search for one vertex, with a Python heap.
ball_arrays runs it for many vertices at once in lockstep numpy rounds:
each source keeps a dense pool row of candidates, and every round pops
each row's nearest candidate, so rho rounds (plus one step for the
tie-inclusive tail) find every ball of a chunk.  Sources are chunked so
that a chunk's pool holds at most about 2**18 entries, and at large rho
the pool rows are compacted to one candidate per vertex as they fill.
build_k_rho plans each chunk's shortcuts as it comes, and _ball_premise
(the premise of check_bounds and of validate_k_rho) keeps two counts
per ball; compute_ball stays as the one-ball API and as the oracle the
batched search is tested against.  Both heuristics run on the tree's
parent and depth arrays alone: build_k_rho hands them a chunk's flat
columns, and shortcut_greedy and shortcut_dp hand them one Ball's.
validate_k_rho checks the (k, rho) property of any radii exactly, at any
graph size.

Ball counting includes the center: the first "closest vertex" of v is v
itself at distance 0, so rho=1 always yields the trivial ball {v} with
radius 0 and adds nothing.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graph import (
    _INT64_MAX,
    UNREACHED,
    Graph,
    GraphError,
    _check_count,
    _check_vertex,
    _edge_slots,
    _half_edges,
    _label_ids,
    _render_labeled,
    from_edges,
)


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
    _check_count("rho", rho)
    _check_vertex(g, v, "vertex")
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


# Pool entries one chunk of the batched search may hold: sources per chunk
# is min(1024, _POOL_ENTRIES // width).  On a 100x100 grid at rho=10,
# chunks of 1,024 sources ran as fast as larger ones; the entry cap keeps
# peak RSS flat where the pool is wide (1,601-vertex ladder at rho=10:
# width 721, 363 sources per chunk).
_POOL_ENTRIES = 2**18
_EMPTY = np.iinfo(np.int64).max  # distance of an empty pool slot
# A compaction pays off only if enough rounds are left to scan the
# narrower pool: on 100x100 grids and a 1,601-vertex ladder it was a net
# loss at rho=10 and a gain from rho=25 up (1.7x at rho=50 on a grid
# augmented at k=2).
_COMPACT_ROUNDS = 10


def _pool_plan(g: Graph, rho: int) -> tuple[np.ndarray, int, int]:
    """Per-vertex scan budgets, the widest of them, and sources per chunk.

    A vertex's budget is compute_ball's: its lightest rho edges, extended
    through ties with the rho-th weight.  Adjacency is sorted by weight, so
    the ties past the rho-th edge are the next slots of its row.
    """
    deg = np.diff(g.indptr)
    budget = np.minimum(deg, rho)
    heavy = np.flatnonzero(deg > rho)
    if len(heavy):
        kth = g.indptr[heavy] + rho - 1  # slot of each heavy row's rho-th edge
        past = deg[heavy] - rho
        row = np.repeat(np.arange(len(heavy)), past)
        slot = np.repeat(kth + 1 - (np.cumsum(past) - past), past) + np.arange(len(row))
        budget[heavy] += np.bincount(row[g.wt[slot] == g.wt[kth][row]], minlength=len(heavy))
    widest = int(budget.max(initial=0))
    width = 1 + (rho - 1) * widest
    return budget, widest, max(1, min(1024, _POOL_ENTRIES // width))


def _tags(r, p, member, mdepth, n):
    """Depth and parent tag of slots in rows r written from ball position p.

    The tag is the writing member's (depth, id), compared as depth * n +
    id; the source's own slot (p = -1) has depth 0 and the least tag.
    """
    dep = np.where(p >= 0, mdepth[r, p] + 1, 0)
    return dep, dep * n + np.where(p >= 0, member[r, p], -1)


def _by_tag(r, c, vert, owner, member, mdepth, n):
    """Pool slots (rows r, columns c) sorted by (row, vertex, parent tag).

    Returns rows, vertices, parent positions and depths.
    """
    v, p = vert[r, c], owner[r, c]
    dep, tag = _tags(r, p, member, mdepth, n)
    if not (r[1:] == r[:-1]).any():  # one slot per row: nothing to order
        return r, v, p, dep
    order = np.lexsort((tag, v, r))
    return r[order], v[order], p[order], dep[order]


def _firsts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal keys."""
    first = np.ones(len(keys[0]), dtype=bool)
    first[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return first


def _compact(dist, vert, owner, member, mdepth, used, n) -> int:
    """Pack each pool row to the left, keeping one slot per vertex.

    A pop of a vertex takes only its slot with the least (distance,
    parent tag), so every other slot of it (and every empty slot) goes.
    Returns the new width.
    """
    r, c = np.nonzero(dist[:, :used] < _EMPTY)
    key = r * n + vert[r, c]
    order = np.argsort(key)
    r, c, key = r[order], c[order], key[order]
    starts = np.flatnonzero(_firsts(key))
    runs = np.diff(np.append(starts, len(key)))
    d = dist[r, c]
    best = d == np.repeat(np.minimum.reduceat(d, starts), runs)
    tag = np.where(best, _tags(r, owner[r, c], member, mdepth, n)[1], _EMPTY)
    keep = tag == np.repeat(np.minimum.reduceat(tag, starts), runs)  # a vertex's tags differ
    r, c = r[keep], c[keep]
    count = np.bincount(r, minlength=len(dist))
    at = np.arange(len(r)) - np.repeat(np.cumsum(count) - count, count)
    cols = dist[r, c], vert[r, c], owner[r, c]
    for col, fill, got in zip((dist, vert, owner), (_EMPTY, -1, -1), cols):
        col[:, :used] = fill
        col[r, at] = got
    return int(count.max(initial=1))


def _lockstep(
    g: Graph, budget: np.ndarray, widest: int, src: np.ndarray, rho: int, tie_inclusive: bool
) -> list[np.ndarray]:
    """compute_ball for every source at once, one pop per source per round.

    Row i of the pool holds source i's candidates: slot 0 the source, then
    one block of `widest` slots per expanded pop, holding that member's
    budget edges with the vertices already in the ball left empty; owner
    holds the ball position of the member that wrote a slot (-1 for slot 0).
    A pop takes the row's (distance, id) minimum and, of that vertex's
    slots, the one with the smallest parent tag; then it empties every slot
    of that vertex.  Once the written width is four times what the last
    compaction left (plus two blocks), and at least _COMPACT_ROUNDS rounds
    remain, _compact drops the empty slots and the duplicates no pop can
    take, so a round scans about the distinct candidates, not every slot
    written so far (on a 1,601-vertex ladder at rho=50, about 110 against
    3,900).  After rho pops the heap of compute_ball is frozen, so its
    tie-inclusive tail is every pool vertex at exactly r_rho, in id order.
    Returns the vertices, distances, ball-local parent positions and depths
    of every ball entry, in ball order.
    """
    n, rows = g.n, np.arange(len(src))
    dist = np.full((len(src), 1 + (rho - 1) * widest), _EMPTY, dtype=np.int64)
    vert = np.full(dist.shape, -1, dtype=np.int64)
    owner = np.full(dist.shape, -1, dtype=np.int32)  # ball positions, below rho
    dist[:, 0] = 0
    vert[:, 0] = src
    member = np.full((len(src), rho), n, dtype=np.int64)  # n: no member
    mdist, mparent, mdepth = (np.zeros((len(src), rho), dtype=np.int64) for _ in range(3))
    count = np.zeros(len(src), dtype=np.int64)
    budget = np.append(budget, 0)
    slots = np.arange(widest)
    used = packed = 1  # slots written so far; width after the last compaction
    for j in range(rho):
        if rho - j >= _COMPACT_ROUNDS and used >= 4 * packed + 2 * widest:
            used = packed = _compact(dist, vert, owner, member, mdepth, used, n)
        D, V = dist[:, :used], vert[:, :used]
        d = D.min(axis=1)
        live = d < _EMPTY  # a row whose pool is empty holds a whole component
        if not live.any():
            break
        at_d = D == np.where(live, d, -1)[:, None]
        v = np.where(at_d, V, n).min(axis=1)
        same = V == v[:, None]
        r, _, p, dep = _by_tag(*np.nonzero(at_d & same), V, owner, member, mdepth, n)
        first = _firsts(r)
        r, p, dep = r[first], p[first], dep[first]
        if (member[r, :j] == v[r, None]).any():
            raise GraphError("ball search popped a vertex already in its ball")
        member[r, j], mdist[r, j], mparent[r, j], mdepth[r, j] = v[r], d[r], p, dep
        count[r] += 1
        D[same] = _EMPTY
        if j < rho - 1:
            ok = slots < budget[v][:, None]
            edge = np.where(ok, g.indptr[v][:, None] + slots, 0)
            nbr = g.nbr[edge]
            for k in range(j + 1):  # leave out the vertices already in the ball
                ok &= nbr != member[:, k, None]
            dist[:, used : used + widest] = np.where(ok, mdist[:, j, None] + g.wt[edge], _EMPTY)
            vert[:, used : used + widest] = nbr
            owner[:, used : used + widest] = j
            used += widest
    keep = np.arange(rho) < count[:, None]
    cols = [np.repeat(rows, count), member[keep], mdist[keep], mparent[keep], mdepth[keep]]
    if tie_inclusive:
        r_rho = mdist[rows, count - 1]
        r, v, p, dep = _by_tag(*np.nonzero(dist[:, :used] == r_rho[:, None]), vert, owner, member, mdepth, n)
        first = _firsts(r, v)
        tail = [r[first], v[first], r_rho[r[first]], p[first], dep[first]]
        order = np.argsort(np.concatenate([cols[0], tail[0]]), kind="stable")
        cols = [np.concatenate(pair)[order] for pair in zip(cols, tail)]
    return cols[1:]


def _ball_chunks(g: Graph, src: np.ndarray, rho: int, tie_inclusive: bool):
    """The balls of src, one pool-sized chunk of sources at a time.

    Yields each chunk's r_rho and size per ball and its ball_arrays
    columns, parent positions counted from the chunk's first entry.
    """
    rho = min(rho, max(g.n, 1))  # a ball holds at most n vertices, in both tie modes
    if rho == 1:  # every ball is its center alone
        zero = np.zeros_like(src)
        yield zero, zero + 1, (src, src.copy(), zero.copy(), zero - 1, zero.copy())
        return
    budget, widest, step = _pool_plan(g, rho)
    for lo in range(0, max(len(src), 1), step):  # no source: one empty chunk
        chunk = src[lo : lo + step]
        vertex, dist, parent, depth = _lockstep(g, budget, widest, chunk, rho, tie_inclusive)
        starts = np.flatnonzero(parent < 0)
        size = np.diff(np.append(starts, len(parent)))
        parent = np.where(parent >= 0, parent + np.repeat(starts, size), -1)  # ball-local -> flat
        yield dist[starts + size - 1], size, (np.repeat(chunk, size), vertex, dist, parent, depth)


def _sources(g: Graph, sources, rho: int) -> np.ndarray:
    """The sources as an int64 array, checked against g and rho."""
    _check_count("rho", rho)
    src = np.asarray(sources).reshape(-1)
    if len(src) and src.dtype.kind not in "iu":
        raise GraphError(f"vertices must be integer ids, got {src.dtype}")
    src = src.astype(np.int64, copy=False)
    if len(src) and (src.min() < 0 or src.max() >= g.n):
        raise GraphError(f"vertex out of range for n={g.n}")
    return src


def ball_arrays(
    g: Graph, sources, rho: int, tie_inclusive: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """compute_ball for many sources at once, as flat columns.

    Returns (center, vertex, dist, parent, depth), one entry per ball
    member: the balls in the order of sources, each in compute_ball's
    member order.  parent is a position in these columns, -1 for a
    center.  The sources are searched in lockstep chunks (see _lockstep),
    sized so that a chunk's pool holds at most about _POOL_ENTRIES
    candidates.
    """
    parts = [cols for _, _, cols in _ball_chunks(g, _sources(g, sources, rho), rho, tie_inclusive)]
    sizes = [len(cols[0]) for cols in parts]
    shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
    center, vertex, dist, parent, depth = (np.concatenate(col) for col in zip(*parts))
    return center, vertex, dist, np.where(parent >= 0, parent + shift, -1), depth


def _ball_premise(g: Graph, r: np.ndarray, sources, rho: int) -> tuple[np.ndarray, np.ndarray]:
    """|B(v, r(v))| and min(rho, component size) of each source v; the
    paper's bounds assume the first is at least the second.  Counted chunk
    by chunk, so no column outlives its chunk; |B| is exact where short."""
    inside, need = [], []
    for _, size, (center, _, dist, _, _) in _ball_chunks(g, _sources(g, sources, rho), rho, tie_inclusive=True):
        inside.append(np.add.reduceat(dist <= r[center], np.cumsum(size) - size))
        need.append(np.minimum(size, min(rho, g.n)))  # size <= n, and rho may exceed int64
    return np.concatenate(inside), np.concatenate(need)


@dataclass(frozen=True)
class RadiusAssignment:
    """Per-vertex step radii.

    r must be a 1-D integer array (not bool) of int64 values; it is stored
    as a read-only int64 copy.  Its range is checked where it is used.
    """

    r: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r)
        wide = r.dtype.kind == "u" and r.size and r.max() > _INT64_MAX
        if r.ndim != 1 or r.dtype.kind not in "iu" or wide:
            raise GraphError(f"radii must be a 1-D array of int64 values, got {r.dtype} of shape {r.shape}")
        r = r.astype(np.int64)
        r.flags.writeable = False
        object.__setattr__(self, "r", r)

    @classmethod
    def uniform(cls, n: int, value: int) -> "RadiusAssignment":
        return cls(r=np.full(n, value))


def _check_size(g: Graph, radii: RadiusAssignment) -> None:
    if len(radii.r) != g.n:
        raise GraphError("radius assignment does not match graph size")


def write_radii(radii: RadiusAssignment, labels: tuple[int, ...] | None = None) -> str:
    """One "v r\\n" line per vertex, keyed by label (sorted), "inf" for no cap."""
    if labels is not None and len(labels) != len(radii.r):
        raise GraphError(f"{len(labels)} labels for {len(radii.r)} radii")
    label = _label_ids(labels, len(radii.r))
    order = np.argsort(label, kind="stable")
    return _render_labeled(label[order], radii.r[order])


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
        if not -(2**63) <= v < 2**63:
            raise GraphError(f"radii line {lineno}: vertex ids must fit int64, got {v}")
        if not 0 <= r <= UNREACHED:
            raise GraphError(f"radii line {lineno}: radius must be in [0, 2**62] or inf, got {r}")
        if v in pairs:
            raise GraphError(f"radii line {lineno}: vertex {v} listed twice")
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
    return arr


@dataclass(frozen=True)
class BallTree:
    """A ball's min-hop shortest-path tree keyed by vertex.

    parent maps each non-root member to its tree parent; depth is the hop
    count from the root (minimal over all shortest-path trees); dist is the
    exact ball distance.
    """

    root: int
    parent: dict[int, int]
    depth: dict[int, int]
    dist: dict[int, int]


def min_hop_ball_tree(ball: Ball) -> BallTree:
    """The min-hop tree compute_ball recorded, keyed by vertex."""
    verts = [u for u, _ in ball.members]
    parent = {u: verts[p] for u, p in zip(verts, ball.parent) if p >= 0}
    return BallTree(ball.center, parent, dict(zip(verts, ball.depth)), dict(ball.members))


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
    Neither shortcuts a node within k hops, so k above the deepest node
    acts as that depth.
    """
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


def _shortcuts(ball: Ball, k: int, heuristic: str) -> tuple[tuple[int, int], ...]:
    _check_count("k", k)
    parent = np.array(ball.parent, dtype=np.int64)
    depth = np.array(ball.depth, dtype=np.int64)
    target = _shortcut_targets(parent, depth, k, heuristic)
    return tuple(ball.members[i] for i in np.flatnonzero(target).tolist())


def shortcut_greedy(ball: Ball, k: int) -> tuple[tuple[int, int], ...]:
    """(target, ball distance) edges from the center to every member at hop
    depth k+1, 2k+1, 3k+1, ... of its min-hop tree, in member order."""
    return _shortcuts(ball, k, "greedy")


def shortcut_dp(ball: Ball, k: int) -> tuple[tuple[int, int], ...]:
    """The fewest (target, ball distance) edges from the center that bring
    every member within k hops of its min-hop tree, in member order."""
    return _shortcuts(ball, k, "dp")


def _augment(g: Graph, extra: list[list[np.ndarray]]) -> Graph:
    """g with the (center, vertex, distance) shortcut columns unioned in;
    g itself when there are none, since rebuilding would change nothing."""
    if not sum(len(part[0]) for part in extra):
        return g
    cols = tuple(np.concatenate([col, *parts]) for col, parts in zip(_half_edges(g), zip(*extra)))
    return from_edges(g.n, cols, labels=g.labels)


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

    Balls come from the batched search one chunk of sources at a time,
    and each chunk's plans are picked at once; chunking also bounds the
    plan's memory.  Returns the augmented graph (g itself when no
    shortcut is planned, as at rho=1), the radius assignment
    r(v) = r_rho(v), and the number of undirected edges the union
    actually added.
    """
    if heuristic not in ("greedy", "dp"):
        raise GraphError(f"unknown heuristic {heuristic!r}")
    _check_count("k", k)
    _check_count("rho", rho)
    radius: list[np.ndarray] = []
    extra: list[list[np.ndarray]] = []
    for r_rho, _, (center, vertex, dist, parent, depth) in _ball_chunks(g, np.arange(g.n), rho, tie_inclusive):
        cut = _shortcut_targets(parent, depth, k, heuristic)
        radius.append(r_rho)
        extra.append([center[cut], vertex[cut], dist[cut]])
    aug = _augment(g, extra)
    return aug, RadiusAssignment(r=np.concatenate(radius)), aug.m - g.m


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the (k, rho) ball-property check, one line per violation."""

    rho: int
    k: int
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# Entries one chunk of validate_k_rho may hold: each of its sources keeps a
# dense row of n distances, and a round relaxes at most this many edges at
# once (or one vertex's edges, if more).
_CHECK_ENTRIES = 2**21


def _hop_round(
    g: Graph, best: np.ndarray, mark: np.ndarray, key: np.ndarray, val: np.ndarray, cap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One round of validate_k_rho: each pair (row, u) = divmod(key, n),
    lowered to val in the round before, offers val + wt(u, x) to (row, x),
    kept if at most cap[row] and below best.  Offers come from val, so
    relaxing them in slices changes nothing; `mark` (False between rounds)
    lists a key lowered by two slices once.  Returns the keys lowered and
    their new values."""
    row, u = np.divmod(key, g.n)
    span = max(1, _CHECK_ENTRIES // int((g.indptr[u + 1] - g.indptr[u]).max(initial=1)))
    lowered = [key[:0]]
    for lo in range(0, len(key), span):
        eidx, counts = _edge_slots(g, u[lo : lo + span])
        at = np.repeat(row[lo : lo + span], counts)
        offer = np.repeat(val[lo : lo + span], counts) + g.wt[eidx]
        ok = offer <= cap[at]
        at = at * g.n + g.nbr[eidx]
        ok &= offer < best[at]
        at = at[ok]
        np.minimum.at(best, at, offer[ok])
        lowered.append(np.unique(at[~mark[at]]))
        mark[lowered[-1]] = True
    key = np.concatenate(lowered)
    mark[key] = False
    return key, best[key]


def validate_k_rho(g: Graph, radii: RadiusAssignment, k: int, rho: int) -> ValidationReport:
    """Check r(v) <= k-radius(v) and |B(v, r(v))| >= min(rho, component size).

    The k-radius of v is the least distance to a vertex with no shortest
    path of k hops or fewer (UNREACHED if there is none).  Chunk by chunk
    of sources, k+1 rounds of _hop_round give each pair (v, u) the least
    weight of a path of at most h hops, where it is <= r(v).  A pair
    lowered in round k+1 has no shortest path of k hops, so its value is
    at least the k-radius; a nearest such u has a min-hop shortest path of
    exactly k+1 hops (on a longer one, the vertex k+1 hops in would be
    nearer), so round k+1 lowers it to the k-radius if that is <= r(v).
    Hence r(v) exceeds the k-radius iff it exceeds the least value lowered
    there.  Every pair kept lies in B(v, r(v)), so a row that keeps rho
    pairs meets the ball premise; a row that keeps fewer takes |B(v, r)|
    and min(rho, component) from _ball_premise.  A round that lowers no
    pair leaves nothing to offer, so the rounds stop there.
    """
    n, r = g.n, radii.r
    _check_count("rho", rho)
    _check_count("k", k)
    _check_size(g, radii)
    kradius = np.full(n, UNREACHED, dtype=np.int64)
    kept = np.zeros(n, dtype=np.int64)
    step = max(1, _CHECK_ENTRIES // max(n, 1))
    best = np.full(min(step, n) * n, _EMPTY, dtype=np.int64)
    mark = np.zeros(len(best), dtype=bool)
    for lo in range(0, n, step):
        src = np.arange(lo, min(lo + step, n))
        key = (np.arange(len(src)) * n + src)[r[src] >= 0]  # each source at distance 0
        best[key] = 0
        val = np.zeros(len(key), dtype=np.int64)
        seen = [key]
        for _ in range(k + 1):
            key, val = _hop_round(g, best, mark, key, val, r[src])
            seen.append(key)
            if not len(key):
                break
        np.minimum.at(kradius, src[key // n], val)
        touched = np.unique(np.concatenate(seen))
        kept[src] = np.bincount(touched // n, minlength=len(src))
        best[touched] = _EMPTY
    over = r > kradius
    search = np.flatnonzero(kept < rho)
    inside, need = np.zeros((2, n), dtype=np.int64)
    inside[search], need[search] = _ball_premise(g, r, search, rho)
    violations: list[str] = []
    for v in np.flatnonzero(over | (inside < need)).tolist():
        if over[v]:
            violations.append(f"vertex {v}: r={int(r[v])} exceeds k-radius {int(kradius[v])}")
        if inside[v] < need[v]:
            violations.append(f"vertex {v}: |B(v,{int(r[v])})|={int(inside[v])} below {int(need[v])}")
    return ValidationReport(rho=rho, k=k, checked=n, violations=tuple(violations))
