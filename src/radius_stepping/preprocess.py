"""Ball construction and shortcut insertion.

The pipeline per vertex v: a truncated Dijkstra finds the nearest-rho
neighborhood (the ball), its radius and a minimum-hop shortest-path tree
over it; a heuristic picks edges from v into the tree so that every ball
member sits within k hops.  Shortcut weights are exact ball distances, so
augmentation never changes any shortest-path distance.

ball_arrays runs that search for many vertices at once in lockstep numpy
rounds: each source keeps a dense pool row of candidates, and every round
pops each row's nearest candidate, so rho rounds (plus one step for the
tie-inclusive tail) find every ball of a chunk.  Sources are chunked so
that a chunk's pool holds at most about 2**18 entries, and at large rho
the pool rows are compacted to one candidate per vertex as they fill;
_pool_plan and _lockstep show why the balls and trees are exact.
compute_ball is the one-ball view of ball_arrays.  build_k_rho plans each
chunk's shortcuts as it comes, and _ball_premise (the premise of
check_bounds and of validate_k_rho) keeps two counts per ball.  Both
heuristics run on the tree's parent and depth arrays alone: build_k_rho
hands them a chunk's flat columns, and _shortcuts (behind shortcut_dp)
hands them one Ball's.  validate_k_rho checks the (k, rho) property of
any radii exactly, at any graph size.

Ball counting includes the center: the first "closest vertex" of v is v
itself at distance 0, so rho=1 always yields the trivial ball {v} with
radius 0 and adds nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    UNREACHED,
    Graph,
    GraphError,
    _check_count,
    _check_labels,
    _check_vertex,
    _edge_slots,
    _half_edges,
    _int64_array,
    _is_int,
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
    """ball_arrays' ball of v as a Ball of Python ints: the rho vertices
    nearest v (v included), and in tie-inclusive mode every further vertex
    at exactly r_rho.  A component smaller than rho is taken whole.

    Each call is a whole ball_arrays search for one source: _pool_plan's
    pass over every vertex of g, then rho lockstep rounds.  At rho=10 a
    call took about 1.2 ms on weighted 10x10 and 100x100 grids, where one
    ball_arrays call over 100 sources took 2 ms (CPython 3.11.7, numpy
    2.4.6, 2-core Xeon).  Find many vertices' balls with one ball_arrays
    call, not a loop of this."""
    _check_count("rho", rho)
    _check_vertex(g, v, "vertex")
    center, vertex, dist, parent, depth = (col.tolist() for col in ball_arrays(g, [v], rho, tie_inclusive))
    return Ball(center[0], tuple(zip(vertex, dist)), dist[-1], tuple(parent), tuple(depth))


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

    A vertex's budget is its lightest rho edges, extended through ties
    with the rho-th weight; adjacency is sorted by weight, so the ties
    past the rho-th edge are the next slots of its row.  The budget holds
    every edge (w, u) with d(w) + wt(w, u) = d(u) of a member u, strict
    mode included: parallel edges are collapsed, so were (w, u) outside
    it, w would have rho distinct neighbours x with wt(w, x) < wt(w, u),
    hence d(x) < d(u), and r_rho < d(u) would leave u out.  Without the
    tie extension, ties of the rho-th weight could lose a member at r_rho.
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
    """The balls of every source at once, one pop per source per round.

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
    3,900).  After rho pops every member that can write a slot at r_rho
    has been expanded, so the tie-inclusive tail is every pool vertex at
    exactly r_rho, in id order.  Parent tags give the min-hop tree, strict
    mode included: for a member u, each w with d(w) + wt(w, u) = d(u) has
    d(w) < d(u) <= r_rho (weights are >= 1), so it is among the first
    rho-1 members, the ones expanded, with its depth final (its own
    predecessors are closer); and (w, u) is in w's budget (_pool_plan).
    So u's slots at d(u) carry every shortest-path predecessor's
    (depth, id), the pop takes the least, and depths are fewest-hop in g.
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
    """The sources as a 1-D int64 array, checked against g and rho."""
    _check_count("rho", rho)
    src = _int64_array("sources", sources)
    if len(src) and (src.min() < 0 or src.max() >= g.n):
        raise GraphError(f"vertex out of range for n={g.n}")
    return src


def ball_arrays(
    g: Graph, sources, rho: int, tie_inclusive: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The balls of many sources at once, as flat columns.

    Returns (center, vertex, dist, parent, depth), one entry per ball
    member: the balls in the order of sources, each with its members in
    (distance, id) order (see Ball).  parent is a position in these
    columns, -1 for a center.  The sources are searched in lockstep chunks
    (see _lockstep), sized so that a chunk's pool holds at most about
    _POOL_ENTRIES candidates.
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

    r is an integer sequence as graph._int64_array takes one, each radius
    in [0, UNREACHED] (UNREACHED: no cap), or GraphError; it is stored as
    a read-only int64 copy.  parse_radii reads back what write_radii writes.
    """

    r: np.ndarray

    def __post_init__(self) -> None:
        r = _int64_array("radii", self.r).copy()
        if len(r) and r.min() < 0:
            raise GraphError("radii must be nonnegative")
        if len(r) and r.max() > UNREACHED:
            raise GraphError(f"radii must be at most {UNREACHED} (2**62, no cap)")
        r.flags.writeable = False
        object.__setattr__(self, "r", r)

    @classmethod
    def uniform(cls, n: int, value: int) -> "RadiusAssignment":
        if not _is_int(n) or n < 0:
            raise GraphError(f"vertex count must be a nonnegative integer, got {n!r}")
        return cls(r=np.full(n, value))


def _check_size(g: Graph, radii: RadiusAssignment) -> None:
    if len(radii.r) != g.n:
        raise GraphError("radius assignment does not match graph size")


def write_radii(radii: RadiusAssignment, labels: np.ndarray | None = None) -> str:
    """One "v r\\n" line per vertex, keyed by label (sorted), "inf" for no cap.

    Labels, if given, must be as from_edges takes them: one distinct id
    per radius, by graph._int64_array's rule.
    """
    label = np.arange(len(radii.r), dtype=np.int64) if labels is None else _int64_array("vertex labels", labels)
    if len(label) != len(radii.r):
        raise GraphError(f"{len(label)} labels for {len(radii.r)} radii")
    _check_labels(label, len(radii.r))
    order = np.argsort(label, kind="stable")
    return _render_labeled(label[order], radii.r[order])


def parse_radii(text: str) -> dict[int, int]:
    pairs: dict[int, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
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
    # Radii are >= 0, so -1 marks a label the file does not list.
    arr = np.array([pairs.get(lab, -1) for lab in g.labels.tolist()], dtype=np.int64)
    if (arr < 0).any():
        raise GraphError(f"radii file is missing vertex {g.labels[np.argmax(arr < 0)]}")
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
    g: Graph, best: np.ndarray, key: np.ndarray, val: np.ndarray, cap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One round of validate_k_rho: each pair (row, u) = divmod(key, n),
    lowered to val in the round before, offers val + wt(u, x) to (row, x),
    kept if at most cap[row] and below best.  Offers come from val, so
    relaxing them in slices changes nothing.  Returns the keys lowered,
    each once in ascending order, and their new values."""
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
        lowered.append(np.unique(at))
    key = np.unique(np.concatenate(lowered))
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
    for lo in range(0, n, step):
        src = np.arange(lo, min(lo + step, n))
        key = np.arange(len(src)) * n + src  # each source at distance 0
        best[key] = 0
        val = np.zeros(len(key), dtype=np.int64)
        seen = [key]
        for _ in range(k + 1):
            key, val = _hop_round(g, best, key, val, r[src])
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
