"""Ball construction and shortcut insertion.

The pipeline per vertex v: a truncated Dijkstra finds the nearest-rho
neighborhood (the ball), its radius and a minimum-hop shortest-path tree
over it; a heuristic picks edges from v into the tree so that every ball
member sits within k hops.  Shortcut weights are exact ball distances, so
augmentation never changes any shortest-path distance.

ball_arrays runs that search for many vertices at once in lockstep numpy
rounds, one pop per source per round, so rho rounds (plus one step for
the tie-inclusive tail) find every ball of a chunk.  Each member popped
opens a block, its CSR row cut to its scan budget; rows are sorted by
(weight, id), so each block is sorted by (distance, id) and a ball's next
pop is the least of its blocks' heads.  Sources are chunked so that a
chunk's blocks hold at most about 2**18 slots; _pool_plan and _lockstep
show why the balls and trees are exact.
compute_ball is the one-ball view of ball_arrays.  build_k_rho plans each
chunk's shortcuts as it comes, and _ball_premise (the premise of
check_bounds and of validate_k_rho) keeps two counts per ball.  Both
heuristics run on the tree's parent and depth arrays alone: build_k_rho
hands them a chunk's flat columns, and _shortcuts (behind shortcut_dp)
hands them one Ball's.  dp runs one numpy pass per tree depth level,
from depth 2 down: it never shortcuts a node at depth 0 or 1, so a chunk
of trees no deeper than 1 (every ball of a unit ladder at rho=10) costs
it nothing.  validate_k_rho checks the (k, rho) property of
any radii exactly, at any graph size.  write_radii and read_radii keep
radii in a "v r" file keyed by the graph's labels.

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
    _check_distinct,
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
    pass over every vertex of g, then up to rho rounds of a few dozen numpy
    calls each.  At rho=10 a call took about 0.9 ms on weighted 10x10 and
    100x100 grids, where one ball_arrays call over 100 sources took
    1.6-2.0 ms (CPython 3.11.7, numpy 2.4.6, 2-core sandbox).  Find many
    vertices' balls with one ball_arrays call, not a loop of this."""
    _check_count("rho", rho)
    _check_vertex(g, v, "vertex")
    center, vertex, dist, parent, depth = (col.tolist() for col in ball_arrays(g, [v], rho, tie_inclusive))
    return Ball(center[0], tuple(zip(vertex, dist)), dist[-1], tuple(parent), tuple(depth))


# Slots one chunk of the batched search may hold: a source and the rho - 1
# blocks it opens hold at most 1 + (rho - 1) * widest slots, where widest
# is the largest scan budget, so sources per chunk is min(1024,
# _POOL_ENTRIES // that).  The tie-inclusive tail reads a chunk's blocks
# from their heads at once, so this bounds its arrays; it also bounds the
# slots _skip_members moves at once, since at most min(deg(v), rho - 1)
# <= widest heads of a row sit on one vertex v.  On a 100x100 grid
# at rho=10, chunks of 1,024 sources ran as fast as larger ones; the cap
# keeps peak RSS flat where blocks are wide (1,601-vertex ladder at
# rho=10: widest 80, 363 sources per chunk).
_POOL_ENTRIES = 2**18
_EMPTY = np.iinfo(np.int64).max  # distance of an exhausted block's head


def _pool_plan(g: Graph, rho: int) -> tuple[np.ndarray, int]:
    """Per-vertex scan budgets and sources per chunk (see _POOL_ENTRIES).

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
    width = 1 + (rho - 1) * int(budget.max(initial=0))
    return budget, max(1, min(1024, _POOL_ENTRIES // width))


def _skip_members(g: Graph, member: np.ndarray, r: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Each slot s moved to the first slot in [s, e) whose vertex is not in
    the ball of row r (a column of member), or to e.  No slot is looked at
    twice."""
    s = s.copy()
    todo = np.flatnonzero(s < e)
    while len(todo):
        dead = (member.take(r[todo], axis=1) == g.nbr[s[todo]]).any(axis=0)
        todo = todo[dead]
        s[todo] += 1
        todo = todo[s[todo] < e[todo]]
    return s


def _lockstep(g: Graph, budget: np.ndarray, src: np.ndarray, rho: int, tie_inclusive: bool) -> list[np.ndarray]:
    """The balls of every source at once, one pop per source per round.

    Popping member j of a ball (j < rho - 1) opens block j: the CSR slice
    [indptr[u], indptr[u] + budget[u]) of that member u.  from_edges sorts
    each row by (weight, neighbour id), and a block's distances are d(u)
    plus its weights, so every block is sorted by (distance, id).  Each
    block keeps a head, its first slot whose vertex is not in the ball.
    The candidates of a ball are the non-members of its open blocks, so
    the next pop, their (distance, id) minimum, is the least of at most
    rho - 1 heads.  Once v is popped at d(v), the heads sitting on v (at
    any distance) move past it and past every other member, as does the
    block v opens; _skip_members looks at each slot once.  Each of v's
    slots at d(v) is a head: a block's slots before it hold members or
    candidates below (d(v), v), and no candidate is below the pop.  Of
    these the pop takes the one with the least parent tag, the opening
    member's (depth + 1) * n + id.  After rho pops every member that can
    offer a slot at r_rho has opened its block, so the tie-inclusive tail
    is each non-member at exactly r_rho in a block whose head is there,
    read from the head on, with its least tag, in id order; a slot's
    vertex is told from the members by one lookup of its (row, vertex)
    key among the sorted keys of the entries popped.  Parent tags
    give the min-hop tree, strict mode included: for a member u, each w
    with d(w) + wt(w, u) = d(u) has d(w) < d(u) <= r_rho (weights are
    >= 1), so it is among the first rho - 1 members, the ones expanded,
    with its depth final (its own predecessors are closer); and (w, u) is
    in w's budget (_pool_plan).  So u's slots at d(u) carry every
    shortest-path predecessor's (depth, id), the pop takes the least, and
    depths are fewest-hop in g.  Returns the vertices, distances,
    ball-local parent positions and depths of every ball entry, in ball
    order.
    """
    n, rows = g.n, np.arange(len(src))
    # Ball position j of row i is [j, i], and block j of row i is [j, i]
    # (flat: j * len(src) + i): a round's reductions over a row's blocks
    # then run along axis 0, as whole-array passes, not per short row.
    member = np.full((rho, len(src)), n, dtype=np.int64)  # n: no member
    mdist, mparent, mdepth = (np.zeros((rho, len(src)), dtype=np.int64) for _ in range(3))
    count = np.zeros(len(src), dtype=np.int64)
    # Per block: next and end slot, the member's distance and parent tag,
    # and the head's distance and vertex (_EMPTY and n once exhausted).
    nxt, end, base, tag = (np.zeros((rho - 1) * len(src), dtype=np.int64) for _ in range(4))
    hd = np.full(len(nxt), _EMPTY, dtype=np.int64)
    hv = np.full(len(nxt), n, dtype=np.int64)
    HD, HV, TAG = (col.reshape(rho - 1, len(src)) for col in (hd, hv, tag))
    v, d, p, dep = src, np.zeros(len(src), dtype=np.int64), np.full(len(src), -1), np.zeros(len(src), dtype=np.int64)
    f = rows[:0]  # heads on the popped vertex
    for j in range(rho):  # round 0 pops each source
        if j:
            H, V = HD[:j], HV[:j]
            d = H.min(axis=0)
            live = d < _EMPTY  # a row with no head left holds a whole component
            if not live.any():
                break
            at = H == d
            v = np.where(live, np.where(at, V, n).min(axis=0), -1)  # -1: the row pops nothing
            on = V == v
            f = np.flatnonzero(on)
            t = np.where(at & on, TAG[:j], _EMPTY)
            p = t.argmin(axis=0)
            dep = t[p, rows] // n
            if (member[:j] == v).any():
                raise GraphError("ball search popped a vertex already in its ball")
        r = np.flatnonzero(v >= 0)
        v, d = v[r], d[r]
        member[j, r], mdist[j, r], mparent[j, r], mdepth[j, r] = v, d, p[r], dep[r]
        count[r] += 1
        s, e = nxt[f] + 1, end[f]
        if j < rho - 1:  # open block j
            new = j * len(src) + r
            f, s, e = np.append(f, new), np.append(s, g.indptr[v]), np.append(e, g.indptr[v] + budget[v])
            base[new], tag[new] = d, (dep[r] + 1) * n + v
        s = nxt[f] = _skip_members(g, member[: j + 1], f % len(src), s, e)
        end[f] = e
        ok = s < e
        hd[f] = np.where(ok, base[f] + g.wt.take(s, mode="clip"), _EMPTY)
        hv[f] = np.where(ok, g.nbr.take(s, mode="clip"), n)
    keep = np.arange(rho) < count[:, None]
    cols = [np.repeat(rows, count), member.T[keep], mdist.T[keep], mparent.T[keep], mdepth.T[keep]]
    if tie_inclusive:
        r_rho = mdist[count - 1, rows]
        f = np.flatnonzero(HD == r_rho)
        size = end[f] - nxt[f]
        slot = np.repeat(nxt[f] - np.cumsum(size) + size, size) + np.arange(size.sum())
        f = np.repeat(f, size)
        r = f % len(src)
        key = r * n + g.nbr[slot]
        known = np.sort(cols[0] * n + cols[1])  # the members, as keys
        ok = base[f] + g.wt[slot] == r_rho[r]
        ok &= known.take(np.searchsorted(known, key), mode="clip") != key  # leave out the members
        key = key[ok]
        order = np.argsort(key, kind="stable")  # cheap: each block's run is in id order
        f, key = f[ok][order], key[order]
        t = tag[f]
        starts = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
        least = t == np.repeat(np.minimum.reduceat(t, starts), np.diff(np.append(starts, len(t))))
        f, key, t = f[least], key[least], t[least]  # a row's tags differ
        r = f % len(src)
        tail = [r, key - r * n, r_rho[r], f // len(src), t // n]
        order = np.argsort(np.concatenate([cols[0], r]), kind="stable")
        cols = [np.concatenate(pair)[order] for pair in zip(cols, tail)]
    return cols[1:]


def _ball_chunks(g: Graph, src: np.ndarray, rho: int, tie_inclusive: bool):
    """The balls of src, one chunk of sources (_pool_plan) at a time.

    Yields each chunk's r_rho and size per ball and its ball_arrays
    columns, parent positions counted from the chunk's first entry.
    """
    rho = min(rho, max(g.n, 1))  # a ball holds at most n vertices, in both tie modes
    if rho == 1 or not g.m:  # every ball is its center alone
        zero = np.zeros_like(src)
        yield zero, zero + 1, (src, src.copy(), zero.copy(), zero - 1, zero.copy())
        return
    budget, step = _pool_plan(g, rho)
    for lo in range(0, max(len(src), 1), step):  # no source: one empty chunk
        chunk = src[lo : lo + step]
        vertex, dist, parent, depth = _lockstep(g, budget, chunk, rho, tie_inclusive)
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
    (see _lockstep), sized so that a chunk's blocks hold at most about
    _POOL_ENTRIES slots.
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
    a read-only int64 copy.  read_radii reads back what write_radii writes.
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


def write_radii(radii: RadiusAssignment, labels: np.ndarray) -> str:
    """One "v r\\n" line per vertex, keyed by label (sorted), "inf" for no cap.

    Labels must be as from_edges takes them: one distinct id per radius,
    by graph._int64_array's rule.  No radii give "", which read_radii
    refuses as an empty radii file.
    """
    label = _int64_array("vertex labels", labels)
    if len(label) != len(radii.r):
        raise GraphError(f"{len(label)} labels for {len(radii.r)} radii")
    order = np.argsort(label)  # distinct labels have one sorted order
    _check_distinct(label[order], len(radii.r))
    return _render_labeled(label[order], radii.r[order])


def read_radii(text: str, g: Graph) -> RadiusAssignment:
    """write_radii's "v r" lines as g's radii, by dense id.  The first error
    wins: a line's, in file order; an empty file; a missing vertex; extra labels."""
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
    # Radii are >= 0, so -1 marks a label the file does not list.
    arr = np.array([pairs.get(lab, -1) for lab in g.labels.tolist()], dtype=np.int64)
    if (arr < 0).any():
        raise GraphError(f"radii file is missing vertex {g.labels[np.argmax(arr < 0)]}")
    if len(pairs) != g.n:
        raise GraphError(f"radii file covers {len(pairs)} vertices, graph has {g.n}")
    return RadiusAssignment(r=arr)


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

    Two things hold.  greedy shortcuts only nodes deeper than k, so k
    above the deepest node acts as that depth.  dp never shortcuts a node
    at depth 0 or 1 (it may at depth 2 <= k): a depth-1 node's parent is
    its root, at t = 0 < k hops, and shortcutting it costs
    1 + below(u, 1), more than riding at below(u, 1); and its cost feeds
    only its root's, which nothing reads.  So dp's levels start at depth
    2, and only depth 3 and deeper send costs up.
    """
    deepest = depth.max(initial=0)
    k = min(k, max(1, deepest))
    if heuristic == "greedy":
        return (depth > k) & ((depth - 1) % k == 0)
    target = np.zeros(len(depth), dtype=bool)
    if deepest < 2:
        return target
    deep = np.flatnonzero(depth >= 2)
    # A level's order changes no sum and no comparison, so the sort may be unstable.
    levels = np.split(deep[np.argsort(depth[deep])], np.cumsum(np.bincount(depth[deep]))[2:-1])
    below = np.zeros((len(depth), k + 1), dtype=np.int64)  # children's summed cost(., t)
    for idx in reversed(levels[1:]):
        kids = below[idx]
        cost = np.empty_like(kids)
        cost[:, k] = 1 + kids[:, 1]  # shortcut u: its children restart at 1 hop
        np.minimum(cost[:, k : k + 1], kids[:, 1:], out=cost[:, :k])
        np.add.at(below, parent[idx], cost)
    hops = np.minimum(depth, 1)  # hops from the root once shortcuts are in
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


def _augment(g: Graph, extra: list[np.ndarray]) -> Graph:
    """g with the (center, vertex, distance) shortcut rows unioned in;
    g itself when there are none, since rebuilding would change nothing."""
    if not sum(map(len, extra)):
        return g
    return from_edges(g.n, np.concatenate([_half_edges(g), *extra]), labels=g.labels)


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
    extra: list[np.ndarray] = []
    for r_rho, _, (center, vertex, dist, parent, depth) in _ball_chunks(g, np.arange(g.n), rho, tie_inclusive):
        cut = _shortcut_targets(parent, depth, k, heuristic)
        radius.append(r_rho)
        extra.append(np.column_stack((center[cut], vertex[cut], dist[cut])))
    aug = _augment(g, extra)
    return aug, RadiusAssignment(r=np.concatenate(radius)), aug.m - g.m


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the (k, rho) ball-property check: one line per violation, naming the vertex's label."""

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
        label = int(g.labels[v])
        if over[v]:
            violations.append(f"vertex {label}: r={int(r[v])} exceeds k-radius {int(kradius[v])}")
        if inside[v] < need[v]:
            violations.append(f"vertex {label}: |B(v,{int(r[v])})|={int(inside[v])} below {int(need[v])}")
    return ValidationReport(rho=rho, k=k, checked=n, violations=tuple(violations))
