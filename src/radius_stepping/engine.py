"""The variable-radius stepping SSSP engines.

Each outer step picks the settlement threshold d_i as the minimum of
delta(v) + r(v) over touched unsettled vertices, then runs relaxation
substeps until no tentative distance at or below d_i moves.  Every substep
reads the distances as of its start and combines candidate updates by min
(the batch model of a parallel priority-write), so the outcome of a substep
does not depend on edge processing order.  A vertex is relaxed again only
when its distance has dropped since it was last relaxed: the candidates it
would offer otherwise are already applied.

One loop, _stepping, implements that contract.  It keeps touched
unsettled vertices in columns by position (vertex, delta, r, w_min),
writes only the positions of the vertices a relaxation moves, marks
settled positions dead and compacts once dead ones outnumber live ones, so
a round's upkeep follows the vertices it moves and settles.  It settles
runs of steps that cannot interact in a single relaxation.  A step's
threshold is the least delta + r over the frontier, rounded up to the end
of its bucket of a given width: the radius engines run at width 1, and
baselines.delta_stepping at zero radii and width Delta.  Every substep is
one relax_batch call, a scatter-min; radius_step_unweighted is
radius_step_fast restricted to unit-weight graphs.  The tests hold this
loop step by step to the literal loop in tests/oracles.py, which scans
every unsettled vertex each step, at width 1 and at bucket widths.

The loop appends one entry per round to a list, and _step_log builds the
StepLog from it once the run ends.  A StepLog keeps the records as int64
columns, and a StepRecord is built only when an element of the log is read.
A step's active set is not stored: it follows from the distances and the
thresholds (see StepLog).  All engines produce identical step logs and
relaxation counts.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .graph import UNREACHED, DistanceVector, Graph, GraphError, _check_count, _check_vertex, _edge_slots, _render
from .preprocess import RadiusAssignment, _ball_premise, _check_size

_DEAD = np.iinfo(np.int64).max  # a settled frontier position


@dataclass(frozen=True)
class StepRecord:
    """One outer step: threshold, how many settled, how many passes and edge scans it took."""

    index: int
    d: int
    active_count: int
    substeps: int
    settled_prefix: int
    relaxations: int


class StepLog(Sequence[StepRecord]):
    """A run's step records, one read-only int64 array per field.

    Step i (0-based, record index i + 1) has threshold d[i], settled
    active_count[i] vertices in substeps[i] passes that scanned
    relaxations[i] edges, and settled_prefix[i] counts the source and every
    vertex settled up to it.  Reading an element builds its StepRecord.

    The log does not store which vertices a step settled: with d_0 = 0,
    step i settles exactly {v : d_{i-1} < dist(v) <= d_i, dist(v) <
    UNREACHED}.  Each step ends with every touched vertex at delta <= d_i
    holding its true distance and settles them all, thresholds strictly
    increase, s settles before step 1 and weights are at least 1.
    """

    __slots__ = ("d", "active_count", "substeps", "relaxations", "offsets")

    def __init__(self, d: ArrayLike, active_count: ArrayLike, substeps: ArrayLike, relaxations: ArrayLike) -> None:
        cols = [np.array(c, dtype=np.int64) for c in (d, active_count, substeps, relaxations)]
        if len({len(c) for c in cols}) != 1:
            raise GraphError("step log columns disagree in length")
        offsets = np.zeros(len(cols[1]) + 1, dtype=np.int64)
        np.cumsum(cols[1], out=offsets[1:])
        for c in cols + [offsets]:
            c.flags.writeable = False
        self.d, self.active_count, self.substeps, self.relaxations = cols
        self.offsets = offsets

    @property
    def settled_prefix(self) -> np.ndarray:
        return self.offsets[1:] + 1

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, i: int) -> StepRecord:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("step index out of range")
        return StepRecord(
            i + 1,
            int(self.d[i]),
            int(self.active_count[i]),
            int(self.substeps[i]),
            int(self.offsets[i + 1]) + 1,
            int(self.relaxations[i]),
        )


@dataclass(frozen=True)
class SsspResult:
    dist: DistanceVector
    steps: StepLog

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def total_relaxations(self) -> int:
        return int(self.steps.relaxations.sum())

    def total_substeps(self) -> int:
        return int(self.steps.substeps.sum())


def step_records_csv(res: SsspResult) -> str:
    log = res.steps
    index = np.arange(1, len(log) + 1, dtype=np.int64)
    rows = np.column_stack((index, log.d, log.active_count, log.substeps, log.settled_prefix))
    body = _render(rows, np.zeros(len(log), dtype=bool), "").replace(" ", ",")
    return "i,d_i,active_count,substeps,settled_prefix\n" + body


def relax_batch(
    g: Graph, delta: np.ndarray, active: np.ndarray, settled: np.ndarray
) -> tuple[np.ndarray, int]:
    """One substep: scatter-min candidates from the active vertices' edges.

    `active` is an index array of distinct vertices.  Candidates are
    computed against delta as of entry and only those below their target's
    delta are kept; np.minimum.at writes the least of them into each target,
    so the order of `active` cannot change the result.  Every kept
    candidate's target moves.  Returns those targets, distinct and in
    ascending order, and the number of edge relaxations scanned.  A kept
    candidate aimed at a settled vertex raises GraphError, naming the
    smallest such vertex, before delta is written: that distance was
    already reported final.
    """
    act = np.asarray(active, dtype=np.int64)
    eidx, counts = _edge_slots(g, act)
    dst = g.nbr[eidx]
    cand = np.repeat(delta[act], counts) + g.wt[eidx]
    better = (cand < delta[dst]).nonzero()[0]
    dst = dst[better]
    if dst.size == 0:
        return dst, eidx.size
    hit = settled[dst]
    if np.count_nonzero(hit):
        raise GraphError(f"settled distance moved at vertex {int(dst[hit].min())}")
    np.minimum.at(delta, dst, cand[better])
    dst.sort()
    first = np.empty(dst.size, dtype=bool)
    first[0] = True
    np.not_equal(dst[1:], dst[:-1], out=first[1:])
    return dst[first], eidx.size


def _start(g: Graph, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta, settled mask and touched neighbours after settling s."""
    delta = np.full(g.n, UNREACHED, dtype=np.int64)
    delta[s] = 0
    settled = np.zeros(g.n, dtype=bool)
    settled[s] = True
    ns, ws = g.neighbors(s)
    delta[ns] = ws
    return delta, settled, ns.copy()


def _step_log(g: Graph, rounds: list[tuple]) -> StepLog:
    """The StepLog of a run on g from its rounds, in order.

    A round is (thresholds, active counts, settled vertices, work), one
    threshold and count per step; its settled vertices come step after step,
    each step's in any order.  An ordinary step is one-element tuples with
    work (substeps, relaxations).  A batch has work None: each of its steps
    took one substep and relaxed each vertex it settles once, so its
    relaxations are the sum of their degrees.  The settled vertices serve
    only that sum; StepLog says how a step's set follows from the result.
    """
    if not rounds:
        return StepLog((), (), (), ())
    d, counts, settled, work = zip(*rounds)
    last = np.cumsum([len(c) for c in counts]) - 1  # each round's last step
    d, counts, settled = np.concatenate(d), np.concatenate(counts), np.concatenate(settled)
    relaxations = np.add.reduceat(g.indptr[settled + 1] - g.indptr[settled], np.cumsum(counts) - counts)
    substeps = np.ones(counts.size, dtype=np.int64)
    index = [i for i, w in zip(last.tolist(), work) if w is not None]
    if index:
        substeps[index], relaxations[index] = zip(*(w for w in work if w is not None))
    return StepLog(d, counts, substeps, relaxations)


def _finish(g: Graph, delta: np.ndarray, settled: np.ndarray, s: int, rounds: list[tuple]) -> SsspResult:
    """delta frozen into the result; a reached vertex left unsettled raises GraphError."""
    if (delta[~settled] < UNREACHED).any():
        raise GraphError("a reached vertex never settled")
    delta.flags.writeable = False
    return SsspResult(dist=DistanceVector(source=s, dist=delta), steps=_step_log(g, rounds))


def _compact(pos: np.ndarray, cols: tuple[np.ndarray, ...], m: int) -> int:
    """Move the live positions among F's first m, in order, to the front of
    its columns (ids and delta first) and repoint pos; returns their count."""
    ids, dcol = cols[:2]
    keep = (dcol[:m] != _DEAD).nonzero()[0]
    for col in cols:
        col[: keep.size] = col[keep]
    pos[ids[: keep.size]] = np.arange(keep.size)
    return keep.size


def _stepping(g: Graph, s: int, r: np.ndarray, width: int = 1) -> SsspResult:
    """Column-frontier stepping loop that settles runs of non-interacting steps at once.

    Each frontier vertex v offers key(v) = end(delta(v) + r(v)), where
    end(x) = x // width * width + width - 1 ends x's bucket of `width` (the
    identity at width 1).  The batching below needs only key(v) >= delta(v),
    which r >= 0 gives.  The caller checks s and keeps key within int64: a
    live delta is below 2**62, and r is at most 2**62 at width 1 and 0 at a
    width of at most UNREACHED.  Every substep is one relax_batch call,
    looked up at call time.  Each round, one ordinary step or one batch of
    steps, appends one entry to the list that _step_log turns into the run's
    StepLog.

    F holds the touched unsettled vertices.  Each round computes the next
    threshold d = min key over F and the relaxation floor
    C = min(delta(v) + w_min(v)) over F.  All the proof below needs is that
    w_min(v) bounds the weight of every edge from v to an unsettled vertex.
    w_min(v) starts as the first weight of v's CSR row; rows are sorted by
    weight, so once the first edge's far end near(v) has settled, the second
    weight bounds the rest, and UNREACHED does when there is no second edge.
    Settled vertices stay settled, so the bound holds from then on.  The
    raise is applied to F after s settles and to the vertices each batch
    below moves; raising it in ordinary substeps saves no round.

    No relaxation from now on lowers a distance below C.  A candidate sent
    from u to a settled x never passes cand < delta[x], because
    delta(u) + w >= dist(u) + w >= dist(x) = delta(x).  The first candidate
    sent to an unsettled vertex comes from some u in F at its current delta,
    so it is at least delta(u) + w_min(u) >= C; every distance it lowers
    therefore ends at or above C, and by induction so does every later
    candidate.  Hence each v in F with delta(v) < C is final, and each
    vertex touched or lowered from now on has delta >= C.

    If d >= C the round is one ordinary step: its first substep relaxes
    F[delta <= d], and each later substep relaxes only the vertices whose
    delta dropped to <= d in the substep before; the others would only
    offer candidates that are already applied.

    If d < C, every step with threshold below C is known in advance.  Its
    active set {v in F : d_prev < delta(v) <= d} lies below C, so its first
    substep moves nothing to <= d and it ends after one substep.  Vertices
    touched or lowered by it land at or above C, so they add nothing below
    C to the next threshold min key (key >= delta); below C that threshold
    is min{key(v) : v in F, delta(v) > d} with delta as it is now, a
    suffix minimum over F[delta < C] sorted by delta.  Since end is
    nondecreasing, that suffix minimum is end of the suffix minimum of
    delta + r.  Steps are read off it while it stays below C; their
    active sets are final, so relaxing their union in one call yields the
    distances and relaxation count of relaxing them one step at a time.

    F is kept as columns indexed by position: ids (the vertex), dcol
    (delta), rcol (r) and wcol (w_min), and pos maps a vertex to its
    position.  A vertex takes the next free position when a relaxation
    first touches it, with rcol and wcol read from r and its CSR row then;
    near(v) and the second weight are read from the row when a batch moves
    v.  A relaxation writes delta only at the positions of the vertices it
    moves.  A settled position is dead: dcol holds _DEAD (INT64_MAX) and
    rcol and wcol hold 0.  A live delta is below 2**62 and a live r or
    w_min at most 2**62, so a live dcol + rcol or dcol + wcol is at most
    INT64_MAX, which a dead position's sums equal: both minima are those of
    the live positions.  A dead dcol fails every dcol < C test, C being at
    most INT64_MAX, and every dcol <= d test once d is capped at UNREACHED,
    which no live delta reaches.  So a round reads F through one sum over
    two rows, one min per row and compares of dcol with C or d, with no
    gather; its other work is over the vertices it moves and settles.  Once dead positions
    outnumber live ones, _compact moves the live ones to the front.  It
    copies at most twice the positions that died since the last compaction,
    so it costs O(1) amortised per settled vertex.  Live positions keep the
    order in which vertices entered F, compaction included, so every round
    sees F in the same order as an index array that appends new vertices
    and filters settled ones out: argsort, the suffix minimum and the step
    bounds get the same input, and the step log is the same.
    """
    delta, settled, F = _start(g, s)
    rounds = []
    # At most n - 1 vertices ever enter F.  Each round sums dcol with both
    # rows of off at once; rcol and wcol are its rows.
    pos = np.full(g.n, -1, dtype=np.int64)
    ids, dcol = np.empty(g.n - 1, dtype=np.int64), np.empty(g.n - 1, dtype=np.int64)
    off = np.empty((2, g.n - 1), dtype=np.int64)
    rcol, wcol = off
    m = live = 0  # positions in use, and how many of them are live

    def end(x):
        """The last value of x's bucket of `width`: x itself at width 1."""
        return x if width == 1 else x // width * width + (width - 1)

    def write(vs: np.ndarray) -> np.ndarray:
        """Copy delta of vs into F's columns, entering the vertices not yet
        in F at the end; returns the positions of vs."""
        nonlocal m, live
        p = pos[vs]
        fresh = (p < 0).nonzero()[0]
        if fresh.size:
            new = vs[fresh]
            stop = m + fresh.size
            p[fresh] = pos[new] = np.arange(m, stop)
            ids[m:stop] = new
            rcol[m:stop] = r[new]
            wcol[m:stop] = g.wt[g.indptr[new]]
            live += stop - m
            m = stop
        dcol[p] = delta[vs]
        return p

    def raise_floor(vs: np.ndarray, p: np.ndarray) -> None:
        """w_min steps past the edge to near(v) once near(v) has settled."""
        up = settled[g.nbr[g.indptr[vs]]].nonzero()[0]
        if up.size:
            vs = vs[up]
            second = g.indptr[vs] + 1
            w = g.wt.take(second, mode="clip")
            w[second == g.indptr[vs + 1]] = UNREACHED
            wcol[p[up]] = w

    def drop(p: np.ndarray) -> None:
        """Kill the positions p of settled vertices."""
        nonlocal m, live
        dcol[p] = _DEAD
        live -= p.size
        if 2 * live < m:
            m = _compact(pos, (ids, dcol, rcol, wcol), m)
        else:
            rcol[p] = wcol[p] = 0

    raise_floor(F, write(F))
    while live:
        base, floor = (dcol[:m] + off[:, :m]).min(1).tolist()
        d = end(base)
        if d < floor:
            low = (dcol[:m] < floor).nonzero()[0]
            dists = dcol[low]
            order = dists.argsort()
            low, dists = low[order], dists[order]
            suffix = end(np.minimum.accumulate((dists + rcol[low])[::-1])[::-1])
            # A step with threshold suffix[p] starting at position p settles
            # positions p .. nxt[p] - 1; steps start at 0 and run while the
            # threshold stays below the floor, that is before position cut.
            nxt = dists.searchsorted(suffix, "right").tolist()
            cut = int(suffix.searchsorted(floor))
            b, bounds = 0, [0]
            while b < cut:
                b = nxt[b]
                bounds.append(b)
            done = low[:b]
            union = ids[done]
            settled[union] = True
            drop(done)
            moved, _ = relax_batch(g, delta, union, settled)
            raise_floor(moved, write(moved))
            cuts = np.array(bounds, dtype=np.int64)
            first = cuts[:-1]
            rounds.append((suffix[first], cuts[1:] - first, union, None))
            continue
        below = min(d, UNREACHED)  # d may reach _DEAD
        active = ids[(dcol[:m] <= below).nonzero()[0]]
        substeps = relaxations = 0
        while active.size:
            substeps += 1
            moved, scanned = relax_batch(g, delta, active, settled)
            write(moved)
            relaxations += scanned
            active = moved[delta[moved] <= d]
        done = (dcol[:m] <= below).nonzero()[0]
        settled_now = ids[done]
        settled[settled_now] = True
        drop(done)
        rounds.append(((d,), (settled_now.size,), settled_now, (substeps, relaxations)))
    return _finish(g, delta, settled, s, rounds)


def radius_step_fast(g: Graph, radii: RadiusAssignment, s: int) -> SsspResult:
    """The stepping loop with min-combined relaxation, for any positive weights."""
    _check_vertex(g, s)
    _check_size(g, radii)
    return _stepping(g, s, radii.r)


def radius_step_unweighted(g: Graph, radii: RadiusAssignment, s: int) -> SsspResult:
    """radius_step_fast restricted to unit-weight graphs, where distances are BFS hop counts."""
    if not g.is_unit_weight:
        fix = "shortcut edges are weighted: run it on the graph preprocess read, with the same radii"
        raise GraphError(f"unweighted engine requires all edge weights == 1 ({fix})")
    return radius_step_fast(g, radii, s)


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


@dataclass(frozen=True)
class BoundsReport:
    """Step/substep bound check against a run's records."""

    checkable: bool
    reason: str
    step_limit: int | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.checkable and not self.violations


def check_bounds(
    res: SsspResult,
    g: Graph,
    rho: int,
    k: int | None,
    radii: RadiusAssignment,
    assume_premise: bool = False,
) -> BoundsReport:
    """Verify the run against the rho/L step budget and the k+2 substep cap.

    The bounds only hold when every vertex has at least min(rho, component)
    vertices inside radius r(v); unless assume_premise is set, that premise
    is verified by preprocess._ball_premise (validate_k_rho's check too)
    over all vertices, and a run on a non-qualifying assignment comes back
    "not checkable" (naming the first short vertex by label) rather than
    failed.  Pass k=None to skip the substep cap and the work bound (no k
    applies, e.g. unweighted runs).

    With k given, total_relaxations must also stay within (k+2)*2m.  An
    engine relaxes a vertex only in substeps of the step that settles it,
    at most once per substep, so under the substep cap each vertex scans
    its deg(v) edges at most k+2 times, and the degrees sum to 2m.
    """
    _check_count("rho", rho)
    if k is not None:
        _check_count("k", k)
    _check_size(g, radii)
    if len(res.dist.dist) != g.n:
        raise GraphError(f"result covers {len(res.dist.dist)} vertices, graph has {g.n}")
    if not assume_premise:
        inside, need = _ball_premise(g, radii.r, np.arange(g.n), rho)
        short = np.flatnonzero(inside < need)
        if len(short):
            return BoundsReport(False, f"premise fails: |B({g.labels[short[0]]}, r)| below {need[short[0]]}", None, ())
    n_reach = res.dist.reached_count()
    t = 1 + _ceil_log2(int(rho) * g.max_weight)
    limit = -(-n_reach // rho) * t
    violations: list[str] = []
    log = res.steps
    total = res.step_count
    if total > limit:
        violations.append(f"{total} steps exceed limit {limit}")
    # prefix[j] counts the vertices settled after j steps; each window of t
    # steps that ends before the last step must settle at least rho.
    prefix = log.offsets + 1
    windows = max(total - t, 0)
    gained = prefix[t : t + windows] - prefix[:windows]
    for start in np.flatnonzero(gained < rho).tolist():
        violations.append(f"window of {t} steps after step {start} settled {int(gained[start])} < {rho}")
    if k is not None:
        for i in np.flatnonzero(log.substeps > k + 2).tolist():
            violations.append(f"step {i + 1} took {int(log.substeps[i])} substeps > {k + 2}")
        work = (k + 2) * 2 * g.m
        if res.total_relaxations > work:
            violations.append(f"{res.total_relaxations} relaxations exceed (k+2)*2m = {work}")
    return BoundsReport(True, "", limit, tuple(violations))
