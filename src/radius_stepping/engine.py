"""The variable-radius stepping SSSP engines.

Each outer step picks the settlement threshold d_i as the minimum of
delta(v) + r(v) over touched unsettled vertices, then runs relaxation
substeps until no tentative distance at or below d_i moves.  Every substep
reads the distances as of its start and combines candidate updates by min
(the batch model of a parallel priority-write), so the outcome of a substep
does not depend on edge processing order.

Three implementations share that contract:

* radius_step_reference: the executable specification, scanning all
  unsettled vertices each step; O(n) per step, intended for small graphs.
* radius_step_fast: keeps touched unsettled vertices in two ordered maps,
  pulls d_i off one and splits the active set off the other.
* radius_step_unweighted: frontier arrays for unit-weight graphs, no
  ordered maps at all.

The reference and fast engines produce identical step sequences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import DistanceVector, dijkstra
from .frontier import FrontierIndex
from .graph import UNREACHED, Graph, GraphError
from .preprocess import RadiusAssignment

# Active-set size below which a substep relaxes in plain Python; larger
# batches go through the vectorized path.  Both paths compute the same
# min-combined result.
_VECTOR_THRESHOLD = 48


@dataclass(frozen=True)
class StepRecord:
    """One outer step: threshold, what settled, and how many passes it took."""

    index: int
    d: int
    active_count: int
    substeps: int
    settled_prefix: int
    active: tuple[int, ...]


@dataclass(frozen=True)
class SsspResult:
    dist: DistanceVector
    steps: list[StepRecord]
    total_relaxations: int

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def total_substeps(self) -> int:
        return sum(rec.substeps for rec in self.steps)


def step_records_csv(res: SsspResult) -> str:
    lines = ["i,d_i,active_count,substeps,settled_prefix\n"]
    for rec in res.steps:
        lines.append(f"{rec.index},{rec.d},{rec.active_count},{rec.substeps},{rec.settled_prefix}\n")
    return "".join(lines)


def _check_inputs(g: Graph, radii: RadiusAssignment, s: int) -> None:
    if not 0 <= s < g.n:
        raise GraphError(f"source {s} out of range for n={g.n}")
    if len(radii.r) != g.n:
        raise GraphError("radius assignment does not match graph size")
    if len(radii.r) and int(radii.r.min()) < 0:
        raise GraphError("radii must be nonnegative")


def relax_batch(
    g: Graph,
    delta: np.ndarray,
    active: list[int],
    settled: np.ndarray,
    reverse: bool = False,
) -> tuple[list[int], int]:
    """One substep: min-combine candidates from the active set's edges.

    Candidates are computed against delta as of entry, so processing order
    (controlled here by `reverse`, for the commutativity test) cannot change
    the result.  Returns the vertices whose delta improved and the number of
    edge relaxations scanned.  A settled vertex that would improve raises
    GraphError: its distance was already reported final.
    """
    if not active:
        return [], 0
    if len(active) >= _VECTOR_THRESHOLD:
        act = np.asarray(active, dtype=np.int64)
        starts = g.indptr[act]
        counts = g.indptr[act + 1] - starts
        total_deg = int(counts.sum())
        if total_deg == 0:
            return [], 0
        base = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        eidx = base + np.arange(total_deg, dtype=np.int64)
        src = np.repeat(act, counts)
        if reverse:
            eidx = eidx[::-1]
            src = src[::-1]
        dst = g.nbr[eidx]
        cand = delta[src] + g.wt[eidx]
        touched = np.unique(dst)
        old = delta[touched].copy()
        np.minimum.at(delta, dst, cand)
        moved = touched[delta[touched] < old]
        if moved.size and settled[moved].any():
            raise GraphError(f"settled distance moved at vertex {int(moved[settled[moved]][0])}")
        return moved.tolist(), total_deg
    total_deg = 0
    best: dict[int, int] = {}
    for u in (reversed(active) if reverse else active):
        du = int(delta[u])
        lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
        total_deg += hi - lo
        for i in (range(hi - 1, lo - 1, -1) if reverse else range(lo, hi)):
            v = int(g.nbr[i])
            nd = du + int(g.wt[i])
            if nd < delta[v] and nd < best.get(v, UNREACHED):
                best[v] = nd
    moved_list: list[int] = []
    for v, nd in best.items():
        if nd < delta[v]:
            if settled[v]:
                raise GraphError(f"settled distance moved at vertex {v}")
            delta[v] = nd
            moved_list.append(v)
    return moved_list, total_deg


def radius_step_reference(g: Graph, radii: RadiusAssignment, s: int) -> SsspResult:
    """Literal stepping loop scanning every unsettled vertex per step."""
    _check_inputs(g, radii, s)
    r = radii.r
    delta = np.full(g.n, UNREACHED, dtype=np.int64)
    delta[s] = 0
    settled = np.zeros(g.n, dtype=bool)
    settled[s] = True
    ns, ws = g.neighbors(s)
    for v, w in zip(ns.tolist(), ws.tolist()):
        delta[v] = min(int(delta[v]), w)
    steps: list[StepRecord] = []
    prefix = 1
    relaxations = 0
    i = 0
    while True:
        frontier = np.nonzero(~settled & (delta < UNREACHED))[0]
        if frontier.size == 0:
            break
        i += 1
        d_i = int((delta[frontier] + r[frontier]).min())
        substeps = 0
        while True:
            substeps += 1
            active = [int(v) for v in frontier.tolist() if delta[v] <= d_i]
            moved, scanned = relax_batch(g, delta, active, settled)
            relaxations += scanned
            frontier = np.nonzero(~settled & (delta < UNREACHED))[0]
            if not any(delta[v] <= d_i for v in moved):
                break
        active = sorted(int(v) for v in frontier.tolist() if delta[v] <= d_i)
        settled[active] = True
        prefix += len(active)
        steps.append(
            StepRecord(
                index=i,
                d=d_i,
                active_count=len(active),
                substeps=substeps,
                settled_prefix=prefix,
                active=tuple(active),
            )
        )
    delta[~settled] = UNREACHED
    delta.flags.writeable = False
    return SsspResult(
        dist=DistanceVector(source=s, dist=delta),
        steps=steps,
        total_relaxations=relaxations,
    )


def radius_step_fast(g: Graph, radii: RadiusAssignment, s: int, debug: bool = False) -> SsspResult:
    """Ordered-map engine: d_i = extract-min of R, active set = split of Q."""
    _check_inputs(g, radii, s)
    r = radii.r
    delta = np.full(g.n, UNREACHED, dtype=np.int64)
    delta[s] = 0
    settled = np.zeros(g.n, dtype=bool)
    settled[s] = True
    fx = FrontierIndex()
    ns, ws = g.neighbors(s)
    for v, w in zip(ns.tolist(), ws.tolist()):
        if w < delta[v]:
            delta[v] = w
            fx.upsert(v, w, int(r[v]))
    steps: list[StepRecord] = []
    prefix = 1
    relaxations = 0
    i = 0
    while len(fx):
        i += 1
        d_i = fx.r.min_item()[0]
        active = fx.q.split_leq(d_i)
        for v in active:
            fx.r.remove(v)
        in_active = set(active)
        substeps = 0
        while True:
            substeps += 1
            moved, scanned = relax_batch(g, delta, active, settled)
            relaxations += scanned
            hit_active = False
            for v in moved:
                nd = int(delta[v])
                if nd <= d_i:
                    # Pulled at or below the threshold: leave the frontier
                    # maps and join this step's active set.
                    hit_active = True
                    if v not in in_active:
                        fx.remove(v)
                        in_active.add(v)
                        active.append(v)
                else:
                    fx.upsert(v, nd, int(r[v]))
            if debug:
                fx.assert_synchronized()
            if not hit_active:
                break
        active.sort()
        settled[active] = True
        prefix += len(active)
        steps.append(
            StepRecord(
                index=i,
                d=d_i,
                active_count=len(active),
                substeps=substeps,
                settled_prefix=prefix,
                active=tuple(active),
            )
        )
    delta[~settled] = UNREACHED
    delta.flags.writeable = False
    return SsspResult(
        dist=DistanceVector(source=s, dist=delta),
        steps=steps,
        total_relaxations=relaxations,
    )


def radius_step_unweighted(g: Graph, radii: RadiusAssignment, s: int) -> SsspResult:
    """Frontier-array variant for unit-weight graphs.

    All frontier vertices share one tentative distance, so the threshold is
    a min-reduction of level + r(v) over the frontier and each substep is a
    plain frontier expansion.  Distances equal BFS hop counts.
    """
    if not g.is_unit_weight:
        raise GraphError("unweighted engine requires all edge weights == 1")
    _check_inputs(g, radii, s)
    r = radii.r
    delta = np.full(g.n, UNREACHED, dtype=np.int64)
    delta[s] = 0
    seen = np.zeros(g.n, dtype=bool)
    seen[s] = True
    frontier = []
    ns, _ = g.neighbors(s)
    for v in ns.tolist():
        if not seen[v]:
            seen[v] = True
            delta[v] = 1
            frontier.append(v)
    level = 1
    steps: list[StepRecord] = []
    prefix = 1
    relaxations = 0
    i = 0
    while frontier:
        i += 1
        d_i = min(level + int(r[v]) for v in frontier)
        substeps = 0
        active: list[int] = []
        while frontier and level <= d_i:
            substeps += 1
            active.extend(frontier)
            nxt: list[int] = []
            for u in frontier:
                us, _ = g.neighbors(u)
                relaxations += len(us)
                for v in us.tolist():
                    if not seen[v]:
                        seen[v] = True
                        delta[v] = level + 1
                        nxt.append(v)
            frontier = nxt
            level += 1
        active.sort()
        prefix += len(active)
        steps.append(
            StepRecord(
                index=i,
                d=d_i,
                active_count=len(active),
                substeps=substeps,
                settled_prefix=prefix,
                active=tuple(active),
            )
        )
    delta.flags.writeable = False
    return SsspResult(
        dist=DistanceVector(source=s, dist=delta),
        steps=steps,
        total_relaxations=relaxations,
    )


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


@dataclass(frozen=True)
class BoundsReport:
    """Step/substep bound check against a run's records."""

    checkable: bool
    reason: str
    step_limit: int | None
    window: int | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.checkable and not self.violations


def check_bounds(
    res: SsspResult,
    g: Graph,
    rho: int,
    k: int | None,
    radii: RadiusAssignment | None = None,
    assume_premise: bool = False,
    cap: int = 400,
) -> BoundsReport:
    """Verify the run against the rho/L step budget and the k+2 substep cap.

    The bounds only hold when every vertex has at least min(rho, component)
    vertices inside radius r(v); unless assume_premise is set, that premise
    is verified with per-vertex Dijkstra (small graphs only) and a run on a
    non-qualifying assignment comes back "not checkable" rather than failed.
    Pass k=None to skip the substep cap (no k applies, e.g. unweighted runs).
    """
    if rho < 1:
        raise GraphError(f"rho must be >= 1, got {rho}")
    if not assume_premise:
        if radii is None:
            return BoundsReport(False, "premise unknown: no radii supplied", None, None, ())
        if rho > 1 and int(radii.r.max(initial=0)) == 0:
            return BoundsReport(False, "premise fails: all radii zero with rho > 1", None, None, ())
        if g.n > cap:
            return BoundsReport(False, f"premise not verifiable above cap {cap}", None, None, ())
        for v in range(g.n):
            dv = dijkstra(g, v)
            need = min(rho, dv.reached_count())
            if int((dv.dist <= int(radii.r[v])).sum()) < need:
                return BoundsReport(
                    False, f"premise fails: |B({v}, r)| below {need}", None, None, ()
                )
    n_reach = res.dist.reached_count()
    t = 1 + _ceil_log2(rho * g.max_weight)
    limit = -(-n_reach // rho) * t
    violations: list[str] = []
    total = res.step_count
    if total > limit:
        violations.append(f"{total} steps exceed limit {limit}")
    prefix = [1] + [rec.settled_prefix for rec in res.steps]
    for start in range(0, total - t):
        gained = prefix[start + t] - prefix[start]
        if gained < rho:
            violations.append(
                f"window of {t} steps after step {start} settled {gained} < {rho}"
            )
    if k is not None:
        for rec in res.steps:
            if rec.substeps > k + 2:
                violations.append(f"step {rec.index} took {rec.substeps} substeps > {k + 2}")
    return BoundsReport(True, "", limit, t, tuple(violations))
