"""Set-up, query, correctness and yardstick measurements for one workload.

The end-to-end run (trace off) times set-up and queries through plain
calls into the package.  The traced run repeats them with spans around
each layer the package exposes, times the dijkstra and delta-stepping
yardsticks, and splits the time by layer.  Neither run times input
generation or the oracle, and both check every query outside its timed
region.
"""
from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import radius_stepping.baselines as baselines
import radius_stepping.engine as engine
import radius_stepping.graph as graph
import radius_stepping.preprocess as preprocess
from radius_stepping.engine import SsspResult
from radius_stepping.graph import Graph
from radius_stepping.preprocess import RadiusAssignment

from speed import SpeedScale
from tracing import Span, Target, Tracer, accounting_errors, patched, self_times
from workloads import SOURCES, Workload, edge_list_text, sources

MIN_QUERIES = 3 * SOURCES  # every source runs at least three times
SETUP_REPEATS = 3
TRACED_SOURCES = 20  # the traced run's queries and yardsticks use the first ones
PREMISE_NOTE = (
    "check_bounds runs with assume_premise=True: the ball premise is assumed, "
    "not verified, above 400 vertices"
)

# Wrapped while the traced set-up runs.
SETUP_TARGETS: list[Target] = [
    (graph, "parse_edge_list", "graph.parse_edge_list", None),
    (graph, "write_edge_list", "graph.write_edge_list", None),
    (preprocess, "build_k_rho", "preprocess.build_k_rho", None),
    (preprocess, "compute_ball", "preprocess.compute_ball", lambda ball: len(ball.members)),
    (preprocess, "min_hop_ball_tree", "preprocess.min_hop_ball_tree", None),
    (preprocess, "shortcut_dp", "preprocess.shortcut_dp", None),
    (preprocess, "from_edges", "graph.from_edges", None),
    (preprocess, "write_radii", "preprocess.write_radii", None),
]
# Set-up layers whose call counts are reported; the others run once per set-up.
COUNTED_CALLS = (
    "preprocess.compute_ball",
    "preprocess.min_hop_ball_tree",
    "preprocess.shortcut_dp",
    "graph.from_edges",
)


def query_targets(wl: Workload) -> list[Target]:
    return [
        (engine, wl.engine, "engine.query", None),
        (engine, "relax_batch", "engine.relax_batch", None),
    ]


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile (0-100), interpolated between order statistics,
    with the number of samples behind it."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Report:
    """Metrics, run record and correctness outcome of one run."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    record: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def add_p(self, name: str, samples: list[float], unit: str, q: float = 50) -> None:
        value, count = _p(samples, q)
        self.add(name, value, unit, count)


def _p(samples: list[float], q: float) -> tuple[float, int]:
    return percentile(samples, q) if samples else (0.0, 0)


@dataclass(frozen=True)
class SetUp:
    g: Graph
    aug: Graph
    radii: RadiusAssignment
    added: int
    aug_text: str
    radii_text: str


def set_up(wl: Workload, text: str) -> SetUp:
    """What `radius-stepping preprocess` does, without file I/O."""
    g = graph.parse_edge_list(text)
    aug, radii, added = preprocess.build_k_rho(g, wl.k, wl.rho, heuristic="dp")
    aug_text = graph.write_edge_list(aug)
    radii_text = preprocess.write_radii(radii, labels=g.labels)
    return SetUp(g, aug, radii, added, aug_text, radii_text)


def machine_record() -> dict[str, object]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Run:
    """One workload at one seed: its input, set-up output, sources and oracle.

    Every time it reports is scaled to the reference speed (speed.py); the
    raw wall times go into the run record.
    """

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.report = Report()
        self.report.record.update(machine_record(), seed=seed, k=wl.k, rho=wl.rho, engine=wl.engine)
        self.speed = SpeedScale()
        t0 = time.perf_counter()
        self.text = edge_list_text(wl, seed)
        self.report.record["generate_s"] = time.perf_counter() - t0
        self.su: SetUp | None = None
        self.sources: list[int] = []
        self.oracle: dict[int, baselines.DistanceVector] = {}
        self.marks: dict[str, int] = {}  # request -> speed mark, traced runs
        self.digest = ""

    def set_up_repeats(self, repeats: int, tracer: Tracer | None = None) -> list[float]:
        """Scaled seconds of each set-up; every repeat must write the same output."""
        raw, marks = [], []
        run_set_up = set_up if tracer is None else tracer.wrap(set_up, "setup")
        for r in range(repeats):
            gc.collect()
            marks.append(self.speed.mark(fresh=True))
            self.marks[f"setup{r}"] = marks[-1]
            if tracer is not None:
                tracer.request = f"setup{r}"
            t0 = time.perf_counter()
            su = run_set_up(self.wl, self.text)
            raw.append(time.perf_counter() - t0)
            if self.su is None:
                self.su = su
            elif (su.aug_text, su.radii_text) != (self.su.aug_text, self.su.radii_text):
                self.report.problems.append(f"set-up repeat {r} wrote different output")
        self.speed.mark(fresh=True)
        g = self.su.g
        self.report.record.update(n=g.n, m=g.m, aug_m=self.su.aug.m, setup_s_raw=statistics.median(raw))
        return [t * self.speed.factor(mk) for t, mk in zip(raw, marks)]

    @property
    def engine_graph(self) -> Graph:
        # Unit-weight queries run on the input graph, as bench.py does.
        return self.su.g if self.wl.unit else self.su.aug

    def prepare_queries(self, count: int | None = None) -> None:
        self.sources = sources(self.su.g.n, self.seed)[:count]
        t0 = time.perf_counter()
        self.oracle = {s: baselines.dijkstra(self.su.g, s) for s in self.sources}
        self.report.record.update(sources=len(self.sources), oracle_s=time.perf_counter() - t0)

    def check(self, res: SsspResult, s: int) -> str | None:
        """Distances against dijkstra on the input graph, then the paper's bounds."""
        if not res.dist.same_as(self.oracle[s]):
            return f"source {s}: distances differ from dijkstra on the input graph"
        wl = self.wl
        bounds = engine.check_bounds(
            res,
            self.engine_graph,
            wl.rho,
            k=None if wl.unit else wl.k,
            radii=self.su.radii,
            assume_premise=True,
        )
        if not bounds.ok:
            return f"source {s}: bound check {bounds.reason} {bounds.violations[:3]}"
        return None

    def query(self, s: int) -> tuple[float, int, SsspResult | None]:
        """One timed engine call, checked afterwards: (raw ms, speed mark,
        result), with no result on failure."""
        self.report.attempted += 1
        mark = self.speed.mark()
        fn = getattr(engine, self.wl.engine)
        t0 = time.perf_counter()
        try:
            res = fn(self.engine_graph, self.su.radii, s)
        except Exception:  # a failing query is counted and the run goes on
            traceback.print_exc()
            problem = f"source {s}: engine raised"
        else:
            ms = (time.perf_counter() - t0) * 1000
            problem = self.check(res, s)
            if problem is None:
                return ms, mark, res
        self.report.failed += 1
        self.report.problems.append(problem)
        return 0.0, mark, None

    def query_loop(self, seconds: float, min_queries: int) -> dict[int, list[float]]:
        """Scaled milliseconds per source, of queries cycling through the
        sources until `seconds` have passed and at least `min_queries` ran.
        The first cycle's step records go into the output digest."""
        digest = hashlib.sha256()
        for part in (self.su.aug_text, self.su.radii_text):
            digest.update(part.encode() + b"\0")
        timed: list[tuple[int, float, int]] = []  # (source, raw ms, speed mark)
        i = 0
        t_end = time.perf_counter() + seconds
        while i < min_queries or time.perf_counter() < t_end:
            s = self.sources[i % len(self.sources)]
            ms, mark, res = self.query(s)
            if i < len(self.sources):
                digest.update((engine.step_records_csv(res) if res else "failed").encode() + b"\0")
            if res is not None:
                timed.append((s, ms, mark))
            i += 1
        self.speed.mark(fresh=True)
        by_source: dict[int, list[float]] = {s: [] for s in self.sources}
        for s, ms, mark in timed:
            by_source[s].append(ms * self.speed.factor(mark))
        raw = [ms for _, ms, _ in timed]
        self.digest = digest.hexdigest()
        self.report.record.update(
            query_ms_p50_raw=_p(raw, 50)[0],
            query_ms_p90_raw=_p(raw, 90)[0],
        )
        return by_source

    def finish_record(self) -> None:
        loops = self.speed.loop_ms
        self.report.record.update(speed_loop_ms_p50=statistics.median(loops), speed_loops=len(loops))


def source_medians(by_source: dict[int, list[float]]) -> list[float]:
    """Each source's median query time.  Percentiles run over these, so a
    burst of machine noise during one of a source's repeats does not reach
    the tail, while a source that is slow on every repeat does."""
    return [statistics.median(ms) for ms in by_source.values() if ms]


def end_to_end(wl: Workload, seed: int, seconds: float) -> Report:
    run = Run(wl, seed)
    rep = run.report
    setup_times = run.set_up_repeats(SETUP_REPEATS)
    run.prepare_queries()
    run.query(run.sources[0])  # warm-up, not timed
    by_source = run.query_loop(seconds, MIN_QUERIES)
    typical = source_medians(by_source)
    rep.record["queries"] = sum(len(times) for times in by_source.values())
    rep.record["digest"] = run.digest
    rep.add("setup_s", statistics.median(setup_times), "s", len(setup_times))
    rep.add_p("query_ms_p50", typical, "ms")
    rep.add_p("query_ms_p90", typical, "ms", q=90)
    # One query per source at its median time: slow sources count in full.
    rep.add("queries_per_s", len(typical) / (sum(typical) / 1000) if typical else 0.0, "1/s", len(typical))
    rep.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    rep.add("ok_frac", 1 - rep.failed / rep.attempted, "frac", rep.attempted)
    rep.record["failed_frac"] = rep.failed / rep.attempted
    run.finish_record()
    return rep


def _by_request(
    spans: list[Span], selfs: list[int], scales: dict[str, float], prefix: str
) -> list[dict[str, list[float]]]:
    """Per request whose id starts with prefix: span name -> [summed
    duration, summed self time, calls], times in scaled seconds."""
    out: dict[str, dict[str, list[float]]] = {}
    for sp, own in zip(spans, selfs):
        if sp.request is None or not sp.request.startswith(prefix):
            continue
        scale = scales[sp.request] * 1e-9
        acc = out.setdefault(sp.request, {}).setdefault(sp.name, [0.0, 0.0, 0])
        acc[0] += sp.duration * scale
        acc[1] += own * scale
        acc[2] += 1
    return list(out.values())


def traced(wl: Workload, seed: int, seconds: float, trace_path: str | None = None) -> Report:
    run = Run(wl, seed)
    rep = run.report
    tracer = Tracer()
    with patched(tracer, SETUP_TARGETS):
        run.set_up_repeats(SETUP_REPEATS, tracer)
    run.prepare_queries(TRACED_SOURCES)
    run.query(run.sources[0])  # warm-up, not timed
    untraced_ms = source_medians(run.query_loop(seconds / 2, len(run.sources)))
    results: list[SsspResult] = []
    with patched(tracer, query_targets(wl)):
        for i, s in enumerate(run.sources):
            tracer.request = f"q{i}"
            _, run.marks[tracer.request], res = run.query(s)
            if res is not None:
                results.append(res)
    tracer.request = None
    run.speed.mark(fresh=True)

    g_run = run.engine_graph
    big_l = run.su.g.max_weight  # delta = L, the heaviest input edge weight
    yardsticks = []  # (dijkstra ms, delta-stepping ms, speed mark)
    for s in run.sources:
        mark = run.speed.mark()
        t0 = time.perf_counter()
        baselines.dijkstra(g_run, s)
        t1 = time.perf_counter()
        ds = baselines.delta_stepping(g_run, s, big_l)
        t2 = time.perf_counter()
        yardsticks.append(((t1 - t0) * 1000, (t2 - t1) * 1000, mark))
        if not ds.dist.same_as(run.oracle[s]):
            rep.problems.append(f"source {s}: delta_stepping differs from dijkstra")
    run.speed.mark(fresh=True)
    dij_ms = [d * run.speed.factor(mark) for d, _, mark in yardsticks]
    ds_ms = [d * run.speed.factor(mark) for _, d, mark in yardsticks]

    spans = tracer.spans
    selfs = self_times(spans)
    scales = {request: run.speed.factor(mark) for request, mark in run.marks.items()}
    rep.problems.extend(accounting_errors(spans, selfs))

    # Set-up layers: per repeat, then the median over repeats.
    setups = _by_request(spans, selfs, scales, "setup")

    def setup_median(name: str, col: int) -> float:
        return statistics.median(r.get(name, [0.0, 0.0, 0])[col] for r in setups)

    setup_s = setup_median("setup", 0)
    rep.add("setup.s", setup_s, "s", len(setups))
    for _, _, name, _ in SETUP_TARGETS:
        rep.add(f"{name}.s", setup_median(name, 0), "s", len(setups))
        if name in COUNTED_CALLS:
            rep.add(f"{name}.calls", setup_median(name, 2), "count", len(setups))
    rep.add("preprocess.build_k_rho.self_s", setup_median("preprocess.build_k_rho", 1), "s", len(setups))
    rep.add("setup.preprocess_frac", setup_median("preprocess.build_k_rho", 0) / setup_s, "ratio", len(setups))
    balls = [tracer.counts.get((f"setup{r}", "preprocess.compute_ball"), 0) for r in range(len(setups))]
    rep.add("preprocess.ball_members", statistics.median(balls), "count", len(balls))
    rep.add("preprocess.added_edges", run.su.added, "count")
    rep.add("preprocess.added_edge_factor", run.su.added / run.su.g.m, "ratio")

    # Engine layers: per traced query, reported as p50.
    queries = _by_request(spans, selfs, scales, "q")

    def per_query(name: str, col: int, scale: float = 1000) -> list[float]:
        return [q.get(name, [0.0, 0.0, 0])[col] * scale for q in queries]

    rep.add_p("engine.query.ms", per_query("engine.query", 0), "ms")
    rep.add_p("engine.relax_batch.ms", per_query("engine.relax_batch", 0), "ms")
    rep.add_p("engine.relax_batch.calls", per_query("engine.relax_batch", 2, 1), "count")
    rep.add_p("engine.self.ms", per_query("engine.query", 1), "ms")
    two_m = 2 * g_run.m
    rep.add_p("engine.steps", [r.step_count for r in results], "count")
    rep.add_p("engine.substeps", [r.total_substeps() for r in results], "count")
    rep.add_p("engine.relaxations", [r.total_relaxations for r in results], "count")
    rep.add_p("engine.work_per_edge", [r.total_relaxations / two_m for r in results], "ratio")
    rep.add_p(
        "engine.active_per_step",
        [sum(st.active_count for st in r.steps) / max(r.step_count, 1) for r in results],
        "count",
    )

    rep.add_p("baselines.dijkstra.ms", dij_ms, "ms")
    rep.add_p("baselines.delta_stepping.ms", ds_ms, "ms")
    untraced_p50, n_untraced = _p(untraced_ms, 50)
    dij_p50 = rep.metrics["baselines.dijkstra.ms"].value
    rep.add("engine.vs_dijkstra", untraced_p50 / dij_p50, "ratio", n_untraced)
    traced_p50 = rep.metrics["engine.query.ms"].value
    rep.add("trace.overhead_frac", (traced_p50 - untraced_p50) / untraced_p50, "ratio", n_untraced)
    rep.record.update(
        spans=len(spans),
        untraced_query_ms_p50=untraced_p50,
        untraced_sources=n_untraced,
        vs_dijkstra_base=f"baselines.dijkstra.ms p50 = {dij_p50:.6g} ms on the engine's graph",
        delta_stepping_delta=big_l,
        work_per_edge_base=f"2m = {two_m} of the engine's graph",
        added_edge_factor_base=f"input m = {run.su.g.m}",
    )
    run.finish_record()
    if trace_path is not None:
        tracer.write_jsonl(trace_path, {"workload": wl.name, "seed": seed})
    return rep
