"""Tests for the benchmark's own helpers.

Run from the repository root: python3 -m pytest -q perfbench
"""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import radius_stepping.engine as engine
import radius_stepping.preprocess as preprocess
from radius_stepping.generate import GeneratorSpec, WeightSpec

import measure
from speed import REF_MS, SpeedScale
from tracing import Span, Tracer, accounting_errors, patched, self_times
from workloads import SOURCES, WORKLOADS, Workload, edge_list_text, sources

TINY = [
    Workload(
        "tiny-w",
        lambda seed: GeneratorSpec("grid2d", dims=(6, 6), weights=WeightSpec(1, 100, seed=seed)),
        k=2,
        rho=4,
        engine="radius_step_fast",
    ),
    Workload("tiny-u", lambda seed: GeneratorSpec("adversarial", ladder=4), k=1, rho=4, engine="radius_step_unweighted"),
]


def test_percentile_interpolates_and_counts():
    xs = [float(x) for x in range(10, 0, -1)]
    assert measure.percentile(xs, 50) == (5.5, 10)
    assert measure.percentile(xs, 90) == pytest.approx((9.1, 10))
    assert measure.percentile(xs, 0) == (1.0, 10)
    assert measure.percentile(xs, 100) == (10.0, 10)
    assert measure.percentile([3.0], 90) == (3.0, 1)
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span("root", 0, 100, -1, "q0"),
        Span("a", 10, 30, 0, "q0"),
        Span("b", 40, 70, 0, "q0"),
        Span("b.inner", 45, 50, 2, "q0"),
    ]
    assert self_times(spans) == [50, 20, 25, 5]
    assert accounting_errors(spans, self_times(spans)) == []


def test_overlapping_children_count_once_and_are_reported():
    spans = [Span("root", 0, 100, -1, None), Span("a", 10, 40, 0, None), Span("b", 30, 60, 0, None)]
    assert self_times(spans) == [50, 30, 30]
    assert len(accounting_errors(spans, self_times(spans))) == 1


def test_speed_scale_times_the_loop_only_when_due():
    speed = SpeedScale()
    assert speed.mark() == 0
    assert speed.mark() == 0  # within the interval: the last timing stands
    assert speed.mark(fresh=True) == 1
    assert speed.factor(0) > 0


def test_speed_factor_takes_the_median_around_the_mark():
    speed = SpeedScale()
    speed.loop_ms = [10.0, 20.0, 10.0, 40.0, 5.0]
    assert speed.factor(0) == pytest.approx(REF_MS / 10.0)  # timings 0..2
    assert speed.factor(2) == pytest.approx(REF_MS / 15.0)  # timings 1..4
    assert speed.factor(4) == pytest.approx(REF_MS / 22.5)  # timings 3..4


@pytest.mark.parametrize("name", ["grid2d-w", "random-w-rho1"])
def test_seed_fixes_the_edge_list_text(name):
    wl = WORKLOADS[name]
    assert edge_list_text(wl, 3) == edge_list_text(wl, 3)
    assert edge_list_text(wl, 3) != edge_list_text(wl, 4)


def test_seed_fixes_the_sources():
    assert sources(1601, 3) == sources(1601, 3)
    assert sources(1601, 3) != sources(1601, 4)


def test_patched_restores_every_attribute():
    targets = measure.SETUP_TARGETS + measure.query_targets(WORKLOADS["grid2d-w"])
    before = [getattr(mod, attr) for mod, attr, _, _ in targets]
    with pytest.raises(RuntimeError):
        with patched(Tracer(), targets):
            assert all(getattr(mod, attr) is not orig for (mod, attr, _, _), orig in zip(targets, before))
            raise RuntimeError("inside the traced block")
    assert all(getattr(mod, attr) is orig for (mod, attr, _, _), orig in zip(targets, before))


def test_patched_skips_a_missing_function():
    tracer = Tracer()
    with patched(tracer, [(preprocess, "no_such_layer", "preprocess.gone", None)]):
        pass
    assert tracer.spans == []
    assert not hasattr(preprocess, "no_such_layer")


@pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
def test_traced_run_accounts_and_restores(wl):
    originals = (engine.relax_batch, getattr(engine, wl.engine), preprocess.compute_ball)
    rep = measure.traced(wl, seed=5, seconds=0)
    assert rep.correct, rep.problems
    assert (engine.relax_batch, getattr(engine, wl.engine), preprocess.compute_ball) == originals
    m = rep.metrics
    assert m["preprocess.compute_ball.calls"].value == rep.record["n"]
    assert m["engine.query.ms"].samples == min(measure.TRACED_SOURCES, rep.record["n"])
    assert m["engine.self.ms"].value <= m["engine.query.ms"].value
    assert m["preprocess.ball_members"].value >= rep.record["n"]
    if wl.unit:
        assert m["engine.relax_batch.calls"].value == 0


@pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
def test_end_to_end_reports_every_metric(wl):
    rep = measure.end_to_end(wl, seed=5, seconds=0)
    assert rep.correct and rep.failed == 0
    assert set(rep.metrics) == {"setup_s", "query_ms_p50", "query_ms_p90", "queries_per_s", "peak_rss_mb", "ok_frac"}
    assert rep.metrics["query_ms_p90"].samples == min(SOURCES, rep.record["n"])
    assert rep.record["queries"] == measure.MIN_QUERIES
    assert all(m.value > 0 for m in rep.metrics.values())


def test_digest_repeats_for_a_seed():
    wl = TINY[0]
    assert measure.end_to_end(wl, 5, 0).record["digest"] == measure.end_to_end(wl, 5, 0).record["digest"]


def test_run_fails_without_the_package_source(tmp_path):
    here = Path(measure.__file__).parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid2d-w", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
