import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from radius_stepping import (
    BenchError,
    BoundsReport,
    DistanceVector,
    ExperimentConfig,
    ExperimentRow,
    GeneratorSpec,
    GraphError,
    WeightSpec,
    config_from_json,
    emit_csv,
    emit_summary,
    generate,
    run_experiment,
)
import radius_stepping.bench as bench
from radius_stepping.bench import CSV_HEADER
from conftest import MUTANT_GRID, drop_planned_shortcut

EXPERIMENTS = Path(__file__).parents[1] / "experiments"


def small_cfg(**overrides):
    base = dict(
        label="g12",
        rhos=(1, 2, 4),
        ks=(1,),
        heuristics=("dp",),
        source_count=4,
        seed=5,
        generator=GeneratorSpec(kind="grid2d", dims=(12, 12), weights=WeightSpec(1, 1000, seed=2)),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def rows():
    return run_experiment(small_cfg())


def test_csv_header_and_shape(rows):
    text = emit_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)


def test_rows_sorted_and_baseline(rows):
    keys = [(r.graph, r.k, r.rho, r.heuristic) for r in rows]
    assert keys == sorted(keys)
    base = [r for r in rows if r.rho == 1]
    assert base and all(r.reduction_factor == 1.0 for r in base)
    assert all(r.added_edge_factor == 0.0 for r in base)


def test_reduction_factor_consistent(rows):
    base = next(r for r in rows if r.rho == 1)
    for r in rows:
        assert r.reduction_factor == pytest.approx(base.mean_steps / r.mean_steps)


def test_deterministic_bytes():
    a = emit_csv(run_experiment(small_cfg()))
    b = emit_csv(run_experiment(small_cfg()))
    assert a == b


def test_unweighted_baseline_is_bfs_rounds():
    cfg = small_cfg(generator=GeneratorSpec(kind="grid2d", dims=(12, 12)), rhos=(1, 10))
    rows = run_experiment(cfg)
    from radius_stepping import generate
    from oracles import bfs
    import random

    g = generate(cfg.generator)
    rng = random.Random(cfg.seed)
    sources = sorted(rng.sample(range(g.n), cfg.source_count))
    mean_rounds = sum(bfs(g, s).rounds for s in sources) / len(sources)
    base = next(r for r in rows if r.rho == 1)
    assert base.mean_steps == pytest.approx(mean_rounds)
    fast = next(r for r in rows if r.rho == 10)
    assert fast.mean_steps < base.mean_steps


def test_single_row_csv_two_lines():
    cfg = small_cfg(rhos=(2,))
    text = emit_csv(run_experiment(cfg))
    assert len(text.splitlines()) == 2


def test_emit_summary_aligned(rows):
    text = emit_summary(rows)
    lines = text.splitlines()
    assert len(lines) == 1 + len(rows)
    assert len({len(line) for line in lines}) <= 2  # header may differ by a char or two


def test_config_json_roundtrip(tmp_path):
    raw = {
        "label": "file-run",
        "rhos": [1, 2],
        "ks": [1, 2],
        "heuristics": ["dp", "greedy"],
        "source_count": 3,
        "seed": 9,
        "generator": {
            "kind": "random",
            "n": 30,
            "m": 60,
            "seed": 4,
            "weights": {"lo": 1, "hi": 40, "seed": 6},
        },
    }
    cfg = config_from_json(json.dumps(raw))
    rows = run_experiment(cfg)
    assert {(r.k, r.rho, r.heuristic) for r in rows} == {
        (k, rho, h) for k in (1, 2) for rho in (1, 2) for h in ("dp", "greedy")
    }


@pytest.mark.parametrize(
    "weights, message",
    [
        ({}, "config field 'generator.weights.lo' is required"),
        *((w, "config field 'generator.weights' must be a JSON object") for w in (0, False, "", [])),
    ],
    ids=["{}", "0", "false", "empty-string", "[]"],
)
def test_only_null_generator_weights_mean_unweighted(weights, message):
    # Each of these built an unweighted graph, while 5 was rejected.
    raw = {"label": "x", "rhos": [1], "generator": {"kind": "grid2d", "dims": [3, 3], "weights": weights}}
    with pytest.raises(GraphError, match=f"^{message}"):
        config_from_json(json.dumps(raw))
    raw["generator"]["weights"] = None
    assert config_from_json(json.dumps(raw)).generator.weights is None


def test_config_validation():
    with pytest.raises(GraphError, match="^config needs exactly one of graph_path or generator$"):
        ExperimentConfig(label="x", rhos=()).validate()
    for field, name in (("rhos", "rho"), ("ks", "k")):
        with pytest.raises(GraphError, match=f"^{name}s must be a nonempty list of positive counts$"):
            small_cfg(**{field: ()}).validate()
    with pytest.raises(GraphError):
        small_cfg(rhos=(0,)).validate()
    with pytest.raises(GraphError):
        small_cfg(heuristics=("nope",)).validate()
    with pytest.raises(GraphError):
        ExperimentConfig(
            label="x", rhos=(1,), graph_path="a", generator=small_cfg().generator
        ).validate()


def test_config_fields_are_checked_by_type_before_anything_is_opened(monkeypatch):
    # graph_path=3 read file descriptor 3 and closed it, so a sweep ran on
    # a pipe's text; rhos=5 raised a bare TypeError and generator="grid" an
    # AttributeError.
    cells = []
    monkeypatch.setattr(bench, "_run_cell", lambda *args: cells.append(args))
    read, write = os.pipe()
    try:
        os.write(write, b"0 1 1\n")
        os.close(write)
        with pytest.raises(GraphError, match=f"^graph_path must be a string, got {read}$"):
            run_experiment(small_cfg(generator=None, graph_path=read))
        assert os.read(read, 100) == b"0 1 1\n"  # the pipe's bytes are still unread
    finally:
        os.close(read)
    cases = (
        (dict(generator=None, graph_path=True), "^graph_path must be a string, got True$"),
        (dict(generator=None, graph_path=3.5), "^graph_path must be a string, got 3.5$"),
        (dict(rhos=5), "^rhos must be a nonempty list of positive counts$"),
        (dict(ks=5), "^ks must be a nonempty list of positive counts$"),
        (dict(heuristics=5), "^heuristics must come from"),
        (dict(generator="grid"), "^generator must be a GeneratorSpec, got 'grid'$"),
        (dict(generator=GeneratorSpec(kind="grid2d", dims=(3, 3), weights="x")), "^weights must be None or a"),
        (dict(generator=GeneratorSpec(kind="grid2d", dims=5)), "^grid2d needs integer dims"),
    )
    for overrides, message in cases:
        with pytest.raises(GraphError, match=message):
            run_experiment(small_cfg(**overrides))
    assert cells == []
    small_cfg(rhos=[2], ks=[1], heuristics=["dp", "greedy"]).validate()  # a list serves as a tuple does


BAD_FIELDS = [
    # Fields the kind does not read must still be well typed.
    (GeneratorSpec(kind="grid2d", dims=(3, 3), n="x"), {}, "n must be an integer, got 'x'"),
    (GeneratorSpec(kind="random", n=5, m=6, dims="abc"), {}, "dims must be a list or tuple of integers, got 'abc'"),
    (GeneratorSpec(kind="grid3d", dims=(2, 2, 2), ladder=2.5), {}, "ladder must be an integer, got 2.5"),
    (GeneratorSpec(kind="adversarial", ladder=3, m=True), {}, "m must be an integer, got True"),
    # Fields it reads, and the sweep's own fields.
    (GeneratorSpec(kind="grid2d", dims=(3,)), {}, "grid2d needs integer dims (w, h) >= 1, got (3,)"),
    (GeneratorSpec(kind="grid2d", dims=(3, 3), weights=WeightSpec("1", 10)), {}, "need integers 1 <= lo <= hi, got ['1', 10]"),
    (None, dict(rhos=(0,)), "rho must be >= 1, got 0"),
    (None, dict(ks=(1.5,)), "k must be an integer, got 1.5"),
    (None, dict(source_count="3"), "source_count must be an integer, got '3'"),
    (None, dict(label=5), "label must be a string without a comma, double quote, CR or LF, got 5"),
]


@pytest.mark.parametrize(
    "spec, overrides, message",
    BAD_FIELDS,
    ids=["n-on-grid2d", "dims-on-random", "ladder-on-grid3d", "m-on-adversarial",
         "dims-on-grid2d", "weights-lo", "rhos", "ks", "source_count", "label"],
)
def test_python_json_and_generate_refuse_a_bad_field_alike(spec, overrides, message, monkeypatch):
    # One rule, validate(), judges a spec however it arrives, before any cell runs.
    cells = []
    monkeypatch.setattr(bench, "_run_cell", lambda *args: cells.append(args))
    cfg = small_cfg(**overrides) if spec is None else small_cfg(generator=spec)
    doors = [
        lambda: run_experiment(cfg),
        lambda: config_from_json(json.dumps(dataclasses.asdict(cfg))),
    ]
    if spec is not None:
        doors.append(lambda: generate(spec))
    for door in doors:
        with pytest.raises(GraphError) as exc:
            door()
        assert str(exc.value) == message
    assert cells == []


def test_source_count_must_be_an_integer():
    # True sampled one source, and 2.5 raised a bare TypeError.
    for count in (True, 2.5):
        with pytest.raises(GraphError, match=f"source_count must be an integer, got {count}"):
            small_cfg(source_count=count).validate()



def test_every_rho_and_k_must_be_a_count(monkeypatch):
    # Only min() >= 1 was checked: rhos=(1.0,) wrote 1.0 into the CSV's k
    # and rho columns, and rhos=(1, True) merged into one row.
    cells = []
    monkeypatch.setattr(bench, "_run_cell", lambda *args: cells.append(args))
    cases = (((1.0,), "an integer, got 1.0"), ((1, True), "an integer, got True"),
             ((2, 2.5), "an integer, got 2.5"), ((3, 0), ">= 1, got 0"))
    for field, name in (("rhos", "rho"), ("ks", "k")):
        for counts, rule in cases:
            with pytest.raises(GraphError, match=f"^{name} must be {rule}$"):
                run_experiment(small_cfg(**{field: counts}))
    assert cells == []
    small_cfg(rhos=(np.int64(2), 3), ks=(np.int32(1),)).validate()

@pytest.mark.parametrize("seed", [True, 1.0, 2.5])
def test_seed_must_be_an_integer(seed, monkeypatch):
    # True sampled the sources of seed 1, and 2.5 ran.
    cells = []
    monkeypatch.setattr(bench, "_run_cell", lambda *args: cells.append(args))
    with pytest.raises(GraphError, match=f"seed must be an integer, got {seed!r}"):
        run_experiment(small_cfg(seed=seed))
    assert cells == []


def test_numpy_integer_seed_samples_like_the_int():
    # random.Random refuses numpy integers; the config passes the seed on as an int.
    runs = [run_experiment(small_cfg(rhos=(2,), source_count=3, seed=seed)) for seed in (5, np.int64(5))]
    assert emit_csv(runs[0]) == emit_csv(runs[1])


@pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_labels_that_would_break_a_csv_row_are_rejected(label, monkeypatch):
    # "a,b" wrote 11-field rows under the 10-field header, and a newline
    # split a row in two.
    cells = []
    monkeypatch.setattr(bench, "_run_cell", lambda *args: cells.append(args))
    with pytest.raises(GraphError, match="label must be a string without a comma"):
        run_experiment(small_cfg(label=label))
    assert cells == []  # rejected before any cell ran
    row = ExperimentRow(label, 1, 0, 1, 1, "dp", 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(GraphError, match="label must be a string without a comma"):
        emit_csv([row])


def test_emit_empty_rejected():
    with pytest.raises(GraphError):
        emit_csv([])


def test_unweighted_grid_reduction_at_rho10():
    cfg = ExperimentConfig(
        label="grid31",
        rhos=(1, 10),
        source_count=8,
        seed=31,
        generator=GeneratorSpec(kind="grid2d", dims=(31, 31)),
    )
    rows = run_experiment(cfg)
    fast = next(r for r in rows if r.rho == 10)
    assert fast.reduction_factor >= 2.0


def test_single_vertex_graph_degenerates_gracefully():
    cfg = ExperimentConfig(
        label="dot",
        rhos=(1,),
        source_count=1,
        generator=GeneratorSpec(kind="grid2d", dims=(1, 1)),
    )
    (row,) = run_experiment(cfg)
    assert row.mean_steps == 0.0
    assert row.reduction_factor == 1.0
    assert row.added_edge_factor == 0.0


def test_every_cell_is_validated_above_the_old_cap(monkeypatch):
    # 900 vertices: the (k, rho) check runs in every cell, so a shortcut
    # left out of the build stops the sweep.
    cfg = small_cfg(label="mutant", rhos=(10,), source_count=2, generator=MUTANT_GRID)
    assert run_experiment(cfg)
    drop_planned_shortcut(monkeypatch)
    with pytest.raises(BenchError, match=r"\(k=1, rho=10, dp\) failed validation: \('vertex 0: r=149 exceeds"):
        run_experiment(cfg)


@pytest.mark.parametrize("weights", [WeightSpec(1, 1000, seed=2), None], ids=["weighted", "unit"])
@pytest.mark.parametrize("call, rho", [(1, 1), (6, 4)], ids=["baseline", "rho4"])
def test_every_run_is_checked_against_dijkstra(monkeypatch, weights, call, rho):
    # _run_cell dropped each run's distances, so a run that got one wrong
    # still made its row.  Runs go baseline sources first, then rho=4's.
    cfg = small_cfg(rhos=(1, 4), generator=GeneratorSpec(kind="grid2d", dims=(12, 12), weights=weights))
    assert run_experiment(cfg)
    real, calls = bench.radius_step_fast, []

    def one_distance_moved(g, radii, s):
        res = real(g, radii, s)
        calls.append(s)
        if len(calls) != call:
            return res
        dist = res.dist.dist.copy()
        dist[(s + 1) % g.n] += 1
        return dataclasses.replace(res, dist=DistanceVector(source=s, dist=dist))

    monkeypatch.setattr(bench, "radius_step_fast", one_distance_moved)
    with pytest.raises(BenchError) as exc:
        run_experiment(cfg)
    assert str(exc.value) == f"(k=1, rho={rho}, dp, s={calls[call - 1]}) distances differ from dijkstra's"


def test_bench_errors_name_the_source_by_its_label(tmp_path, monkeypatch):
    # Both messages named the dense id, which is in no file of a graph
    # labelled 100, 200, ...; sources are still sampled from the dense ids.
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{100 * v} {100 * (v + 1)} {v % 3 + 1}\n" for v in range(1, 12)))
    cfg = small_cfg(rhos=(1, 2), generator=None, graph_path=str(path))
    real_run, runs = bench.radius_step_fast, []

    def one_distance_moved(g, radii, s):
        res = real_run(g, radii, s)
        runs.append(s)
        if len(runs) != 1:
            return res
        dist = res.dist.dist.copy()
        dist[(s + 1) % g.n] += 1
        return dataclasses.replace(res, dist=DistanceVector(source=s, dist=dist))

    monkeypatch.setattr(bench, "radius_step_fast", one_distance_moved)
    with pytest.raises(BenchError) as exc:
        run_experiment(cfg)
    label = 100 * (runs[0] + 1)  # the path's vertices appear in label order
    assert str(exc.value) == f"(k=1, rho=1, dp, s={label}) distances differ from dijkstra's"

    failed = BoundsReport(checkable=True, reason="", step_limit=None, violations=("step bound",))
    monkeypatch.setattr(bench, "check_bounds", lambda *args, **kwargs: failed)
    runs.clear()
    monkeypatch.setattr(bench, "radius_step_fast", lambda g, radii, s: runs.append(s) or real_run(g, radii, s))
    with pytest.raises(BenchError) as exc:
        run_experiment(cfg)
    assert str(exc.value) == f"(k=1, rho=1, dp, s={100 * (runs[0] + 1)}) bound check: ('step bound',)"


def test_committed_configs_are_what_readme_and_ci_run():
    # README runs experiments/medium and CI experiments/small, each file
    # through bench --config into results/<label>.csv.
    labels = {}
    for scale in ("small", "medium"):
        paths = sorted((EXPERIMENTS / scale).glob("*.json"))
        cfgs = [config_from_json(path.read_text(encoding="utf-8")) for path in paths]
        assert [cfg.label for cfg in cfgs] == [path.stem for path in paths]
        labels[scale] = {cfg.label for cfg in cfgs}
        for cfg in cfgs:
            assert cfg.seed == 42
            if scale == "small":
                assert (cfg.ks, set(cfg.heuristics)) == ((1, 2), {"dp", "greedy"})
            else:
                assert (cfg.source_count, cfg.ks) == (20, (1,))
    assert labels["small"] == labels["medium"] == {f"{f}-{w}" for f in ("grid2d", "grid3d", "random") for w in "uw"}


def test_readme_experiments_numbers_are_the_medium_config_rows():
    # README's Experiments section quotes the grid2d rows of
    # experiments/medium (seed 42, 20 sources, k=1, dp) at rho 1, 10, 50.
    steps = {}
    for weighted in (True, False):
        path = EXPERIMENTS / "medium" / f"grid2d-{'w' if weighted else 'u'}.json"
        cfg = config_from_json(path.read_text(encoding="utf-8"))
        assert {1, 10, 50} <= set(cfg.rhos)
        rows = run_experiment(dataclasses.replace(cfg, rhos=(1, 10, 50)))
        steps[weighted] = [round(row.mean_steps) for row in rows]
    assert steps == {True: [9844, 83, 29], False: [159, 53, 27]}
    (w1, w10, w50), (u1, u10, u50) = steps[True], steps[False]
    said = (
        f"the weighted 100x100 grid's mean step count falls from {w1:,} at `rho=1` to {w10} at `rho=10` "
        f"and {w50} at `rho=50`; the unit-weight grid's falls from {u1} to {u10} and {u50}."
    )
    assert said in " ".join((EXPERIMENTS.parent / "README.md").read_text().split())
