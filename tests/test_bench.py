import json
import os

import numpy as np
import pytest

from radius_stepping import (
    BenchError,
    ExperimentConfig,
    ExperimentRow,
    GeneratorSpec,
    GraphError,
    WeightSpec,
    config_from_json,
    emit_csv,
    emit_summary,
    run_experiment,
)
import radius_stepping.bench as bench
from radius_stepping.bench import CSV_HEADER
from conftest import MUTANT_GRID, drop_planned_shortcut


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
