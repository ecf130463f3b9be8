import hashlib
import json
import re
import runpy
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import radius_stepping.preprocess as preprocess
from radius_stepping import (
    UNREACHED,
    GeneratorSpec,
    GraphError,
    RadiusAssignment,
    config_from_json,
    dijkstra,
    generate,
    parse_edge_list,
    radius_step_fast,
    radius_step_unweighted,
    read_radii,
    step_records_csv,
    write_edge_list,
)
from radius_stepping.cli import main
from radius_stepping.graph import _render_labeled
from oracles import radius_step_reference

PATH_TEXT = "0 1 2\n1 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _config(tmp_path, **fields):
    """A JSON config file holding `fields`, and its path as a string."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    return str(cfg)


def _gen(capsys, tmp_path, out, **spec):
    """gen run on a spec file holding `spec`, writing to `out`: (exit code, stdout, stderr)."""
    return run(capsys, "gen", "--config", _config(tmp_path, **spec), "-o", str(out))


def test_sssp_prints_oracle_distances(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(PATH_TEXT)
    code, out, _ = run(capsys, "sssp", "-i", str(f), "-s", "0")
    assert code == 0
    assert out == "0 0\n1 2\n2 5\n"


def test_sssp_unreachable_prints_inf(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("0 1 2\n2 3 1\n")
    code, out, _ = run(capsys, "sssp", "-i", str(f), "-s", "0")
    assert code == 0
    assert out.splitlines()[2] == "2 inf"


def test_sssp_engine_ref_is_a_usage_error(tmp_path, capsys):
    # The literal loop is a test oracle, and sssp has no engine to choose.
    f = tmp_path / "g.txt"
    f.write_text(PATH_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["sssp", "-i", str(f), "-s", "0", "--engine", "ref"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine ref" in out.err and out.out == ""


NEGATIVE_LABELS_TEXT = "-5 7 4\n7 -1 1\n-1 0 6\n-5 0 2\n0 7 9\n-8 -5 3\n"


@pytest.mark.parametrize(
    "gen_or_text, k, rho, source",
    [
        (dict(kind="grid2d", dims=[8, 7]), 1, 4, 9),
        (dict(kind="grid2d", dims=[7, 6], weights=dict(lo=1, hi=9, seed=2)), 2, 5, 3),
        (NEGATIVE_LABELS_TEXT, 1, 3, -5),
    ],
    ids=["unit-grid", "weighted-grid", "negative-labels"],
)
def test_sssp_runs_the_fast_engine_on_the_files_it_is_given(tmp_path, capsys, gen_or_text, k, rho, source):
    # A unit-weight graph is queried as it is (its shortcuts are weighted),
    # a weighted one on the augmented file; both with preprocess's radii.
    src, aug, rad, stats = (tmp_path / name for name in ("g.txt", "aug.txt", "radii.txt", "steps.csv"))
    if isinstance(gen_or_text, str):
        src.write_text(gen_or_text)
    else:
        assert _gen(capsys, tmp_path, src, **gen_or_text)[0] == 0
    argv = ("preprocess", "-i", str(src), "--k", str(k), "--rho", str(rho), "-o", str(aug), "--radii", str(rad))
    assert run(capsys, *argv)[0] == 0
    unit = parse_edge_list(src.read_text()).is_unit_weight
    f = src if unit else aug
    g = parse_edge_list(f.read_text())
    s = g.labels.tolist().index(source)
    engine = radius_step_unweighted if unit else radius_step_fast
    for radii_argv, radii in (
        (("--radii", str(rad)), read_radii(rad.read_text(), g)),
        ((), RadiusAssignment.uniform(g.n, 0)),
    ):
        code, out, err = run(capsys, "sssp", "-i", str(f), *radii_argv, "-s", str(source), "--stats", str(stats))
        assert code == 0, err
        res = engine(g, radii, s)
        assert out == _render_labeled(g.labels, res.dist.dist)
        assert stats.read_text() == step_records_csv(res)
        assert err == f"{res.step_count} steps, {res.total_substeps()} substeps\n"


@pytest.mark.parametrize(
    "flag",
    [["--engine", "fast"], ["--engine", "unweighted"], ["--rho", "4"]],
    ids=["engine-fast", "engine-unweighted", "rho-4"],
)
def test_sssp_removed_flags_are_usage_errors(tmp_path, capsys, flag):
    # sssp runs one engine on the radii it is given; only preprocess builds radii.
    f = tmp_path / "g.txt"
    f.write_text(PATH_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["sssp", "-i", str(f), "-s", "0", *flag])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in out.err and out.out == ""


def test_gen_grid3d_and_adversarial(tmp_path, capsys):
    f3 = tmp_path / "g3.txt"
    code, _, err = _gen(capsys, tmp_path, f3, kind="grid3d", dims=[2, 2, 2])
    assert code == 0 and "n=8" in err
    fa = tmp_path / "adv.txt"
    code, _, err = _gen(capsys, tmp_path, fa, kind="adversarial", ladder=3)
    assert code == 0 and "n=10" in err
    fw = tmp_path / "gw.txt"
    code, _, _ = _gen(capsys, tmp_path, fw, kind="grid2d", dims=[2, 2], weights=dict(lo=5, hi=9, seed=1))
    assert code == 0
    assert all(5 <= int(line.split()[2]) <= 9 for line in fw.read_text().splitlines())


def test_isolated_vertex_survives_preprocess_and_sssp(tmp_path, capsys):
    src, aug, rad = (tmp_path / name for name in ("g.txt", "aug.txt", "radii.txt"))
    src.write_text("10 20 2\n20 30 3\n40 40 1\n")
    code, _, err = run(capsys, "preprocess", "-i", str(src), "--k", "1", "--rho", "2",
                       "-o", str(aug), "--radii", str(rad))
    assert code == 0, err
    assert aug.read_text().splitlines()[-1] == "40"
    code, out, err = run(capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", "10")
    assert code == 0, err
    assert out == "10 0\n20 2\n30 5\n40 inf\n"


def test_gen_missing_dims_is_domain_error(tmp_path, capsys):
    code, _, err = _gen(capsys, tmp_path, tmp_path / "g.txt", kind="grid2d", dims=[3])
    assert code == 1 and "grid2d" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        (dict(kind="grid2d", dims=[2, 2], weights=dict(lo=5, hi=1)), "need integers 1 <= lo <= hi, got [5, 1]"),
        (dict(kind="grid2d", dims=[2, 2], weights=5), "config field 'weights' must be a JSON object"),
        (dict(kind="grid2d", dims=[2, 2], weights=dict(hi=5)), "config field 'weights.lo' is required"),
        (dict(kind="grid3d", dims=[2, 2]), "grid3d needs integer dims (x, y, z) >= 1, got (2, 2)"),
        (dict(kind="adversarial"), "adversarial needs an integer d >= 2, got 0"),
        (dict(kind="random", m=5), "random graph needs an integer n >= 1, got 0"),
    ],
    ids=["weights-bounds", "weights-not-an-object", "weights-without-lo", "grid3d-two-dims",
         "adversarial-no-ladder", "random-no-n"],
)
def test_missing_or_clashing_spec_fields_are_domain_errors(tmp_path, capsys, spec, message):
    out_file = tmp_path / "g.txt"
    assert _gen(capsys, tmp_path, out_file, **spec) == (1, "", f"error: {message}\n")
    assert not out_file.exists()


def test_bench_needs_a_config(capsys):
    # The sweep is read only from a JSON config; argparse reports its absence.
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in out.err and out.out == ""


def test_gen_help_lists_only_config_and_output(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)) == {"-h", "--help", "--config", "-o", "--output"}


@pytest.mark.parametrize("flag, value", [("--kind", "grid2d"), ("--weights", "1:9"), ("--seed", "3")])
def test_gen_refuses_the_spec_flags(tmp_path, capsys, flag, value):
    # The spec file holds the whole graph; gen has no flag that could change it.
    # The size flags are checked on every kind below.
    out_file = tmp_path / "g.txt"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--config", _config(tmp_path, kind="grid2d", dims=[3, 3]), flag, value, "-o", str(out_file)])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and not out_file.exists()
    assert f"unrecognized arguments: {flag} {value}" in out.err


def test_gen_needs_a_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "-o", "g.txt"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in out.err and out.out == ""


@pytest.mark.parametrize("text", ['{"kind": "grid2d", "dims": [3, 3]', "", '{"kind": "grid2d"} x', "[3, 3]", "null"])
def test_gen_rejects_a_malformed_spec(tmp_path, capsys, text):
    spec, out_file = tmp_path / "spec.json", tmp_path / "g.txt"
    spec.write_text(text)
    code, out, err = run(capsys, "gen", "--config", str(spec), "-o", str(out_file))
    assert (code, out) == (1, "") and not out_file.exists()
    assert err.startswith("error: config ") and "Traceback" not in err


# The sha256 of the edge lists gen wrote from the flags it took before it read
# a spec file: README's two grids, a ladder and a weighted random graph.
GEN_DIGESTS = [
    (dict(kind="grid2d", dims=[100, 100], weights=dict(lo=1, hi=10000, seed=7)),
     "80b29beee71e110ce21438cdc7c4e4aec14b2d16841826da169e765687612881"),  # --w 100 --h 100 --weights 1:10000 --seed 7
    (dict(kind="grid2d", dims=[30, 30]),
     "b66f70a25b6575611848edeeaafd295cac406600894fae39edc26330a96ebbac"),  # --w 30 --h 30
    (dict(kind="adversarial", ladder=5),
     "824bf8ce311b3ecfc8bf4ff06a373dbca46c23a9a6d7fdc2f71b55e7af37b446"),  # --d 5
    (dict(kind="random", n=300, m=900, seed=11, weights=dict(lo=1, hi=50, seed=11)),
     "ab991cec7f9311f94f2ccfa111d196a0e1ee7df6d8344746fcd754d972008d07"),  # --n 300 --m 900 --weights 1:50 --seed 11
    # Recorded from the tuple-list builders that tests/oracles.py keeps.
    (dict(kind="grid3d", dims=[5, 1, 3]),
     "bc316bc5e3cf4fbf221ec121a1f59f7c8bf70ee247785490d867f3a5a2f5036a"),
    (dict(kind="grid3d", dims=[4, 3, 5], weights=dict(lo=1, hi=100, seed=3)),
     "648df57531642a1b8e0d4270df7fd5dfcaa6182a581700ad4be0ea8f8a616071"),
    (dict(kind="adversarial", ladder=2, weights=dict(lo=1, hi=9, seed=4)),
     "e455011671b72a6216d3820b93e541ac260e72127eb3dedc71b78ca88799ed43"),
    (dict(kind="adversarial", ladder=5, weights=dict(lo=1, hi=1000, seed=5)),
     "28e72233e35fc02fd28fdf4eb04d8c512a12515850a7e6e2499b2224702fb872"),
    (dict(kind="random", n=200, m=500, seed=6),
     "175e644ead45117d323f986f4e0b95eaadf40044aa4d4f26cfa3d08977eaf14b"),
    (dict(kind="random", n=50, m=49, seed=7, weights=dict(lo=1, hi=20, seed=7)),
     "63bc8cbda04fa37b4dcb083519ffb3ec0e665ee34d025eb03085ec2f34b0cfff"),  # m = n-1: a tree
    (dict(kind="random", n=20, m=190, seed=8, weights=dict(lo=1, hi=20, seed=8)),
     "0470e55e61c1b0d2a7fb717f5355d4c80dc728fba1f1858c083b60e64e8ac81e"),  # m = n(n-1)/2: complete
    (dict(kind="random", n=1, m=0, seed=9),
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
]
GEN_IDS = ["readme-grid", "readme-ugrid", "ladder", "random-w", "grid3d-flat", "grid3d-w", "ladder2-w", "ladder5-w",
           "random-u", "random-tree", "random-complete", "random-n1"]


@pytest.mark.parametrize("spec, digest", GEN_DIGESTS, ids=GEN_IDS)
def test_gen_spec_writes_the_bytes_the_flags_wrote(tmp_path, capsys, spec, digest):
    out_file = tmp_path / "g.txt"
    code, out, err = _gen(capsys, tmp_path, out_file, **spec)
    assert (code, out) == (0, ""), err
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


# The sha256 of what preprocess at (k, rho) = (2, 5) and sssp from vertex 17
# wrote for one random graph with weights up to 10**9, recorded when every
# row went through a %-template.  Each output but the 18-step stats spans
# more than one render block; test_engine crosses a block with the stats.
PIPELINE_SPEC = dict(kind="random", n=5000, m=15000, seed=5, weights=dict(lo=1, hi=10**9, seed=5))
PIPELINE_DIGESTS = {
    "augmented": "5fe195c11420f3e4e92ac07ac5d5b59b65d656b535f02be077a1bc68446338b5",
    "radii": "f42394e69b518fcb8455fa6063ef277db8a3ba5d6e8a0a8f65fa8f7edd319662",
    "sssp": "c922fb3c2f9764b569be199638043fa2a73426d5d07dc39c3ce55262b5d71fcb",
    "stats": "20194967adaa0e706699a7d1b05224faf62c2a4b0fbc4098bae1c31787e3846d",
}


def test_preprocess_and_sssp_write_the_recorded_bytes(tmp_path, capsys):
    src, aug, rad, stats = (tmp_path / name for name in ("g.txt", "aug.txt", "radii.txt", "stats.csv"))
    assert _gen(capsys, tmp_path, src, **PIPELINE_SPEC)[0] == 0
    argv = ("preprocess", "-i", str(src), "--k", "2", "--rho", "5", "-o", str(aug), "--radii", str(rad))
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", "17", "--stats", str(stats))
    assert code == 0, err
    got = {"augmented": aug.read_bytes(), "radii": rad.read_bytes(), "sssp": out.encode(), "stats": stats.read_bytes()}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == PIPELINE_DIGESTS


# A field each kind does not read, given a value other than its default.
UNREAD_FIELDS = [
    *((kind, field) for kind in ("grid2d", "grid3d") for field in ("ladder", "n", "m", "seed")),
    *(("adversarial", field) for field in ("dims", "n", "m", "seed")),
    ("random", "dims"),
    ("random", "ladder"),
]
READ_FIELDS = {
    "grid2d": dict(dims=(3, 3)),
    "grid3d": dict(dims=(2, 2, 2)),
    "adversarial": dict(ladder=3),
    "random": dict(n=5, m=6, seed=1),
}
UNREAD_VALUES = {"dims": (3, 3), "ladder": 3, "n": 7, "m": 7, "seed": 3}


# The size flags each kind read when gen took flags.
GEN_SIZE_FLAGS = {"grid2d": "wh", "grid3d": "xyz", "adversarial": "d", "random": "nm"}


@pytest.mark.parametrize(
    "kind, flag",
    [(kind, flag) for kind, own in GEN_SIZE_FLAGS.items() for flag in "whxyzdnm" if flag not in own],
)
def test_gen_refuses_the_size_flags_of_other_kinds(tmp_path, capsys, kind, flag):
    # gen --kind grid2d --w 5 --h 5 --n 7 wrote the 5x5 grid and dropped --n.
    # No size flag is left beside a spec file, and --h is no abbreviation of
    # --help: it would print the help and exit 0.
    out_file = tmp_path / "g.txt"
    cfg = _config(tmp_path, kind=kind, **READ_FIELDS[kind])
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--config", cfg, f"--{flag}", "3", "-o", str(out_file)])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and not out_file.exists()
    assert f"unrecognized arguments: --{flag} 3" in out.err


@pytest.mark.parametrize("kind, field", UNREAD_FIELDS, ids=[f"{field}-on-{kind}" for kind, field in UNREAD_FIELDS])
def test_every_door_refuses_a_field_the_kind_does_not_read(tmp_path, capsys, kind, field):
    # gen --kind grid2d --w 5 --h 5 --n 7 wrote the 5x5 grid and dropped
    # --n, and a seed on a grid was dropped through every door.
    raw = dict(kind=kind, **READ_FIELDS[kind], **{field: UNREAD_VALUES[field]})
    message = f"{kind} does not read {field}, got {UNREAD_VALUES[field]!r}"
    spec = GeneratorSpec(**raw)
    for door in (lambda: generate(spec),
                 lambda: config_from_json(json.dumps(dict(label="x", rhos=[1], generator=raw)))):
        with pytest.raises(GraphError) as exc:
            door()
        assert str(exc.value) == message
    out_file = tmp_path / "g.txt"
    assert _gen(capsys, tmp_path, out_file, **raw) == (1, "", f"error: {message}\n")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "kind, defaults",
    [("grid2d", dict(seed=0, ladder=0, n=0, m=0)), ("grid3d", dict(seed=None, ladder=None)),
     ("adversarial", dict(dims=(), n=0, m=0, seed=0)), ("random", dict(dims=(), ladder=0))],
)
def test_a_field_the_kind_does_not_read_may_hold_its_default(tmp_path, capsys, kind, defaults):
    plain, explicit = tmp_path / "plain.txt", tmp_path / "explicit.txt"
    assert _gen(capsys, tmp_path, plain, kind=kind, **READ_FIELDS[kind])[0] == 0
    raw = dict(kind=kind, **READ_FIELDS[kind], **defaults)
    code, _, err = _gen(capsys, tmp_path, explicit, **raw)
    assert code == 0, err
    assert explicit.read_bytes() == plain.read_bytes()
    given = {name: v for name, v in raw.items() if v is not None}  # JSON null stands for the default
    assert write_edge_list(generate(GeneratorSpec(**given))).encode() == plain.read_bytes()
    assert config_from_json(json.dumps(dict(label="x", rhos=[1], generator=raw))).generator == GeneratorSpec(**given)


@pytest.mark.parametrize(
    "flag, value",
    [("--label", "zz"), ("--rhos", "7"), ("--ks", "2"), ("--heuristics", "greedy"),
     ("--sources", "1"), ("--seed", "3"), ("-i", "g.txt")],
)
def test_bench_config_refuses_the_sweep_flags(tmp_path, capsys, flag, value):
    # The config holds the whole sweep; bench has no flag that could change it.
    src, rows = tmp_path / "g.txt", tmp_path / "rows.csv"
    src.write_text(PATH_TEXT)
    cfg = _config(tmp_path, label="c", rhos=[1, 2], graph_path=str(src))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", cfg, flag, value, "-o", str(rows)])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and not rows.exists()
    assert f"unrecognized arguments: {flag} {value}" in out.err


def test_gen_then_sssp_roundtrip(tmp_path, capsys):
    f = tmp_path / "grid.txt"
    code, _, _ = _gen(capsys, tmp_path, f, kind="grid2d", dims=[3, 3])
    assert code == 0
    code, out, _ = run(capsys, "sssp", "-i", str(f), "-s", "0")
    assert code == 0
    assert out.splitlines()[0] == "0 0"
    assert len(out.splitlines()) == 9


def test_preprocess_then_validate_ok(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(PATH_TEXT)
    aug = tmp_path / "aug.txt"
    rad = tmp_path / "radii.txt"
    code, _, _ = run(
        capsys, "preprocess", "-i", str(src), "--k", "2", "--rho", "2",
        "-o", str(aug), "--radii", str(rad),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "validate", "-i", str(aug), "--radii", str(rad), "--k", "2", "--rho", "2"
    )
    assert code == 0
    assert out.startswith("ok:")


STAR_TEXT = "".join(f"0 {v}\n" for v in range(1, 40))


@pytest.mark.parametrize("text, k, rho", [
    (STAR_TEXT, 1, 3),
    (write_edge_list(generate(GeneratorSpec(kind="grid2d", dims=(30, 30)))), 1, 4),
], ids=["unit-star", "unit-grid"])
def test_preprocess_strict_then_validate_and_sssp(tmp_path, capsys, text, k, rho):
    # Strict balls keep exactly rho members, so each center plans at most
    # rho - 1 shortcuts; tie-inclusive balls keep every tie at r_rho too.
    src = tmp_path / "g.txt"
    src.write_text(text)
    g = parse_edge_list(text)
    added = {}
    for mode in ("default", "--strict"):
        aug, rad = tmp_path / f"aug{mode}.txt", tmp_path / f"radii{mode}.txt"
        argv = ["preprocess", "-i", str(src), "--k", str(k), "--rho", str(rho), "-o", str(aug), "--radii", str(rad)]
        code, _, err = run(capsys, *argv, *([mode] if mode == "--strict" else []))
        assert code == 0, err
        added[mode] = int(re.match(r"augmented with (\d+) edges", err).group(1))
    assert 0 < added["--strict"] <= min(added["default"], g.n * (rho - 1))
    code, out, _ = run(capsys, "validate", "-i", str(aug), "--radii", str(rad), "--k", str(k), "--rho", str(rho))
    assert code == 0 and out.startswith("ok:")
    code, out, _ = run(capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", "0")
    assert code == 0
    assert sorted(out.splitlines()) == sorted(_render_labeled(g.labels, dijkstra(g, 0).dist).splitlines())


def test_validate_flags_bad_radii(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(PATH_TEXT)
    rad = tmp_path / "radii.txt"
    rad.write_text("0 999\n1 999\n2 999\n")
    code, _, err = run(capsys, "validate", "-i", str(src), "--radii", str(rad), "--k", "1", "--rho", "2")
    assert code == 1
    assert "violations" in err


def test_sssp_with_radii_file(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(PATH_TEXT)
    aug = tmp_path / "aug.txt"
    rad = tmp_path / "radii.txt"
    run(capsys, "preprocess", "-i", str(src), "--rho", "2", "-o", str(aug), "--radii", str(rad))
    stats = tmp_path / "steps.csv"
    code, out, err = run(
        capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", "0", "--stats", str(stats)
    )
    assert code == 0
    assert out == "0 0\n1 2\n2 5\n"
    lines = stats.read_text().splitlines()
    assert lines[0] == "i,d_i,active_count,substeps,settled_prefix"
    assert "steps" in err


def test_validate_names_vertices_by_their_labels(tmp_path, capsys):
    # validate printed dense ids ("vertex 3: r=99 ...", "vertex 0" to "vertex 4"),
    # which are in neither file.  Violations keep the graph's vertex order.
    src, rad = tmp_path / "g.txt", tmp_path / "radii.txt"
    src.write_text("100 200 3\n200 300 4\n300 400 5\n400 500 6\n")
    rad.write_text("500 0\n400 99\n300 0\n200 0\n100 0\n")
    code, out, err = run(capsys, "validate", "-i", str(src), "--radii", str(rad), "--k", "1", "--rho", "2")
    assert (code, out) == (1, "")
    assert err == (
        "vertex 100: |B(v,0)|=1 below 2\n"
        "vertex 200: |B(v,0)|=1 below 2\n"
        "vertex 300: |B(v,0)|=1 below 2\n"
        "vertex 400: r=99 exceeds k-radius 9\n"
        "vertex 500: |B(v,0)|=1 below 2\n"
        "5 violations\n"
    )


def test_validate_names_the_vertex_a_radii_file_lacks(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("7 3 2\n3 9 5\n")
    rad = tmp_path / "radii.txt"
    rad.write_text("3 0\n9 0\n")
    code, out, err = run(capsys, "validate", "-i", str(src), "--radii", str(rad), "--k", "1", "--rho", "2")
    assert (code, out, err) == (1, "", "error: radii file is missing vertex 7\n")


@pytest.mark.parametrize("rho", ["5", "1"])
def test_sssp_radii_and_rho_are_a_usage_error(tmp_path, capsys, rho):
    # Only preprocess builds radii; sssp has no --rho, with a radii file or
    # without one (see test_sssp_removed_flags_are_usage_errors).
    with pytest.raises(SystemExit) as exc:
        main(["sssp", "-i", str(tmp_path / "g.txt"), "-s", "0", "--radii", _radii(tmp_path), "--rho", rho])
    assert exc.value.code == 2 and f"unrecognized arguments: --rho {rho}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    ["0 x", "y 3", "0 1.5", f"0 {2**62 + 1}", "0 99999999999999999999", "0 0\n1 0\n2 0\n0 99"],
)
def test_sssp_rejects_non_integer_radii_with_line_number(tmp_path, capsys, bad):
    src = tmp_path / "g.txt"
    src.write_text(PATH_TEXT)
    rad = tmp_path / "radii.txt"
    rad.write_text(f"# radii\n{bad}\n")
    code, out, err = run(capsys, "sssp", "-i", str(src), "--radii", str(rad), "-s", "0")
    assert code == 1
    assert out == ""
    assert f"radii line {1 + len(bad.splitlines())}" in err and "Traceback" not in err


@pytest.mark.parametrize("rho", ["0", "-3"])
def test_validate_rejects_rho_below_one(tmp_path, capsys, rho):
    src = tmp_path / "g.txt"
    src.write_text(PATH_TEXT)
    rad = tmp_path / "radii.txt"
    rad.write_text("0 0\n1 0\n2 0\n")
    code, out, err = run(capsys, "validate", "-i", str(src), "--radii", str(rad), "--k", "1", "--rho", rho)
    assert code == 1
    assert out == ""
    assert f"rho must be >= 1, got {rho}" in err


def test_bench_config_csv(tmp_path, capsys):
    src = tmp_path / "g.txt"
    code, _, _ = _gen(capsys, tmp_path, src, kind="random", n=25, m=50, seed=3, weights=dict(lo=1, hi=100, seed=3))
    assert code == 0
    out_csv = tmp_path / "rows.csv"
    cfg = _config(tmp_path, label="graph", rhos=[1, 2], source_count=3, graph_path=str(src))
    code, _, err = run(capsys, "bench", "--config", cfg, "-o", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("graph,n,m,k,rho")
    assert len(lines) == 3


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "sssp", "-i", "/nonexistent/g.txt", "-s", "0")
    assert code == 1
    assert "error:" in err and "/nonexistent/g.txt" in err


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sssp", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--ks", "x"], ["--ks", "1,0"], ["--heuristics", "dp,nope"], ["--sources", "0"]])
def test_run_trends_rejects_bad_list_flags_before_it_runs(tmp_path, argv):
    main_of_script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_trends.py"))["main"]
    with pytest.raises(SystemExit) as exc:
        main_of_script([*argv, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2 and not (tmp_path / "out").exists()


def _radii(tmp_path):
    rad = tmp_path / "r.txt"
    rad.write_text("0 0\n1 0\n2 0\n")
    return str(rad)


def test_zero_weight_input_rejected(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("0 1 0\n")
    code, _, err = run(capsys, "sssp", "-i", str(f), "-s", "0")
    assert code == 1
    assert "weight" in err


@pytest.mark.parametrize(
    "text",
    [
        f"0 1 {2**62}\n",  # the weight is the no-path sentinel itself
        "0 1 9223372036854775000\n1 2 5000\n",  # the path sum wraps int64
        "0 1 123456789012345678901\n",  # the weight does not fit int64
    ],
)
def test_sssp_rejects_weights_that_do_not_fit(tmp_path, capsys, text):
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, out, err = run(capsys, "sssp", "-i", str(f), "-s", "0")
    assert code == 1
    assert out == ""
    assert "line 1" in err and "2**62" in err


def test_preprocess_rejects_ids_beyond_int64_with_line_number(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("0 1 5\n18446744073709551616 1 5\n")
    code, out, err = run(capsys, "preprocess", "-i", str(f), "--rho", "2",
                         "-o", str(tmp_path / "aug.txt"), "--radii", str(tmp_path / "radii.txt"))
    assert code == 1
    assert out == ""
    assert "line 2" in err and "2**63" in err


def test_sssp_rejects_distances_that_could_reach_the_sentinel(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(f"0 1 {2**61}\n1 2 {2**61}\n")
    code, out, err = run(capsys, "sssp", "-i", str(f), "-s", "0")
    assert code == 1
    assert out == ""
    assert "(n-1)*B = 2*2305843009213693952" in err


def test_heavy_input_survives_preprocess_and_sssp(tmp_path, capsys):
    # (n-1)*L is 2**61 for the input, but its shortcut 0-2 weighs 2**61, so
    # (n-1)*L of the augmented graph is 2**62; the forest bound keeps it.
    src = tmp_path / "g.txt"
    src.write_text(f"0 1 {2**60}\n1 2 {2**60}\n")
    aug = tmp_path / "aug.txt"
    rad = tmp_path / "radii.txt"
    code, _, _ = run(
        capsys, "preprocess", "-i", str(src), "--k", "1", "--rho", "3", "-o", str(aug), "--radii", str(rad)
    )
    assert code == 0
    assert f"0 2 {2**61}" in aug.read_text()
    code, out, _ = run(capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", "0")
    assert code == 0
    assert out == f"0 0\n1 {2**60}\n2 {2**61}\n"


def test_sparse_id_pipeline_keeps_labels(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("10 20 2\n20 30 3\n")
    aug = tmp_path / "aug.txt"
    rad = tmp_path / "radii.txt"
    code, _, _ = run(
        capsys, "preprocess", "-i", str(src), "--rho", "3", "-o", str(aug), "--radii", str(rad)
    )
    assert code == 0
    assert aug.read_text() == "10 20 2\n10 30 5\n20 30 3\n"
    assert rad.read_text() == "10 5\n20 3\n30 5\n"
    # the source and the output rows are the original ids
    code, out, _ = run(capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", "10")
    assert code == 0
    assert out == "10 0\n20 2\n30 5\n"


def test_sssp_source_is_a_label_in_every_file(tmp_path, capsys):
    # Labels first appear in another order in the augmented file than in
    # the generated one; read as a dense id, -s 2 named label 4 in the one
    # and label 2 in the other.
    grid, aug, rad = (tmp_path / name for name in ("grid.txt", "aug.txt", "radii.txt"))
    assert _gen(capsys, tmp_path, grid, kind="grid2d", dims=[4, 3], weights=dict(lo=1, hi=9, seed=1))[0] == 0
    assert run(capsys, "preprocess", "-i", str(grid), "--rho", "4", "-o", str(aug), "--radii", str(rad))[0] == 0
    g = parse_edge_list(grid.read_text())
    assert (g.labels[2], parse_edge_list(aug.read_text()).labels[2]) == (4, 2)
    expected = {str(g.labels[v]): str(d) for v, d in enumerate(dijkstra(g, g.labels.tolist().index(2)).dist.tolist())}
    for argv in (("-i", str(grid)), ("-i", str(aug), "--radii", str(rad))):
        code, out, err = run(capsys, "sssp", *argv, "-s", "2")
        assert code == 0, err
        assert dict(line.split() for line in out.splitlines()) == expected
    for missing in ("12", "-1", str(2**70)):
        code, out, err = run(capsys, "sssp", "-i", str(grid), "-s", missing)
        assert (code, out) == (1, "")
        assert err == f"error: source {missing} is not a vertex label in {grid}\n"


def test_negative_ids_survive_preprocess_sssp_and_validate(tmp_path, capsys):
    # Ids are any int64: the augmented edge list and the radii file carry
    # negative labels, and both read back.
    src, aug, rad = (tmp_path / name for name in ("g.txt", "aug.txt", "radii.txt"))
    src.write_text("-5 7 4\n7 -1 1\n-1 0 6\n-5 0 2\n0 7 9\n")
    code, _, err = run(
        capsys, "preprocess", "-i", str(src), "--k", "1", "--rho", "2", "-o", str(aug), "--radii", str(rad)
    )
    assert code == 0, err
    g = parse_edge_list(src.read_text())
    expected = {str(g.labels[v]): str(d) for v, d in enumerate(dijkstra(g, g.labels.tolist().index(-5)).dist.tolist())}
    code, out, err = run(capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", "-5")
    assert code == 0, err
    assert dict(line.split() for line in out.splitlines()) == expected
    code, out, err = run(capsys, "validate", "-i", str(aug), "--radii", str(rad), "--k", "1", "--rho", "2")
    assert code == 0, err
    code, out, err = run(capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", "3")
    assert (code, out) == (1, "")
    assert err == f"error: source 3 is not a vertex label in {aug}\n"


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"label": "x", "rhos": [1]', "not valid JSON"),
        ('{"rhos": [1], "generator": {"kind": "grid2d", "dims": [3, 3]}}', "'label'"),
        ('{"label": "x", "rhos": [1], "generator": {"kind": "grid2d", "size": 3}}', "'size'"),
        ('{"label": "x", "rhos": 5, "generator": {"kind": "grid2d", "dims": [3, 3]}}', "rhos must be a nonempty list"),
        ('{"label": "x", "rhos": [1, "x"], "generator": {"kind": "grid2d", "dims": [3, 3]}}', "rho must be an integer, got 'x'"),
        ('{"label": "x", "rhos": [1], "ks": [1, "x"], "generator": {"kind": "grid2d", "dims": [3, 3]}}', "k must be an integer, got 'x'"),
    ],
    ids=["not-json", "no-label", "unknown-generator-key", "rhos-not-a-list", "rho-not-an-integer", "k-not-an-integer"],
)
def test_bench_rejects_malformed_config(tmp_path, capsys, text, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "bench", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "bad, line",
    [(b"0 1 5\n1 2 \xc3\xa9\n", 2), (b"\xef\xbb\xbf0 1 5\n", 1), (b"0 1 5\r2 \xc3 1\r", 2)],
    ids=["utf8-byte", "bom", "cr-lines"],
)
def test_input_files_that_are_not_ascii_name_the_file_and_line(tmp_path, capsys, bad, line):
    # Each of these ended in a UnicodeDecodeError traceback.  A lone CR ends
    # a line, as it does for the parser.
    good, radii, f = tmp_path / "g.txt", tmp_path / "r.txt", tmp_path / "bad.txt"
    good.write_text(PATH_TEXT)
    radii.write_text("0 0\n1 0\n2 0\n")
    f.write_bytes(bad)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"label": "x", "rhos": [1], "graph_path": str(f)}))
    runs = [
        ("sssp", "-i", str(f), "-s", "0"),
        ("sssp", "-i", str(good), "--radii", str(f), "-s", "0"),
        ("validate", "-i", str(good), "--radii", str(f), "--k", "1", "--rho", "1"),
        ("preprocess", "-i", str(f), "--rho", "2", "-o", str(tmp_path / "a"), "--radii", str(tmp_path / "r")),
        ("bench", "--config", str(cfg)),
    ]
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith(f"error: {f}: line {line}: byte 0x") and "is not ascii" in err, (argv, err)


def test_cr_and_crlf_line_ends_read_as_newlines(tmp_path, capsys):
    f = tmp_path / "g.txt"
    for text in (b"0 1 2\r1 2 3\r", b"0 1 2\r\n1 2 3\r\n"):
        f.write_bytes(text)
        assert run(capsys, "sssp", "-i", str(f), "-s", "0")[:2] == (0, "0 0\n1 2\n2 5\n")


def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'\xff{"label": "x"}')
    code, out, err = run(capsys, "bench", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}: line 1: byte 0xff is not utf-8\n"


def test_bench_rejects_a_label_that_would_break_the_csv(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(PATH_TEXT)
    cfg = _config(tmp_path, label="a,b", rhos=[1], graph_path=str(src))
    code, out, err = run(capsys, "bench", "--config", cfg)
    assert (code, out) == (1, "")
    assert "label must be a string without a comma" in err


@st.composite
def edge_list_inputs(draw):
    """Edge-list text, either from `gen` on a random spec or drawn directly over
    sparse labels.  Every other drawn edge comes again reversed with another
    weight (parallel edges), and weights come from a narrow range (ties).
    Self-loops are drawn too, so a vertex with only self-loops is isolated."""
    w_hi = draw(st.sampled_from([1, 3, 40]))
    if draw(st.booleans()):
        n = draw(st.integers(2, 30))
        m = draw(st.integers(n - 1, min(3 * n, n * (n - 1) // 2)))
        seed = draw(st.integers(0, 10**6))
        return dict(kind="random", n=n, m=m, seed=seed, weights=dict(lo=1, hi=w_hi, seed=seed))
    labels = draw(st.lists(st.integers(0, 10**9), min_size=2, max_size=25, unique=True))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    edges = draw(st.lists(st.tuples(pairs, st.integers(1, w_hi)), min_size=1, max_size=60))
    edges += [((v, u), w % w_hi + 1) for (u, v), w in edges[::2]]
    return "".join(f"{u} {v} {w}\n" for (u, v), w in edges)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_list_inputs(), st.integers(1, 2), st.sampled_from([1, 2, 5]), st.data())
def test_gen_preprocess_sssp_round_trip_matches_dijkstra(tmp_path, capsys, given_input, k, rho, data):
    src, aug, rad, stats = (tmp_path / name for name in ("g.txt", "aug.txt", "radii.txt", "steps.csv"))
    if isinstance(given_input, dict):
        code, _, _ = _gen(capsys, tmp_path, src, **given_input)
        assert code == 0
    else:
        src.write_text(given_input)
    code, _, _ = run(
        capsys, "preprocess", "-i", str(src), "--k", str(k), "--rho", str(rho),
        "-o", str(aug), "--radii", str(rad),
    )
    assert code == 0
    g = parse_edge_list(src.read_text())
    source_label = data.draw(st.sampled_from(g.labels.tolist()))
    code, out, err = run(
        capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", str(source_label), "--stats", str(stats),
    )
    assert code == 0, err
    oracle = dijkstra(g, g.labels.tolist().index(source_label))
    dists = oracle.dist.tolist()
    expected = {str(g.labels[v]): "inf" if d >= UNREACHED else str(d) for v, d in enumerate(dists)}
    assert dict(line.split() for line in out.splitlines()) == expected
    step_count = int(err.split()[0])
    rows = stats.read_text().splitlines()
    assert rows[0] == "i,d_i,active_count,substeps,settled_prefix"
    assert len(rows) == 1 + step_count
    # The step records are the literal loop's on the files the test wrote.
    aug_g = parse_edge_list(aug.read_text())
    radii = read_radii(rad.read_text(), aug_g)
    s = aug_g.labels.tolist().index(source_label)
    assert stats.read_text() == step_records_csv(radius_step_reference(aug_g, radii, s))


def test_huge_k_and_rho_preprocess_and_bench_as_n(tmp_path, capsys):
    # preprocess --k 2**70 and a bench config with rhos [2**70] exited with
    # an OverflowError traceback; k or rho above n acts as n.
    src, aug, rad = tmp_path / "g.txt", tmp_path / "aug.txt", tmp_path / "radii.txt"
    code, _, _ = _gen(capsys, tmp_path, src, kind="grid2d", dims=[6, 6], weights=dict(lo=1, hi=50, seed=5))
    assert code == 0

    def preprocess_files(k, heuristic):
        argv = ("preprocess", "-i", str(src), "--k", str(k), "--rho", "8", "--heuristic", heuristic)
        code, _, err = run(capsys, *argv, "-o", str(aug), "--radii", str(rad))
        assert code == 0, err
        return aug.read_text(), rad.read_text()

    def bench_rows(field, value):
        cfg = _config(tmp_path, **{"label": "graph", "rhos": [1, 2, 4], "source_count": 4,
                                   "graph_path": str(src), field: [value]})
        code, out, err = run(capsys, "bench", "--config", cfg)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()]
        col = rows[0].index(field[:-1])  # the column that holds the value itself
        return [row[:col] + row[col + 1 :] for row in rows]

    for huge in (2**62, 2**70):
        for heuristic in ("dp", "greedy"):
            assert preprocess_files(huge, heuristic) == preprocess_files(36, heuristic)
        assert bench_rows("rhos", huge) == bench_rows("rhos", 36)
        assert bench_rows("ks", huge) == bench_rows("ks", 36)


def test_validate_stops_once_a_round_lowers_nothing(tmp_path, capsys, monkeypatch):
    # validate --k 2000 made 2,001 relaxation rounds on a 3-vertex path.  A
    # round after one that lowers nothing cannot lower a pair either.
    src, rad = tmp_path / "g.txt", tmp_path / "radii.txt"
    src.write_text(PATH_TEXT)
    rad.write_text("0 5\n1 0\n2 5\n")  # |B(1, 0)| = 1 is below rho = 3
    calls = []
    real = preprocess._hop_round
    monkeypatch.setattr(preprocess, "_hop_round", lambda *args: calls.append(1) or real(*args))
    outputs = []
    for k in (2000, 3, 2**70):
        calls.clear()
        outputs.append(run(capsys, "validate", "-i", str(src), "--radii", str(rad), "--k", str(k), "--rho", "3"))
        assert 1 <= len(calls) <= 4, (k, len(calls))
    assert outputs[0][0] == 1 and "vertex 1: |B(v,0)|=1 below 3" in outputs[0][2]
    assert outputs == [outputs[0]] * 3


def test_validate_prints_one_line_on_success(tmp_path, capsys):
    src, aug, rad = tmp_path / "g.txt", tmp_path / "aug.txt", tmp_path / "radii.txt"
    assert _gen(capsys, tmp_path, src, kind="grid2d", dims=[8, 8], weights=dict(lo=1, hi=50, seed=4))[0] == 0
    argv = ("preprocess", "-i", str(src), "--k", "2", "--rho", "6", "-o", str(aug), "--radii", str(rad))
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, "validate", "-i", str(aug), "--radii", str(rad), "--k", "2", "--rho", "6")
    assert (code, out, err) == (0, "ok: 64 vertices satisfy the (2,6) ball property\n", "")


def _output_holds_no_data(path):
    return not path.exists() or path.stat().st_size == 0


@pytest.mark.parametrize("command", ["gen", "preprocess-output", "preprocess-radii", "sssp", "bench"])
def test_an_output_path_that_cannot_be_opened_leaves_no_output(tmp_path, capsys, command):
    # sssp printed every distance and then failed on --stats, and preprocess
    # wrote -o before it failed on --radii: each exited 1 with output behind.
    src, aug, rad, stats = (tmp_path / name for name in ("g.txt", "aug.txt", "radii.txt", "steps.csv"))
    missing = str(tmp_path / "missing" / "out.txt")
    assert _gen(capsys, tmp_path, src, kind="grid2d", dims=[5, 5], weights=dict(lo=1, hi=9, seed=3))[0] == 0
    argv = {  # _config writes one file, so only the command run makes its config
        "gen": lambda: ("gen", "--config", _config(tmp_path, kind="grid2d", dims=[3, 3]), "-o", missing),
        "preprocess-output": lambda: ("preprocess", "-i", str(src), "--rho", "4", "-o", missing, "--radii", str(rad)),
        "preprocess-radii": lambda: ("preprocess", "-i", str(src), "--rho", "4", "-o", str(aug), "--radii", missing),
        "sssp": lambda: ("sssp", "-i", str(src), "-s", "0", "--stats", missing),
        "bench": lambda: ("bench", "--config", _config(tmp_path, label="g", rhos=[1, 2], graph_path=str(src)),
                          "-o", missing),
    }[command]()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: [Errno 2]") and missing in err
    assert all(map(_output_holds_no_data, (aug, rad, stats)))


def test_outputs_sent_to_one_place_come_in_order(tmp_path, capsys):
    # sssp --stats - prints the distances, then the step CSV; preprocess
    # with -o and --radii naming one file writes the edge list, then the radii.
    src, aug, rad, stats, both = (tmp_path / name for name in ("g.txt", "aug.txt", "radii.txt", "steps.csv", "both.txt"))
    assert _gen(capsys, tmp_path, src, kind="grid2d", dims=[5, 5], weights=dict(lo=1, hi=9, seed=3))[0] == 0
    code, dist, _ = run(capsys, "sssp", "-i", str(src), "-s", "0", "--stats", str(stats))
    assert code == 0
    assert run(capsys, "sssp", "-i", str(src), "-s", "0", "--stats", "-")[:2] == (0, dist + stats.read_text())
    for out, radii in ((aug, rad), (both, both)):
        assert run(capsys, "preprocess", "-i", str(src), "--rho", "4", "-o", str(out), "--radii", str(radii))[0] == 0
    assert both.read_text() == aug.read_text() + rad.read_text()


# The one-ball API and the unit-weight engine wrapper, kept for the tests.
ONE_BALL_API = (
    preprocess.compute_ball,
    preprocess.min_hop_ball_tree,
    preprocess.shortcut_dp,
    preprocess.ball_arrays,
    radius_step_unweighted,
)


@pytest.mark.parametrize(
    "spec",
    [dict(kind="grid2d", dims=[6, 6], weights=dict(lo=1, hi=50, seed=5)), dict(kind="adversarial", ladder=6)],
    ids=["weighted-grid", "unit-ladder"],
)
def test_no_command_calls_the_one_ball_api(tmp_path, capsys, monkeypatch, spec):
    # Every name a module of the package holds one of these functions under
    # raises, so no command may reach them by any import.
    def refuse(*args, **kwargs):
        raise RuntimeError("a command called the one-ball API")

    patched = set()
    for key, module in list(sys.modules.items()):
        if key.partition(".")[0] != "radius_stepping":
            continue
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in ONE_BALL_API):
                monkeypatch.setattr(module, name, refuse)
                patched.add((key, name))
    assert {(f"radius_stepping.{fn.__module__.rpartition('.')[2]}", fn.__name__) for fn in ONE_BALL_API} <= patched
    src, aug, rad = tmp_path / "g.txt", tmp_path / "aug.txt", tmp_path / "radii.txt"
    assert _gen(capsys, tmp_path, src, **spec)[0] == 0
    cfg = _config(tmp_path, label="g", rhos=[1, 5], ks=[1, 2], heuristics=["dp", "greedy"], source_count=3,
                  graph_path=str(src))
    for argv in (
        ("preprocess", "-i", str(src), "--k", "2", "--rho", "5", "-o", str(aug), "--radii", str(rad)),
        ("preprocess", "-i", str(src), "--k", "1", "--rho", "5", "--heuristic", "greedy", "--strict",
         "-o", str(aug), "--radii", str(rad)),
        ("sssp", "-i", str(aug), "--radii", str(rad), "-s", "0"),
        ("sssp", "-i", str(src), "--radii", str(rad), "-s", "0"),
        ("validate", "-i", str(aug), "--radii", str(rad), "--k", "1", "--rho", "5"),
        ("bench", "--config", cfg),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
