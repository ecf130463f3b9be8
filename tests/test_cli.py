import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import radius_stepping.preprocess as preprocess
from radius_stepping import UNREACHED, dijkstra, parse_edge_list
from radius_stepping.cli import main

PATH_TEXT = "0 1 2\n1 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sssp_prints_oracle_distances(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(PATH_TEXT)
    code, out, _ = run(capsys, "sssp", "-i", str(f), "-s", "0", "--rho", "1")
    assert code == 0
    assert out == "0 0\n1 2\n2 5\n"


def test_sssp_unreachable_prints_inf(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("0 1 2\n2 3 1\n")
    code, out, _ = run(capsys, "sssp", "-i", str(f), "-s", "0", "--engine", "ref")
    assert code == 0
    assert out.splitlines()[2] == "2 inf"


def test_gen_grid3d_and_adversarial(tmp_path, capsys):
    f3 = tmp_path / "g3.txt"
    code, _, err = run(capsys, "gen", "--kind", "grid3d", "--x", "2", "--y", "2", "--z", "2", "-o", str(f3))
    assert code == 0 and "n=8" in err
    fa = tmp_path / "adv.txt"
    code, _, err = run(capsys, "gen", "--kind", "adversarial", "--d", "3", "-o", str(fa))
    assert code == 0 and "n=10" in err
    fw = tmp_path / "gw.txt"
    code, _, _ = run(capsys, "gen", "--kind", "grid2d", "--w", "2", "--h", "2",
                     "--weights", "5:9", "--seed", "1", "-o", str(fw))
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


def test_gen_missing_dims_is_domain_error(capsys):
    code, _, err = run(capsys, "gen", "--kind", "grid2d", "--w", "3")
    assert code == 1 and "grid2d" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "--kind", "grid2d", "--w", "2", "--h", "2", "--weights", "5"), "--weights expects lo:hi, got '5'"),
        (("gen", "--kind", "grid3d", "--x", "2", "--y", "2"), "grid3d needs --x, --y and --z"),
        (("gen", "--kind", "adversarial"), "adversarial needs --d"),
        (("gen", "--kind", "random", "--m", "5"), "random needs --n and --m"),
        (("bench", "--config", "X", "--input", "Y"), "--config and --input are mutually exclusive"),
        (("bench",), "bench needs --config or --input"),
    ],
)
def test_missing_or_clashing_flags_are_domain_errors(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_gen_then_sssp_roundtrip(tmp_path, capsys):
    f = tmp_path / "grid.txt"
    code, _, _ = run(capsys, "gen", "--kind", "grid2d", "--w", "3", "--h", "3", "-o", str(f))
    assert code == 0
    code, out, _ = run(capsys, "sssp", "-i", str(f), "-s", "0", "--engine", "unweighted")
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


def test_bench_flags_csv(tmp_path, capsys):
    src = tmp_path / "g.txt"
    code, _, _ = run(
        capsys, "gen", "--kind", "random", "--n", "25", "--m", "50",
        "--weights", "1:100", "--seed", "3", "-o", str(src),
    )
    assert code == 0
    out_csv = tmp_path / "rows.csv"
    code, _, err = run(
        capsys, "bench", "-i", str(src), "--rhos", "1,2", "--sources", "3", "-o", str(out_csv)
    )
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


def test_unweighted_engine_on_weighted_input_fails(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(PATH_TEXT)
    code, _, err = run(capsys, "sssp", "-i", str(f), "-s", "0", "--engine", "unweighted", "--radii", _radii(tmp_path))
    assert code == 1
    assert "error:" in err


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
    gen = ("gen", "--kind", "grid2d", "--w", "4", "--h", "3", "--weights", "1:9", "--seed", "1")
    assert run(capsys, *gen, "-o", str(grid))[0] == 0
    assert run(capsys, "preprocess", "-i", str(grid), "--rho", "4", "-o", str(aug), "--radii", str(rad))[0] == 0
    g = parse_edge_list(grid.read_text())
    assert (g.labels[2], parse_edge_list(aug.read_text()).labels[2]) == (4, 2)
    expected = {str(g.labels[v]): str(d) for v, d in enumerate(dijkstra(g, g.labels.tolist().index(2)).dist.tolist())}
    for argv in (("-i", str(grid), "--rho", "1"), ("-i", str(aug), "--radii", str(rad))):
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
    "argv, field",
    [
        (["--rhos", "1,x"], "--rhos"),
        (["--ks", "1,x"], "--ks"),
    ],
)
def test_bench_rejects_non_integer_list_flags(tmp_path, capsys, argv, field):
    src = tmp_path / "g.txt"
    src.write_text(PATH_TEXT)
    code, out, err = run(capsys, "bench", "-i", str(src), *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"label": "x", "rhos": [1]', "not valid JSON"),
        ('{"rhos": [1], "generator": {"kind": "grid2d", "dims": [3, 3]}}', "'label'"),
        ('{"label": "x", "rhos": [1], "generator": {"kind": "grid2d", "size": 3}}', "'size'"),
        ('{"label": "x", "rhos": 5, "generator": {"kind": "grid2d", "dims": [3, 3]}}', "'rhos'"),
    ],
    ids=["not-json", "no-label", "unknown-generator-key", "rhos-not-a-list"],
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
        ("bench", "-i", str(f)),
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
        assert run(capsys, "sssp", "-i", str(f), "-s", "0", "--rho", "1")[:2] == (0, "0 0\n1 2\n2 5\n")


def test_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'\xff{"label": "x"}')
    code, out, err = run(capsys, "bench", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}: line 1: byte 0xff is not utf-8\n"


def test_bench_rejects_a_label_that_would_break_the_csv(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(PATH_TEXT)
    code, out, err = run(capsys, "bench", "-i", str(src), "--label", "a,b")
    assert (code, out) == (1, "")
    assert "label must be a string without a comma" in err


@st.composite
def edge_list_inputs(draw):
    """Edge-list text, either from `gen --kind random` or drawn directly over
    sparse labels.  Every other drawn edge comes again reversed with another
    weight (parallel edges), and weights come from a narrow range (ties).
    Self-loops are drawn too, so a vertex with only self-loops is isolated."""
    w_hi = draw(st.sampled_from([1, 3, 40]))
    if draw(st.booleans()):
        n = draw(st.integers(2, 30))
        m = draw(st.integers(n - 1, min(3 * n, n * (n - 1) // 2)))
        seed = draw(st.integers(0, 10**6))
        return ["--kind", "random", "--n", str(n), "--m", str(m), "--weights", f"1:{w_hi}",
                "--seed", str(seed)]
    labels = draw(st.lists(st.integers(0, 10**9), min_size=2, max_size=25, unique=True))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    edges = draw(st.lists(st.tuples(pairs, st.integers(1, w_hi)), min_size=1, max_size=60))
    edges += [((v, u), w % w_hi + 1) for (u, v), w in edges[::2]]
    return "".join(f"{u} {v} {w}\n" for (u, v), w in edges)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edge_list_inputs(), st.integers(1, 2), st.sampled_from([1, 2, 5]), st.sampled_from(["fast", "ref"]), st.data()
)
def test_gen_preprocess_sssp_round_trip_matches_dijkstra(tmp_path, capsys, given_input, k, rho, engine, data):
    src, aug, rad, stats = (tmp_path / name for name in ("g.txt", "aug.txt", "radii.txt", "steps.csv"))
    if isinstance(given_input, list):
        code, _, _ = run(capsys, "gen", *given_input, "-o", str(src))
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
        capsys, "sssp", "-i", str(aug), "--radii", str(rad), "-s", str(source_label),
        "--engine", engine, "--stats", str(stats),
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


def test_huge_k_and_rho_preprocess_and_bench_as_n(tmp_path, capsys):
    # preprocess --k 2**70 and bench --rhos 2**70 exited with an
    # OverflowError traceback; k or rho above n acts as n.
    src, aug, rad = tmp_path / "g.txt", tmp_path / "aug.txt", tmp_path / "radii.txt"
    code, _, _ = run(capsys, "gen", "--kind", "grid2d", "--w", "6", "--h", "6", "--weights", "1:50", "--seed", "5", "-o", str(src))
    assert code == 0

    def preprocess_files(k, heuristic):
        argv = ("preprocess", "-i", str(src), "--k", str(k), "--rho", "8", "--heuristic", heuristic)
        code, _, err = run(capsys, *argv, "-o", str(aug), "--radii", str(rad))
        assert code == 0, err
        return aug.read_text(), rad.read_text()

    def bench_rows(flag, value):
        code, out, err = run(capsys, "bench", "-i", str(src), flag, str(value), "--sources", "4")
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()]
        col = rows[0].index(flag[2:-1])  # the column that holds the value itself
        return [row[:col] + row[col + 1 :] for row in rows]

    for huge in (2**62, 2**70):
        for heuristic in ("dp", "greedy"):
            assert preprocess_files(huge, heuristic) == preprocess_files(36, heuristic)
        assert bench_rows("--rhos", huge) == bench_rows("--rhos", 36)
        assert bench_rows("--ks", huge) == bench_rows("--ks", 36)


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
