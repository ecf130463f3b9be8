"""Command-line front end: gen, preprocess, sssp, bench, validate.

gen and bench each read one JSON file through --config: a GeneratorSpec and
an ExperimentConfig, parsed by bench's loader.  Data goes to stdout (or -o
files); diagnostics go to stderr.  Exit codes: 0 success, 1 domain error
(bad input, failed validation), 2 usage error.  A run that exits 1 writes
no data (see _write_out).
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .bench import config_from_json, emit_csv, emit_summary, generator_from_json, run_experiment
from .engine import radius_step_fast, step_records_csv
from .generate import generate
from .graph import GraphError, _read_text, _render_labeled, parse_edge_list, write_edge_list
from .preprocess import RadiusAssignment, build_k_rho, read_radii, validate_k_rho, write_radii


def _write_out(*outputs: tuple[str | None, str]) -> None:
    """Each (path, text) pair's text in order to path (stdout for None or "-"),
    every file opened before any text is written.  A file named twice takes
    both texts in order, however it is spelled (x and ./x, a symlink, a hard
    link): a handle whose (st_dev, st_ino) is open already is closed, and
    its text goes through the first."""
    with contextlib.ExitStack() as stack:
        files = {None: sys.stdout, "-": sys.stdout}
        opened = {}
        for path, _ in outputs:
            if path not in files:
                f = stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
                st = os.fstat(f.fileno())
                files[path] = opened.setdefault((st.st_dev, st.st_ino), f)
                if files[path] is not f:
                    f.close()
        for path, text in outputs:
            files[path].write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = generator_from_json(_read_text(args.config, "utf-8"))
    g = generate(spec)
    _write_out((args.output, write_edge_list(g)))
    print(f"generated {spec.kind}: n={g.n} m={g.m} L={g.max_weight}", file=sys.stderr)
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    g = parse_edge_list(_read_text(args.input))
    aug, radii, added = build_k_rho(
        g, args.k, args.rho, heuristic=args.heuristic, tie_inclusive=not args.strict
    )
    _write_out((args.output, write_edge_list(aug)), (args.radii, write_radii(radii, labels=g.labels)))
    print(
        f"augmented with {added} edges ({added / g.m:.3f}x of m={g.m})" if g.m else "no edges",
        file=sys.stderr,
    )
    return 0


def _cmd_sssp(args: argparse.Namespace) -> int:
    g = parse_edge_list(_read_text(args.input))
    (hit,) = (g.labels == args.source).nonzero()
    if not len(hit):
        raise GraphError(f"source {args.source} is not a vertex label in {args.input}")
    radii = RadiusAssignment.uniform(g.n, 0) if args.radii is None else read_radii(_read_text(args.radii), g)
    res = radius_step_fast(g, radii, int(hit[0]))
    stats = [] if args.stats is None else [(args.stats, step_records_csv(res))]
    _write_out((None, _render_labeled(g.labels, res.dist.dist)), *stats)
    print(f"{res.step_count} steps, {res.total_substeps()} substeps", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = run_experiment(config_from_json(_read_text(args.config, "utf-8")))
    _write_out((args.output, emit_csv(rows)))
    print(emit_summary(rows), file=sys.stderr, end="")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    g = parse_edge_list(_read_text(args.input))
    report = validate_k_rho(g, read_radii(_read_text(args.radii), g), args.k, args.rho)
    if report.ok:
        print(f"ok: {g.n} vertices satisfy the ({args.k},{args.rho}) ball property")
        return 0
    for line in report.violations:
        print(line, file=sys.stderr)
    print(f"{len(report.violations)} violations", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="radius-stepping")
    sub = p.add_subparsers(dest="command", required=True)

    # No abbreviations: `--h 30` would be read as --help, print the help and exit 0.
    g = sub.add_parser("gen", help="generate a graph and write its edge list", allow_abbrev=False)
    g.add_argument("--config", required=True, help="JSON GeneratorSpec")
    g.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)

    pp = sub.add_parser("preprocess", help="add shortcut edges and emit radii")
    pp.add_argument("-i", "--input", required=True)
    pp.add_argument("--k", type=int, default=1)
    pp.add_argument("--rho", type=int, required=True)
    pp.add_argument("--heuristic", choices=["dp", "greedy"], default="dp")
    pp.add_argument("--strict", action="store_true", help="keep exactly rho ball members")
    pp.add_argument("-o", "--output", required=True)
    pp.add_argument("--radii", required=True)
    pp.set_defaults(func=_cmd_preprocess)

    ss = sub.add_parser("sssp", help="shortest paths from one source, on the graph and radii given")
    ss.add_argument("-i", "--input", required=True)
    ss.add_argument("--radii", help="radii file, as preprocess writes it (default: every radius 0)")
    ss.add_argument("-s", "--source", type=int, required=True, help="source vertex label, as in the input file")
    ss.add_argument("--stats", help="write per-step CSV here")
    ss.set_defaults(func=_cmd_sssp)

    b = sub.add_parser("bench", help="run a (k, rho) sweep and emit CSV")
    b.add_argument("--config", required=True, help="JSON experiment config")
    b.add_argument("-o", "--output")
    b.set_defaults(func=_cmd_bench)

    v = sub.add_parser("validate", help="check the (k, rho) ball property")
    v.add_argument("-i", "--input", required=True)
    v.add_argument("--radii", required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--rho", type=int, required=True)
    v.set_defaults(func=_cmd_validate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
