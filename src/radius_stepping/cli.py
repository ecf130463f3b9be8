"""Command-line front end: gen, preprocess, sssp, bench, validate.

Data goes to stdout (or -o files); diagnostics go to stderr.  Exit codes:
0 success, 1 domain error (bad input, failed validation), 2 usage error.
"""
from __future__ import annotations

import argparse
import sys

from .bench import ExperimentConfig, config_from_json, emit_csv, emit_summary, run_experiment
from .engine import radius_step_fast, radius_step_reference, radius_step_unweighted, step_records_csv
from .generate import GeneratorSpec, WeightSpec, generate
from .graph import Graph, GraphError, _read_text, _render_labeled, parse_edge_list, write_edge_list
from .preprocess import (
    RadiusAssignment,
    build_k_rho,
    parse_radii,
    radii_for_graph,
    validate_k_rho,
    write_radii,
)


def _read_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _read_radii(path: str, g: Graph) -> RadiusAssignment:
    return RadiusAssignment(r=radii_for_graph(parse_radii(_read_text(path)), g))


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_weights(arg: str | None, seed: int) -> WeightSpec | None:
    if arg is None:
        return None
    try:
        lo, hi = (int(part) for part in arg.split(":"))
    except ValueError:
        raise GraphError(f"--weights expects lo:hi, got {arg!r}") from None
    return WeightSpec(lo=lo, hi=hi, seed=seed)


def _int_list(flag: str, arg: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in arg.split(","))
    except ValueError:
        raise GraphError(f"{flag} expects comma-separated integers, got {arg!r}") from None


def _gen_spec(args: argparse.Namespace) -> GeneratorSpec:
    weights = _parse_weights(args.weights, args.seed)
    if args.kind == "grid2d":
        if args.w is None or args.h is None:
            raise GraphError("grid2d needs --w and --h")
        return GeneratorSpec(kind="grid2d", dims=(args.w, args.h), weights=weights)
    if args.kind == "grid3d":
        if None in (args.x, args.y, args.z):
            raise GraphError("grid3d needs --x, --y and --z")
        return GeneratorSpec(kind="grid3d", dims=(args.x, args.y, args.z), weights=weights)
    if args.kind == "adversarial":
        if args.d is None:
            raise GraphError("adversarial needs --d")
        return GeneratorSpec(kind="adversarial", ladder=args.d, weights=weights)
    if args.n is None or args.m is None:
        raise GraphError("random needs --n and --m")
    return GeneratorSpec(kind="random", n=args.n, m=args.m, seed=args.seed, weights=weights)


def _cmd_gen(args: argparse.Namespace) -> int:
    g = generate(_gen_spec(args))
    _write_out(args.output, write_edge_list(g))
    print(f"generated {args.kind}: n={g.n} m={g.m} L={g.max_weight}", file=sys.stderr)
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    aug, radii, added = build_k_rho(
        g, args.k, args.rho, heuristic=args.heuristic, tie_inclusive=not args.strict
    )
    _write_out(args.output, write_edge_list(aug))
    _write_out(args.radii, write_radii(radii, labels=g.labels))
    print(
        f"augmented with {added} edges ({added / g.m:.3f}x of m={g.m})" if g.m else "no edges",
        file=sys.stderr,
    )
    return 0


def _cmd_sssp(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    (hit,) = (g.labels == args.source).nonzero()
    if not len(hit):
        raise GraphError(f"source {args.source} is not a vertex label in {args.input}")
    source = int(hit[0])
    if args.radii is not None:
        radii = _read_radii(args.radii, g)
    else:
        aug, radii, _ = build_k_rho(g, 1, args.rho, heuristic="dp")
        if args.engine != "unweighted":
            # The unweighted engine keeps the original unit-weight graph;
            # the others run on the graph the radii were built for.
            g = aug
    engine = {
        "ref": radius_step_reference,
        "fast": radius_step_fast,
        "unweighted": radius_step_unweighted,
    }[args.engine]
    res = engine(g, radii, source)
    sys.stdout.write(_render_labeled(g.labels, res.dist.dist))
    if args.stats is not None:
        _write_out(args.stats, step_records_csv(res))
    print(f"{res.step_count} steps, {res.total_substeps()} substeps", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.config is not None and args.input is not None:
        raise GraphError("--config and --input are mutually exclusive")
    if args.config is not None:
        cfg = config_from_json(_read_text(args.config, "utf-8"))
    else:
        if args.input is None:
            raise GraphError("bench needs --config or --input")
        cfg = ExperimentConfig(
            label=args.label,
            rhos=_int_list("--rhos", args.rhos),
            ks=_int_list("--ks", args.ks),
            heuristics=tuple(args.heuristics.split(",")),
            source_count=args.sources,
            seed=args.seed,
            graph_path=args.input,
        )
    rows = run_experiment(cfg)
    _write_out(args.output, emit_csv(rows))
    print(emit_summary(rows), file=sys.stderr, end="")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    report = validate_k_rho(g, _read_radii(args.radii, g), args.k, args.rho)
    if report.ok:
        print(f"ok: {report.checked} vertices satisfy the ({args.k},{args.rho}) ball property")
        return 0
    for line in report.violations:
        print(line, file=sys.stderr)
    print(f"{len(report.violations)} violations", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="radius-stepping")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph and write its edge list")
    g.add_argument("--kind", required=True, choices=["grid2d", "grid3d", "adversarial", "random"])
    g.add_argument("--w", type=int)
    g.add_argument("--h", type=int)
    g.add_argument("--x", type=int)
    g.add_argument("--y", type=int)
    g.add_argument("--z", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--weights", help="lo:hi uniform random integer weights")
    g.add_argument("--seed", type=int, default=0)
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

    ss = sub.add_parser("sssp", help="single-source shortest paths")
    ss.add_argument("-i", "--input", required=True)
    ss.add_argument("--radii")
    ss.add_argument("--rho", type=int, default=1, help="build radii on the fly when no file given")
    ss.add_argument("-s", "--source", type=int, required=True, help="source vertex label, as in the input file")
    ss.add_argument("--engine", choices=["ref", "fast", "unweighted"], default="fast")
    ss.add_argument("--stats", help="write per-step CSV here")
    ss.set_defaults(func=_cmd_sssp)

    b = sub.add_parser("bench", help="run a (k, rho) sweep and emit CSV")
    b.add_argument("--config", help="JSON experiment config")
    b.add_argument("-i", "--input", help="edge-list file (flag-style config)")
    b.add_argument("--label", default="graph")
    b.add_argument("--rhos", default="1,2,4")
    b.add_argument("--ks", default="1")
    b.add_argument("--heuristics", default="dp")
    b.add_argument("--sources", type=int, default=20)
    b.add_argument("--seed", type=int, default=0)
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


def console_entry() -> None:
    raise SystemExit(main())
