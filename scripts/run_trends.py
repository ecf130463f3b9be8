#!/usr/bin/env python3
"""Desk-scale step-count and added-edge sweeps.

Runs the benchmark harness over the three synthetic families (2D grid, 3D
grid, random) in both unweighted and weighted settings, writes one CSV per
experiment to --out-dir, and prints aligned summaries.  The weighted
setting assigns each edge a uniform random integer in [1, 10000].  Graphs,
weights and source samples all come from the fixed seed SEED (42).

Examples:
    python scripts/run_trends.py --out-dir results
    python scripts/run_trends.py --scale large --sources 50
"""
import argparse
import sys
import time
from pathlib import Path

from radius_stepping import (
    ExperimentConfig,
    GeneratorSpec,
    WeightSpec,
    emit_csv,
    emit_summary,
    run_experiment,
)

SEED = 42  # the generator and source-sample seed of every sweep

SCALES = {
    # (grid2d dims, grid3d dims, random (n, m), rho sweep)
    "small": ((40, 40), (12, 12, 11), (1600, 4800), (1, 2, 5, 10, 20)),
    "medium": ((100, 100), (22, 22, 21), (10000, 30000), (1, 2, 5, 10, 20, 50)),
    "large": ((200, 200), (35, 35, 33), (40000, 120000), (1, 2, 5, 10, 20, 50, 100)),
}


def geometry(scale, weighted, seed):
    d2, d3, (rn, rm), rhos = SCALES[scale]
    w = WeightSpec(1, 10_000, seed=seed) if weighted else None
    tag = "w" if weighted else "u"
    yield f"grid2d-{tag}", GeneratorSpec(kind="grid2d", dims=d2, weights=w), rhos
    yield f"grid3d-{tag}", GeneratorSpec(kind="grid3d", dims=d3, weights=w), rhos
    yield f"random-{tag}", GeneratorSpec(kind="random", n=rn, m=rm, seed=seed, weights=w), rhos


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scale", choices=sorted(SCALES), default="medium")
    ap.add_argument("--sources", type=int, default=20)
    ap.add_argument("--ks", default="1", help="comma-separated k sweep for the added-edge table")
    ap.add_argument("--heuristics", default="dp", help="comma-separated: dp, greedy")
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args(argv)

    # Every sweep is built and validated before anything runs or is written.
    try:
        ks = tuple(int(k) for k in args.ks.split(","))
        configs = [
            ExperimentConfig(
                label=label,
                rhos=rhos,
                ks=ks,
                heuristics=tuple(args.heuristics.split(",")),
                source_count=args.sources,
                seed=SEED,
                generator=gen,
            )
            for weighted in (False, True)
            for label, gen, rhos in geometry(args.scale, weighted, SEED)
        ]
        for cfg in configs:
            cfg.validate()
    except ValueError as exc:  # int()'s, or validate()'s GraphError
        ap.error(str(exc))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for cfg in configs:
        t0 = time.perf_counter()
        rows = run_experiment(cfg)
        path = out_dir / f"{cfg.label}.csv"
        path.write_text(emit_csv(rows), encoding="utf-8")
        print(f"# {cfg.label} ({time.perf_counter() - t0:.1f}s) -> {path}", file=sys.stderr)
        print(emit_summary(rows), end="")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
