"""SSSP benchmark: set-up cost, per-query latency and a traced per-layer split.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload grid2d-w --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one after another

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(and writes the spans to .perfbench-out/).  Human-readable lines come
first: the run record (machine, seed, counts, generation and oracle time,
output digest, raw wall times) and each metric with its unit and sample
count.  Reported times are scaled to a reference machine speed (see
speed.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only
when every query matched dijkstra and passed the bound check.

Helper tests: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORKLOAD_NAMES = ("grid2d-w", "random-w-rho1", "ladder-u")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0, help="query time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, one at a time, so that peak
    memory is per workload; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "radius_stepping" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}.jsonl"
        rep = measure.traced(wl, args.seed, args.seconds, str(trace_path))
        rep.record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        rep = measure.end_to_end(wl, args.seed, args.seconds)

    if "digest" in rep.record:
        recorded = json.loads(DIGESTS.read_text()).get(wl.name, {}).get(str(args.seed))
        if recorded is None:
            verdict = "no digest recorded for this seed"
        else:
            verdict = "same" if recorded == rep.record["digest"] else f"DIFFERS from {recorded}"
        rep.record["digest_vs_recorded"] = verdict

    print(f"== {wl.name} (seed {args.seed}, trace {args.trace})")
    for key, value in rep.record.items():
        print(f"  {key:<28} {value}")
    print(f"  {measure.PREMISE_NOTE}")
    for name, m in rep.metrics.items():
        print(f"  {name:<36} {m.value:>14.6g} {m.unit:<6} (n={m.samples})")
    for problem in rep.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": rep.correct,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in rep.metrics.items()},
    }))
    return 0 if rep.correct else 1


if __name__ == "__main__":
    sys.exit(main())
