"""Experiment harness: sweep (k, rho, heuristic) over a graph, aggregate
step counts from a shared sample of sources, and emit CSV.

Every run is one radius_step_fast call.  A weighted graph runs on its
augmented graph, checked with the cell's k.  A unit-weight graph runs on
the original graph with no k, which is all radius_step_unweighted does;
its radii come from the same ball construction, and the rho=1 baseline
then degenerates to plain BFS rounds.  Added-edge factors are reported
for both.  Every cell's augmentation must pass validate_k_rho, at any graph
size; every run must pass check_bounds and match dijkstra from its source
on the original graph; a failure raises BenchError.  Everything is
deterministic in the config seed: equal configs produce byte-identical
CSV.
"""
from __future__ import annotations

import json
import random
from dataclasses import MISSING, astuple, dataclass, fields

from .baselines import dijkstra
from .engine import check_bounds, radius_step_fast
from .generate import GeneratorSpec, WeightSpec, generate
from .graph import DistanceVector, Graph, GraphError, _check_count, _check_seed, _read_text, parse_edge_list
from .preprocess import build_k_rho, validate_k_rho

class BenchError(RuntimeError):
    """A harness-level failure: validation, bound check or distance check did not pass."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark: a graph, the (k, rho, heuristic) grid, and sampling."""

    label: str
    rhos: tuple[int, ...]
    ks: tuple[int, ...] = (1,)
    heuristics: tuple[str, ...] = ("dp",)
    source_count: int = 20
    seed: int = 0
    graph_path: str | None = None
    generator: GeneratorSpec | None = None

    def validate(self) -> None:
        if (self.graph_path is None) == (self.generator is None):
            raise GraphError("config needs exactly one of graph_path or generator")
        # Types first: open() takes an int as a file descriptor.
        if not isinstance(self.graph_path, (str, type(None))):
            raise GraphError(f"graph_path must be a string, got {self.graph_path!r}")
        if not isinstance(self.generator, (GeneratorSpec, type(None))):
            raise GraphError(f"generator must be a GeneratorSpec, got {self.generator!r}")
        for name, counts in (("rho", self.rhos), ("k", self.ks)):
            if not isinstance(counts, (list, tuple)) or not counts:
                raise GraphError(f"{name}s must be a nonempty list of positive counts")
            for count in counts:
                _check_count(name, count)
        listed = isinstance(self.heuristics, (list, tuple)) and self.heuristics
        if not listed or any(h not in ("dp", "greedy") for h in self.heuristics):
            raise GraphError("heuristics must come from {dp, greedy}")
        _check_count("source_count", self.source_count)
        _check_seed(self.seed)
        _check_label(self.label)
        if self.generator is not None:
            self.generator.validate()


def _check_label(label: str) -> None:
    """A label goes into CSV rows as it is: no comma, double quote, CR or LF."""
    if not isinstance(label, str) or not set(label).isdisjoint(',"\r\n'):
        raise GraphError(f"label must be a string without a comma, double quote, CR or LF, got {label!r}")


def _spec(cls: type, raw: object, path: str, **given: object) -> object:
    """cls built from the JSON object `raw` at `path`, its fields unchecked.

    Keys must name fields of cls and every required field must be present;
    a null value stands for the field's default and a list becomes a tuple.
    Fields in `given` are taken as they are.  A breach of these rules raises
    GraphError naming the JSON path; the values are judged by validate().
    """
    where = f"config field {path!r}" if path else "config"
    if not isinstance(raw, dict):
        raise GraphError(f"{where} must be a JSON object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise GraphError(f"{where} has unknown field {unknown[0]!r}")
    args = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        value = raw.get(f.name)
        if value is None:
            if f.default is MISSING:
                name = f"{path}.{f.name}" if path else f.name
                raise GraphError(f"config field {name!r} is required")
            continue
        args[f.name] = tuple(value) if isinstance(value, list) else value
    return cls(**args)


def _decode(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"config is not valid JSON: {exc}") from None


def _generator(raw: object, path: str) -> GeneratorSpec:
    """_spec's GeneratorSpec from `raw` at `path`, its weights object a
    WeightSpec; null weights mean unweighted."""
    wraw = raw.get("weights") if isinstance(raw, dict) else None
    weights = None if wraw is None else _spec(WeightSpec, wraw, f"{path}.weights".lstrip("."))
    return _spec(GeneratorSpec, raw, path, weights=weights)


def generator_from_json(text: str) -> GeneratorSpec:
    """Parse a JSON GeneratorSpec, the object a config holds under
    "generator", and validate() it; a malformed one raises GraphError."""
    spec = _generator(_decode(text), "")
    spec.validate()
    return spec


def config_from_json(text: str) -> ExperimentConfig:
    """Parse a JSON experiment config and validate() it; a malformed one raises GraphError."""
    raw = _decode(text)
    graw = raw.get("generator") if isinstance(raw, dict) else None
    cfg = _spec(ExperimentConfig, raw, "", generator=None if graw is None else _generator(graw, "generator"))
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class ExperimentRow:
    graph: str
    n: int
    m: int
    k: int
    rho: int
    heuristic: str
    added_edge_factor: float
    mean_steps: float
    mean_substeps: float
    reduction_factor: float


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRow))


def _run_cell(g: Graph, k: int, rho: int, heuristic: str, truth: list[DistanceVector]) -> tuple[int, float, float]:
    """Edges added, and mean steps and substeps over the sources of `truth`
    (dijkstra's distances on g, one vector per source), of one cell."""
    aug, radii, added = build_k_rho(g, k, rho, heuristic=heuristic)
    report = validate_k_rho(aug, radii, k, rho)
    if not report.ok:
        raise BenchError(f"(k={k}, rho={rho}, {heuristic}) failed validation: {report.violations[:3]}")
    # A unit-weight graph runs on g itself, where no k applies.
    h, hk = (g, None) if g.is_unit_weight else (aug, k)
    steps = 0
    substeps = 0
    for want in truth:
        s = want.source
        res = radius_step_fast(h, radii, s)
        if not res.dist.same_as(want):
            raise BenchError(f"(k={k}, rho={rho}, {heuristic}, s={g.labels[s]}) distances differ from dijkstra's")
        bounds = check_bounds(res, h, rho, k=hk, radii=radii, assume_premise=True)
        if not bounds.ok:
            raise BenchError(
                f"(k={k}, rho={rho}, {heuristic}, s={g.labels[s]}) bound check: {bounds.violations[:3]}"
            )
        steps += res.step_count
        substeps += res.total_substeps()
    return added, steps / len(truth), substeps / len(truth)


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Preprocess once per cell, run the engine from shared seeded sources.

    The rho=1 cell (run even when absent from the sweep) is the reduction
    baseline; its augmentation is empty, so it runs once, first, and serves
    every k and heuristic.  Every run is checked against one dijkstra per
    source.  Rows come in (k, rho, heuristic) order.
    """
    cfg.validate()
    g = generate(cfg.generator) if cfg.generator is not None else parse_edge_list(_read_text(cfg.graph_path))
    rng = random.Random(int(cfg.seed))
    sources = sorted(rng.sample(range(g.n), min(cfg.source_count, g.n)))
    truth = [dijkstra(g, s) for s in sources]
    baseline = _run_cell(g, 1, 1, "dp", truth)
    rows = []
    for k in sorted(set(cfg.ks)):
        for rho in sorted(set(cfg.rhos)):
            for heuristic in sorted(set(cfg.heuristics)):
                added, steps, substeps = baseline if rho == 1 else _run_cell(g, k, rho, heuristic, truth)
                rows.append(
                    ExperimentRow(
                        graph=cfg.label,
                        n=g.n,
                        m=g.m,
                        k=k,
                        rho=rho,
                        heuristic=heuristic,
                        added_edge_factor=added / g.m if g.m else 0.0,
                        mean_steps=steps,
                        mean_substeps=substeps,
                        # zero steps only on degenerate single-vertex runs
                        reduction_factor=baseline[1] / steps if steps else 1.0,
                    )
                )
    return rows


def emit_csv(rows: list[ExperimentRow]) -> str:
    if not rows:
        raise GraphError("no rows to emit")
    lines = [CSV_HEADER + "\n"]
    for r in rows:
        _check_label(r.graph)
        lines.append(",".join(format(x, ".6g") if isinstance(x, float) else str(x) for x in astuple(r)) + "\n")
    return "".join(lines)


def emit_summary(rows: list[ExperimentRow]) -> str:
    """emit_csv's rows as right-aligned columns under a short header."""
    header = ("graph", "n", "m", "k", "rho", "heur", "added/m", "steps", "substeps", "reduction")
    table = [header, *(line.split(",") for line in emit_csv(rows).splitlines()[1:])]
    widths = [max(map(len, col)) for col in zip(*table)]
    return "".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in table)
