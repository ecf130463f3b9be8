"""Experiment harness: sweep (k, rho, heuristic) over a graph, aggregate
step counts from a shared sample of sources, and emit CSV.

Every run is one radius_step_fast call.  A weighted graph runs on its
augmented graph, checked with the cell's k.  A unit-weight graph runs on
the original graph with no k, which is all radius_step_unweighted does;
its radii come from the same ball construction, and the rho=1 baseline
then degenerates to plain BFS rounds.  Added-edge factors are reported
for both.  Every cell's augmentation must pass validate_k_rho, at any graph size, and every
run must pass check_bounds; a failure raises BenchError.  Everything is
deterministic in the config seed: equal configs produce byte-identical
CSV.
"""
from __future__ import annotations

import json
import random
from dataclasses import MISSING, dataclass, fields

from .engine import check_bounds, radius_step_fast
from .generate import GeneratorSpec, WeightSpec, generate
from .graph import Graph, GraphError, _check_count, _check_seed, _is_int, _read_text, parse_edge_list
from .preprocess import build_k_rho, validate_k_rho

CSV_HEADER = "graph,n,m,k,rho,heuristic,added_edge_factor,mean_steps,mean_substeps,reduction_factor"


class BenchError(RuntimeError):
    """A harness-level failure: validation or bound check did not pass."""


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


def _check_label(label: str) -> None:
    """A label goes into CSV rows as it is: no comma, double quote, CR or LF."""
    if not isinstance(label, str) or not set(label).isdisjoint(',"\r\n'):
        raise GraphError(f"label must be a string without a comma, double quote, CR or LF, got {label!r}")


# JSON shape expected for each field annotation of the config dataclasses.
_SHAPES = {
    "str": ("a string", lambda x: isinstance(x, str)),
    "str | None": ("a string", lambda x: isinstance(x, str)),
    "int": ("an integer", _is_int),
    "tuple[int, ...]": ("a list of integers", lambda x: isinstance(x, list) and all(map(_is_int, x))),
    "tuple[str, ...]": (
        "a list of strings",
        lambda x: isinstance(x, list) and all(isinstance(y, str) for y in x),
    ),
}


def _spec(cls: type, raw: object, path: str, **given: object) -> object:
    """cls built from the JSON object `raw` at `path`, checking every field.

    Keys must name fields of cls and values must have their field's shape; a
    null value stands for the field's default.  Fields in `given` are taken
    as they are.  Anything else raises GraphError naming the field.
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
        name = f"{path}.{f.name}" if path else f.name
        value = raw.get(f.name)
        if value is None:
            if f.default is MISSING:
                raise GraphError(f"config field {name!r} is required")
            continue
        shape, ok = _SHAPES[f.type]
        if not ok(value):
            raise GraphError(f"config field {name!r} must be {shape}, got {value!r}")
        args[f.name] = tuple(value) if isinstance(value, list) else value
    return cls(**args)


def config_from_json(text: str) -> ExperimentConfig:
    """Parse a JSON experiment config; a malformed one raises GraphError."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"config is not valid JSON: {exc}") from None
    gen = None
    if isinstance(raw, dict) and raw.get("generator") is not None:
        graw = raw["generator"]
        wraw = graw.get("weights") if isinstance(graw, dict) else None
        weights = _spec(WeightSpec, wraw, "generator.weights") if wraw is not None else None
        gen = _spec(GeneratorSpec, graw, "generator", weights=weights)
    return _spec(ExperimentConfig, raw, "", generator=gen)


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


def _load_graph(cfg: ExperimentConfig) -> Graph:
    if cfg.generator is not None:
        return generate(cfg.generator)
    return parse_edge_list(_read_text(cfg.graph_path))


def _run_cell(g: Graph, k: int, rho: int, heuristic: str, sources: list[int]) -> tuple[int, float, float]:
    """Edges added, and mean steps and substeps over the sources, of one cell."""
    aug, radii, added = build_k_rho(g, k, rho, heuristic=heuristic)
    report = validate_k_rho(aug, radii, k, rho)
    if not report.ok:
        raise BenchError(f"(k={k}, rho={rho}, {heuristic}) failed validation: {report.violations[:3]}")
    # A unit-weight graph runs on g itself, where no k applies.
    h, hk = (g, None) if g.is_unit_weight else (aug, k)
    steps = 0
    substeps = 0
    for s in sources:
        res = radius_step_fast(h, radii, s)
        bounds = check_bounds(res, h, rho, k=hk, radii=radii, assume_premise=True)
        if not bounds.ok:
            raise BenchError(
                f"(k={k}, rho={rho}, {heuristic}, s={s}) bound check: {bounds.violations[:3]}"
            )
        steps += res.step_count
        substeps += res.total_substeps()
    return added, steps / len(sources), substeps / len(sources)


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Preprocess once per cell, run the engine from shared seeded sources.

    The rho=1 cell (run even when absent from the sweep) is the reduction
    baseline; its augmentation is empty, so it runs once, first, and serves
    every k and heuristic.  Rows come in (k, rho, heuristic) order.
    """
    cfg.validate()
    g = _load_graph(cfg)
    rng = random.Random(int(cfg.seed))
    sources = sorted(rng.sample(range(g.n), min(cfg.source_count, g.n)))
    baseline = _run_cell(g, 1, 1, "dp", sources)
    rows = []
    for k in sorted(set(cfg.ks)):
        for rho in sorted(set(cfg.rhos)):
            for heuristic in sorted(set(cfg.heuristics)):
                added, steps, substeps = baseline if rho == 1 else _run_cell(g, k, rho, heuristic, sources)
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


def _fmt(x: float) -> str:
    return format(x, ".6g")


def emit_csv(rows: list[ExperimentRow]) -> str:
    if not rows:
        raise GraphError("no rows to emit")
    lines = [CSV_HEADER + "\n"]
    for r in rows:
        _check_label(r.graph)
        lines.append(
            f"{r.graph},{r.n},{r.m},{r.k},{r.rho},{r.heuristic},"
            f"{_fmt(r.added_edge_factor)},{_fmt(r.mean_steps)},"
            f"{_fmt(r.mean_substeps)},{_fmt(r.reduction_factor)}\n"
        )
    return "".join(lines)


def emit_summary(rows: list[ExperimentRow]) -> str:
    """emit_csv's rows as right-aligned columns under a short header."""
    header = ("graph", "n", "m", "k", "rho", "heur", "added/m", "steps", "substeps", "reduction")
    table = [header, *(line.split(",") for line in emit_csv(rows).splitlines()[1:])]
    widths = [max(map(len, col)) for col in zip(*table)]
    return "".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in table)
