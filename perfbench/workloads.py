"""The benchmark's workloads and the seeded inputs they are built from.

Each workload is a generated graph rendered as edge-list text (the user's
input file), the (k, rho) the set-up preprocesses it for, and the engine
its queries call.  The workload seed fixes the weights (and, for the
random graph, the topology) and the query sources; the program sees only
the text and the sources.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from radius_stepping.generate import GeneratorSpec, WeightSpec, generate
from radius_stepping.graph import write_edge_list

# Distinct query sources per run; queries cycle through them.  Fifty keep
# the p90 from resting on a few sources the seed happened to draw, and
# leave time for every source to run several times.
SOURCES = 50
WEIGHTS = (1, 10000)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], GeneratorSpec]
    k: int
    rho: int
    engine: str  # attribute of radius_stepping.engine

    @property
    def unit(self) -> bool:
        return self.engine == "radius_step_unweighted"


def _weights(seed: int) -> WeightSpec:
    return WeightSpec(*WEIGHTS, seed=seed)


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Ball, tree and DP dominate set-up; relax_batch is half of a query.
        Workload(
            "grid2d-w",
            lambda seed: GeneratorSpec("grid2d", dims=(100, 100), weights=_weights(seed)),
            k=2,
            rho=10,
            engine="radius_step_fast",
        ),
        # No shortcuts, so set-up is parse and write; ~6,500 tiny steps per query.
        Workload(
            "random-w-rho1",
            lambda seed: GeneratorSpec("random", n=10000, m=30000, seed=seed, weights=_weights(seed)),
            k=1,
            rho=1,
            engine="radius_step_fast",
        ),
        # Dense ladder where every weight ties; the only unit-weight engine.
        Workload(
            "ladder-u",
            lambda seed: GeneratorSpec("adversarial", ladder=40),
            k=1,
            rho=10,
            engine="radius_step_unweighted",
        ),
    )
}


def edge_list_text(wl: Workload, seed: int) -> str:
    return write_edge_list(generate(wl.spec(seed)))


def sources(n: int, seed: int) -> list[int]:
    return random.Random(seed).sample(range(n), min(SOURCES, n))
