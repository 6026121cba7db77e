"""Experiment E11 — the average measure beyond cycles (further work).

The paper's conclusion notes that "we only consider the cycle topology, and
results for more general graphs are missing".  This experiment provides the
empirical side of that question for the largest-ID problem: on trees, grids,
tori and random graphs, how do the classic and the average measures compare?

The qualitative picture from the cycle carries over wherever the diameter is
large (paths, grids, random trees): the maximum-identifier vertex still pays
its eccentricity while typical vertices meet a larger identifier after a few
hops, so the gap between the measures tracks the graph's diameter.  On
expander-like graphs (the registry's ``gnp`` family: a random backbone tree
plus ``n`` random extra edges) the diameter is logarithmic and both
measures are already small, so averaging has less left to gain — a useful
boundary case for the paper's characterisation question.  The two random
families come from :func:`~repro.engine.campaign.build_topology`, so they
are the graphs every query mode builds for the same ``(topology, n, seed)``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.core.certification import certify
from repro.core.measures import average_complexity, classic_complexity
from repro.engine.batch import derive_task_seed
from repro.engine.campaign import build_topology
from repro.api.session import Session
from repro.experiments.harness import ExperimentResult
from repro.model.graph import Graph
from repro.model.identifiers import random_assignment
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph, torus_graph
from repro.topology.path import path_graph
from repro.topology.tree import balanced_tree, spider_tree
from repro.utils.rng import SeedLike
from repro.utils.tables import Table


def _families(n: int, seed: int) -> Sequence[tuple[str, Callable[[], Graph]]]:
    side = max(3, int(round(n**0.5)))
    return (
        ("cycle", lambda: cycle_graph(n)),
        ("path", lambda: path_graph(n)),
        ("grid", lambda: grid_graph(side, side)),
        ("torus", lambda: torus_graph(side, side)),
        ("balanced-tree", lambda: balanced_tree(2, max(2, n.bit_length() - 2))),
        ("spider", lambda: spider_tree(4, max(2, n // 4))),
        ("random-tree", lambda: build_topology("random-tree", n, seed)),
        ("gnp", lambda: build_topology("gnp", n, seed)),
    )


def run(n: int = 144, samples: int = 4, small: bool = False, seed: SeedLike = 131) -> ExperimentResult:
    """Run E11: largest-ID measures across topology families."""
    if small:
        n = min(n, 64)
        samples = min(samples, 2)
    table = Table(
        columns=(
            "family",
            "nodes",
            "diameter",
            "avg_radius",
            "max_radius",
            "gap_max_over_avg",
        ),
        title=f"E11: largest-ID beyond the cycle (about {n} nodes per family)",
    )
    result = ExperimentResult(
        experiment_id="E11",
        title="general graphs",
        claim="the average/classic separation persists on high-diameter topologies and "
        "narrows on low-diameter random graphs",
        table=table,
    )
    algorithm = LargestIdAlgorithm()
    base_seed = int(seed) if isinstance(seed, int) else 0
    # All families and samples share one API session (per-graph runners
    # with warm decision caches).
    session = Session()
    for family, builder in _families(n, seed=base_seed):
        graph = builder()
        traces = []
        for sample in range(samples):
            # derive_task_seed, not hash(): builtin hash() is salted per
            # interpreter, which made this experiment non-reproducible.
            ids = random_assignment(
                graph.n, seed=derive_task_seed(base_seed, family, sample)
            )
            trace = session.trace(graph, ids, algorithm)
            certify("largest-id", graph, ids, trace)
            traces.append(trace)
        average = average_complexity(traces)
        maximum = classic_complexity(traces)
        table.add_row(
            family=family,
            nodes=graph.n,
            diameter=graph.diameter(),
            avg_radius=average,
            max_radius=maximum,
            gap_max_over_avg=maximum / average if average else float("inf"),
        )
    by_family = {row["family"]: row for row in table.rows}
    result.require(
        all(
            by_family[family]["gap_max_over_avg"] > 3
            for family in ("cycle", "path", "grid", "random-tree")
        ),
        "high-diameter families keep a large average/classic gap",
    )
    result.require(
        by_family["gnp"]["max_radius"] <= by_family["gnp"]["diameter"],
        "on random graphs even the classic measure is bounded by the (small) diameter",
    )
    result.require(
        all(row["max_radius"] == row["diameter"] or row["max_radius"] <= row["diameter"]
            for row in table.rows),
        "no vertex ever needs a radius beyond the diameter",
    )
    return result
