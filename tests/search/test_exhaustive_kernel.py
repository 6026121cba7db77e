"""The kernel-scored ``n!`` reference against the engine-scored oracle.

:class:`~repro.core.adversary.ExhaustiveAdversary` scores every permutation
in kernel cohorts; ``exhaustive_oracle.py`` keeps the per-permutation
engine loop it replaced.  For every registered algorithm that supports the
graph, on small cycles, paths, stars, grids and random trees, the two must
give the same value, the same witness (the first optimal permutation) and
``n!`` evaluations, under each objective and on both kernel backends.
"""

import functools
import math

import pytest

import repro.kernel.backend as kernel_backend
from exhaustive_oracle import exhaustive_oracle
from repro.algorithms.registry import algorithm_registry
from repro.core.adversary import OBJECTIVES, ExhaustiveAdversary
from repro.engine.campaign import build_topology, make_ball_algorithm
from repro.topology.complete import star_graph
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph
from repro.topology.path import path_graph

BACKENDS = (
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not kernel_backend.numpy_available(), reason="no numpy backend"
        ),
    ),
)

#: label -> graph, every one with n <= 6.
GRAPHS = {
    "cycle-5": lambda: cycle_graph(5),
    "cycle-6": lambda: cycle_graph(6),
    "path-5": lambda: path_graph(5),
    "path-6": lambda: path_graph(6),
    "star-6": lambda: star_graph(5),
    "grid-2x2": lambda: grid_graph(2, 2),
    "grid-2x3": lambda: grid_graph(2, 3),
    "random-tree-5": lambda: build_topology("random-tree", 5, 3),
    "random-tree-6": lambda: build_topology("random-tree", 6, 7),
}


def _instances():
    for label, build in GRAPHS.items():
        graph = build()
        for name in sorted(algorithm_registry()):
            if make_ball_algorithm(name, graph.n).supports_graph(graph):
                yield label, name


@functools.lru_cache(maxsize=None)
def _oracle(label, name):
    graph = GRAPHS[label]()
    results, _ = exhaustive_oracle(graph, make_ball_algorithm(name, graph.n))
    return results


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label,name", list(_instances()))
def test_kernel_scored_exhaustive_equals_the_engine_oracle(
    label, name, backend, monkeypatch
):
    monkeypatch.setattr(kernel_backend, "_default_backend", backend)
    graph = GRAPHS[label]()
    algorithm = make_ball_algorithm(name, graph.n)
    expected = _oracle(label, name)
    for objective in OBJECTIVES:
        result = ExhaustiveAdversary().maximise(graph, algorithm, objective)
        value, witness, evaluations = expected[objective]
        assert result.exact
        assert result.value == value, objective
        assert result.assignment.identifiers() == witness, objective
        assert result.evaluations == evaluations == math.factorial(graph.n)
