"""Coverage gate: every registered algorithm compiles to a vectorised rule.

The registry is the public surface experiments and the campaign engine
draw algorithms from; an algorithm that silently falls back to the
decide-backed ``runner-table`` rule loses the batch kernel's throughput
everywhere at once.  This gate fails the moment a registered algorithm —
current or future — stops providing a vectorised rule on the reference
instances it supports (ring algorithms are exempt from the tree instance,
but every name must vectorise on at least one reference graph).
"""

import pytest

from repro.algorithms.registry import algorithm_registry
from repro.engine.campaign import make_ball_algorithm
from repro.kernel import compile_instance
from repro.topology.cycle import cycle_graph
from repro.engine.campaign import build_topology

#: The reference instances of the coverage gate: one cycle, one tree.
REFERENCE_GRAPHS = [
    ("cycle-7", cycle_graph(7)),
    ("random-tree-7", build_topology("random-tree", 7, 5)),
]


@pytest.mark.parametrize("name", sorted(algorithm_registry()))
def test_registered_algorithm_compiles_to_a_vectorized_rule(name):
    tested = []
    for label, graph in REFERENCE_GRAPHS:
        algorithm = make_ball_algorithm(name, graph.n)
        if not algorithm.supports_graph(graph):
            continue
        instance = compile_instance(graph, algorithm)
        context = f"{name} on {label} selected {instance.describe()['rule']!r}"
        assert instance.vectorized, context
        assert instance.describe()["rule"] != "runner-table", context
        tested.append(label)
    assert tested, f"{name} supports no reference graph; extend REFERENCE_GRAPHS"
