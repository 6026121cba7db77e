"""Golden values and witnesses of the exact adversary.

Each row pins the optimum, the witness assignment and the canonical-leaf
count of ``pruned-exhaustive``: the first optimal canonical leaf in DFS
order.  The registry's ``branch-and-bound`` names the same search and must
return the same witness.  The instances and objectives are the ones the benchmark decks and the issue
timings use.
"""

import pytest

from repro.api.query import Query
from repro.engine.campaign import build_topology, make_ball_algorithm, make_adversary
from repro.search.adversaries import PrunedExhaustiveAdversary

#: (topology, n, seed, algorithm, objective, value, witness, canonical leaves)
GOLDEN = (
    ("cycle", 6, 0, "largest-id", "sum", 10.0, (0, 1, 5, 3, 2, 4), 60),
    ("cycle", 6, 0, "largest-id", "average", 1.6666666666666667, (0, 1, 5, 3, 2, 4), 60),
    ("cycle", 7, 0, "largest-id", "sum", 12.0, (0, 1, 6, 3, 4, 2, 5), 360),
    ("cycle", 7, 0, "largest-id", "average", 1.7142857142857142, (0, 1, 6, 3, 4, 2, 5), 360),
    ("cycle", 8, 0, "largest-id", "sum", 16.0, (0, 2, 1, 7, 4, 5, 3, 6), 2520),
    ("cycle", 8, 0, "largest-id", "average", 2.0, (0, 2, 1, 7, 4, 5, 3, 6), 2520),
    ("cycle", 9, 0, "largest-id", "sum", 17.0, (0, 1, 7, 4, 6, 5, 8, 2, 3), 20160),
    ("cycle", 9, 0, "largest-id", "average", 1.8888888888888888, (0, 1, 7, 4, 6, 5, 8, 2, 3), 20160),
    ("cycle", 10, 0, "largest-id", "sum", 20.0, (0, 1, 8, 4, 5, 7, 6, 9, 2, 3), 181440),
    ("path", 6, 0, "largest-id", "sum", 15.0, (4, 3, 0, 2, 1, 5), 360),
    ("path", 6, 0, "largest-id", "average", 2.5, (4, 3, 0, 2, 1, 5), 360),
    ("path", 7, 0, "largest-id", "sum", 19.0, (6, 3, 4, 0, 2, 1, 5), 2520),
    ("path", 7, 0, "largest-id", "average", 2.7142857142857144, (6, 3, 4, 0, 2, 1, 5), 2520),
    ("path", 8, 0, "largest-id", "sum", 23.0, (6, 1, 2, 0, 5, 3, 4, 7), 20160),
    ("path", 8, 0, "largest-id", "average", 2.875, (6, 1, 2, 0, 5, 3, 4, 7), 20160),
    ("grid", 9, 0, "largest-id", "sum", 18.0, (5, 0, 7, 1, 4, 2, 8, 3, 6), 45360),
    ("grid", 9, 0, "largest-id", "average", 2.0, (5, 0, 7, 1, 4, 2, 8, 3, 6), 45360),
    ("cycle", 8, 0, "greedy-coloring", "max", 4.0, (0, 1, 3, 5, 7, 6, 4, 2), 2520),
    ("random-tree", 8, 5, "greedy-mis", "sum", 23.0, (5, 3, 7, 0, 6, 4, 1, 2), 6720),
)


@pytest.mark.parametrize(
    "topology,n,seed,algorithm,objective,value,witness,leaves",
    GOLDEN,
    ids=[f"{row[3]}-{row[0]}-{row[1]}-{row[4]}" for row in GOLDEN],
)
def test_exact_adversaries_keep_their_values_and_witnesses(
    topology, n, seed, algorithm, objective, value, witness, leaves
):
    graph = build_topology(topology, n, seed)
    instance = make_ball_algorithm(algorithm, n)
    result = PrunedExhaustiveAdversary().maximise(graph, instance, objective)
    assert result.exact
    assert result.value == value
    assert result.assignment.identifiers() == witness
    assert result.certificate.canonical_leaves == leaves
    assert result.evaluations == leaves
    # The registry's ``branch-and-bound`` is the same search.
    registered = make_adversary("branch-and-bound", Query()).maximise(
        graph, instance, objective
    )
    assert registered.value == value
    assert registered.assignment.identifiers() == witness
    assert registered.certificate == result.certificate
