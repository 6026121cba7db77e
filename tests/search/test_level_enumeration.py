"""The level enumeration against the recursive DFS it replaced.

For every graph family at n <= 8, both symmetry notions and both kernel
backends, :meth:`BranchAndBoundSearch.run` must hand over the same canonical
leaves, in the same order, as the DFS oracle of ``dfs_oracle.py``, and
report the same ``canonical_leaves``, ``nodes_expanded`` and
``pruned_by_symmetry``.  The witness is then the first optimal leaf of that
stream.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from dfs_oracle import dfs_enumeration

import repro.kernel.backend as kernel_backend
from repro.algorithms.largest_id import LargestIdAlgorithm
from repro.engine.campaign import build_topology
from repro.search.branch_bound import BranchAndBoundSearch
from repro.topology.complete import complete_graph, star_graph
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph
from repro.topology.path import path_graph

GRAPHS = (
    [cycle_graph(n) for n in range(3, 9)]
    + [path_graph(n) for n in range(1, 9)]
    + [grid_graph(2, 2), grid_graph(2, 3), grid_graph(2, 4)]
    + [star_graph(leaves) for leaves in range(1, 8)]
    + [complete_graph(n) for n in (1, 2, 4, 6, 8)]
    + [build_topology("random-tree", n, seed) for n in (5, 7, 8) for seed in (0, 1, 2)]
)

NO_NUMPY = not kernel_backend.numpy_available()
BACKENDS = [
    pytest.param("numpy", marks=pytest.mark.skipif(NO_NUMPY, reason="no numpy backend")),
    "python",
]

SRC = str(Path(__file__).resolve().parent.parent.parent / "src")


def _leaf_stream(search):
    """``(outcome, [(ids, sum of radii), ...])`` over every evaluated leaf."""
    leaves = []

    def collect(ids, radii):
        for ids_row, radii_row in zip(ids, radii):
            leaves.append((tuple(map(int, ids_row)), int(sum(radii_row))))

    return search.run(on_block=collect), leaves


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("respect_ports", [True, False])
@pytest.mark.parametrize("graph", GRAPHS, ids=lambda graph: graph.name)
def test_level_enumeration_matches_the_dfs(graph, respect_ports, backend, monkeypatch):
    monkeypatch.setattr(kernel_backend, "_default_backend", backend)
    search = BranchAndBoundSearch(graph, LargestIdAlgorithm(), "sum", respect_ports=respect_ports)
    assert search.kernel.backend == backend
    outcome, leaves = _leaf_stream(search)
    oracle_leaves, oracle_nodes, oracle_pruned = dfs_enumeration(search)
    assert [ids for ids, _ in leaves] == oracle_leaves
    certificate = outcome.certificate
    assert certificate.canonical_leaves == len(oracle_leaves)
    assert certificate.nodes_expanded == oracle_nodes
    assert certificate.pruned_by_symmetry == oracle_pruned
    # Every class is one free orbit of the group.
    assert certificate.canonical_leaves * certificate.group_order == certificate.space_size
    scores = [score for _, score in leaves]
    first = scores.index(max(scores))
    assert outcome.identifiers == leaves[first][0]
    assert outcome.value == scores[first]


@pytest.mark.parametrize("objective", ["max", "average"])
def test_both_backends_give_the_same_outcome(objective, monkeypatch):
    if NO_NUMPY:
        pytest.skip("no numpy backend")
    graph = build_topology("random-tree", 8, 4)
    outcomes = []
    for backend in ("numpy", "python"):
        monkeypatch.setattr(kernel_backend, "_default_backend", backend)
        outcomes.append(BranchAndBoundSearch(graph, LargestIdAlgorithm(), objective).run())
    assert outcomes[0] == outcomes[1]


def test_a_worst_case_query_on_the_stdlib_backend_never_imports_numpy():
    code = (
        "import sys\n"
        "from repro.api.query import Query\n"
        "from repro.api.session import Session\n"
        "query = Query(mode='worst-case', topologies='cycle', sizes=9,\n"
        "              adversaries='branch-and-bound', measure='sum')\n"
        "result = Session().run(query)\n"
        "assert result.measures['sum'] == 17.0, result.measures\n"
        "assert result.rows[0]['certificate']['nodes_expanded'] == 72495\n"
        "assert 'numpy' not in sys.modules, 'numpy leaked into the python backend'\n"
    )
    env = dict(os.environ, REPRO_KERNEL="python")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
