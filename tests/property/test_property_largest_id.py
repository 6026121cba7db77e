"""Largest-ID kernel rules against the closed-form oracle.

:func:`~repro.algorithms.largest_id.predicted_largest_id_radii` computes
every radius from graph distances alone: the distance to the nearest larger
identifier, or the eccentricity at the maximum.  The compiled largest-ID
rule — the ring scan on rings, the early-stop BFS elsewhere — must equal it
on every registered topology, on the smallest ring, on a path, and on a
cycle whose positions are relabelled out of ring order (which must select
the BFS and still be exact), under both kernel backends, for a scale row
block's few rows and for an exact enumeration's cohort of rows.  The
ring scan's numpy pointer jumping is held to its stdlib scan on rings up to
300 nodes in blocks of 1, 2 and 257 rows, and once at 10^5 nodes.  The
max-scan sweep's straggler tail (pairs still undecided at its round cap) is
checked with the cap forced down.  Identifiers beyond int64 run on the
stdlib backend.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.largest_id import LargestIdAlgorithm, predicted_largest_id_radii
from repro.engine.campaign import TOPOLOGY_BUILDERS, build_topology
from repro.kernel import compile_instance, numpy_available
from repro.kernel.compile import DEFAULT_BATCH_ROWS
from repro.kernel.rules import MaxScanScaleRule, RingScanScaleRule, csr_is_ring
from repro.kernel.shard import scale_row_ids
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment
from repro.topology.cycle import cycle_graph
from repro.topology.path import path_graph
from repro.utils.rng import make_rng

BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())

#: Rows per batch as a function of n: a scale row block's few rows, and an
#: exact enumeration's cohort (both sweep whole rows on numpy).
BATCH_SIZES = {
    "block": lambda n: 3,
    "cohort": lambda n: DEFAULT_BATCH_ROWS,
}


def _relabelled_cycle(n: int, seed: int) -> Graph:
    """An n-cycle whose ring order is a random permutation of positions."""
    order = list(range(n))
    make_rng(seed).shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    return Graph.from_edges(n, edges, name=f"relabelled-cycle-{n}")


#: (label, graph, expected rule)
GRAPHS = [
    *(
        (
            f"{name}-9",
            build_topology(name, 9, seed=5),
            "ring-scan" if name == "cycle" else "max-scan",
        )
        for name in sorted(TOPOLOGY_BUILDERS)
    ),
    ("cycle-3", cycle_graph(3), "ring-scan"),
    ("path-7", path_graph(7), "max-scan"),
    ("relabelled-cycle-8", _relabelled_cycle(8, seed=2), "max-scan"),
]


def _rows(n: int, count: int, seed: int, offset: int = 0) -> list[tuple[int, ...]]:
    rng = make_rng(seed)
    rows = []
    for _ in range(count):
        ids = list(range(offset, offset + n))
        rng.shuffle(ids)
        rows.append(tuple(ids))
    return rows


def _oracle(graph: Graph, row: tuple[int, ...]) -> tuple[int, ...]:
    radii = predicted_largest_id_radii(graph, IdentifierAssignment(row))
    return tuple(radii[v] for v in graph.positions())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize(
    "label,graph,rule", GRAPHS, ids=[label for label, _, _ in GRAPHS]
)
def test_kernel_equals_the_oracle(label, graph, rule, batch, backend):
    instance = compile_instance(graph, LargestIdAlgorithm(), backend=backend)
    assert instance.describe()["rule"] == rule, label
    count = BATCH_SIZES[batch](graph.n)
    rows = _rows(graph.n, count, seed=graph.n + count)
    expected = [_oracle(graph, row) for row in rows]
    assert instance.batch_radii(rows) == expected, label


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize(
    "label,graph,rule", GRAPHS, ids=[label for label, _, _ in GRAPHS]
)
def test_identifiers_beyond_int64_on_the_stdlib_backend(label, graph, rule, batch):
    instance = compile_instance(graph, LargestIdAlgorithm(), backend="python")
    rows = _rows(graph.n, BATCH_SIZES[batch](graph.n), seed=7, offset=2**63)
    assert instance.batch_radii(rows) == [_oracle(graph, row) for row in rows], label


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    n=st.integers(min_value=3, max_value=12),
    topology=st.sampled_from(["cycle", "relabelled-cycle", "path", "random-tree", "gnp"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_random_instances_equal_the_oracle(backend, n, topology, seed):
    if topology == "relabelled-cycle":
        graph = _relabelled_cycle(n, seed)
    else:
        graph = build_topology(topology, n, seed)
    instance = compile_instance(graph, LargestIdAlgorithm(), backend=backend)
    rows = _rows(graph.n, BATCH_SIZES["cohort"](graph.n), seed=seed)
    assert instance.batch_radii(rows) == [_oracle(graph, row) for row in rows]


@pytest.mark.skipif(not numpy_available(), reason="numpy backend not installed")
@given(
    n=st.integers(min_value=3, max_value=300),
    block=st.sampled_from([1, 2, 257]),
    relabelled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_ring_pointer_jumping_equals_the_scan_and_the_oracle(n, block, relabelled, seed):
    # The numpy ring sweep against the stdlib two-pointer scan on every row
    # of a block and the closed form on its first and last rows; a cycle
    # relabelled out of ring order must route to max-scan and stay exact.
    graph = _relabelled_cycle(n, seed) if relabelled else cycle_graph(n)
    instance = compile_instance(graph, LargestIdAlgorithm(), backend="numpy")
    ring = csr_is_ring(instance.indptr, instance.indices)
    assume(ring != relabelled)
    rows = _rows(n, block, seed)
    radii = instance.batch_radii(rows)
    if relabelled:
        assert instance.describe()["rule"] == "max-scan"
    else:
        assert isinstance(instance.rule, RingScanScaleRule)
        assert radii == [tuple(instance.rule._scan_python(row)) for row in rows]
    for index in {0, block - 1}:
        assert radii[index] == _oracle(graph, rows[index])


@pytest.mark.skipif(not numpy_available(), reason="numpy backend not installed")
def test_ring_sweep_at_scale_equals_the_stdlib_scan():
    n = 10**5
    ids = scale_row_ids(n, 4, 0)
    numpy_rule = RingScanScaleRule(n, "numpy")
    assert numpy_rule.batch_radii([ids])[0] == tuple(numpy_rule._scan_python(ids))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "label,graph",
    [("path-64", path_graph(64)), ("random-tree-40", build_topology("random-tree", 40, seed=3))],
)
def test_max_scan_straggler_tail_equals_the_oracle(monkeypatch, label, graph, backend):
    # With the sweep capped at two rounds, every pair of radius > 2 and
    # every maximum of eccentricity > 2 finishes in the stdlib layer scan.
    instance = compile_instance(graph, LargestIdAlgorithm(), backend=backend)
    rule = instance.rule
    assert isinstance(rule, MaxScanScaleRule), label
    monkeypatch.setattr(rule, "_rounds", 2)
    rows = _rows(graph.n, 16, seed=graph.n)
    assert instance.batch_radii(rows) == [_oracle(graph, row) for row in rows], label
