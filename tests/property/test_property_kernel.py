"""Kernel-vs-engine equivalence on randomised instances.

The acceptance bar for the batch kernel: on cycles, paths, trees, grids and
G(n, p) graphs (n <= 7) under random identifier assignments, the radii a
:class:`~repro.kernel.compile.CompiledInstance` produces must be
bit-identical to the single-assignment
:class:`~repro.engine.frontier.FrontierRunner` reference path, for every
registered algorithm and under **both** kernel backends (numpy legs are
skipped automatically on numpy-free installs, where the stdlib fallback is
the only backend).  The kernel returns radii only; outputs are the runner's.
"""

import pytest

from repro.algorithms.registry import algorithm_registry
from repro.core.algorithm import BallAlgorithm
from repro.engine.campaign import make_ball_algorithm
from repro.engine.frontier import FrontierRunner
from repro.kernel import compile_instance, numpy_available, simulate_batch
from repro.kernel.compile import BatchRequest, simulate_many
from repro.model.identifiers import IdentifierAssignment, random_assignment
from repro.topology.cycle import cycle_graph
from repro.topology.grid import grid_graph
from repro.topology.path import path_graph
from repro.engine.campaign import build_topology

#: (label, graph) — every family from the tentpole checklist, n <= 7.
GRAPH_FAMILIES = [
    ("cycle-6", cycle_graph(6)),
    ("cycle-7", cycle_graph(7)),
    ("path-6", path_graph(6)),
    ("random-tree-7", build_topology("random-tree", 7, 5)),
    ("grid-2x3", grid_graph(2, 3)),
    ("gnp-7", build_topology("gnp", 7, 13)),
]

ASSIGNMENT_SEEDS = tuple(range(6))

BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())

#: The vectorised rule every registry name must compile to (the coverage
#: gate in tests/kernel/test_rule_coverage.py asserts "not runner-table";
#: here the differential tests pin the exact rule class that produced the
#: matching radii, so a silent fallback cannot hide behind correctness).
EXPECTED_RULES = {
    "cole-vishkin": "cv-ring",
    "cole-vishkin-ball": "cv-ring",
    "greedy-coloring": "greedy-cone-coloring",
    "greedy-mis": "greedy-cone-mis",
    "largest-id": "max-scan",
    "ring-coloring-via-mis": "ring-mis-cone",
}


def _expected_rule(name: str, label: str) -> str:
    """Largest-ID compiles to the ring scan on cycles, the BFS elsewhere."""
    if name == "largest-id" and label.startswith("cycle"):
        return "ring-scan"
    return EXPECTED_RULES[name]


def _ball_algorithms(n: int):
    """Every registered algorithm in the ball view, instantiated for n.

    Round algorithms (the bare "cole-vishkin") are wrapped in
    :class:`BallSimulationOfRounds` by ``make_ball_algorithm``, exactly as
    the campaign engine and the Session do, so the wall covers every
    registry name rather than only the natively ball-shaped ones.
    """
    algorithms = []
    for name in sorted(algorithm_registry()):
        algorithm = make_ball_algorithm(name, n)
        assert isinstance(algorithm, BallAlgorithm)
        algorithms.append((name, algorithm))
    return algorithms


def _supported(name: str, algorithm: BallAlgorithm, graph) -> bool:
    if not algorithm.supports_graph(graph):
        return False
    if name in ("cole-vishkin", "cole-vishkin-ball"):
        from repro.algorithms.cole_vishkin import is_consistently_oriented_ring

        return is_consistently_oriented_ring(graph)
    return True


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "label,graph", GRAPH_FAMILIES, ids=[label for label, _ in GRAPH_FAMILIES]
)
def test_kernel_radii_match_runner_for_every_registered_algorithm(
    label, graph, backend
):
    assignments = [
        random_assignment(graph.n, seed=seed) for seed in ASSIGNMENT_SEEDS
    ]
    rows = [ids.identifiers() for ids in assignments]
    for name, algorithm in _ball_algorithms(graph.n):
        if not _supported(name, algorithm, graph):
            continue
        runner = FrontierRunner(graph, algorithm)
        instance = compile_instance(graph, algorithm, backend=backend)
        # The equality below must be produced by the vectorised rule, not
        # by a silent fall back to the decide-backed runner-table path.
        assert instance.vectorized, f"{label}/{name}/{backend}"
        assert (
            instance.describe()["rule"] == _expected_rule(name, label)
        ), f"{label}/{name}/{backend}"
        expected = []
        for ids in assignments:
            radii = runner.run(ids).radii()
            expected.append(tuple(radii[position] for position in range(graph.n)))
        for ids, reference, radii in zip(
            assignments, expected, simulate_batch(instance, rows)
        ):
            assert radii == reference, f"{label}/{name}/{backend}/{ids.identifiers()}"


@pytest.mark.skipif(not numpy_available(), reason="numpy backend not installed")
def test_backends_agree_with_each_other():
    # Transitivity gives this from the runner tests already; asserting it
    # directly localises a failure to the backend pair.
    for label, graph in GRAPH_FAMILIES:
        for name, algorithm in _ball_algorithms(graph.n):
            if not _supported(name, algorithm, graph):
                continue
            rows = [
                random_assignment(graph.n, seed=seed).identifiers()
                for seed in ASSIGNMENT_SEEDS
            ]
            python_radii = simulate_batch(
                compile_instance(graph, algorithm, backend="python"), rows
            )
            numpy_radii = simulate_batch(
                compile_instance(graph, algorithm, backend="numpy"), rows
            )
            assert python_radii == numpy_radii, f"{label}/{name}"


def test_repeated_batches_reuse_one_instance():
    # A compiled instance is a session: repeated batches (and shuffled row
    # order) must reproduce the cold results bit for bit.
    graph = cycle_graph(7)
    for name, algorithm in _ball_algorithms(7):
        if not _supported(name, algorithm, graph):
            continue
        instance = compile_instance(graph, algorithm)
        rows = [random_assignment(7, seed=seed).identifiers() for seed in range(8)]
        cold = simulate_batch(instance, rows)
        assert simulate_batch(instance, rows) == cold, name
        assert simulate_batch(instance, rows[::-1]) == cold[::-1], name


def test_kernel_matches_runner_under_identifier_assignment_inputs():
    # IdentifierAssignment objects are accepted directly as matrix rows.
    graph = build_topology("random-tree", 6, 9)
    from repro.algorithms.largest_id import LargestIdAlgorithm

    algorithm = LargestIdAlgorithm()
    assignments = [random_assignment(6, seed=seed) for seed in range(4)]
    instance = compile_instance(graph, algorithm)
    runner = FrontierRunner(graph, algorithm)
    for ids, radii in zip(assignments, simulate_batch(instance, assignments)):
        reference = runner.run(IdentifierAssignment(ids.identifiers()))
        assert tuple(reference.radii()[p] for p in range(6)) == radii


@pytest.mark.parametrize("backend", BACKENDS)
def test_simulate_many_matches_per_instance_batches(backend):
    # Multi-instance batching (the Session's cross-cell submission path):
    # heterogeneous instances — different graphs, widths and algorithms,
    # with repeated instances interleaved — through one simulate_many call
    # must return, per request, exactly the rows simulate_batch produces
    # on that request's instance alone.
    from repro.algorithms.greedy_coloring import GreedyColoringByID
    from repro.algorithms.largest_id import LargestIdAlgorithm

    cycle = compile_instance(cycle_graph(7), LargestIdAlgorithm(), backend=backend)
    tree = compile_instance(
        build_topology("random-tree", 5, 3), GreedyColoringByID(), backend=backend
    )
    ring = compile_instance(
        cycle_graph(6), make_ball_algorithm("cole-vishkin", 6), backend=backend
    )
    requests = [
        BatchRequest(cycle, [random_assignment(7, seed=s).identifiers() for s in range(5)]),
        BatchRequest(tree, [random_assignment(5, seed=s).identifiers() for s in range(3)]),
        BatchRequest(cycle, [random_assignment(7, seed=s).identifiers() for s in range(5, 9)]),
        BatchRequest(ring, [random_assignment(6, seed=s).identifiers() for s in range(4)]),
        BatchRequest(tree, []),  # empty requests keep their slot
    ]
    batched = simulate_many(requests)
    assert len(batched) == len(requests)
    for request, rows in zip(requests, batched):
        assert rows == simulate_batch(request.instance, list(request.rows))


@pytest.mark.parametrize("backend", BACKENDS)
def test_simulate_many_merges_same_shape_instances_for_every_algorithm(backend):
    # Separately-compiled same-shape instances of every registered
    # algorithm through one simulate_many call: each request still gets
    # exactly its own instance's rows.
    for name in sorted(algorithm_registry()):
        instances = [
            compile_instance(
                cycle_graph(6), make_ball_algorithm(name, 6), backend=backend
            )
            for _ in range(3)
        ]
        requests = [
            BatchRequest(
                instance,
                [
                    tuple(random_assignment(6, seed=17 * index + s).identifiers())
                    for s in range(4)
                ],
            )
            for index, instance in enumerate(instances)
        ]
        for request, rows in zip(requests, simulate_many(requests)):
            assert rows == request.instance.batch_radii(list(request.rows)), name


def test_simulate_many_validates_untrusted_rows():
    from repro.algorithms.largest_id import LargestIdAlgorithm
    from repro.errors import IdentifierError, TopologyError

    instance = compile_instance(cycle_graph(5), LargestIdAlgorithm())
    with pytest.raises(TopologyError, match="covers 4 positions"):
        simulate_many([BatchRequest(instance, [(0, 1, 2, 3)])])
    with pytest.raises(IdentifierError, match="distinct"):
        simulate_many([BatchRequest(instance, [(0, 1, 1, 2, 3)])])
