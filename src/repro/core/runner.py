"""Deterministic execution of ball-based algorithms.

For every node, the runner grows the radius from 0 upwards, handing the
algorithm the corresponding :class:`~repro.model.ball.BallView` until the
algorithm commits to an output.  The resulting per-node radii and outputs
form an :class:`~repro.model.trace.ExecutionTrace`, the raw input of the
complexity measures.

A correct LOCAL algorithm must output once its ball covers the whole graph
(there is nothing more to learn); the runner allows one extra radius beyond
that point and then raises :class:`~repro.errors.AlgorithmError`, so that a
buggy algorithm cannot silently spin forever.

Since the engine subsystem landed, the public functions here are thin
compatibility wrappers over :class:`repro.engine.frontier.FrontierRunner`,
which grows balls incrementally instead of re-extracting them from scratch.
The original from-scratch loop is preserved as
:func:`reference_run_ball_algorithm`; the property suite asserts the two
paths produce identical traces, and the benchmarks measure the gap.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algorithm import BallAlgorithm
from repro.engine.frontier import FrontierRunner
from repro.errors import AlgorithmError, TopologyError
from repro.model.ball import extract_ball
from repro.model.graph import Graph
from repro.model.identifiers import IdentifierAssignment
from repro.model.trace import ExecutionTrace, NodeRecord


def _validate_instance(
    graph: Graph, ids: IdentifierAssignment, algorithm: BallAlgorithm
) -> None:
    """The legacy pre-flight checks, in their original order."""
    if ids.n != graph.n:
        raise TopologyError(
            f"identifier assignment covers {ids.n} positions but graph has {graph.n}"
        )
    if not graph.is_connected():
        raise TopologyError("the LOCAL simulators require a connected graph")
    if not algorithm.supports_graph(graph):
        raise TopologyError(
            f"algorithm {algorithm.name!r} does not support graph {graph.name!r}"
        )


def run_ball_algorithm(
    graph: Graph,
    ids: IdentifierAssignment,
    algorithm: BallAlgorithm,
    max_radius: Optional[int] = None,
) -> ExecutionTrace:
    """Run ``algorithm`` on ``graph`` with identifiers ``ids``.

    Parameters
    ----------
    graph, ids:
        The instance.  The identifier assignment must cover exactly the
        graph's positions.
    algorithm:
        The ball-based algorithm to execute.
    max_radius:
        Optional hard cap on the radius explored per node.  Defaults to one
        more than the node's eccentricity, which is always sufficient for a
        correct algorithm.

    Returns
    -------
    ExecutionTrace
        Per-node radii and outputs.

    Notes
    -----
    Executes through the engine's :class:`~repro.engine.frontier.FrontierRunner`.
    Callers that run the same ``(graph, algorithm)`` pair on many assignments
    should build one session themselves (optionally with a
    :class:`~repro.engine.cache.DecisionCache`) to amortise precomputation.
    """
    _validate_instance(graph, ids, algorithm)
    runner = FrontierRunner(graph, algorithm, max_radius=max_radius, validate=False)
    return runner.run(ids)


def reference_run_ball_algorithm(
    graph: Graph,
    ids: IdentifierAssignment,
    algorithm: BallAlgorithm,
    max_radius: Optional[int] = None,
) -> ExecutionTrace:
    """The original node-by-node, from-scratch runner.

    Kept as the executable specification of :func:`run_ball_algorithm`: it
    re-extracts every ball with :func:`~repro.model.ball.extract_ball` and
    never shares work between radii, nodes or runs.  The property tests
    assert trace equality against the engine, and
    ``benchmarks/test_bench_engine.py`` uses it as the legacy baseline.
    """
    _validate_instance(graph, ids, algorithm)
    records: dict[int, NodeRecord] = {}
    for position in graph.positions():
        cap = max_radius if max_radius is not None else graph.eccentricity(position) + 1
        output = None
        radius_used: Optional[int] = None
        for radius in range(cap + 1):
            ball = extract_ball(graph, ids, position, radius)
            output = algorithm.decide(ball)
            if output is not None:
                radius_used = radius
                break
        if radius_used is None:
            raise AlgorithmError(
                f"algorithm {algorithm.name!r} refused to output at position {position} "
                f"even at radius {cap} (graph {graph.name!r}, n={graph.n})"
            )
        records[position] = NodeRecord(
            position=position,
            identifier=ids[position],
            radius=radius_used,
            output=output,
        )
    return ExecutionTrace(records)
