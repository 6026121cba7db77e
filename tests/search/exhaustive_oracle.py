"""The engine-scored ``n!`` enumeration the exhaustive adversary used to run.

One :class:`~repro.engine.frontier.FrontierRunner` session with a
:class:`~repro.engine.cache.DecisionCache` runs every permutation of
``0..n-1`` in lexicographic order and keeps the first strict maximum of
each objective.  It shares nothing with the kernel-scored
:class:`~repro.core.adversary.ExhaustiveAdversary` but the permutation
order, so the two must agree in value, witness and evaluation count.
``benchmarks/test_bench_engine.py`` times the same loop as the engine side
of its exhaustive-ring entry.
"""

from __future__ import annotations

import itertools

from repro.core.adversary import OBJECTIVES, trace_objective
from repro.engine.cache import DECISION_CACHE_MAX_ENTRIES, DecisionCache
from repro.engine.frontier import FrontierRunner
from repro.model.identifiers import IdentifierAssignment


def exhaustive_oracle(graph, algorithm, objectives=OBJECTIVES):
    """``{objective: (value, witness identifiers, evaluations)}`` over all ``n!``.

    All objectives share one pass over the permutations.  Also returns the
    session's :class:`~repro.engine.cache.CacheStats`.
    """
    cache = DecisionCache(algorithm, max_entries=DECISION_CACHE_MAX_ENTRIES)
    runner = FrontierRunner(graph, algorithm, cache=cache)
    best: dict[str, tuple[float, tuple[int, ...]]] = {}
    evaluations = 0
    for permutation in itertools.permutations(range(graph.n)):
        trace = runner.run(IdentifierAssignment(permutation))
        evaluations += 1
        for objective in objectives:
            value = trace_objective(trace, objective)
            if objective not in best or value > best[objective][0]:
                best[objective] = (value, permutation)
    results = {
        objective: (value, witness, evaluations)
        for objective, (value, witness) in best.items()
    }
    return results, cache.stats
