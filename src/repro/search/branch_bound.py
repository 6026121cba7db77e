"""Exact adversary search: canonical enumeration in kernel cohorts.

The legacy :class:`~repro.core.adversary.ExhaustiveAdversary` evaluates all
``n!`` identifier permutations.  This module replaces that loop with a
depth-first search that

1. **assigns identifiers position by position**, along a BFS order from a
   graph pseudo-centre;
2. **prunes by symmetry**: only assignments that are lexicographically
   minimal within their automorphism orbit are enumerated (see
   :mod:`repro.search.automorphisms`), which divides the search space by the
   group order; and
3. **evaluates in cohorts**: canonical leaves are buffered
   :data:`~repro.kernel.compile.DEFAULT_BATCH_ROWS` at a time and each
   cohort is one
   :func:`~repro.kernel.compile.simulate_many` call on the search's compiled
   instance — the algorithm's vectorised rule, or the decide-backed
   ``runner-table`` rule for algorithms without one.

Values are compared strictly, in DFS order, so the first optimal canonical
leaf is the witness.  The search is exact: it returns the same optimum value as the
full ``n!`` enumeration, together with a :class:`SearchCertificate` recording
the group used and the enumeration counters, so the claim is auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.adversary import validate_objective
from repro.core.algorithm import BallAlgorithm
from repro.errors import AnalysisError
from repro.kernel.compile import (
    DEFAULT_BATCH_ROWS,
    BatchRequest,
    compile_instance,
    simulate_many,
)
from repro.model.graph import Graph
from repro.obs import metrics as _metrics
from repro.obs.spans import span as _obs_span
from repro.search.automorphisms import (
    DEFAULT_MAX_GROUP_SIZE,
    AutomorphismGroup,
    automorphism_group,
)

@dataclass(frozen=True)
class SearchCertificate:
    """Audit trail of one exact search.

    ``space_size`` is the full ``n!`` the legacy exhaustive adversary would
    enumerate; ``canonical_leaves`` is how many symmetry-inequivalent
    assignments the search evaluated, ``nodes_expanded`` how many partial
    assignments the DFS visited and ``pruned_by_symmetry`` how many subtrees
    the orbit test closed.  A certificate with ``exact=True`` asserts that
    every assignment not enumerated was symmetric to an enumerated one.
    """

    exact: bool
    objective: str
    space_size: int
    group_order: int
    group_respects_ports: bool
    canonical_leaves: int
    nodes_expanded: int
    pruned_by_symmetry: int

    def as_dict(self) -> dict:
        """JSON-friendly form (campaign rows, benchmark artifacts)."""
        return {
            "exact": self.exact,
            "objective": self.objective,
            "space_size": self.space_size,
            "group_order": self.group_order,
            "group_respects_ports": self.group_respects_ports,
            "canonical_leaves": self.canonical_leaves,
            "nodes_expanded": self.nodes_expanded,
            "pruned_by_symmetry": self.pruned_by_symmetry,
        }


@dataclass
class SearchOutcome:
    """Raw result of :meth:`BranchAndBoundSearch.run` (position-id tuple)."""

    identifiers: tuple[int, ...]
    value: float
    certificate: SearchCertificate


def _bfs_order(graph: Graph, center: int) -> tuple[int, ...]:
    """Positions in BFS discovery order from ``center`` (port order within
    a node), so the labelled region of the DFS stays connected."""
    order = [center]
    seen = {center}
    for u in order:
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                order.append(v)
    return tuple(order)


class BranchAndBoundSearch:
    """One exact search session over the assignments of a fixed instance.

    Parameters
    ----------
    graph, algorithm, objective:
        The instance; the objective is one of ``average``, ``max``, ``sum``.
        Connectivity and ``algorithm.supports_graph`` are checked when the
        instance is compiled.
    respect_ports:
        Which symmetry notion to use.  ``None`` (default) asks the
        algorithm: port-preserving symmetries unless it declares
        ``uses_ports = False``.  Forcing ``False`` for a port-reading
        algorithm is unsound.
    max_group_size:
        Cap forwarded to :func:`~repro.search.automorphisms.automorphism_group`.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: BallAlgorithm,
        objective: str = "average",
        respect_ports: Optional[bool] = None,
        max_group_size: int = DEFAULT_MAX_GROUP_SIZE,
    ) -> None:
        validate_objective(objective)
        if graph.n == 0:
            raise AnalysisError("cannot search assignments of an empty graph")
        self.graph = graph
        self.algorithm = algorithm
        self.objective = objective
        #: The compiled batch instance every leaf cohort is evaluated on.
        self.kernel = compile_instance(graph, algorithm)
        if respect_ports is None:
            respect_ports = bool(getattr(algorithm, "uses_ports", True))
        self.group: AutomorphismGroup = automorphism_group(
            graph, respect_ports=respect_ports, max_size=max_group_size
        )
        n = graph.n
        center = min(graph.positions(), key=graph.eccentricity)
        self.order: tuple[int, ...] = _bfs_order(graph, center)
        slot_of = [0] * n
        for slot, position in enumerate(self.order):
            slot_of[position] = slot
        # Symmetry tables: for each non-identity group element sigma, the
        # slot holding the value that slot j is compared against in the
        # lex test "assignment <= assignment ∘ sigma".
        identity = tuple(range(n))
        self.sigma_slots: list[list[int]] = [
            [slot_of[sigma[self.order[j]]] for j in range(n)]
            for sigma in self.group.elements
            if sigma != identity
        ]

    def run(
        self,
        on_leaf: Optional[Callable[[Sequence[int], Sequence[int]], None]] = None,
    ) -> SearchOutcome:
        """Evaluate every canonical assignment; return the exact optimum.

        The witness is the first optimal canonical leaf in DFS order.
        ``on_leaf`` is the weighted-enumeration hook used by
        :mod:`repro.dist.exact`: it is invoked at every canonical leaf, in
        DFS order, with ``(ids_by_position, radius_by_position)``.  Each leaf
        represents exactly ``group.order`` assignments (the group acts
        freely on bijective assignments), so callbacks can weight whatever
        they accumulate by the group order.
        """
        n = self.graph.n
        objective = self.objective
        score = max if objective == "max" else sum
        kernel = self.kernel

        best_int = -1
        best_ids: Optional[tuple[int, ...]] = None
        cohort: list[tuple[int, ...]] = []

        def flush() -> None:
            nonlocal best_int, best_ids
            (batched,) = simulate_many([BatchRequest(kernel, cohort, pre_validated=True)])
            for ids_row, radii in zip(cohort, batched):
                if on_leaf is not None:
                    on_leaf(ids_row, radii)
                value = score(radii)
                if value > best_int:
                    best_int = value
                    best_ids = ids_row
            cohort.clear()

        full_symmetric = self.group.full_symmetric
        sigma_slots = self.sigma_slots
        order = self.order
        val: list[int] = [-1] * n  # identifier placed at each slot
        ids_by_position: list[int] = [-1] * n
        used = [False] * n
        # Per-sigma lex-comparison state: index of the first undecided
        # comparison slot; -1 once the element is dismissed (witness strictly
        # larger, can never prune this branch again).
        cmp_index = [0] * len(sigma_slots)
        stats = {"nodes": 0, "leaves": 0, "sym": 0}

        def dfs(depth: int) -> None:
            if depth == n:
                stats["leaves"] += 1
                cohort.append(tuple(ids_by_position))
                if len(cohort) >= DEFAULT_BATCH_ROWS:
                    flush()
                return
            slot = depth
            position = order[slot]
            if full_symmetric:
                candidates: "range | tuple[int, ...]" = (slot,)
            else:
                candidates = range(n)
            for identifier in candidates:
                if used[identifier]:
                    continue
                stats["nodes"] += 1
                val[slot] = identifier
                ids_by_position[position] = identifier
                used[identifier] = True
                new_depth = depth + 1
                # Keep only lex-minimal orbit representatives.
                sym_undo: list[tuple[int, int]] = []
                pruned = False
                for s, slots in enumerate(sigma_slots):
                    j = cmp_index[s]
                    if j < 0:
                        continue
                    advanced = j
                    verdict = 0
                    while advanced < new_depth:
                        other = slots[advanced]
                        if other >= new_depth:
                            break
                        a, b = val[advanced], val[other]
                        if a != b:
                            verdict = -1 if a < b else 1
                            break
                        advanced += 1
                    if verdict == 1:
                        stats["sym"] += 1
                        pruned = True
                        sym_undo.append((s, j))
                        cmp_index[s] = advanced
                        break
                    new_index = -1 if verdict == -1 else advanced
                    if new_index != j:
                        sym_undo.append((s, j))
                        cmp_index[s] = new_index
                if not pruned:
                    dfs(new_depth)
                for s, j in sym_undo:
                    cmp_index[s] = j
                used[identifier] = False
                ids_by_position[position] = -1
                val[slot] = -1

        with _obs_span("search.branch_bound", n=n, objective=objective):
            dfs(0)
            if cohort:
                flush()
        _metrics.add("search.nodes", stats["nodes"])
        _metrics.add("search.leaves", stats["leaves"])
        _metrics.add("search.pruned_by_symmetry", stats["sym"])
        if best_ids is None:
            raise AnalysisError(
                "search terminated without a witness — empty assignment space"
            )
        value = best_int / n if objective == "average" else float(best_int)
        certificate = SearchCertificate(
            exact=True,
            objective=objective,
            space_size=math.factorial(n),
            group_order=self.group.order,
            group_respects_ports=self.group.respects_ports,
            canonical_leaves=stats["leaves"],
            nodes_expanded=stats["nodes"],
            pruned_by_symmetry=stats["sym"],
        )
        return SearchOutcome(identifiers=best_ids, value=value, certificate=certificate)
