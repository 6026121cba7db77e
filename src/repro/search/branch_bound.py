"""Exact adversary search: canonical leaves enumerated level by level.

The legacy :class:`~repro.core.adversary.ExhaustiveAdversary` scores all
``n!`` identifier permutations in kernel cohorts.  This search instead

1. **assigns identifiers slot by slot** along a BFS order of the positions
   from a graph pseudo-centre, one whole level of prefixes at a time: each
   prefix is extended by each unused identifier in ascending order, so the
   leaves come out in lexicographic slot order;
2. **prunes by symmetry**: only assignments that are lexicographically
   minimal in their automorphism orbit survive (see
   :mod:`repro.search.automorphisms`), dividing the space by the group
   order.  Identifiers are distinct, so ``val <= val ∘ sigma`` is decided
   at the first slot ``j`` that ``sigma`` moves: each group element adds
   one slot pair, ``val[j] < val[sigma(j)]``, checked at the level that
   fills both slots; and
3. **evaluates in blocks**: each block of :data:`LEAF_BLOCK_ROWS` leaves is
   one :func:`~repro.kernel.compile.simulate_many` call on the search's
   compiled instance — an int64 identifier matrix the numpy kernel sweeps
   as it is, or position tuples on the stdlib backend, which never imports
   numpy.

Values are compared strictly in leaf order, so the first optimal canonical
leaf is the witness.  The optimum is exact, and a :class:`SearchCertificate`
records the group used and the enumeration counters.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Any, Callable, Optional

from repro.core.adversary import validate_objective
from repro.core.algorithm import BallAlgorithm
from repro.errors import AnalysisError
from repro.kernel.backend import numpy_module
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

#: Canonical leaves per kernel call: numpy sweeps of 1024 leaves cost about
#: a third less per leaf than sweeps of 256 (ring-scan on the 9-cycle).
LEAF_BLOCK_ROWS = 4 * DEFAULT_BATCH_ROWS

#: Node cap of the exact searches and exact distributions.  Symmetry
#: pruning pushes feasibility past the legacy exhaustive limit of 9, but
#: the enumeration is still factorial on asymmetric graphs, so a guard
#: remains.
DEFAULT_EXACT_MAX_NODES = 12

#: Budget on ``n! / |Aut|``, the number of canonical assignment classes an
#: exact search or exact distribution may face.  This is the honest
#: feasibility measure — the 10-cycle (181 440 classes) is fine, the 12-path
#: (239 500 800) is not, and ``K_12`` (a single class) is trivial despite
#: its 12 nodes.
DEFAULT_MAX_CLASSES = 250_000


@dataclass(frozen=True)
class SearchCertificate:
    """Audit trail of one exact search.

    ``space_size`` is the full ``n!`` the legacy exhaustive adversary would
    enumerate; ``canonical_leaves`` is how many symmetry-inequivalent
    assignments the search evaluated, ``nodes_expanded`` how many partial
    assignments the level enumeration built (one per prefix and unused
    identifier, pruned or not) and ``pruned_by_symmetry`` how many of them
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
        return asdict(self)


@dataclass
class SearchOutcome:
    """Raw result of :meth:`BranchAndBoundSearch.run` (position-id tuple)."""

    identifiers: tuple[int, ...]
    value: float
    certificate: SearchCertificate


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
        #: The compiled batch instance every leaf block is evaluated on; the
        #: enumeration runs on its backend.
        self.kernel = compile_instance(graph, algorithm)
        if respect_ports is None:
            respect_ports = bool(getattr(algorithm, "uses_ports", True))
        self.group: AutomorphismGroup = automorphism_group(
            graph, respect_ports=respect_ports, max_size=max_group_size
        )
        n = graph.n
        center = min(graph.positions(), key=graph.eccentricity)
        # BFS discovery order (port order within a node): every prefix of
        # the enumeration labels a connected region.
        self.order: tuple[int, ...] = tuple(graph.distances_from(center))
        #: ``slot_of[position]``: where each position sits in :attr:`order`.
        self.slot_of = sorted(range(n), key=self.order.__getitem__)
        # Each non-identity sigma moves a first slot j to a later slot k; a
        # canonical assignment has val[j] < val[k].
        below: list[set[int]] = [set() for _ in range(n)]
        for sigma in self.group.elements:
            for j, position in enumerate(self.order):
                k = self.slot_of[sigma[position]]
                if k != j:
                    below[k].add(j)
                    break
        #: ``below[k]``: the earlier slots whose identifiers a canonical
        #: assignment keeps below slot ``k``'s, checked as ``k`` is filled.
        self.below: tuple[list[int], ...] = tuple(sorted(slots) for slots in below)

    def run(self, on_block: Optional[Callable[[Any, Any], None]] = None) -> SearchOutcome:
        """Evaluate every canonical assignment; return the exact optimum.

        The witness is the first optimal canonical leaf in lexicographic
        slot order.  ``on_block`` (the hook of :mod:`repro.dist.exact`) is
        called once per evaluated block, in leaf order, with ``(ids,
        radii)``: two ``(rows, n)`` matrices indexed by position, int64
        arrays on numpy and lists of tuples on the stdlib backend.  Each
        leaf stands for exactly ``group.order`` assignments (the group acts
        freely on bijective assignments).
        """
        n = self.graph.n
        np = numpy_module() if self.kernel.backend == "numpy" else None
        with _obs_span("search.branch_bound", n=n, objective=self.objective):
            with _obs_span("search.enumerate", backend=self.kernel.backend):
                if np is not None:
                    leaves, nodes, pruned = self._enumerate_numpy(np)
                else:
                    leaves, nodes, pruned = self._enumerate_python()
            with _obs_span("search.evaluate", leaves=len(leaves)):
                best, best_ids = self._evaluate(leaves, on_block, np)
        _metrics.add("search.nodes", nodes)
        _metrics.add("search.leaves", len(leaves))
        _metrics.add("search.pruned_by_symmetry", pruned)
        value = best / n if self.objective == "average" else float(best)
        certificate = SearchCertificate(
            exact=True,
            objective=self.objective,
            space_size=math.factorial(n),
            group_order=self.group.order,
            group_respects_ports=self.group.respects_ports,
            canonical_leaves=len(leaves),
            nodes_expanded=nodes,
            pruned_by_symmetry=pruned,
        )
        return SearchOutcome(identifiers=best_ids, value=value, certificate=certificate)

    def _picks(self, depth: int) -> list[list[int]]:
        """Column picks that make a row's children at ``depth``.

        A row is its prefix (slots ``0..depth-1``) followed by its unused
        identifiers ascending; child ``c`` moves the ``c``-th unused one into
        slot ``depth``.  On a complete graph (one class) only the smallest.
        """
        rest = range(depth, self.graph.n)
        choices = rest[:1] if self.group.full_symmetric else rest
        return [[*range(depth), c, *(k for k in rest if k != c)] for c in choices]

    def _enumerate_numpy(self, np):
        """``(leaves, nodes, pruned)``: leaves as one small-int matrix."""
        n = self.graph.n
        rows = np.arange(n, dtype=np.min_scalar_type(n - 1))[None, :]
        nodes = pruned = 0
        for depth, below in enumerate(self.below):
            # Row-major (row, child): the leaves stay in lex order.
            rows = rows[:, self._picks(depth)].reshape(-1, n)
            nodes += rows.shape[0]
            if below:
                bad = rows[:, depth] < rows[:, below].max(axis=1)
                pruned += int(np.count_nonzero(bad))
                rows = rows[~bad]
        return rows[:, self.slot_of], nodes, pruned

    def _enumerate_python(self):
        """``(leaves, nodes, pruned)``: leaves as tuples (no numpy)."""
        n = self.graph.n
        level = [tuple(range(n))]
        nodes = pruned = 0
        for depth, below in enumerate(self.below):
            picks = self._picks(depth)
            if depth == n - 1:  # the leaves: straight into position order
                picks = [[pick[slot] for slot in self.slot_of] for pick in picks]
            # (itemgetter(0) would return an int: a one-node row is its child.)
            picks = [itemgetter(*pick) if n > 1 else tuple for pick in picks]
            nodes += len(level) * len(picks)
            grown = []
            for row in level:
                # The unused identifiers row[depth:] ascend, so the children
                # that break the test (a smaller identifier) come first.
                skip = 0
                if below:
                    skip = bisect_left(row, max([row[j] for j in below]), depth) - depth
                pruned += skip
                grown += [pick(row) for pick in picks[skip:]]
            level = grown
        return level, nodes, pruned

    def _evaluate(self, leaves, on_block, np):
        """The best leaf score and its ids: the first maximum in leaf order."""
        score = max if self.objective == "max" else sum
        best = -1
        best_ids: Optional[tuple[int, ...]] = None
        for start in range(0, len(leaves), LEAF_BLOCK_ROWS):
            block = leaves[start : start + LEAF_BLOCK_ROWS]
            if np is not None:
                block = block.astype(np.int64)
            (radii,) = simulate_many(
                [BatchRequest(self.kernel, block, pre_validated=True)]
            )
            if on_block is not None:
                on_block(block, radii)
            if np is not None:
                scores = (radii.max(axis=1) if score is max else radii.sum(axis=1)).tolist()
            else:
                scores = list(map(score, radii))
            value = max(scores)
            if value > best:
                best, best_ids = value, tuple(map(int, block[scores.index(value)]))
        return best, best_ids
