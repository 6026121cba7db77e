"""Second-generation adversary search over identifier assignments.

Both measures in the paper are worst cases *over the identifier assignment*,
so after the engine made individual runs cheap (PR 1), the dominant cost is
the outer search.  This package is that search layer:

* :mod:`repro.search.automorphisms` — graph symmetry detection (orbit
  refinement plus explicit automorphism groups, cached on the
  :class:`~repro.model.graph.Graph` like frontier plans), which lets exact
  searches enumerate one identifier assignment per symmetry class instead of
  all ``n!`` permutations;
* :mod:`repro.search.branch_bound` — the exact search core: a level-by-level
  enumeration of canonical (lex-minimal per orbit) assignments whose leaves
  are evaluated in batch-kernel blocks;
* :mod:`repro.search.strategies` — swap-based heuristics (hill climbing,
  simulated annealing, tabu search, random probing) over a
  :class:`~repro.search.strategies.SwapEvaluator`, which scores candidate
  swaps as batch-kernel rows;
* :mod:`repro.search.portfolio` — a deterministic parallel portfolio that
  races independent strategies through the engine's
  :class:`~repro.engine.batch.BatchExecutor`;
* :mod:`repro.search.adversaries` — drop-in :class:`~repro.core.adversary.Adversary`
  implementations: the exact search (registered as ``pruned-exhaustive`` and
  ``branch-and-bound``) and the portfolio (``portfolio``, and the
  hill-climb-only ``local-search``), wired into the campaign grid and the
  CLI.

Exact searches return a :class:`~repro.search.branch_bound.SearchCertificate`
(on :attr:`AdversaryResult.certificate <repro.core.adversary.AdversaryResult>`)
recording the symmetry group used, the number of canonical classes
enumerated and the subtrees pruned by symmetry, so results are auditable
after the fact.
"""

from repro.search.adversaries import (
    PortfolioAdversary,
    PrunedExhaustiveAdversary,
)
from repro.search.automorphisms import (
    AutomorphismGroup,
    automorphism_group,
    orbit_partition,
    refine_colors,
)
from repro.search.branch_bound import BranchAndBoundSearch, SearchCertificate
from repro.search.portfolio import PortfolioCertificate, PortfolioSearch, StrategySpec
from repro.search.strategies import (
    StrategyResult,
    SwapEvaluator,
    hill_climb,
    random_probe,
    simulated_annealing,
    tabu_search,
)

__all__ = [
    "AutomorphismGroup",
    "BranchAndBoundSearch",
    "PortfolioAdversary",
    "PortfolioCertificate",
    "PortfolioSearch",
    "PrunedExhaustiveAdversary",
    "SearchCertificate",
    "StrategyResult",
    "StrategySpec",
    "SwapEvaluator",
    "automorphism_group",
    "hill_climb",
    "orbit_partition",
    "random_probe",
    "refine_colors",
    "simulated_annealing",
    "tabu_search",
]
