"""Golden trajectories of the swap strategies.

Each row pins what one strategy run returns — ``value``, ``identifiers``,
``steps`` and ``evaluations`` — from a fixed seed, for every registered
algorithm under each objective on a cycle, a path and a random tree.  The
rows were recorded from the incremental evaluator that scored the
strategies before the kernel became their only scorer; trajectories are
unchanged.  ``evaluations`` is that evaluator's count: hill climbing and tabu
search no longer re-examine the swap they commit, so they now count one
evaluation fewer per committed step, and every other count is unchanged.
The rows must hold on both kernel backends.
"""

import pytest

import repro.kernel.backend as kernel_backend
from repro.engine.batch import derive_task_seed
from repro.engine.campaign import build_topology, make_ball_algorithm
from repro.search.portfolio import StrategySpec, run_strategy

BACKENDS = (
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not kernel_backend.numpy_available(), reason="no numpy backend"
        ),
    ),
)

#: The strategy runs the rows pin, one spec per strategy.
SPECS = {
    "hill-climb": StrategySpec.make("hill-climb", swaps_per_step=12, max_steps=10),
    "annealing": StrategySpec.make("annealing", steps=40),
    "tabu": StrategySpec.make("tabu", steps=8, sample=6),
    "random-probe": StrategySpec.make("random-probe", samples=4),
}

#: Strategies whose committed steps each cost one evaluation before.
RECOUNTED = ("hill-climb", "tabu")

#: (topology, n, graph seed, algorithm, objective, strategy,
#:  value, identifiers, steps, evaluations before the kernel-only scorer)
GOLDEN = (
    ('cycle', 24, 0, 'cole-vishkin', 'average', 'hill-climb', 6.0, (23, 18, 3, 7, 5, 6, 10, 11, 8, 2, 13, 21, 12, 14, 17, 0, 22, 19, 9, 16, 4, 20, 15, 1), 0, 12),
    ('cycle', 24, 0, 'cole-vishkin', 'average', 'annealing', 6.0, (21, 14, 23, 4, 8, 15, 9, 20, 3, 6, 22, 19, 7, 11, 2, 18, 5, 1, 17, 10, 0, 13, 12, 16), 40, 40),
    ('cycle', 24, 0, 'cole-vishkin', 'average', 'tabu', 6.0, (12, 22, 13, 21, 4, 1, 19, 6, 23, 5, 17, 20, 10, 9, 11, 8, 16, 3, 18, 7, 2, 14, 0, 15), 8, 56),
    ('cycle', 24, 0, 'cole-vishkin', 'average', 'random-probe', 6.0, (12, 20, 15, 22, 13, 5, 4, 21, 8, 14, 7, 16, 18, 0, 9, 2, 19, 23, 3, 10, 1, 11, 6, 17), 4, 4),
    ('cycle', 24, 0, 'cole-vishkin', 'max', 'hill-climb', 6.0, (20, 12, 5, 18, 15, 19, 22, 11, 6, 7, 13, 9, 14, 10, 3, 21, 16, 23, 2, 17, 0, 4, 8, 1), 0, 12),
    ('cycle', 24, 0, 'cole-vishkin', 'max', 'annealing', 6.0, (14, 3, 1, 16, 4, 11, 18, 9, 12, 0, 22, 2, 15, 17, 10, 13, 7, 20, 5, 19, 6, 8, 21, 23), 40, 40),
    ('cycle', 24, 0, 'cole-vishkin', 'max', 'tabu', 6.0, (14, 22, 10, 15, 18, 5, 17, 7, 13, 23, 9, 8, 2, 1, 11, 16, 20, 21, 19, 3, 0, 6, 4, 12), 8, 56),
    ('cycle', 24, 0, 'cole-vishkin', 'max', 'random-probe', 6.0, (21, 10, 23, 15, 2, 13, 16, 5, 19, 9, 0, 4, 7, 20, 14, 8, 12, 6, 17, 3, 11, 1, 22, 18), 4, 4),
    ('cycle', 24, 0, 'cole-vishkin', 'sum', 'hill-climb', 144.0, (17, 21, 15, 5, 2, 14, 3, 19, 18, 10, 16, 9, 20, 8, 11, 7, 22, 0, 23, 12, 1, 13, 6, 4), 0, 12),
    ('cycle', 24, 0, 'cole-vishkin', 'sum', 'annealing', 144.0, (23, 21, 4, 22, 0, 10, 18, 6, 17, 14, 2, 8, 12, 1, 20, 13, 3, 19, 5, 11, 15, 16, 9, 7), 40, 40),
    ('cycle', 24, 0, 'cole-vishkin', 'sum', 'tabu', 144.0, (5, 12, 10, 2, 3, 21, 22, 20, 4, 7, 18, 19, 15, 23, 13, 0, 14, 11, 6, 9, 1, 8, 17, 16), 8, 56),
    ('cycle', 24, 0, 'cole-vishkin', 'sum', 'random-probe', 144.0, (23, 13, 0, 9, 18, 5, 22, 20, 8, 12, 19, 7, 3, 4, 14, 15, 11, 10, 16, 6, 17, 2, 1, 21), 4, 4),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'average', 'hill-climb', 6.0, (4, 11, 22, 12, 7, 19, 14, 10, 21, 3, 9, 15, 20, 17, 16, 5, 1, 2, 23, 13, 0, 6, 18, 8), 0, 12),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'average', 'annealing', 6.0, (17, 13, 19, 21, 10, 16, 22, 2, 12, 14, 6, 23, 18, 8, 1, 11, 3, 5, 0, 15, 4, 7, 9, 20), 40, 40),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'average', 'tabu', 6.0, (2, 20, 15, 13, 0, 17, 9, 10, 1, 19, 18, 5, 4, 21, 3, 8, 12, 7, 22, 6, 14, 11, 16, 23), 8, 56),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'average', 'random-probe', 6.0, (11, 3, 13, 21, 1, 12, 22, 15, 19, 4, 7, 23, 14, 8, 0, 16, 6, 17, 18, 5, 2, 10, 9, 20), 4, 4),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'max', 'hill-climb', 6.0, (8, 22, 17, 3, 9, 5, 4, 15, 21, 18, 23, 19, 2, 11, 14, 16, 12, 10, 13, 7, 0, 20, 1, 6), 0, 12),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'max', 'annealing', 6.0, (21, 18, 5, 12, 10, 19, 8, 14, 1, 11, 15, 13, 6, 23, 22, 7, 16, 4, 20, 0, 3, 17, 9, 2), 40, 40),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'max', 'tabu', 6.0, (20, 8, 5, 0, 16, 9, 15, 11, 18, 4, 13, 12, 1, 23, 19, 3, 21, 7, 14, 17, 6, 10, 22, 2), 8, 56),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'max', 'random-probe', 6.0, (15, 10, 23, 9, 4, 21, 20, 8, 22, 14, 7, 0, 2, 13, 11, 5, 16, 19, 6, 3, 17, 12, 18, 1), 4, 4),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'sum', 'hill-climb', 144.0, (8, 18, 4, 7, 22, 21, 14, 13, 2, 3, 0, 12, 16, 17, 5, 6, 9, 1, 10, 20, 15, 11, 23, 19), 0, 12),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'sum', 'annealing', 144.0, (20, 14, 5, 21, 17, 13, 10, 3, 6, 7, 18, 23, 12, 16, 1, 15, 8, 0, 4, 22, 9, 2, 19, 11), 40, 40),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'sum', 'tabu', 144.0, (7, 16, 23, 12, 11, 13, 20, 2, 19, 22, 4, 17, 21, 15, 8, 10, 1, 14, 18, 6, 0, 5, 3, 9), 8, 56),
    ('cycle', 24, 0, 'cole-vishkin-ball', 'sum', 'random-probe', 144.0, (7, 3, 0, 16, 8, 2, 18, 10, 23, 13, 17, 9, 5, 15, 11, 1, 20, 19, 21, 6, 12, 22, 14, 4), 4, 4),
    ('cycle', 24, 0, 'greedy-coloring', 'average', 'hill-climb', 2.5, (16, 17, 12, 2, 7, 23, 15, 14, 10, 4, 11, 3, 6, 18, 21, 19, 5, 20, 9, 8, 22, 0, 1, 13), 1, 25),
    ('cycle', 24, 0, 'greedy-coloring', 'average', 'annealing', 2.8333333333333335, (6, 4, 21, 19, 23, 1, 0, 3, 9, 12, 20, 16, 2, 8, 11, 18, 22, 17, 14, 13, 7, 5, 15, 10), 40, 40),
    ('cycle', 24, 0, 'greedy-coloring', 'average', 'tabu', 2.75, (22, 2, 8, 16, 4, 6, 18, 12, 3, 1, 11, 14, 7, 10, 19, 21, 15, 0, 5, 9, 13, 17, 20, 23), 8, 56),
    ('cycle', 24, 0, 'greedy-coloring', 'average', 'random-probe', 2.2083333333333335, (17, 7, 3, 2, 18, 6, 16, 20, 15, 5, 8, 23, 0, 21, 4, 19, 22, 12, 9, 1, 14, 10, 11, 13), 4, 4),
    ('cycle', 24, 0, 'greedy-coloring', 'max', 'hill-climb', 4.0, (9, 0, 3, 7, 4, 6, 10, 17, 1, 23, 15, 16, 13, 18, 14, 2, 21, 22, 8, 5, 19, 12, 11, 20), 0, 12),
    ('cycle', 24, 0, 'greedy-coloring', 'max', 'annealing', 5.0, (6, 3, 1, 20, 16, 18, 13, 9, 12, 5, 8, 14, 7, 22, 2, 23, 15, 10, 17, 4, 11, 0, 21, 19), 40, 40),
    ('cycle', 24, 0, 'greedy-coloring', 'max', 'tabu', 8.0, (10, 22, 19, 16, 12, 8, 6, 2, 0, 1, 18, 9, 4, 17, 3, 13, 21, 23, 5, 20, 7, 14, 11, 15), 8, 56),
    ('cycle', 24, 0, 'greedy-coloring', 'max', 'random-probe', 5.0, (2, 14, 4, 21, 22, 12, 1, 8, 11, 13, 20, 10, 17, 16, 3, 0, 9, 6, 5, 15, 23, 7, 18, 19), 4, 4),
    ('cycle', 24, 0, 'greedy-coloring', 'sum', 'hill-climb', 54.0, (1, 16, 10, 2, 9, 4, 19, 23, 0, 13, 21, 7, 18, 3, 8, 17, 12, 6, 11, 14, 20, 22, 15, 5), 0, 12),
    ('cycle', 24, 0, 'greedy-coloring', 'sum', 'annealing', 69.0, (13, 10, 18, 22, 1, 5, 6, 11, 17, 16, 9, 12, 0, 3, 4, 7, 23, 2, 8, 15, 21, 20, 19, 14), 40, 40),
    ('cycle', 24, 0, 'greedy-coloring', 'sum', 'tabu', 65.0, (12, 1, 9, 2, 5, 15, 18, 20, 17, 7, 23, 19, 10, 8, 6, 11, 22, 4, 3, 0, 16, 21, 14, 13), 8, 56),
    ('cycle', 24, 0, 'greedy-coloring', 'sum', 'random-probe', 51.0, (15, 1, 4, 0, 2, 11, 14, 16, 6, 5, 7, 12, 3, 10, 22, 13, 23, 17, 20, 9, 18, 19, 21, 8), 4, 4),
    ('cycle', 24, 0, 'greedy-mis', 'average', 'hill-climb', 2.2916666666666665, (22, 12, 11, 2, 16, 21, 18, 4, 6, 23, 3, 9, 20, 14, 13, 19, 10, 8, 0, 1, 5, 15, 17, 7), 4, 64),
    ('cycle', 24, 0, 'greedy-mis', 'average', 'annealing', 2.3333333333333335, (0, 10, 23, 12, 3, 2, 1, 17, 7, 19, 22, 8, 5, 16, 13, 21, 18, 9, 20, 6, 15, 14, 11, 4), 40, 40),
    ('cycle', 24, 0, 'greedy-mis', 'average', 'tabu', 2.7916666666666665, (3, 0, 9, 11, 20, 13, 5, 1, 18, 12, 7, 2, 10, 14, 17, 19, 22, 23, 15, 8, 21, 6, 16, 4), 8, 56),
    ('cycle', 24, 0, 'greedy-mis', 'average', 'random-probe', 2.25, (14, 2, 0, 15, 16, 5, 11, 23, 22, 18, 12, 3, 20, 7, 13, 21, 8, 10, 17, 6, 1, 9, 4, 19), 4, 4),
    ('cycle', 24, 0, 'greedy-mis', 'max', 'hill-climb', 8.0, (10, 23, 3, 14, 0, 4, 13, 21, 20, 19, 17, 9, 7, 5, 1, 6, 18, 15, 11, 2, 22, 8, 16, 12), 3, 51),
    ('cycle', 24, 0, 'greedy-mis', 'max', 'annealing', 7.0, (23, 9, 16, 14, 17, 2, 22, 4, 15, 1, 8, 19, 10, 11, 0, 5, 6, 13, 18, 20, 21, 12, 7, 3), 40, 40),
    ('cycle', 24, 0, 'greedy-mis', 'max', 'tabu', 6.0, (3, 18, 9, 16, 6, 1, 19, 4, 17, 20, 21, 8, 5, 7, 10, 14, 22, 23, 15, 11, 2, 13, 12, 0), 8, 56),
    ('cycle', 24, 0, 'greedy-mis', 'max', 'random-probe', 5.0, (11, 14, 22, 12, 23, 16, 2, 20, 5, 8, 15, 17, 19, 6, 21, 4, 18, 1, 3, 10, 0, 7, 13, 9), 4, 4),
    ('cycle', 24, 0, 'greedy-mis', 'sum', 'hill-climb', 63.0, (5, 7, 15, 8, 12, 13, 22, 4, 10, 14, 16, 23, 19, 1, 11, 17, 18, 21, 0, 2, 20, 9, 6, 3), 4, 64),
    ('cycle', 24, 0, 'greedy-mis', 'sum', 'annealing', 76.0, (16, 23, 11, 4, 1, 6, 22, 17, 14, 9, 7, 5, 21, 20, 19, 18, 12, 3, 2, 8, 10, 13, 0, 15), 40, 40),
    ('cycle', 24, 0, 'greedy-mis', 'sum', 'tabu', 61.0, (23, 18, 9, 16, 11, 2, 21, 12, 7, 22, 14, 10, 4, 20, 19, 15, 8, 5, 0, 17, 6, 3, 1, 13), 8, 56),
    ('cycle', 24, 0, 'greedy-mis', 'sum', 'random-probe', 58.0, (2, 18, 3, 23, 14, 11, 12, 16, 17, 22, 9, 4, 10, 13, 19, 20, 15, 6, 1, 5, 8, 7, 21, 0), 4, 4),
    ('cycle', 24, 0, 'largest-id', 'average', 'hill-climb', 2.4583333333333335, (16, 12, 11, 21, 5, 6, 4, 18, 17, 14, 22, 0, 20, 3, 8, 13, 9, 10, 2, 23, 1, 7, 19, 15), 2, 38),
    ('cycle', 24, 0, 'largest-id', 'average', 'annealing', 2.4166666666666665, (11, 3, 23, 9, 1, 4, 17, 5, 12, 14, 10, 22, 19, 2, 0, 13, 20, 16, 21, 15, 8, 6, 18, 7), 40, 40),
    ('cycle', 24, 0, 'largest-id', 'average', 'tabu', 2.4583333333333335, (11, 18, 15, 0, 13, 23, 2, 10, 9, 20, 3, 7, 16, 12, 6, 17, 5, 22, 21, 4, 8, 1, 19, 14), 8, 56),
    ('cycle', 24, 0, 'largest-id', 'average', 'random-probe', 2.4583333333333335, (9, 4, 12, 6, 14, 22, 1, 2, 8, 21, 11, 17, 18, 3, 15, 7, 23, 0, 13, 16, 5, 10, 19, 20), 4, 4),
    ('cycle', 24, 0, 'largest-id', 'max', 'hill-climb', 12.0, (18, 23, 19, 2, 20, 0, 15, 16, 3, 17, 12, 14, 1, 6, 21, 8, 10, 7, 22, 5, 4, 9, 11, 13), 0, 12),
    ('cycle', 24, 0, 'largest-id', 'max', 'annealing', 12.0, (16, 13, 3, 5, 6, 22, 18, 21, 11, 23, 10, 4, 19, 2, 1, 7, 0, 8, 9, 12, 20, 17, 14, 15), 40, 40),
    ('cycle', 24, 0, 'largest-id', 'max', 'tabu', 12.0, (20, 3, 8, 16, 17, 15, 4, 21, 10, 2, 1, 7, 9, 12, 0, 14, 11, 18, 5, 13, 6, 19, 22, 23), 8, 56),
    ('cycle', 24, 0, 'largest-id', 'max', 'random-probe', 12.0, (11, 17, 15, 12, 18, 20, 16, 1, 8, 5, 14, 21, 7, 22, 2, 0, 13, 3, 10, 19, 4, 6, 23, 9), 4, 4),
    ('cycle', 24, 0, 'largest-id', 'sum', 'hill-climb', 56.0, (20, 13, 22, 7, 5, 8, 3, 14, 19, 4, 10, 9, 21, 11, 18, 2, 6, 16, 17, 12, 15, 0, 1, 23), 2, 38),
    ('cycle', 24, 0, 'largest-id', 'sum', 'annealing', 62.0, (10, 21, 4, 9, 0, 19, 11, 23, 14, 16, 15, 20, 17, 5, 18, 7, 2, 13, 6, 22, 3, 8, 12, 1), 40, 40),
    ('cycle', 24, 0, 'largest-id', 'sum', 'tabu', 60.0, (18, 8, 14, 13, 22, 7, 10, 2, 21, 12, 4, 23, 3, 1, 16, 19, 9, 17, 0, 20, 6, 5, 15, 11), 8, 56),
    ('cycle', 24, 0, 'largest-id', 'sum', 'random-probe', 60.0, (7, 4, 22, 6, 3, 10, 5, 9, 2, 21, 16, 19, 11, 20, 12, 23, 8, 17, 1, 15, 13, 14, 0, 18), 4, 4),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'average', 'hill-climb', 3.5416666666666665, (22, 8, 21, 15, 12, 11, 10, 9, 5, 0, 1, 20, 13, 6, 23, 16, 2, 17, 18, 19, 7, 3, 4, 14), 4, 64),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'average', 'annealing', 3.4166666666666665, (10, 20, 2, 21, 19, 0, 5, 8, 9, 14, 15, 22, 18, 16, 12, 11, 17, 4, 3, 23, 13, 1, 6, 7), 40, 40),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'average', 'tabu', 2.8333333333333335, (8, 11, 4, 23, 6, 1, 9, 10, 17, 22, 15, 13, 20, 16, 7, 5, 18, 0, 2, 12, 19, 21, 14, 3), 8, 56),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'average', 'random-probe', 2.6666666666666665, (17, 20, 22, 6, 18, 10, 15, 13, 4, 5, 23, 21, 7, 3, 8, 9, 1, 11, 16, 14, 19, 0, 2, 12), 4, 4),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'max', 'hill-climb', 7.0, (2, 0, 9, 13, 15, 17, 21, 16, 8, 4, 5, 7, 23, 12, 10, 18, 3, 22, 14, 20, 11, 6, 1, 19), 3, 51),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'max', 'annealing', 6.0, (4, 16, 14, 9, 20, 11, 8, 7, 3, 6, 15, 10, 21, 12, 19, 2, 22, 18, 23, 17, 13, 5, 0, 1), 40, 40),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'max', 'tabu', 5.0, (10, 4, 13, 7, 17, 23, 12, 20, 5, 16, 15, 11, 14, 2, 0, 18, 21, 22, 6, 19, 1, 8, 3, 9), 8, 56),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'max', 'random-probe', 7.0, (5, 22, 18, 11, 21, 4, 0, 23, 3, 17, 16, 12, 8, 7, 1, 9, 15, 10, 6, 19, 14, 13, 2, 20), 4, 4),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'sum', 'hill-climb', 95.0, (6, 7, 20, 3, 2, 8, 15, 17, 19, 22, 11, 1, 5, 9, 10, 12, 14, 18, 21, 0, 13, 23, 16, 4), 4, 64),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'sum', 'annealing', 67.0, (16, 7, 6, 14, 17, 20, 23, 1, 8, 15, 13, 10, 0, 22, 21, 2, 5, 3, 9, 19, 18, 12, 11, 4), 40, 40),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'sum', 'tabu', 70.0, (14, 2, 13, 21, 5, 3, 9, 18, 16, 7, 11, 15, 22, 19, 4, 8, 20, 17, 10, 1, 0, 6, 23, 12), 8, 56),
    ('cycle', 24, 0, 'ring-coloring-via-mis', 'sum', 'random-probe', 63.0, (13, 14, 15, 9, 1, 20, 10, 23, 11, 0, 3, 17, 7, 5, 6, 8, 12, 19, 4, 22, 16, 18, 21, 2), 4, 4),
    ('path', 12, 0, 'greedy-coloring', 'average', 'hill-climb', 2.5, (8, 11, 10, 3, 2, 0, 5, 1, 4, 6, 9, 7), 3, 51),
    ('path', 12, 0, 'greedy-coloring', 'average', 'annealing', 2.9166666666666665, (0, 1, 9, 10, 6, 5, 4, 3, 2, 8, 11, 7), 40, 40),
    ('path', 12, 0, 'greedy-coloring', 'average', 'tabu', 2.3333333333333335, (6, 9, 4, 1, 3, 8, 0, 2, 5, 7, 11, 10), 8, 56),
    ('path', 12, 0, 'greedy-coloring', 'average', 'random-probe', 1.9166666666666667, (1, 9, 6, 4, 11, 10, 2, 8, 0, 5, 7, 3), 4, 4),
    ('path', 12, 0, 'greedy-coloring', 'max', 'hill-climb', 4.0, (8, 1, 9, 3, 2, 0, 11, 7, 5, 6, 10, 4), 1, 25),
    ('path', 12, 0, 'greedy-coloring', 'max', 'annealing', 5.0, (3, 6, 9, 10, 0, 2, 8, 11, 7, 5, 4, 1), 40, 40),
    ('path', 12, 0, 'greedy-coloring', 'max', 'tabu', 6.0, (7, 11, 9, 4, 8, 10, 6, 5, 3, 2, 0, 1), 8, 56),
    ('path', 12, 0, 'greedy-coloring', 'max', 'random-probe', 5.0, (4, 2, 1, 9, 7, 6, 5, 3, 8, 0, 11, 10), 4, 4),
    ('path', 12, 0, 'greedy-coloring', 'sum', 'hill-climb', 24.0, (2, 8, 0, 1, 7, 11, 4, 10, 9, 3, 6, 5), 0, 12),
    ('path', 12, 0, 'greedy-coloring', 'sum', 'annealing', 34.0, (5, 11, 9, 6, 4, 3, 0, 10, 8, 2, 1, 7), 40, 40),
    ('path', 12, 0, 'greedy-coloring', 'sum', 'tabu', 32.0, (2, 5, 9, 4, 7, 0, 3, 6, 8, 10, 11, 1), 8, 56),
    ('path', 12, 0, 'greedy-coloring', 'sum', 'random-probe', 27.0, (6, 5, 7, 2, 4, 8, 9, 11, 1, 0, 10, 3), 4, 4),
    ('path', 12, 0, 'greedy-mis', 'average', 'hill-climb', 2.8333333333333335, (1, 2, 7, 10, 4, 0, 3, 5, 6, 8, 9, 11), 2, 38),
    ('path', 12, 0, 'greedy-mis', 'average', 'annealing', 2.4166666666666665, (1, 5, 11, 0, 8, 7, 3, 10, 9, 6, 4, 2), 40, 40),
    ('path', 12, 0, 'greedy-mis', 'average', 'tabu', 3.1666666666666665, (1, 6, 11, 10, 2, 3, 4, 5, 7, 8, 9, 0), 8, 56),
    ('path', 12, 0, 'greedy-mis', 'average', 'random-probe', 2.25, (7, 11, 10, 8, 6, 4, 9, 1, 5, 3, 0, 2), 4, 4),
    ('path', 12, 0, 'greedy-mis', 'max', 'hill-climb', 4.0, (7, 2, 10, 3, 1, 9, 8, 5, 0, 6, 4, 11), 1, 25),
    ('path', 12, 0, 'greedy-mis', 'max', 'annealing', 6.0, (6, 4, 1, 2, 3, 10, 9, 8, 7, 5, 0, 11), 40, 40),
    ('path', 12, 0, 'greedy-mis', 'max', 'tabu', 5.0, (9, 0, 11, 10, 3, 8, 1, 2, 4, 5, 6, 7), 8, 56),
    ('path', 12, 0, 'greedy-mis', 'max', 'random-probe', 5.0, (11, 3, 9, 10, 0, 1, 2, 7, 8, 4, 6, 5), 4, 4),
    ('path', 12, 0, 'greedy-mis', 'sum', 'hill-climb', 30.0, (8, 9, 6, 4, 0, 1, 11, 10, 7, 5, 2, 3), 2, 38),
    ('path', 12, 0, 'greedy-mis', 'sum', 'annealing', 46.0, (0, 1, 3, 6, 7, 8, 10, 11, 9, 4, 2, 5), 40, 40),
    ('path', 12, 0, 'greedy-mis', 'sum', 'tabu', 31.0, (3, 0, 7, 9, 8, 6, 5, 4, 11, 10, 2, 1), 8, 56),
    ('path', 12, 0, 'greedy-mis', 'sum', 'random-probe', 27.0, (1, 0, 8, 7, 4, 6, 10, 9, 5, 3, 2, 11), 4, 4),
    ('path', 12, 0, 'largest-id', 'average', 'hill-climb', 3.0, (7, 5, 10, 0, 4, 3, 2, 9, 1, 8, 6, 11), 1, 25),
    ('path', 12, 0, 'largest-id', 'average', 'annealing', 2.75, (2, 11, 1, 0, 6, 8, 3, 5, 4, 7, 10, 9), 40, 40),
    ('path', 12, 0, 'largest-id', 'average', 'tabu', 3.0833333333333335, (10, 8, 1, 6, 4, 7, 5, 0, 9, 3, 2, 11), 8, 56),
    ('path', 12, 0, 'largest-id', 'average', 'random-probe', 2.5, (10, 8, 2, 9, 5, 6, 0, 4, 11, 3, 7, 1), 4, 4),
    ('path', 12, 0, 'largest-id', 'max', 'hill-climb', 11.0, (11, 9, 0, 3, 7, 10, 1, 5, 6, 8, 2, 4), 1, 25),
    ('path', 12, 0, 'largest-id', 'max', 'annealing', 10.0, (9, 11, 2, 3, 4, 7, 1, 5, 6, 0, 10, 8), 40, 40),
    ('path', 12, 0, 'largest-id', 'max', 'tabu', 11.0, (11, 9, 4, 3, 10, 1, 6, 2, 7, 5, 0, 8), 8, 56),
    ('path', 12, 0, 'largest-id', 'max', 'random-probe', 10.0, (10, 11, 3, 6, 2, 9, 0, 4, 5, 1, 8, 7), 4, 4),
    ('path', 12, 0, 'largest-id', 'sum', 'hill-climb', 35.0, (9, 7, 3, 2, 5, 1, 8, 4, 6, 0, 11, 10), 3, 51),
    ('path', 12, 0, 'largest-id', 'sum', 'annealing', 37.0, (11, 10, 2, 7, 5, 8, 3, 1, 6, 4, 0, 9), 40, 40),
    ('path', 12, 0, 'largest-id', 'sum', 'tabu', 33.0, (6, 11, 8, 3, 1, 9, 0, 2, 7, 4, 10, 5), 8, 56),
    ('path', 12, 0, 'largest-id', 'sum', 'random-probe', 33.0, (7, 1, 11, 3, 9, 4, 2, 8, 0, 6, 5, 10), 4, 4),
    ('random-tree', 16, 3, 'greedy-coloring', 'average', 'hill-climb', 2.0625, (0, 11, 15, 14, 5, 1, 7, 2, 9, 10, 6, 3, 8, 13, 12, 4), 2, 38),
    ('random-tree', 16, 3, 'greedy-coloring', 'average', 'annealing', 2.625, (11, 8, 9, 7, 4, 10, 12, 0, 1, 6, 13, 2, 15, 3, 14, 5), 40, 40),
    ('random-tree', 16, 3, 'greedy-coloring', 'average', 'tabu', 2.5, (4, 13, 9, 14, 0, 5, 1, 2, 8, 11, 7, 12, 6, 3, 15, 10), 8, 56),
    ('random-tree', 16, 3, 'greedy-coloring', 'average', 'random-probe', 2.1875, (14, 5, 10, 9, 7, 2, 3, 6, 13, 4, 15, 11, 1, 8, 0, 12), 4, 4),
    ('random-tree', 16, 3, 'greedy-coloring', 'max', 'hill-climb', 5.0, (15, 11, 9, 5, 3, 4, 14, 10, 0, 1, 8, 12, 13, 7, 2, 6), 1, 25),
    ('random-tree', 16, 3, 'greedy-coloring', 'max', 'annealing', 5.0, (10, 11, 13, 0, 5, 6, 15, 9, 7, 2, 8, 3, 12, 1, 14, 4), 40, 40),
    ('random-tree', 16, 3, 'greedy-coloring', 'max', 'tabu', 5.0, (3, 4, 11, 1, 12, 14, 7, 5, 9, 8, 0, 13, 15, 2, 10, 6), 8, 56),
    ('random-tree', 16, 3, 'greedy-coloring', 'max', 'random-probe', 5.0, (7, 8, 11, 6, 14, 0, 3, 9, 4, 1, 15, 13, 2, 12, 10, 5), 4, 4),
    ('random-tree', 16, 3, 'greedy-coloring', 'sum', 'hill-climb', 36.0, (1, 6, 11, 14, 13, 10, 7, 4, 12, 9, 5, 0, 3, 8, 2, 15), 2, 38),
    ('random-tree', 16, 3, 'greedy-coloring', 'sum', 'annealing', 40.0, (4, 8, 6, 5, 3, 10, 15, 0, 2, 13, 11, 1, 7, 14, 9, 12), 40, 40),
    ('random-tree', 16, 3, 'greedy-coloring', 'sum', 'tabu', 42.0, (7, 12, 6, 13, 2, 10, 1, 8, 3, 9, 15, 0, 14, 4, 11, 5), 8, 56),
    ('random-tree', 16, 3, 'greedy-coloring', 'sum', 'random-probe', 37.0, (1, 6, 10, 2, 12, 9, 3, 14, 13, 5, 7, 11, 15, 4, 8, 0), 4, 4),
    ('random-tree', 16, 3, 'greedy-mis', 'average', 'hill-climb', 2.4375, (2, 5, 12, 15, 14, 0, 4, 10, 8, 1, 9, 13, 3, 11, 6, 7), 1, 25),
    ('random-tree', 16, 3, 'greedy-mis', 'average', 'annealing', 3.25, (6, 10, 12, 9, 15, 1, 14, 7, 0, 8, 11, 13, 5, 2, 3, 4), 40, 40),
    ('random-tree', 16, 3, 'greedy-mis', 'average', 'tabu', 2.875, (4, 12, 15, 8, 6, 7, 14, 1, 5, 11, 13, 3, 9, 2, 0, 10), 8, 56),
    ('random-tree', 16, 3, 'greedy-mis', 'average', 'random-probe', 2.5625, (14, 12, 9, 2, 1, 13, 6, 10, 8, 0, 7, 15, 5, 4, 3, 11), 4, 4),
    ('random-tree', 16, 3, 'greedy-mis', 'max', 'hill-climb', 4.0, (0, 12, 7, 1, 8, 9, 4, 14, 11, 6, 10, 5, 3, 2, 13, 15), 0, 12),
    ('random-tree', 16, 3, 'greedy-mis', 'max', 'annealing', 5.0, (6, 8, 10, 9, 15, 1, 4, 0, 2, 13, 11, 7, 5, 3, 14, 12), 40, 40),
    ('random-tree', 16, 3, 'greedy-mis', 'max', 'tabu', 5.0, (5, 13, 3, 6, 0, 4, 2, 9, 7, 15, 10, 12, 1, 11, 8, 14), 8, 56),
    ('random-tree', 16, 3, 'greedy-mis', 'max', 'random-probe', 5.0, (6, 9, 13, 7, 12, 8, 15, 2, 14, 3, 0, 5, 11, 10, 4, 1), 4, 4),
    ('random-tree', 16, 3, 'greedy-mis', 'sum', 'hill-climb', 52.0, (8, 10, 12, 7, 9, 3, 11, 2, 5, 4, 14, 13, 15, 6, 0, 1), 6, 90),
    ('random-tree', 16, 3, 'greedy-mis', 'sum', 'annealing', 48.0, (15, 11, 10, 4, 3, 12, 7, 1, 2, 5, 9, 13, 0, 6, 8, 14), 40, 40),
    ('random-tree', 16, 3, 'greedy-mis', 'sum', 'tabu', 43.0, (4, 6, 9, 5, 15, 12, 1, 13, 2, 11, 8, 14, 3, 0, 7, 10), 8, 56),
    ('random-tree', 16, 3, 'greedy-mis', 'sum', 'random-probe', 33.0, (6, 13, 10, 12, 7, 9, 2, 11, 0, 4, 15, 8, 14, 5, 1, 3), 4, 4),
    ('random-tree', 16, 3, 'largest-id', 'average', 'hill-climb', 2.1875, (3, 2, 0, 8, 4, 15, 5, 13, 12, 10, 6, 11, 1, 14, 9, 7), 4, 64),
    ('random-tree', 16, 3, 'largest-id', 'average', 'annealing', 2.1875, (9, 3, 11, 4, 2, 5, 7, 8, 15, 1, 6, 14, 12, 10, 0, 13), 40, 40),
    ('random-tree', 16, 3, 'largest-id', 'average', 'tabu', 2.375, (6, 5, 7, 0, 2, 9, 4, 3, 1, 8, 10, 12, 15, 14, 11, 13), 8, 56),
    ('random-tree', 16, 3, 'largest-id', 'average', 'random-probe', 2.0, (13, 1, 3, 9, 6, 8, 0, 2, 5, 10, 7, 14, 11, 15, 12, 4), 4, 4),
    ('random-tree', 16, 3, 'largest-id', 'max', 'hill-climb', 5.0, (8, 11, 2, 5, 13, 3, 10, 15, 0, 7, 12, 6, 9, 1, 14, 4), 0, 12),
    ('random-tree', 16, 3, 'largest-id', 'max', 'annealing', 5.0, (14, 2, 4, 5, 7, 9, 1, 15, 8, 0, 10, 13, 11, 3, 6, 12), 40, 40),
    ('random-tree', 16, 3, 'largest-id', 'max', 'tabu', 5.0, (8, 5, 0, 9, 6, 14, 10, 12, 11, 13, 1, 7, 4, 2, 3, 15), 8, 56),
    ('random-tree', 16, 3, 'largest-id', 'max', 'random-probe', 5.0, (4, 2, 1, 9, 5, 13, 8, 11, 0, 7, 14, 6, 10, 3, 15, 12), 4, 4),
    ('random-tree', 16, 3, 'largest-id', 'sum', 'hill-climb', 37.0, (4, 5, 3, 1, 11, 2, 7, 6, 10, 8, 0, 15, 14, 13, 12, 9), 6, 90),
    ('random-tree', 16, 3, 'largest-id', 'sum', 'annealing', 37.0, (12, 3, 0, 7, 2, 15, 4, 13, 8, 6, 1, 9, 5, 14, 11, 10), 40, 40),
    ('random-tree', 16, 3, 'largest-id', 'sum', 'tabu', 36.0, (4, 3, 6, 2, 1, 5, 8, 14, 15, 9, 11, 0, 12, 10, 7, 13), 8, 56),
    ('random-tree', 16, 3, 'largest-id', 'sum', 'random-probe', 31.0, (0, 11, 10, 2, 12, 3, 5, 8, 4, 1, 7, 15, 13, 9, 6, 14), 4, 4),
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "topology,n,graph_seed,algorithm,objective,strategy,value,identifiers,steps,evaluations",
    GOLDEN,
    ids=[f"{row[5]}-{row[3]}-{row[0]}-{row[4]}" for row in GOLDEN],
)
def test_strategies_keep_their_trajectories(
    topology, n, graph_seed, algorithm, objective, strategy, value, identifiers,
    steps, evaluations, backend, monkeypatch,
):
    monkeypatch.setattr(kernel_backend, "_default_backend", backend)
    graph = build_topology(topology, n, graph_seed)
    seed = derive_task_seed(26, f"{topology}-{algorithm}-{objective}", strategy)
    result = run_strategy(
        (graph, make_ball_algorithm(algorithm, n), objective, SPECS[strategy], seed)
    )
    assert result.name == strategy
    assert result.value == value
    assert result.identifiers == identifiers
    assert result.steps == steps
    recount = steps if strategy in RECOUNTED else 0
    assert result.evaluations == evaluations - recount
