"""Benchmark E12 — the adversary-search portfolio on the cycle."""

from bench_smoke import pick

from repro.experiments import search_strategies

SIZES = pick([7, 8], [6, 7])


def test_bench_e12_search_strategies(benchmark, report):
    result = benchmark.pedantic(
        lambda: search_strategies.run(sizes=SIZES), rounds=1, iterations=1
    )
    report(result)
    assert result.experiment_id == "E12"
    # exhaustive, pruned-exhaustive and portfolio, per size.
    assert len(result.table) == 3 * len(SIZES)
