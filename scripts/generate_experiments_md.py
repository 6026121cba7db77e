"""Regenerate ``EXPERIMENTS.md`` from a full run of the experiment suite.

The paper is a brief announcement without tables or figures, so the
reproduction's "paper vs. measured" record is built from its quantitative
claims (the experiment index lives in ``DESIGN.md``).  This script runs every
experiment at the benchmark sizes and writes one section per experiment:
the claim, what the paper predicts, the measured table, and the shape checks
that passed.

Sweep campaigns saved as ``repro-result`` documents — ``repro sweep
--output rows.json`` or ``Session().sweep(...).save("rows.json")`` — can be
appended as an extra section with ``--campaign rows.json``.

Usage:  python scripts/generate_experiments_md.py [output-path] [--campaign rows.json]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.api.results import Result

from repro.experiments import (
    characterization,
    coloring,
    distributions,
    dynamic,
    general_graphs,
    largest_id,
    lower_bound,
    parallel,
    random_ids,
    recurrence,
    regularity,
    search_strategies,
    simulators,
)

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of Feuilloley, *Brief Announcement: Average Complexity for the
LOCAL Model* (PODC 2015).  The paper contains **no tables or figures**; its
evaluation is a set of quantitative claims.  ``DESIGN.md`` maps each claim to
an experiment (E1-E13); this file records, for every experiment, what the
paper predicts and what this implementation measures.  Absolute constants are
not specified by a brief announcement, so the reproduction target is the
*shape* of each result (growth rates, who wins, where the bounds sit), and
every experiment embeds shape checks that fail the benchmark run if the
claim stops holding.

Regenerate with ``python scripts/generate_experiments_md.py`` or re-run the
underlying sweeps with ``pytest benchmarks/ --benchmark-only``.

A note on one substitution: the paper points out that 3-colouring the ring in
``O(log* n)`` rounds is possible *without knowledge of n* (Korman–Sereni–
Viennot / Musto).  The upper-bound algorithm used here is the classic
known-``n`` Cole–Vishkin algorithm.  This does not affect either of the
paper's results: the largest-ID analysis (Section 2) never uses ``n``, and
Theorem 1 is a lower bound over *all* algorithms, with or without knowledge
of ``n``; the upper bound only serves to show the lower bound is tight, and
Cole–Vishkin's radius profile (every node stops at the same ``Theta(log* n)``
round) is exactly the profile the uniform algorithms achieve as well.
"""

SECTIONS = (
    (
        "E1",
        "Largest-ID on a cycle: the exponential gap",
        "Section 2: the largest-ID problem has worst-case (classic) "
        "complexity Theta(n) on the n-cycle — the maximum must see everything — "
        "while the natural grow-the-ball algorithm has average radius Theta(log n) "
        "in the worst case over identifier assignments.",
        "the max radius equals floor(n/2) exactly at every size and fits "
        "a linear growth law; the average radius on the explicitly constructed "
        "worst arrangement equals the recurrence bound (floor(n/2) + a(n-1))/n "
        "exactly and fits a logarithmic law.  The gap column (max/avg) grows "
        "roughly like n / log n, the announced exponential separation.",
        lambda: largest_id.run(sizes=[16, 32, 64, 128, 256, 512, 1024]),
    ),
    (
        "E2",
        "The segment recurrence a(p) and OEIS A000788",
        "Section 2: the worst-case total radius on a p-vertex segment "
        "satisfies a(p) = max_k {k + a(k-1) + a(p-k)} and is Theta(p log p), "
        "cf. OEIS A000788.",
        "the recurrence coincides with A000788 term by term, exhaustive "
        "search over all identifier orders matches it for p <= 8, an explicit "
        "arrangement achieving it is constructed for every p, and the ratio "
        "a(p)/(p log2 p) settles near 1/2.",
        lambda: recurrence.run(sizes=[16, 64, 256, 1024, 4096, 16384]),
    ),
    (
        "E3",
        "3-colouring the ring: both measures at Theta(log* n)",
        "Section 3: the ring can be 3-coloured in O(log* n) rounds "
        "(Cole–Vishkin), which matches Linial's lower bound; the interesting "
        "point is that, unlike largest-ID, averaging does not change the picture.",
        "every Cole–Vishkin node commits at the same round "
        "(log*-many bit reductions plus three clean-up rounds), so the average "
        "equals the max and stays essentially flat from n=16 to n=2048 while "
        "never dropping below the Linial threshold.  The greedy-by-identifier "
        "baseline shows the contrast: its sorted-identifier worst case is linear.",
        lambda: coloring.run(sizes=[16, 32, 64, 128, 256, 512, 1024, 2048]),
    ),
    (
        "E4",
        "Theorem 1: the slice construction",
        "Theorem 1: the average complexity of 3-colouring the ring is "
        "Omega(log* n); the proof concatenates slices centred on vertices that "
        "Linial's bound forces to radius >= ceil(0.5 log*(n/2)).",
        "the executable slice construction finds, for every tested n, "
        "slices whose centres meet the threshold, and the average radius of the "
        "colouring algorithm on the constructed permutation (and on random "
        "permutations) never falls below that threshold.",
        lambda: lower_bound.run(sizes=[16, 32, 64, 128]),
    ),
    (
        "E5",
        "Regularity of the radius distribution (Lemmas 2 and 3)",
        "Lemmas 2-3: for minimal colouring algorithms the radii of "
        "vertices between two anchors x, y at distance k are bounded by "
        "max(r(x), r(y)) + k, and the average radius within r/2 of a radius-r "
        "vertex is Omega(r).",
        "Cole–Vishkin's flat profile satisfies Lemma 2 with zero "
        "violations and keeps the Lemma 3 ratio at 1.  The skewed largest-ID "
        "profile (not a colouring algorithm, so not covered by the lemmas) "
        "shows what a violation looks like, confirming the checks are not vacuous.",
        lambda: regularity.run(sizes=[16, 32, 64, 128]),
    ),
    (
        "E6",
        "Expected complexity under random identifiers (future work)",
        "Conclusion: proposes studying the expected running time when "
        "the identifier permutation is uniformly random, for both measures.",
        "for largest-ID the expected average radius grows "
        "logarithmically (tracking the harmonic-number scale H_n) and stays below "
        "the worst-case-over-assignments bound, while the expected classic "
        "measure remains exactly floor(n/2): randomness over identifiers does "
        "not remove the separation — averaging over nodes does.",
        lambda: random_ids.run(sizes=[16, 32, 64, 128, 256, 512], samples=16),
    ),
    (
        "E7",
        "Dynamic networks: label repair after a change at a random node",
        "Introduction: the average time to update the labels after a "
        "change at a random node can be estimated using the average measure.",
        "on cycles the analytic expected repair work equals "
        "2 * average_radius + 1 (up to the wrap-around term of the maximum's "
        "ball), Monte-Carlo churn agrees, and the estimate derived from the "
        "classic measure (2 * max_radius + 1) overshoots by an order of magnitude.",
        lambda: dynamic.run(sizes=[64, 128, 256, 512], churn_events=24),
    ),
    (
        "E8",
        "Parallel simulation: early-stopping nodes free processors",
        "Introduction: when parallel processors simulate a distributed "
        "computation, a finished job frees its processor, so the average running "
        "time is the relevant measure.",
        "greedy list scheduling of the node-jobs achieves a makespan "
        "governed by sum(r(v))/p + max r(v) — i.e. by the average radius — and "
        "beats the lock-step simulator (ceil(n/p) * max radius) by the max/avg "
        "ratio whenever there are enough jobs per processor.",
        lambda: parallel.run(sizes=[128, 256, 512, 1024], processor_counts=(4, 16, 64)),
    ),
    (
        "E9",
        "Equivalence of the ball view and the round view",
        "Introduction: gathering balls of increasing radius is 'an "
        "equivalent way to describe the LOCAL model'.",
        "compiling the ball-based largest-ID algorithm to message "
        "passing changes each node's stopping time by at most one round (the "
        "round view cannot see edges between two frontier nodes), and replaying "
        "the round-based Cole–Vishkin inside balls reproduces its radii exactly; "
        "outputs agree node-for-node in both directions.",
        lambda: simulators.run(sizes=[16, 32, 64, 128]),
    ),
    (
        "E10",
        "Which problems collapse under the average measure? (future work)",
        "Conclusion: asks to characterise the problems whose average complexity "
        "is far below their classic complexity versus those where the two "
        "measures essentially coincide.",
        "on the same ring, largest-ID collapses (linear classic measure, "
        "logarithmic average even against the worst tested assignment), "
        "Cole–Vishkin is perfectly stable (gap exactly 1, as Theorem 1 requires "
        "up to constants), and the greedy-by-identifier problems only look easy "
        "on random identifiers — the sorted order drives their *average* to "
        "Theta(n), so averaging alone does not collapse them.",
        lambda: characterization.run(n=192, samples=6),
    ),
    (
        "E11",
        "The average measure beyond cycles (future work)",
        "Conclusion: notes that only the cycle topology is considered and that "
        "results for more general graphs are missing.",
        "for largest-ID the average/classic separation persists on every "
        "high-diameter family (paths, grids, tori, trees, random trees) — the "
        "maximum still pays its eccentricity while typical vertices stop after "
        "a few hops — and narrows on dense random graphs whose diameter is "
        "already tiny.",
        lambda: general_graphs.run(n=144, samples=4),
    ),
    (
        "E12",
        "The adversary-search portfolio on the cycle",
        "Both measures are worst cases over the identifier assignment, so the "
        "outer adversarial search is itself part of the reproduction's cost "
        "model; the paper's exhaustive ground truth is only feasible for tiny n.",
        "the symmetry-pruned exact searches (canonical enumeration, branch and "
        "bound) report exactly the legacy exhaustive optimum while enumerating "
        "a fraction of the n! assignments (one per automorphism class of the "
        "cycle), and the heuristic swap portfolio attains the same value as a "
        "certified lower bound.",
        lambda: search_strategies.run(sizes=[7, 8]),
    ),
    (
        "E13",
        "Measure distributions over identifier assignments",
        "The paper's measures are worst cases over the identifier assignment; "
        "its follow-up questions (and the node/edge-averaged follow-up papers) "
        "ask how the running time is *distributed* when the assignment varies.",
        "over all n! assignments (computed exactly from n!/|Aut| simulations, "
        "orbit-weighted, total weight exactly n!) the classic measure on the "
        "cycle is a point mass at floor(n/2) while the average measure "
        "concentrates in a narrow band at the logarithmic scale; on trees the "
        "average's spread is strictly below the max's; seeded Monte-Carlo "
        "estimates reproduce the exact means within their standard errors.",
        lambda: distributions.run(sizes=[6, 7, 8]),
    ),
)


def render_campaign_section(rows: list[dict]) -> list[str]:
    """Markdown lines for a sweep-campaign section built from JSON rows."""
    parts = [
        "\n## Sweep campaigns\n",
        "Worst-case-over-assignments searches run through the engine "
        "(`repro sweep`); `value` is the best objective the adversary found, "
        "`hit_rate` the decision-cache hit rate of the search.\n",
        "| topology | n | algorithm | adversary | objective | value | evals | exact | hit_rate |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        cache = row.get("cache") or {}
        parts.append(
            "| {topology} | {n} | {algorithm} | {adversary} | {objective} "
            "| {value:.4f} | {evaluations} | {exact} | {hit_rate:.3f} |".format(
                hit_rate=cache.get("hit_rate", 0.0), **row
            )
        )
    parts.append("")
    return parts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument(
        "--campaign",
        default=None,
        help="JSON rows from `repro sweep --output ...` to append as a section",
    )
    args = parser.parse_args()
    output_path = Path(args.output)
    parts = [HEADER]
    for experiment_id, title, paper_text, measured_text, runner in SECTIONS:
        result = runner()
        assert result.experiment_id == experiment_id
        parts.append(f"\n## {experiment_id} — {title}\n")
        parts.append(f"**Paper.** {paper_text}\n")
        parts.append(f"**Measured.** {measured_text}\n")
        parts.append("```")
        parts.append(str(result.table))
        parts.append("```\n")
        if result.notes:
            parts.append("Shape checks and fits:\n")
            parts.extend(f"- {note}" for note in result.notes)
            parts.append("")
        print(f"{experiment_id}: done")
    if args.campaign:
        parts.extend(render_campaign_section(list(Result.load(args.campaign).rows)))
        print(f"campaign: appended rows from {args.campaign}")
    output_path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    print(f"wrote {output_path}")


if __name__ == "__main__":
    main()
