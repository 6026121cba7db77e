"""Command-line interface.

``python -m repro`` exposes the library's main entry points without writing
any Python:

* ``list-algorithms``              — the registered algorithm names;
* ``list-experiments``             — the experiment index (E1-E13);
* ``run-experiment E1 [--small]``  — run one experiment and print its table;
* ``simulate --algorithm largest-id --n 64 --topology cycle [--ids random]``
                                   — one simulation run with both measures;
* ``gap --n 256``                  — the headline numbers of the paper in one line;
* ``search --topology cycle --n 10 --adversary branch-and-bound``
                                   — one adversary search (worst case over
                                     identifier assignments) with its
                                     certificate;
* ``sweep --topologies cycle,path --sizes 8,16 --algorithms largest-id``
                                   — run a campaign over a (topology × n ×
                                     algorithm × adversary) grid, print the
                                     rows and optionally write them as JSON;
* ``dist --topology cycle --n 8 --methods exact,sample``
                                   — the distribution of both measures over
                                     identifier assignments, exact and/or
                                     sampled;
* ``scale --topology cycle --n 1000000 --samples 2``
                                   — sharded, memory-bounded sampling of
                                     both measures on a streamed CSR
                                     topology (the million-node path);
* ``query --spec spec.json``       — run a declarative
                                     :class:`~repro.api.query.Query` JSON
                                     document (any mode) and optionally
                                     write the versioned
                                     :class:`~repro.api.results.Result`;
* ``serve --port 8000 --store repro-store``
                                   — run the query service: an HTTP front
                                     door over a persistent
                                     content-addressed result store
                                     (``POST /v1/query``, cached repeats,
                                     resumable sampling estimates; guide in
                                     ``docs/service.md``).

Running ``python -m repro`` with no arguments prints this subcommand summary
and exits 0; ``--version`` prints the library version.

Every data-producing subcommand is a thin front-end over one shared
:class:`repro.api.session.Session`: ``simulate``/``search``/``sweep``/``dist``
build the equivalent :class:`~repro.api.query.Query` from their flags, and
``query`` reads one straight from disk.  The CLI prints plain text (tables
and, where helpful, ASCII plots); ``--output`` on ``sweep``, ``dist``,
``scale`` and ``query`` writes the result as one ``repro-result`` document
(schema in ``docs/api.md``), which ``Result.load`` reads back.

``query --profile`` / ``query --trace out.json`` switch on the
instrumentation subsystem (``docs/observability.md``) for the run: the
former prints the per-query span profile, the latter writes a Chrome
trace-event file; both make every timing read-out list the top spans.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro import __version__
from repro.algorithms.registry import algorithm_registry
from repro.api import ID_FAMILIES, Query, Session
from repro.engine.campaign import (
    ADVERSARY_NAMES,
    DIST_METHODS,
    TOPOLOGY_BUILDERS,
    aggregate_dist_rows,
)
from repro.errors import ConfigurationError
from repro.kernel.backend import active_backend
from repro.kernel.shard import SCALE_ALGORITHMS
from repro.topology.stream import STREAM_TOPOLOGIES
from repro.utils.ascii_plot import plot_experiment_column
from repro.utils.tables import Table

#: Topology names accepted by ``simulate`` and ``sweep`` — the engine's
#: campaign registry, re-exported under the CLI's historical name.
TOPOLOGIES = TOPOLOGY_BUILDERS


class _VersionAction(argparse.Action):
    """``--version`` with the kernel backend resolved only when printed.

    Backend resolution may probe (import) numpy, so it must not run while
    merely *building* the parser — that would tax every CLI invocation.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"repro {__version__} (kernel backend: {active_backend()})")
        parser.exit()


def _experiment_modules():
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

    return {
        "E1": largest_id,
        "E2": recurrence,
        "E3": coloring,
        "E4": lower_bound,
        "E5": regularity,
        "E6": random_ids,
        "E7": dynamic,
        "E8": parallel,
        "E9": simulators,
        "E10": characterization,
        "E11": general_graphs,
        "E12": search_strategies,
        "E13": distributions,
    }


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Average complexity for the LOCAL model — simulator, experiments, bounds.",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        nargs=0,
        help="show the library version and the active kernel backend",
    )
    commands = parser.add_subparsers(dest="command")

    commands.add_parser("list-algorithms", help="print the registered algorithm names")
    commands.add_parser("list-experiments", help="print the experiment index")

    run_parser = commands.add_parser("run-experiment", help="run one experiment (E1-E13)")
    run_parser.add_argument("experiment", help="experiment id, e.g. E1")
    run_parser.add_argument("--small", action="store_true", help="use reduced instance sizes")
    run_parser.add_argument(
        "--plot",
        nargs=2,
        metavar=("X_COLUMN", "Y_COLUMN"),
        help="also print an ASCII plot of one table column against another",
    )

    simulate_parser = commands.add_parser("simulate", help="run one algorithm on one instance")
    simulate_parser.add_argument("--algorithm", default="largest-id", help="registered algorithm name")
    simulate_parser.add_argument("--n", type=int, default=64, help="number of nodes")
    simulate_parser.add_argument("--topology", default="cycle", choices=sorted(TOPOLOGIES))
    simulate_parser.add_argument("--ids", default="random", choices=sorted(ID_FAMILIES))
    simulate_parser.add_argument("--seed", type=int, default=0)

    gap_parser = commands.add_parser("gap", help="print the paper's headline gap at one size")
    gap_parser.add_argument("--n", type=int, default=256)

    search_parser = commands.add_parser(
        "search",
        help="run one adversary search (worst case over identifier assignments)",
    )
    search_parser.add_argument(
        "--algorithm", default="largest-id", help="registered algorithm name"
    )
    search_parser.add_argument("--n", type=int, default=8, help="number of nodes")
    search_parser.add_argument("--topology", default="cycle", choices=sorted(TOPOLOGIES))
    search_parser.add_argument(
        "--adversary",
        default="branch-and-bound",
        choices=ADVERSARY_NAMES,
        help="search strategy (exact: exhaustive, pruned-exhaustive, branch-and-bound)",
    )
    search_parser.add_argument(
        "--objective", default="average", choices=("average", "max", "sum")
    )
    search_parser.add_argument("--seed", type=int, default=0)
    search_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes, portfolio only (default: REPRO_WORKERS, then 1)",
    )

    sweep_parser = commands.add_parser(
        "sweep",
        help="run an engine campaign over a (topology x n x algorithm x adversary) grid",
    )
    sweep_parser.add_argument(
        "--topologies",
        default="cycle",
        help="comma-separated topology names (see `simulate --topology` choices)",
    )
    sweep_parser.add_argument(
        "--sizes", default="8", help="comma-separated node counts, e.g. 8,16,32"
    )
    sweep_parser.add_argument(
        "--algorithms",
        default="largest-id",
        help="comma-separated registered algorithm names",
    )
    sweep_parser.add_argument(
        "--adversaries",
        default="random-search",
        help=f"comma-separated adversary names among {', '.join(ADVERSARY_NAMES)}",
    )
    sweep_parser.add_argument(
        "--objective", default="average", choices=("average", "max", "sum")
    )
    sweep_parser.add_argument(
        "--samples", type=int, default=16, help="random-search budget per cell"
    )
    sweep_parser.add_argument(
        "--restarts", type=int, default=2, help="local-search restarts per cell"
    )
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the cell grid (default: REPRO_WORKERS, then 1)",
    )
    sweep_parser.add_argument(
        "--output",
        default=None,
        help="write the result as a repro-result JSON document",
    )

    dist_parser = commands.add_parser(
        "dist",
        help="distribution of both measures over identifier assignments",
    )
    dist_parser.add_argument(
        "--topologies",
        default="cycle",
        help="comma-separated topology names (see `simulate --topology` choices)",
    )
    dist_parser.add_argument(
        "--sizes", default="6", help="comma-separated node counts, e.g. 6,8"
    )
    dist_parser.add_argument(
        "--algorithms",
        default="largest-id",
        help="comma-separated registered algorithm names",
    )
    dist_parser.add_argument(
        "--methods",
        default="exact",
        help=f"comma-separated methods among {', '.join(DIST_METHODS)}",
    )
    dist_parser.add_argument(
        "--samples", type=int, default=256, help="Monte-Carlo sample budget per cell"
    )
    dist_parser.add_argument("--seed", type=int, default=0)
    dist_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the cell grid (default: REPRO_WORKERS, then 1)",
    )
    dist_parser.add_argument(
        "--plot",
        action="store_true",
        help="also print an ASCII pmf of the average measure per cell",
    )
    dist_parser.add_argument(
        "--output",
        default=None,
        help="write the result as a repro-result JSON document",
    )

    scale_parser = commands.add_parser(
        "scale",
        help="sharded million-node sampling on a streamed CSR topology",
    )
    scale_parser.add_argument(
        "--topology",
        default="cycle",
        choices=STREAM_TOPOLOGIES,
        help="streamed topology family",
    )
    scale_parser.add_argument(
        "--n", type=int, default=100_000, help="number of nodes"
    )
    scale_parser.add_argument(
        "--algorithm",
        default="largest-id",
        help=f"scale-capable algorithm ({', '.join(sorted(SCALE_ALGORITHMS))})",
    )
    scale_parser.add_argument(
        "--samples", type=int, default=2, help="sampled identifier assignments"
    )
    scale_parser.add_argument("--seed", type=int, default=0)
    scale_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the shards (default: REPRO_WORKERS, then 1)",
    )
    scale_parser.add_argument(
        "--output",
        default=None,
        help="write the versioned repro-result JSON document to this file",
    )

    query_parser = commands.add_parser(
        "query",
        help="run a declarative query (any mode) from a repro-query JSON spec",
    )
    query_parser.add_argument(
        "--spec", required=True, help="path to a repro-query JSON document"
    )
    query_parser.add_argument(
        "--workers", type=int, default=None, help="override the spec's worker count"
    )
    query_parser.add_argument(
        "--output",
        default=None,
        help="write the versioned repro-result JSON document to this file",
    )
    query_parser.add_argument(
        "--profile",
        action="store_true",
        help="enable instrumentation (as REPRO_OBS=on) and print the "
        "per-query span profile",
    )
    query_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="enable instrumentation and write a Chrome trace-event JSON "
        "(load in chrome://tracing or Perfetto)",
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run the HTTP query service over a persistent result store",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: loopback)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8000, help="port to bind (0 picks an ephemeral port)"
    )
    serve_parser.add_argument(
        "--store",
        default="repro-store",
        help="directory of the content-addressed result store and job ledger",
    )
    serve_parser.add_argument(
        "--max-parallel",
        type=int,
        default=None,
        help="worker processes for queued cold queries "
        "(default: REPRO_WORKERS, then 1)",
    )
    serve_parser.add_argument(
        "--store-max-objects",
        type=int,
        default=None,
        help="LRU-evict stored results beyond this count (default: unbounded)",
    )
    serve_parser.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        help="LRU-evict stored results beyond this many on-disk bytes "
        "(default: unbounded)",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logging"
    )

    return parser


def _cmd_list_algorithms() -> int:
    for name in sorted(algorithm_registry()):
        print(name)
    return 0


def _cmd_list_experiments() -> int:
    for experiment_id, module in _experiment_modules().items():
        summary = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id}: {summary}")
    return 0


def _cmd_run_experiment(args: argparse.Namespace) -> int:
    modules = _experiment_modules()
    experiment_id = args.experiment.upper()
    if experiment_id not in modules:
        raise ConfigurationError(
            f"unknown experiment {args.experiment!r}; known: {', '.join(modules)}"
        )
    result = modules[experiment_id].run(small=args.small)
    print(result)
    if args.plot:
        x_column, y_column = args.plot
        print()
        print(
            plot_experiment_column(
                result.table.rows, x_column, [y_column], title=f"{experiment_id}: {y_column}"
            )
        )
    return 0


def _cmd_simulate(args: argparse.Namespace, session: Session) -> int:
    result = session.simulate(
        Query(
            mode="simulate",
            topologies=args.topology,
            sizes=args.n,
            algorithms=args.algorithm,
            ids=args.ids,
            seed=args.seed,
        )
    )
    row = result.rows[0]
    histogram = {int(radius): count for radius, count in row["histogram"].items()}
    print(f"algorithm        : {row['algorithm']}")
    print(f"graph            : {row['graph']} ({row['graph_n']} nodes, {row['graph_m']} edges)")
    print(f"identifiers      : {row['ids']}")
    print(f"classic measure  : {row['classic']}")
    print(f"average measure  : {row['average']:.4f}")
    print(f"radius histogram : {histogram}")
    print("output certified : yes" if row["certified"] else "output certified : no")
    print(format_timing(result))
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from repro.theory.bounds import (
        largest_id_average_upper_bound,
        largest_id_worst_case_bound,
    )

    n = args.n
    average = largest_id_average_upper_bound(n)
    worst = largest_id_worst_case_bound(n)
    print(
        f"largest-ID on the {n}-cycle: classic measure {worst}, "
        f"average measure {average:.3f}, gap {worst / average:.1f}x"
    )
    return 0


def _cmd_search(args: argparse.Namespace, session: Session) -> int:
    result = session.worst_case(
        Query(
            mode="worst-case",
            topologies=args.topology,
            sizes=args.n,
            algorithms=args.algorithm,
            adversaries=args.adversary,
            measure=args.objective,
            seed=args.seed,
            workers=_resolve_workers_flag(args.workers),
        )
    )
    row = result.rows[0]
    print(f"algorithm        : {row['algorithm']}")
    print(f"graph            : {row['graph']} ({row['graph_n']} nodes)")
    print(f"adversary        : {row['adversary']}")
    print(f"objective        : {row['objective']}")
    print(f"value            : {row['value']:.4f}")
    print(f"exact            : {row['exact']}")
    print(f"evaluations      : {row['evaluations']}")
    print(f"witness ids      : {row['witness_ids']}")
    if row.get("cache") is not None:
        print(f"cache hit rate   : {row['cache']['hit_rate']:.3f}")
    if row.get("certificate") is not None:
        print(f"certificate      : {row['certificate']}")
    print(format_timing(result))
    return 0


def _resolve_workers_flag(value):
    """CLI worker-count precedence: explicit flag > ``REPRO_WORKERS`` > 1."""
    from repro.engine.pool import resolve_workers

    return resolve_workers(value, fallback=1)


def _parse_csv(raw: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def _parse_sizes(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(item) for item in _parse_csv(raw))
    except ValueError as exc:
        raise ConfigurationError(f"--sizes must be comma-separated integers: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace, session: Session) -> int:
    result = session.sweep(
        Query(
            mode="sweep",
            topologies=_parse_csv(args.topologies),
            sizes=_parse_sizes(args.sizes),
            algorithms=_parse_csv(args.algorithms),
            adversaries=_parse_csv(args.adversaries),
            measure=args.objective,
            seed=args.seed,
            samples=args.samples,
            restarts=args.restarts,
            workers=_resolve_workers_flag(args.workers),
        )
    )
    print(result.table())
    print(format_timing(result))
    if args.output:
        result.save(args.output)
        print(f"wrote repro-result document to {args.output}")
    return 0


def _cmd_dist(args: argparse.Namespace, session: Session) -> int:
    from repro.dist.distribution import RoundDistribution, ascii_pmf

    result = session.distribution(
        Query(
            mode="distribution",
            topologies=_parse_csv(args.topologies),
            sizes=_parse_sizes(args.sizes),
            algorithms=_parse_csv(args.algorithms),
            methods=_parse_csv(args.methods),
            seed=args.seed,
            samples=args.samples,
            workers=_resolve_workers_flag(args.workers),
        )
    )
    rows = result.rows
    print(result.table())
    print(format_timing(result))
    if len(rows) > 1:
        aggregates = aggregate_dist_rows(rows)
        aggregate_table = Table(
            columns=("algorithm", "method", "cells", "weight", "avg_mean", "max_mean"),
            title="pooled across graphs",
        )
        for aggregate in aggregates:
            aggregate_table.add_row(
                algorithm=aggregate["algorithm"],
                method=aggregate["method"],
                cells=aggregate["cells"],
                weight=aggregate["total_weight"],
                avg_mean=aggregate["average"]["mean"],
                max_mean=aggregate["max"]["mean"],
            )
        print()
        print(aggregate_table)
    if args.plot:
        for row in rows:
            distribution = RoundDistribution.from_dict(row["distribution"])
            print()
            print(
                f"pmf of the average measure — {row['graph']} / "
                f"{row['algorithm']} / {row['method']}"
            )
            print(ascii_pmf(distribution.average_distribution()))
    if args.output:
        result.save(args.output)
        print(f"wrote repro-result document to {args.output}")
    return 0


def _cmd_scale(args: argparse.Namespace, session: Session) -> int:
    result = session.scale(
        Query(
            mode="scale",
            topologies=args.topology,
            sizes=args.n,
            algorithms=args.algorithm,
            seed=args.seed,
            samples=args.samples,
            workers=_resolve_workers_flag(args.workers),
        )
    )
    row = result.rows[0]
    print(f"algorithm        : {row['algorithm']}")
    print(f"graph            : {row['graph']} ({row['graph_n']} nodes, {row['graph_m']} edges)")
    print(f"samples          : {row['samples']}")
    print(
        f"average measure  : {row['average']['mean']:.4f} "
        f"(se {row['average']['std_error']:.4f})"
    )
    print(f"classic (max)    : {row['max']['mean']:.1f}")
    print(f"throughput       : {row['nodes_per_s']:.0f} nodes/s")
    print(f"kernel           : {row['kernel']['rule']} (workers {row['kernel']['workers']})")
    print(format_timing(result))
    if args.output:
        result.save(args.output)
        print(f"wrote repro-result document to {args.output}")
    return 0


def format_timing(result) -> str:
    """The CLI's timing read-out for one :class:`~repro.api.results.Result`.

    Always the summed wall time; when the result carries a ``profile``
    block (``REPRO_OBS=on`` or ``query --profile``/``--trace``), also the
    top three spans by self time — so the read-out says *where* the time
    went, not just how much there was.
    """
    lines = [f"wall time: {result.timing.get('wall_time_s', 0.0):.3f}s"]
    profile = getattr(result, "profile", None)
    if profile:
        from repro.obs import top_spans

        for node in top_spans(profile["spans"], 3):
            lines.append(
                f"  {node['name']}: {node['total_s']:.3f}s total / "
                f"{node['self_s']:.3f}s self ({node['count']}x)"
            )
    return "\n".join(lines)


def _cmd_query(args: argparse.Namespace, session: Session) -> int:
    if args.profile or args.trace:
        # Flags win over REPRO_OBS=off: instrumentation was asked for
        # explicitly, so switch it on for this process before running.
        from repro.obs import enable, reset_metrics, reset_spans

        enable()
        reset_spans()
        reset_metrics()
    spec = Query.load(args.spec)
    if args.workers is not None:
        spec = spec.with_changes(workers=args.workers)
    result = session.run(spec)
    print(result.table())
    print()
    print(f"mode     : {result.mode}")
    print(f"cells    : {len(result.rows)}")
    if result.exact is not None:
        print(f"exact    : {result.exact}")
    print(f"measures : {result.measures}")
    print(format_timing(result))
    if args.profile:
        print()
        print(result.profile_table())
    if args.trace:
        from repro.obs import write_chrome_trace

        events = write_chrome_trace(args.trace)
        print(f"wrote {events} trace events to {args.trace}")
    if args.output:
        result.save(args.output)
        print(f"wrote repro-result document to {args.output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    if args.command == "list-algorithms":
        return _cmd_list_algorithms()
    if args.command == "list-experiments":
        return _cmd_list_experiments()
    if args.command == "run-experiment":
        return _cmd_run_experiment(args)
    if args.command == "gap":
        return _cmd_gap(args)
    if args.command == "serve":
        from repro.service import serve

        return serve(
            host=args.host,
            port=args.port,
            root=args.store,
            max_parallel=_resolve_workers_flag(args.max_parallel),
            quiet=args.quiet,
            store_max_objects=args.store_max_objects,
            store_max_bytes=args.store_max_bytes,
        )
    session = Session()
    if args.command == "simulate":
        return _cmd_simulate(args, session)
    if args.command == "search":
        return _cmd_search(args, session)
    if args.command == "sweep":
        return _cmd_sweep(args, session)
    if args.command == "dist":
        return _cmd_dist(args, session)
    if args.command == "scale":
        return _cmd_scale(args, session)
    if args.command == "query":
        return _cmd_query(args, session)
    parser.error(f"unhandled command {args.command!r}")
    return 2
