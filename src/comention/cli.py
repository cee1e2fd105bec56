"""Command-line front end for the co-mention analysis pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from . import report
from .errors import ConvergenceError, DataError
from .graph import density, diameter as graph_diameter
from .ingest import open_text
from .powerlaw import fit_mle

logger = logging.getLogger(__name__)


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems by default; this CLI reserves 2
    for data errors, so usage failures exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _options(args) -> dict:
    """The pipeline options given on the command line."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(report.PipelineConfig)
            if getattr(args, f.name, None) is not None}


def _run(args) -> report.PipelineRun:
    """The pipeline over a subcommand's options, validated exactly as ``run`` does.

    Subcommands without community detection take no seed and may write to
    stdout; placeholders fill those required fields.
    """
    return report.PipelineRun(
        report.PipelineConfig(**{"seed": 0, "out_dir": "", **_options(args)}))


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_ingest(args) -> int:
    run = _run(args)
    written = report.write_ingest_files(run)
    logger.info("wrote %s", ", ".join(str(run.out / name) for name in written))
    return 0


def cmd_stats(args) -> int:
    run = _run(args)
    g, labeling = run.graph, run.components
    stats = {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "density": density(g.node_count, g.edge_count),
        "component_count": labeling.count,
        "largest_component": labeling.sizes[0],
        "diameter": graph_diameter(g, components=labeling, threads=run.config.threads),
    }
    if run.config.out_dir:
        report.write_json(run.out / "stats.json", stats)
    else:
        _print_json(stats)
    return 0


def cmd_centrality(args) -> int:
    report.write_centrality_files(_run(args))
    return 0


def cmd_communities(args) -> int:
    run = _run(args)
    payload = {"community_count": run.partition.count, "retained_count": len(run.retained),
               "modularity": run.modularity}
    report.write_partition_files(run)
    report.write_community_files(run)
    _print_json(payload)
    return 0


def cmd_induced(args) -> int:
    report.write_induced_files(_run(args))
    return 0


def cmd_fit_powerlaw(args) -> int:
    run = _run(args)
    if args.method == "mle":  # takes the place of the pipeline's log-log fit
        run.powerlaw = fit_mle(run.graph.degrees, run.config.dmin)
    fit = run.require("powerlaw")
    if run.config.out_dir:
        report.write_powerlaw_files(run)
    else:
        _print_json(dataclasses.asdict(fit))
    return 0


def cmd_typology(args) -> int:
    report.write_typology_files(_run(args))
    return 0


def cmd_run(args, parser: Parser) -> int:
    mapping: dict = {}
    if args.config:
        with open_text(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{args.config}: invalid JSON: {exc.msg}") from exc
        if not isinstance(loaded, dict):
            raise DataError(f"{args.config}: config must be a JSON object")
        mapping.update(loaded)
    mapping.update(_options(args))
    try:
        config = report.PipelineConfig.from_mapping(mapping)
    except DataError as exc:
        parser.error(str(exc))  # unknown or missing keys: a malformed invocation
    bundle = report.run_pipeline(config)  # validates the values; bad ones exit 2
    _print_json({"summary": bundle.summary, "skipped": [list(item) for item in bundle.skipped],
                 "out_dir": config.out_dir})
    return 0


def cmd_audit(args) -> int:
    checks = report.audit(args.out_dir)
    failed = 0
    for check in checks:
        status = "ok" if check.ok else "FAIL"
        print(f"{status:4s} {check.name}: {check.detail}")
        failed += 0 if check.ok else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 2
    print(f"all {len(checks)} checks passed")
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="comention",
                    description="Co-mention network analysis pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    source = Parser(add_help=False)
    source.add_argument("--input", required=True, help="input file path")
    source.add_argument("--input-format", choices=report.INPUT_FORMATS,
                        default="articles", help="articles JSONL or source,target CSV")
    source.add_argument("--aliases", help="alias,canonical CSV folding duplicate names")

    sink = Parser(add_help=False)
    sink.add_argument("--out-dir", required=True, help="directory for emitted files")

    perf = Parser(add_help=False)
    perf.add_argument("--threads", type=int,
                      help="worker processes for BFS sweeps (any value gives "
                           "byte-identical outputs; default: usable CPUs)")

    eigen = Parser(add_help=False)
    eigen.add_argument("--eigen-tol", type=float, help="eigenvector convergence tolerance")
    eigen.add_argument("--eigen-max-iter", type=int, help="eigenvector iteration cap")
    eigen.add_argument("--eigen-mixing", type=float,
                       help="uniform-vector mixing in (0,1]; below 1 damps the iteration")

    detect = Parser(add_help=False)
    detect.add_argument("--seed", type=int, required=True,
                        help="seed for community detection (mandatory)")
    detect.add_argument("--resolution", type=float, help="modularity resolution")
    detect.add_argument("--min-community-size", type=int, dest="min_community_size",
                        help="drop communities smaller than this")

    p = sub.add_parser("ingest", parents=[sink],
                       help="parse articles and emit the edge list + corpus stats")
    p.add_argument("--input", required=True, help="articles JSONL path")
    p.add_argument("--aliases", help="alias,canonical CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", parents=[source, perf],
                       help="graph-level numbers (nodes, edges, density, diameter)")
    p.add_argument("--out-dir", help="write stats.json here instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("centrality", parents=[source, sink, perf, eigen],
                       help="per-node centralities and the top-10 leaderboards")
    p.add_argument("--top-k-persons", type=int, dest="top_k_persons")
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("communities", parents=[source, sink, perf, eigen, detect],
                       help="Louvain partition, community table, top members")
    p.add_argument("--top-k-members", type=int, dest="top_k_members")
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("induced", parents=[source, sink, perf, eigen, detect],
                       help="community-level induced network (GraphML/DOT/JSON)")
    p.add_argument("--include-other", action="store_true",
                   help="absorb non-retained communities into one pseudo-node")
    p.set_defaults(func=cmd_induced)

    p = sub.add_parser("fit-powerlaw", parents=[source],
                       help="degree distribution and power-law tail fit")
    p.add_argument("--dmin", type=int, help="smallest tail degree")
    p.add_argument("--method", choices=("loglog", "mle"), default="loglog")
    p.add_argument("--out-dir", help="write CSV/JSON here instead of stdout")
    p.set_defaults(func=cmd_fit_powerlaw)

    p = sub.add_parser("typology", parents=[source, sink, perf, eigen, detect],
                       help="affiliation profiles and k-means community types")
    p.add_argument("--affiliations", required=True, help="name,category CSV")
    p.add_argument("--k", type=int, dest="kmeans_k", help="number of types")
    p.add_argument("--top-k-members", type=int, dest="top_k_members")
    p.add_argument("--restarts", type=int, help="k-means restarts")
    p.set_defaults(func=cmd_typology)

    p = sub.add_parser("run", parents=[perf, eigen],
                       help="full pipeline: ingest through typology and manifest")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--input")
    p.add_argument("--input-format", choices=report.INPUT_FORMATS, dest="input_format")
    p.add_argument("--aliases")
    p.add_argument("--affiliations")
    p.add_argument("--seed", type=int)
    p.add_argument("--resolution", type=float)
    p.add_argument("--min-community-size", type=int, dest="min_community_size")
    p.add_argument("--dmin", type=int)
    p.add_argument("--k", type=int, dest="kmeans_k")
    p.add_argument("--top-k-persons", type=int, dest="top_k_persons")
    p.add_argument("--top-k-members", type=int, dest="top_k_members")
    p.add_argument("--include-other", action="store_const", const=True,
                   dest="include_other")
    p.add_argument("--restarts", type=int)
    p.add_argument("--out-dir")
    p.set_defaults(func=lambda a: cmd_run(a, parser))

    p = sub.add_parser("audit", help="recompute the summary from emitted files")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
