"""Command-line front end for the co-mention analysis pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import community as community_mod
from . import report
from .centrality import compute_bundle
from .errors import ConvergenceError, DataError
from .graph import connected_components, density, diameter as graph_diameter
from .ingest import ingest_stats
from .powerlaw import DegreeDistribution, fit_loglog, fit_mle
from .typology import assign_types, build_profiles, kmeans, load_affiliations, type_table

logger = logging.getLogger(__name__)


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems by default; this CLI reserves 2
    for data errors, so usage failures exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_RUN_KEYS = ("input", "input_format", "aliases", "affiliations", "seed",
             "min_community_size", "dmin", "kmeans_k", "top_k_persons",
             "top_k_members", "threads", "out_dir", "resolution",
             "include_other", "restarts", "eigen_tol", "eigen_max_iter",
             "eigen_mixing")


def _options(args) -> dict:
    """The pipeline options given on the command line."""
    return {key: getattr(args, key) for key in _RUN_KEYS
            if getattr(args, key, None) is not None}


def _config(args) -> report.PipelineConfig:
    """A subcommand's options, validated exactly as ``run`` validates them.

    Subcommands without community detection take no seed and may write to
    stdout; placeholders fill those required fields.
    """
    return report.PipelineConfig(**{"seed": 0, "out_dir": "", **_options(args)}).validate()


def _bundle_kwargs(config: report.PipelineConfig) -> dict:
    return {"eigen_tol": config.eigen_tol, "eigen_max_iter": config.eigen_max_iter,
            "eigen_mixing": config.eigen_mixing, "threads": config.threads}


def _out_dir(config: report.PipelineConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    config = _config(args)
    g, records = report.load_input_graph(config)
    out = _out_dir(config)
    report.write_edge_csv(g, out / report.F_EDGES)
    report.write_json(out / report.F_INGEST, ingest_stats(records, g))
    logger.info("wrote %s and %s", out / report.F_EDGES, out / report.F_INGEST)
    return 0


def cmd_stats(args) -> int:
    config = _config(args)
    g, _ = report.load_input_graph(config)
    labeling = connected_components(g)
    stats = {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "density": density(g.node_count, g.edge_count),
        "component_count": labeling.count,
        "largest_component": labeling.sizes[0],
        "diameter": graph_diameter(g, components=labeling, threads=config.threads),
    }
    if config.out_dir:
        report.write_json(_out_dir(config) / "stats.json", stats)
    else:
        print(json.dumps(stats, sort_keys=True, indent=2))
    return 0


def cmd_centrality(args) -> int:
    config = _config(args)
    g, _ = report.load_input_graph(config)
    bundle = compute_bundle(g, **_bundle_kwargs(config))
    report.write_centrality_files(_out_dir(config), g, bundle, config.top_k_persons)
    return 0


def _detect(config: report.PipelineConfig):
    """Shared tail for the community-flavored subcommands."""
    g, _ = report.load_input_graph(config)
    bundle = compute_bundle(g, **_bundle_kwargs(config))
    partition = community_mod.louvain(g, config.seed, config.resolution)
    retained = community_mod.filter_communities(partition, config.min_community_size)
    return g, bundle, partition, retained


def cmd_communities(args) -> int:
    config = _config(args)
    g, bundle, partition, retained = _detect(config)
    summaries = community_mod.community_summary(g, partition, bundle, retained)
    members = community_mod.top_members(g, partition, bundle, retained,
                                        k=config.top_k_members)
    labels = {s.community: s.label for s in summaries}
    out = _out_dir(config)
    report.write_partition_files(out, g, partition)
    report.write_community_files(out, summaries, members, labels)
    q = community_mod.modularity(g, partition)
    print(json.dumps({"community_count": partition.count, "retained_count": len(retained),
                      "modularity": q}, sort_keys=True, indent=2))
    return 0


def cmd_induced(args) -> int:
    config = _config(args)
    g, bundle, partition, retained = _detect(config)
    induced = community_mod.induced_graph(g, partition, retained, bundle,
                                          include_other=config.include_other)
    report.write_induced_files(_out_dir(config), induced)
    return 0


def cmd_fit_powerlaw(args) -> int:
    config = _config(args)
    g, _ = report.load_input_graph(config)
    dist = DegreeDistribution.from_graph(g)
    if args.method == "mle":
        fit = fit_mle(g.degrees, config.dmin)
    else:
        fit = fit_loglog(dist, config.dmin)
    payload = {"alpha": fit.alpha, "dmin": fit.dmin, "n_tail": fit.n_tail,
               "method": fit.method, "intercept": fit.intercept,
               "r_squared": fit.r_squared}
    if config.out_dir:
        out = _out_dir(config)
        report.write_powerlaw_files(out, dist, fit if fit.method == "loglog" else None)
        report.write_json(out / report.F_POWERLAW, payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_typology(args) -> int:
    config = _config(args)
    g, bundle, partition, retained = _detect(config)
    members = community_mod.top_members(g, partition, bundle, retained,
                                        k=config.top_k_members)
    table = load_affiliations(config.affiliations)
    profiles = build_profiles(members, table)
    result = kmeans(np.vstack([p.counts for p in profiles]), config.kmeans_k, config.seed,
                    restarts=config.restarts)
    assignment = assign_types(profiles, result)
    types = type_table(assignment, profiles)
    labels = community_mod.label_communities(g, partition, bundle)
    report.write_typology_files(_out_dir(config), profiles, assignment, types, labels)
    return 0


def cmd_run(args, parser: Parser) -> int:
    mapping: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
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
    print(json.dumps({"summary": bundle.summary,
                      "skipped": [list(item) for item in bundle.skipped],
                      "out_dir": config.out_dir}, sort_keys=True, indent=2))
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
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
