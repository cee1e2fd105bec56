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
from .ingest import open_text
from .powerlaw import fit_mle

logger = logging.getLogger("comention.cli")  # not "__main__" under python -m


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


def cmd_write(args) -> int:
    """Run one report writer, looked up at call time so wrappers installed later see it."""
    run = _run(args)
    getattr(report, args.writer)(run)
    logger.info("wrote %s", ", ".join(str(run.out / f.name) for f in report.RUN_FILES
                                      if f.writer == args.writer))
    return 0


def cmd_stats(args) -> int:
    run = _run(args)
    stats = {name: report.SUMMARY_FIELDS[name](run)
             for name in ("nodes", "edges", "density", "component_count", "diameter")}
    stats["largest_component"] = run.components.sizes[0]
    if run.config.out_dir:
        report.write_json(run.out / "stats.json", stats)
    else:
        _print_json(stats)
    return 0


def cmd_communities(args) -> int:
    run = _run(args)
    payload = {name: report.SUMMARY_FIELDS[name](run)
               for name in ("community_count", "retained_count", "modularity")}
    report.write_partition_files(run)
    report.write_community_files(run)
    _print_json(payload)
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


# One help text per PipelineConfig field.  Its flag is the field name with
# dashes; argparse converts a value to the field's annotated type (a bool
# field is a switch), and PipelineConfig.validate alone checks it.
HELP = {
    "input": "input file: articles JSONL, or source,target CSV with --input-format edges",
    "input_format": f"input file format, one of {report.INPUT_FORMATS}",
    "aliases": "alias,canonical CSV folding duplicate names",
    "affiliations": "name,category CSV of person affiliations for the typology",
    "seed": "non-negative seed for community detection and k-means (mandatory)",
    "resolution": "modularity resolution",
    "min_community_size": "drop communities smaller than this",
    "dmin": "smallest tail degree of the power-law fit",
    "kmeans_k": "number of community types",
    "top_k_members": "members listed per community in top_members.csv",
    "include_other": "absorb non-retained communities into one pseudo-node",
    "threads": "worker processes of the Brandes betweenness sweep (default: usable CPUs); "
               "distance sweeps run bit-parallel in one process; outputs never depend on it",
    "out_dir": "directory for emitted files; without it stats and fit-powerlaw print to stdout",
}
FLAGS = {"kmeans_k": "--k"}

# Each subcommand's help, its handler (or the report writer it runs) and the
# fields it takes; a trailing "!" marks a required one.
SOURCE = "input! input_format aliases"
STAGE = f"{SOURCE} out_dir! threads"
DETECT = f"{STAGE} seed! resolution min_community_size"
COMMANDS = {
    "ingest": ("parse articles and emit the edge list + corpus stats",
               "write_ingest_files", "input! aliases out_dir!"),
    "stats": ("graph-level numbers (nodes, edges, density, diameter)",
              cmd_stats, f"{SOURCE} out_dir"),
    "centrality": ("per-node centralities and the top-10 leaderboards",
                   "write_centrality_files", STAGE),
    "communities": ("Louvain partition, community table, top members",
                    cmd_communities, f"{DETECT} top_k_members"),
    "induced": ("community-level induced network (GraphML/DOT/JSON)",
                "write_induced_files", f"{DETECT} include_other"),
    "fit-powerlaw": ("degree distribution and power-law tail fit",
                     cmd_fit_powerlaw, f"{SOURCE} dmin out_dir"),
    "typology": ("affiliation profiles and k-means community types", "write_typology_files",
                 f"{DETECT} affiliations! kmeans_k top_k_members"),
    "run": ("full pipeline: ingest through typology and manifest", None,
            " ".join(f.name for f in dataclasses.fields(report.PipelineConfig))),
    "audit": ("check a run by reading it back and re-rendering its tables", cmd_audit, ""),
}


def build_parser() -> Parser:
    parser = Parser(prog="comention",
                    description="Co-mention network analysis pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    fields = {f.name: f for f in dataclasses.fields(report.PipelineConfig)}
    commands = {}
    for command, (help_text, handler, names) in COMMANDS.items():
        p = commands[command] = sub.add_parser(command, help=help_text)
        if isinstance(handler, str):
            p.set_defaults(func=cmd_write, writer=handler)
        else:
            p.set_defaults(func=handler)
        for name in names.split():
            field = fields[name.rstrip("!")]
            kind = field.type.partition(" | ")[0]
            value = ({"action": "store_const", "const": True} if kind == "bool"
                     else {"type": report._KINDS[kind][-1]})
            p.add_argument(FLAGS.get(field.name, "--" + field.name.replace("_", "-")),
                           dest=field.name, required=name.endswith("!"),
                           help=HELP[field.name], **value)
    commands["fit-powerlaw"].add_argument(
        "--method", choices=("loglog", "mle"), default="loglog",
        help="tail fit: the pipeline's log-log regression or maximum likelihood")
    commands["run"].add_argument("--config", help="JSON config file; flags override its keys")
    commands["run"].set_defaults(func=lambda a: cmd_run(a, parser))
    commands["audit"].add_argument("--out-dir", required=True,
                                   help="output directory of a run")
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
