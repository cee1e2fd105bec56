"""Pipeline orchestration, file exports, manifest and self-audit."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import logging
import math
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import centrality as centrality_mod
from . import community as community_mod
from .centrality import FLOAT_FORMAT
from .errors import DataError
from .graph import (Graph, build_graph, clique_graph, connected_components, csr_graph,
                    density, diameter as graph_diameter, read_edge_pairs, write_edge_csv)
from .ingest import Articles, collector_paused, ingest_stats, load_aliases, load_articles
from .community import InducedGraph, Partition
from .powerlaw import DegreeDistribution, PowerLawFit, fit_loglog
from .typology import (CATEGORIES, assign_types, build_profiles, kmeans,
                       load_affiliations, type_table)

logger = logging.getLogger(__name__)

INPUT_FORMATS = ("articles", "edges")

F_EDGES = "edges.csv"
F_INGEST = "ingest_stats.json"
F_SUMMARY = "summary.json"
F_DEGREE_DIST = "degree_dist.csv"
F_POWERLAW_FIT = "powerlaw_fit.csv"
F_POWERLAW = "powerlaw.json"
F_CENTRALITY = "centrality.csv"
F_TOP10 = "top10.csv"
F_PARTITION = "partition.csv"
F_COMMUNITIES = "communities.csv"
F_TOP_MEMBERS = "top_members.csv"
F_GRAPHML = "graph.graphml"
F_INDUCED_GRAPHML = "induced.graphml"
F_INDUCED_DOT = "induced.dot"
F_INDUCED_JSON = "induced.json"
F_PROFILES = "profiles.csv"
F_TYPOLOGY = "typology.csv"
F_COMMUNITY_TYPES = "community_types.csv"
F_MANIFEST = "manifest.json"
# what every run writes; article input adds F_INGEST and typology its three files
RUN_FILES = (F_EDGES, F_SUMMARY, F_CENTRALITY, F_TOP10, F_PARTITION, F_COMMUNITIES,
             F_TOP_MEMBERS, F_INDUCED_GRAPHML, F_INDUCED_DOT, F_INDUCED_JSON,
             F_DEGREE_DIST, F_POWERLAW_FIT, F_POWERLAW, F_GRAPHML)
# every name a manifest may list
KNOWN_FILES = frozenset((*RUN_FILES, F_INGEST, F_PROFILES, F_TYPOLOGY, F_COMMUNITY_TYPES))

MARK = "†"  # appended to names appearing in more than one leaderboard


def fmt(value) -> str:
    """Stable text form: floats use 12 significant digits, None is blank."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, FLOAT_FORMAT)
    return str(value)


def write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


_KINDS = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,)}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one full run needs; the seed is mandatory by design."""

    input: str
    seed: int
    out_dir: str
    input_format: str = "articles"
    aliases: str | None = None
    affiliations: str | None = None
    min_community_size: int = 100
    dmin: int = 3
    kmeans_k: int = 4
    top_k_persons: int = 10
    top_k_members: int = 5
    threads: int | None = None
    resolution: float = 1.0
    include_other: bool = False
    restarts: int = 1
    eigen_tol: float = 1e-10
    eigen_max_iter: int = 10000
    eigen_mixing: float = 1.0

    def validate(self) -> "PipelineConfig":
        # types first, from the annotations: a float field takes an int, no
        # number field takes a bool, and only "| None" fields take None
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            if not isinstance(value, _KINDS[kind]) or (isinstance(value, bool) and kind != "bool"):
                raise DataError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.input_format not in INPUT_FORMATS:
            raise DataError(f"input_format must be one of {INPUT_FORMATS}, "
                            f"got {self.input_format!r}")
        for field in ("min_community_size", "dmin", "kmeans_k", "top_k_persons",
                      "top_k_members", "restarts", "eigen_max_iter"):
            value = getattr(self, field)
            if value < 1:
                raise DataError(f"{field} must be a positive integer, got {value!r}")
        if self.seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.threads is not None and self.threads < 1:
            raise DataError(f"threads must be a positive integer, got {self.threads!r}")
        for field in ("resolution", "eigen_tol"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{field} must be finite and positive, got {value!r}")
        if not 0.0 < self.eigen_mixing <= 1.0:
            raise DataError(f"eigen_mixing must be in (0, 1], got {self.eigen_mixing!r}")
        return self

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineConfig":
        """Build a config from keys and values; values are checked by :meth:`validate`."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise DataError(f"unknown config keys: {', '.join(sorted(unknown))}")
        missing = {"input", "seed", "out_dir"} - set(mapping)
        if missing:
            raise DataError(f"config is missing required keys: {', '.join(sorted(missing))}")
        return cls(**mapping)

    def echo(self) -> dict:
        """Manifest echo of run parameters, minus paths and thread count.

        Paths vary across environments and threads never change the numbers,
        so leaving both out keeps manifests byte-identical for equivalent runs.
        """
        skip = {"input", "out_dir", "aliases", "affiliations", "threads"}
        return {k: v for k, v in dataclasses.asdict(self).items() if k not in skip}


@dataclass(frozen=True)
class ReportBundle:
    """What a pipeline run produced: headline numbers, file digests, skips."""

    summary: dict
    files: dict[str, str]
    skipped: tuple[tuple[str, str], ...]


def load_input_graph(config: PipelineConfig):
    """Read articles or an edge list per config; returns (graph, articles or None)."""
    with collector_paused():
        aliases = load_aliases(config.aliases) if config.aliases else {}
        if config.input_format == "articles":
            articles = load_articles(config.input, aliases)
            return clique_graph(articles.names, articles.keys, articles.sizes), articles
        pairs = read_edge_pairs(config.input)
        if aliases:
            pairs = [(aliases.get(a, a), aliases.get(b, b)) for a, b in pairs]
        return build_graph(pairs), None


# ---------------------------------------------------------------- exports

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def export_graphml(obj, path) -> None:
    """Serialize a plain or induced graph as GraphML."""
    if isinstance(obj, Graph):
        us, vs = obj.edge_arrays()
        _write_graphml(
            path, "G", [("d_name", "node", "name", "string")],
            [(f'id="n{v}"', (("d_name", name),)) for v, name in enumerate(obj.names)],
            [(f'id="e{i}" source="n{u}" target="n{v}"', ())
             for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist()))])
    elif isinstance(obj, InducedGraph):
        _write_graphml(
            path, "induced",
            [("d_label", "node", "label", "string"), ("d_size", "node", "size", "long"),
             ("d_intra", "node", "intra_weight", "long"),
             ("d_btw", "node", "mean_betweenness", "double"),
             ("d_weight", "edge", "weight", "long")],
            [(f'id="c{c}"', (("d_label", obj.labels[c]), ("d_size", str(obj.sizes[c])),
                             ("d_intra", str(obj.intra_weights[c])),
                             ("d_btw", fmt(obj.mean_betweenness[c]))))
             for c in obj.community_ids],
            [(f'id="e{i}" source="c{a}" target="c{b}"', (("d_weight", str(w)),))
             for i, (a, b, w) in enumerate(obj.edges)])
    else:
        raise DataError(f"cannot export {type(obj).__name__} as GraphML")


def _write_graphml(path, graph_id: str, keys, nodes, edges) -> None:
    """Write GraphML with the bytes that ElementTree's ``indent`` and
    ``write`` give.

    ``keys`` holds (id, for, attr.name, attr.type) per data key; ``nodes``
    and ``edges`` hold (attributes as written, data) per element, data being
    (key, text) pairs.  Text is escaped as ElementTree escapes it (&, <, >),
    an element with no text or children closes itself, and a character
    UTF-8 cannot encode becomes a character reference.
    """
    lines = ["<?xml version='1.0' encoding='UTF-8'?>\n", f'<graphml xmlns="{GRAPHML_NS}">\n']
    lines += [f'  <key id="{key}" for="{target}" attr.name="{name}" attr.type="{kind}" />\n'
              for key, target, name, kind in keys]
    graph = f'  <graph id="{graph_id}" edgedefault="undirected"'
    if not nodes and not edges:
        lines.append(graph + " />\n")
    else:
        lines.append(graph + ">\n")
        for tag, elements in (("node", nodes), ("edge", edges)):
            for attributes, data in elements:
                if not data:
                    lines.append(f"    <{tag} {attributes} />\n")
                    continue
                lines.append(f"    <{tag} {attributes}>\n")
                for key, text in data:
                    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                    lines.append(f'      <data key="{key}">{text}</data>\n' if text
                                 else f'      <data key="{key}" />\n')
                lines.append(f"    </{tag}>\n")
        lines.append("  </graph>\n")
    lines.append("</graphml>\n")
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write("".join(lines))


def read_graphml(path) -> Graph:
    """The graph :func:`export_graphml` wrote, in the file's own ids.

    The i-th ``<node>`` is node i, named by its ``d_name`` text exactly as
    written, and each ``<edge>`` joins two node ids.  Raises
    :class:`DataError` for malformed XML, an edge to an unknown node, a
    self-loop, a repeated node id or name, and a file with no edges.
    """
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise DataError(f"{path}: not well-formed XML: {exc}") from exc
    ids: dict[str, int] = {}
    names: dict[str, None] = {}  # insertion-ordered set
    for el in root.iter(f"{{{GRAPHML_NS}}}node"):
        nid, name = el.get("id"), el.findtext(f"{{{GRAPHML_NS}}}data[@key='d_name']", "")
        if nid in ids or name in names:
            raise DataError(f"{path}: node {nid!r} named {name!r} repeats a node id or name")
        ids[nid] = len(ids)
        names[name] = None
    try:
        ends = np.array([(ids[el.get("source")], ids[el.get("target")])
                         for el in root.iter(f"{{{GRAPHML_NS}}}edge")], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"{path}: edge references unknown node {exc}") from exc
    if not ends.size:
        raise DataError(f"{path}: no edges")
    if (ends[:, 0] == ends[:, 1]).any():
        raise DataError(f"{path}: edge joins a node to itself")
    return csr_graph(tuple(names), ends)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _shade(value: float, peak: float) -> str:
    # darker fill for higher betweenness; flat inputs come out uniform
    level = 85 if peak <= 0 else 85 - int(round(60.0 * value / peak))
    return f"gray{level}"


def export_dot(ig: InducedGraph, path) -> None:
    """Serialize an induced graph in DOT form.

    Node width is proportional to community size, grayscale fill darkens
    with mean betweenness, and edge penwidth is proportional to weight.
    Output ordering is fixed, so bytes are identical across runs.
    """
    peak_b = max((ig.mean_betweenness[c] for c in ig.community_ids), default=0.0)
    peak_s = max((ig.sizes[c] for c in ig.community_ids), default=1)
    peak_w = max((w for _, _, w in ig.edges), default=1)

    display = {c: _dot_quote(ig.labels[c]) for c in ig.community_ids}
    lines = ["graph induced {",
             "  node [shape=circle, style=filled, fixedsize=true, fontcolor=black];"]
    for c in ig.community_ids:
        width = 0.4 + 2.0 * ig.sizes[c] / peak_s
        shade = _shade(ig.mean_betweenness[c], peak_b)
        lines.append(f"  {display[c]} [width={width:.3f}, fillcolor={shade}, "
                     f"tooltip=\"size={ig.sizes[c]}\"];")
    for a, b, w in ig.edges:
        pen = 0.5 + 4.5 * w / peak_w
        lines.append(f"  {display[a]} -- {display[b]} "
                     f"[penwidth={pen:.3f}, label=\"{w}\"];")
    lines.append("}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plot_data(dist: DegreeDistribution, fit: PowerLawFit | None, path) -> None:
    """Write (d, count, f_d, fitted) rows so the degree plot can be redrawn.

    The fitted column holds exp(intercept) * d^alpha for tail degrees when a
    log-log fit is present, and stays blank otherwise.
    """
    if fit is None:
        logger.warning("no power-law fit available; fitted column left blank")
    rows = []
    for d, count, frac in zip(dist.degrees.tolist(), dist.counts.tolist(),
                              dist.fractions.tolist()):
        fitted = None
        if fit is not None and fit.intercept is not None and d >= fit.dmin:
            fitted = float(np.exp(fit.intercept) * d ** fit.alpha)
        rows.append([d, count, frac, fitted])
    write_csv(path, ["d", "count", "f_d", "fitted"], rows)


# ---------------------------------------------------------------- pipeline

class PipelineRun:
    """The products of one pipeline run, each computed on first use.

    ``run`` asks for every product; a stage subcommand builds the same object
    and asks only for what its writers need, so a file written by a stage
    has the same bytes as the one ``run`` writes.  A product this input
    cannot support is ``None``, and ``skipped`` maps its name (the stage
    name in the manifest) to the reason; :meth:`require` raises that reason
    as a :class:`DataError` instead.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config.validate()
        self.skipped: dict[str, str] = {}

    def _skip(self, stage: str, reason) -> None:
        self.skipped[stage] = str(reason)

    def require(self, product: str):
        """The product, or the reason it was skipped raised as a DataError."""
        value = getattr(self, product)
        if value is None:
            raise DataError(self.skipped[product])
        return value

    @cached_property
    def out(self) -> Path:
        out = Path(self.config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return out

    @cached_property
    def source(self) -> tuple[Graph, Articles | None]:
        """The graph and, for article input, the parsed alias-folded articles."""
        return load_input_graph(self.config)

    @property
    def graph(self) -> Graph:
        return self.source[0]

    @cached_property
    def components(self):
        return connected_components(self.graph)

    @cached_property
    def bundle(self):
        c = self.config
        return centrality_mod.compute_bundle(
            self.graph, eigen_tol=c.eigen_tol, eigen_max_iter=c.eigen_max_iter,
            eigen_mixing=c.eigen_mixing, threads=c.threads, components=self.components)

    @cached_property
    def partition(self) -> Partition:
        return community_mod.louvain(self.graph, self.config.seed, self.config.resolution)

    @cached_property
    def modularity(self) -> float:
        return community_mod.modularity(self.graph, self.partition)

    @cached_property
    def retained(self) -> list[int]:
        return community_mod.filter_communities(self.partition, self.config.min_community_size)

    @cached_property
    def summaries(self):
        return community_mod.community_summary(self.graph, self.partition, self.bundle,
                                               self.retained)

    @cached_property
    def labels(self) -> dict[int, str]:
        return {s.community: s.label for s in self.summaries}

    @cached_property
    def members(self) -> dict[int, list[str]]:
        return community_mod.top_members(self.graph, self.partition, self.bundle,
                                         self.retained, k=self.config.top_k_members)

    @cached_property
    def induced(self) -> InducedGraph:
        return community_mod.induced_graph(self.graph, self.partition, self.retained,
                                           self.bundle, include_other=self.config.include_other)

    @cached_property
    def degree_dist(self) -> DegreeDistribution:
        return DegreeDistribution.from_graph(self.graph)

    @cached_property
    def powerlaw(self) -> PowerLawFit | None:
        try:
            return fit_loglog(self.degree_dist, self.config.dmin)
        except DataError as exc:
            return self._skip("powerlaw", exc)

    @cached_property
    def typology(self) -> tuple | None:
        """(profiles, type assignment, type table) over the retained communities."""
        if not self.config.affiliations:
            return self._skip("typology", "no affiliation table configured")
        profiles = build_profiles(self.members, load_affiliations(self.config.affiliations))
        try:
            result = kmeans(np.vstack([p.counts for p in profiles]), self.config.kmeans_k,
                            self.config.seed, restarts=self.config.restarts)
        except DataError as exc:
            return self._skip("typology", exc)
        assignment = assign_types(profiles, result)
        return profiles, assignment, type_table(assignment, profiles)

    @cached_property
    def degree_closeness_correlation(self) -> float | None:
        bundle = self.bundle  # a bundle that cannot be read is an error, not a skip
        try:
            return centrality_mod.pearson_correlation(
                bundle.degree.astype(np.float64), bundle.closeness)
        except DataError as exc:
            return self._skip("degree_closeness_correlation", exc)

    @cached_property
    def diameter(self) -> int:
        largest = self.components.members(0)
        return int(self.bundle.eccentricity[largest].max()) if largest.size > 1 else 0

    @cached_property
    def summary(self) -> dict:
        return {name: field(self) for name, field in SUMMARY_FIELDS.items()}


# summary.json: each field and how a run computes it
SUMMARY_FIELDS = {
    "nodes": lambda run: run.graph.node_count,
    "edges": lambda run: run.graph.edge_count,
    "density": lambda run: density(run.graph.node_count, run.graph.edge_count),
    "diameter": lambda run: run.diameter,
    "component_count": lambda run: run.components.count,
    "community_count": lambda run: run.partition.count,
    "retained_count": lambda run: len(run.retained),
    "modularity": lambda run: run.modularity,
    "alpha": lambda run: None if run.powerlaw is None else run.powerlaw.alpha,
    "degree_closeness_r": lambda run: run.degree_closeness_correlation,
}


# ------------------------------------------------------- artifact writers
# Each writer takes the run, asks it for the products it needs and returns
# the names of the files it wrote.

def write_ingest_files(run: PipelineRun) -> list[str]:
    """edges.csv, plus ingest_stats.json for article input."""
    g, articles = run.source
    write_edge_csv(g, run.out / F_EDGES)
    if articles is None:
        return [F_EDGES]
    write_json(run.out / F_INGEST, ingest_stats(articles, g))
    return [F_EDGES, F_INGEST]


def write_centrality_files(run: PipelineRun) -> list[str]:
    """centrality.csv and the four-column leaderboard top10.csv."""
    g, bundle = run.graph, run.bundle
    write_csv(run.out / F_CENTRALITY,
              ["name", "degree", "closeness", "betweenness", "eigenvector", "clustering"],
              ([g.names[v], int(bundle.degree[v]), float(bundle.closeness[v]),
                float(bundle.betweenness[v]), float(bundle.eigenvector[v]),
                float(bundle.clustering[v])]
               for v in centrality_mod.rank(g, bundle.written("betweenness"))))
    table = centrality_mod.top_table(g, bundle, k=run.config.top_k_persons)
    # every column ranks all nodes, so all have one length
    write_csv(run.out / F_TOP10, ["rank", *table.measures],
              ([i, *(name + MARK if table.marked(name) else name for name in names)]
               for i, names in enumerate(zip(*(table.columns[m] for m in table.measures)),
                                         start=1)))
    return [F_CENTRALITY, F_TOP10]


def write_graph_files(run: PipelineRun) -> list[str]:
    export_graphml(run.graph, run.out / F_GRAPHML)
    return [F_GRAPHML]


def write_partition_files(run: PipelineRun) -> list[str]:
    g, partition = run.graph, run.partition
    write_csv(run.out / F_PARTITION, ["name", "community"],
              ([g.names[v], int(partition.labels[v])] for v in range(g.node_count)))
    return [F_PARTITION]


def write_community_files(run: PipelineRun) -> list[str]:
    """communities.csv and top_members.csv over the retained communities."""
    write_csv(run.out / F_COMMUNITIES, ["rank", "label", "B", "S", "C", "E", "CC", "D"],
              ([i + 1, s.label, s.mean_betweenness, s.size, s.mean_closeness,
                s.mean_eigenvector, s.mean_clustering, s.internal_density]
               for i, s in enumerate(run.summaries)))
    members = run.members
    write_csv(run.out / F_TOP_MEMBERS, ["community", "label", "rank", "name"],
              ([c, run.labels[c], i, name] for c in sorted(members)
               for i, name in enumerate(members[c], start=1)))
    return [F_COMMUNITIES, F_TOP_MEMBERS]


def write_induced_files(run: PipelineRun) -> list[str]:
    induced = run.induced
    export_graphml(induced, run.out / F_INDUCED_GRAPHML)
    export_dot(induced, run.out / F_INDUCED_DOT)
    write_json(run.out / F_INDUCED_JSON, {
        "communities": [
            {"community": c, "label": induced.labels[c], "size": induced.sizes[c],
             "mean_betweenness": float(fmt(induced.mean_betweenness[c])),
             "intra_weight": induced.intra_weights[c]}
            for c in induced.community_ids],
        "edges": [{"a": a, "b": b, "weight": w} for a, b, w in induced.edges],
        "dropped_edges": induced.dropped_edges})
    return [F_INDUCED_GRAPHML, F_INDUCED_DOT, F_INDUCED_JSON]


def write_powerlaw_files(run: PipelineRun) -> list[str]:
    """degree_dist.csv, the plot data and powerlaw.json (null when skipped)."""
    dist, fit = run.degree_dist, run.powerlaw
    write_csv(run.out / F_DEGREE_DIST, ["d", "count", "f_d"],
              zip(dist.degrees.tolist(), dist.counts.tolist(), dist.fractions.tolist()))
    emit_plot_data(dist, fit, run.out / F_POWERLAW_FIT)
    write_json(run.out / F_POWERLAW, None if fit is None else dataclasses.asdict(fit))
    return [F_DEGREE_DIST, F_POWERLAW_FIT, F_POWERLAW]


def write_typology_files(run: PipelineRun) -> list[str]:
    profiles, assignment, types = run.require("typology")
    write_csv(run.out / F_PROFILES, ["community", *CATEGORIES, "unlabeled"],
              ([p.community, *p.counts.tolist(), p.unlabeled] for p in profiles))
    headers = ["category"] + [f"T{i + 1}" for i in range(len(types.type_ids))]
    rows = [[cat, *types.matrix[i].tolist()] for i, cat in enumerate(types.categories)]
    rows.append(["communities", *types.communities_per_type])
    write_csv(run.out / F_TYPOLOGY, headers, rows)
    display = {raw: i + 1 for i, raw in enumerate(types.type_ids)}
    write_csv(run.out / F_COMMUNITY_TYPES, ["community", "label", "type", "type_name"],
              ([c, run.labels[c], display[assignment.types[c]],
                types.type_names[display[assignment.types[c]] - 1]]
               for c in sorted(assignment.types)))
    return [F_PROFILES, F_TYPOLOGY, F_COMMUNITY_TYPES]


def run_pipeline(config: PipelineConfig) -> ReportBundle:
    """Run every stage, write every file, then summary.json and the manifest.

    Every product is computed before the first file is written, so a data
    error leaves no partial output.  A stage that cannot run on this input
    (power law, typology, degree-closeness correlation) is recorded in
    ``skipped`` with its reason, in that order; genuine data errors propagate.
    """
    run = PipelineRun(config)
    for product in ("powerlaw", "typology", "degree_closeness_correlation", "summary",
                    "labels", "members", "induced"):
        getattr(run, product)
    emitted = [*write_ingest_files(run), *write_centrality_files(run),
               *write_partition_files(run), *write_community_files(run),
               *write_induced_files(run), *write_powerlaw_files(run), *write_graph_files(run)]
    if run.typology is not None:
        emitted += write_typology_files(run)
    write_json(run.out / F_SUMMARY, run.summary)
    emitted.append(F_SUMMARY)

    skipped = tuple(run.skipped.items())
    digests = {name: sha256_file(run.out / name) for name in sorted(emitted)}
    write_json(run.out / F_MANIFEST, {
        "config": config.echo(),
        "files": digests,
        "skipped": [list(item) for item in skipped],
    })
    return ReportBundle(summary=run.summary, files=digests, skipped=skipped)


# ---------------------------------------------------------------- audit

@dataclass(frozen=True)
class AuditCheck:
    name: str
    ok: bool
    detail: str


def _close(a: float, b: float) -> bool:
    """The audit's one float tolerance: 1e-9 relative, or absolute below 1."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


# Errors that mean a check's inputs are missing, malformed or inconsistent.
_UNCOMPUTABLE = (OSError, DataError, KeyError, ValueError, TypeError, AttributeError,
                 OverflowError)


class RecordedRun(PipelineRun):
    """A finished run read back from its directory, in the run's own node ids.

    The graph comes from graph.graphml (its i-th node is node i), the
    partition from partition.csv, read by position (its name column must be
    the graph's names in node order), the scores from centrality.csv,
    matched by name (degree from the graph), and the diameter from one
    distance-only sweep, so no community detection, eigenvector iteration or
    Brandes sweep runs again.  That sweep is bit-parallel and runs in this
    process: only the Brandes sweep starts worker processes, and
    ``config.threads`` never changes a byte.  Every other product, and every
    file a writer renders into ``config.out_dir``, is :class:`PipelineRun`'s
    own; edges.csv is the only ingest file it renders.
    """

    def __init__(self, run_dir: Path, config: PipelineConfig):
        super().__init__(config)
        self.run_dir = run_dir

    @cached_property
    def source(self) -> tuple[Graph, None]:
        return read_graphml(self.run_dir / F_GRAPHML), None

    @cached_property
    def diameter(self) -> int:
        return graph_diameter(self.graph, components=self.components)

    def _rows(self, filename: str) -> list[dict]:
        with open(self.run_dir / filename, "r", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    @cached_property
    def partition(self) -> Partition:
        rows, names = self._rows(F_PARTITION), self.graph.names
        if [row["name"] for row in rows] != list(names):
            first = next((i for i, (row, name) in enumerate(zip(rows, names))
                          if row["name"] != name), min(len(rows), len(names)))
            raise DataError(f"{self.run_dir / F_PARTITION}: rows are not in the node order "
                            f"of {F_GRAPHML}, first at row {first + 1}")
        return Partition.from_labels([int(row["community"]) for row in rows])

    @cached_property
    def bundle(self) -> centrality_mod.CentralityBundle:
        measures = ["closeness", "betweenness", "eigenvector", "clustering"]
        rows = self._rows(F_CENTRALITY)
        by_name = {row["name"]: row for row in rows}
        if len(by_name) != len(rows) or by_name.keys() != set(self.graph.names):
            raise DataError(f"{self.run_dir / F_CENTRALITY}: rows do not name each graph "
                            f"node once")
        columns = np.array([[by_name[name][m] for m in measures] for name in self.graph.names],
                           dtype=np.float64).T
        return centrality_mod.CentralityBundle(
            degree=centrality_mod.degree_centrality(self.graph), eccentricity=None,
            **dict(zip(measures, columns)))


def audit(out_dir) -> list[AuditCheck]:
    """Read a run back and check that its files say what the run computes.

    Digests are verified for every manifest entry; an entry that is not a
    file name a run writes fails unopened.  The run is read back as a
    :class:`RecordedRun`: every summary.json field is compared with the one
    it computes, and the run's own writers re-render graph.graphml, the edge
    list and the centrality, community and power-law tables into a temporary
    directory, each compared with the file on disk.  Each check runs on its
    own: one that cannot be computed from the files, say because a row was
    renamed or deleted, becomes a failed check whose detail names the cause.
    """
    out = Path(out_dir)
    manifest_path = out / F_MANIFEST
    if not manifest_path.exists():
        return [AuditCheck("manifest", False, f"{manifest_path} not found")]
    checks: list[AuditCheck] = []

    def attempt(name, compute):
        try:
            return compute()
        except _UNCOMPUTABLE as exc:
            checks.append(AuditCheck(name, False,
                                     f"cannot be computed: {type(exc).__name__}: {exc}"))
            return None

    manifest = attempt("manifest", lambda: _read_manifest(manifest_path))
    if manifest is None:
        return checks
    attempt("digests", lambda: _audit_digests(out, manifest, checks))
    summary = attempt("summary", lambda: _json_object(_read_json(out / F_SUMMARY), F_SUMMARY))
    with tempfile.TemporaryDirectory() as scratch:
        run = attempt("config", lambda: RecordedRun(out, PipelineConfig.from_mapping({
            **manifest.get("config", {}), "input": str(out / F_GRAPHML), "out_dir": scratch})))
        if run is None or attempt("graph", lambda: run.graph) is None:
            return checks
        attempt("partition", lambda: checks.append(AuditCheck(
            "partition", True, f"one row per graph node, {run.partition.count} communities")))
        if summary is not None:
            for name in dict.fromkeys([*SUMMARY_FIELDS, *summary]):
                attempt(name, lambda: checks.append(
                    _audit_field(name, SUMMARY_FIELDS[name](run), summary[name])))
        # each re-rendered file, its check and its writer, named here so that
        # wrappers installed after import see the call
        rendered = {}
        for name, check, writer in (
                (F_GRAPHML, "graphml", write_graph_files),
                (F_EDGES, "edge_list", write_ingest_files),
                (F_CENTRALITY, "centrality", write_centrality_files),
                (F_TOP10, "top10", write_centrality_files),
                (F_COMMUNITIES, "community_means", write_community_files),
                (F_TOP_MEMBERS, "top_members", write_community_files),
                (F_DEGREE_DIST, "degree_dist", write_powerlaw_files),
                (F_POWERLAW_FIT, "powerlaw_fit", write_powerlaw_files),
                (F_POWERLAW, "powerlaw", write_powerlaw_files)):
            def compare():
                if writer not in rendered:
                    rendered[writer] = writer(run)
                return _audit_file(check, out / name, run.out / name)
            attempt(check, lambda: checks.append(compare()))
    attempt("induced_conservation", lambda: _audit_induced(out, run.graph, checks))
    return checks


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DataError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _read_manifest(path) -> dict:
    manifest = _json_object(_read_json(path), F_MANIFEST)
    for key in ("config", "files"):
        _json_object(manifest.get(key, {}), f"{F_MANIFEST} {key!r}")
    return manifest


def _audit_digests(out: Path, manifest: dict, checks: list[AuditCheck]) -> None:
    """Every listed file matches its digest, and every file the run wrote is listed."""
    files = manifest.get("files", {})
    written = set(RUN_FILES)
    if manifest.get("config", {}).get("input_format", "articles") == "articles":
        written.add(F_INGEST)
    if "typology" not in dict(manifest.get("skipped", [])):
        written.update((F_PROFILES, F_TYPOLOGY, F_COMMUNITY_TYPES))
    problems = [(name, "not listed in manifest") for name in sorted(written - set(files))]
    for name, expected in files.items():
        path = out / name
        if name not in KNOWN_FILES:  # never opened: it may name any path
            problems.append((name, "not a file a run writes"))
        elif not path.exists():
            problems.append((name, "missing"))
        elif sha256_file(path) != expected:
            problems.append((name, "digest mismatch"))
    checks.extend(AuditCheck(f"file:{name}", False, why) for name, why in problems)
    if not problems:
        checks.append(AuditCheck("digests", True, f"{len(files)} files match"))


def _audit_field(name: str, computed, recorded) -> AuditCheck:
    """A summary field: integers and nulls equal, floats within :func:`_close`."""
    if isinstance(computed, float) and type(recorded) in (int, float):
        ok = _close(computed, recorded)
    else:
        ok = type(computed) is type(recorded) and computed == recorded
    return AuditCheck(name, ok, f"{json.dumps(computed)} vs {json.dumps(recorded)}")


def _audit_file(check: str, written: Path, rendered: Path) -> AuditCheck:
    """A file against its re-rendering: the same bytes, or CSV cells that are
    equal or, where both parse as floats, within :func:`_close`."""
    if written.read_bytes() == rendered.read_bytes():
        return AuditCheck(check, True, f"{written.name} re-renders byte for byte")
    if written.suffix != ".csv":
        return AuditCheck(check, False, f"{written.name} differs from its re-rendering")
    found, expected = (list(csv.reader(p.read_text(encoding="utf-8").splitlines(True)))
                       for p in (written, rendered))
    bad = [str(i) for i, (a, b) in enumerate(itertools.zip_longest(found, expected, fillvalue=[]))
           if len(a) != len(b) or not all(map(_same_cell, a, b))]
    return AuditCheck(check, not bad, f"rows {', '.join(bad)} differ" if bad
                      else f"{written.name} re-renders within 1e-9")


def _same_cell(a: str, b: str) -> bool:
    try:
        return a == b or _close(float(a), float(b))
    except ValueError:
        return False


def _audit_induced(out: Path, g: Graph, checks: list[AuditCheck]) -> None:
    induced = _read_json(out / F_INDUCED_JSON)
    total = (sum(e["weight"] for e in induced["edges"])
             + sum(c["intra_weight"] for c in induced["communities"])
             + induced["dropped_edges"])
    checks.append(AuditCheck("induced_conservation", total == g.edge_count,
                             f"{total} vs m={g.edge_count}"))
