"""Layer spans recorded from outside the program.

The tracer replaces public functions of the comention modules with timing
wrappers, at the module attribute where the caller looks them up (for example
``comention.report.connected_components`` or ``comention.centrality.sweep``),
then calls ``comention.cli.main`` in the same process.  Spans stay in memory
and are written out once, when every command has run.  No program file
changes.

Run as a script, it executes one operation under tracing:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json COMMANDS.json

where COMMANDS.json holds a list of ``comention`` argument lists.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, attribute, span name); a BFS sweep (module _sweep) is named per
# call, "sweep.brandes" or "sweep.distance", since metric names start with a letter.
SITES = (
    ("cli", "ingest_stats", "ingest.ingest_stats"),
    ("report", "run_pipeline", "report.run_pipeline"),
    ("report", "audit", "report.audit"),
    ("report", "load_input_graph", "graph.load_input"),
    ("report", "_read_edge_pairs", "graph.read_edge_csv"),
    ("report", "read_edge_csv", "graph.read_edge_csv"),
    ("report", "build_graph", "graph.build_graph"),
    ("report", "connected_components", "graph.connected_components"),
    ("report", "graph_diameter", "graph.diameter"),
    ("report", "write_edge_csv", "graph.write_edge_csv"),
    ("report", "load_articles", "ingest.load_articles"),
    ("report", "load_aliases", "ingest.load_aliases"),
    ("report", "apply_aliases", "ingest.apply_aliases"),
    ("report", "ingest_stats", "ingest.ingest_stats"),
    ("report", "fit_loglog", "powerlaw.fit"),
    ("report", "load_affiliations", "typology.load_affiliations"),
    ("report", "build_profiles", "typology.profiles"),
    ("report", "kmeans", "typology.kmeans"),
    ("report", "assign_types", "typology.kmeans"),
    ("report", "type_table", "typology.kmeans"),
    ("report", "write_centrality_files", "report.exports"),
    ("report", "write_partition_files", "report.exports"),
    ("report", "write_community_files", "report.exports"),
    ("report", "write_induced_files", "report.exports"),
    ("report", "write_powerlaw_files", "report.exports"),
    ("report", "write_typology_files", "report.exports"),
    ("report", "export_graphml", "report.exports"),
    ("report", "write_json", "report.exports"),
    ("report", "sha256_file", "report.sha256"),
    ("graph", "build_graph", "graph.build_graph"),
    ("graph", "connected_components", "graph.connected_components"),
    ("graph", "sweep", None),
    ("centrality", "compute_bundle", "centrality.compute_bundle"),
    ("centrality", "connected_components", "graph.connected_components"),
    ("centrality", "sweep", None),
    ("centrality", "eigenvector_centrality", "centrality.eigenvector"),
    ("centrality", "clustering_coefficient", "centrality.clustering"),
    ("community", "louvain", "community.louvain"),
    ("community", "modularity", "community.modularity"),
    ("community", "filter_communities", "community.tables"),
    ("community", "community_summary", "community.tables"),
    ("community", "induced_graph", "community.tables"),
    ("community", "top_members", "community.tables"),
    ("community", "label_communities", "community.tables"),
)


def _sweep_name(args, kwargs) -> str:
    return "sweep.brandes" if kwargs.get("betweenness") else "sweep.distance"


def _sweep_note(args, kwargs, result) -> dict:
    sources = kwargs["sources"] if "sources" in kwargs else args[3]
    return {"sources": len(sources)}


def _tally(iterable, box: list):
    for item in iterable:
        box[0] += 1
        yield item


_NOTES = {
    "ingest.load_articles": lambda a, k, r: {"articles": len(r)},
    "ingest.ingest_stats": lambda a, k, r: {"pair_slots": r["pair_slots"]},
    "community.louvain": lambda a, k, r: {"communities": r.count},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.command = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _call(self, name, original, args, kwargs, note=None):
        stack = self._stack()
        span = {"id": next(self._ids), "parent": stack[-1] if stack else None,
                "name": name, "command": self.command,
                "main_thread": threading.current_thread() is threading.main_thread()}
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if note is not None:
            span.update(note(args, kwargs, result))
        return result

    def _wrap(self, owner, attr: str, name: str | None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self
        if name is None:  # a BFS sweep: named by kind, counts its sources
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return tracer._call(_sweep_name(args, kwargs), original, args, kwargs,
                                    _sweep_note)
        elif name == "graph.build_graph":  # counts the pairs it consumes
            @functools.wraps(original)
            def traced(edges, *args, **kwargs):
                box = [0]
                return tracer._call(name, original, (_tally(edges, box), *args), kwargs,
                                    lambda a, k, r: {"pairs_in": box[0], "edges": r.edge_count})
        else:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return tracer._call(name, original, args, kwargs, _NOTES.get(name))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import importlib
        for module, attr, name in SITES:
            self._wrap(importlib.import_module(f"comention.{module}"), attr, name)
        from comention.powerlaw import DegreeDistribution
        for attr in ("from_graph", "from_histogram"):  # classmethods: wrap the bound one
            bound = getattr(DegreeDistribution, attr)
            traced = functools.wraps(bound)(
                lambda *a, _b=bound, **k: self._call("powerlaw.fit", _b, a, k))
            setattr(DegreeDistribution, attr, staticmethod(traced))


def run(commands: list[list[str]]) -> dict:
    """Trace one operation in this process; returns spans and per-command walls."""
    tracer = Tracer()
    tracer.install()
    from comention import cli
    results = []
    for index, argv in enumerate(commands):
        tracer.command = index
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        results.append({"rc": rc, "start": start, "end": time.perf_counter()})
    return {"commands": results, "spans": tracer.spans, "missing": tracer.missing}


def layer_metrics(trace: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer self times and counts of one traced operation.

    Returns the metrics and the trace self-check problems: top-level spans
    must cover at least 95% of the traced wall time, and no self time may be
    negative.
    """
    spans = trace["spans"]
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    self_time: dict[str, float] = {}
    problems = []
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        if own < -1e-9:
            problems.append(f"negative self time {own:.3g} s in {s['name']}")
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + own

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    wall = sum(c["end"] - c["start"] for c in trace["commands"])
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None and s["main_thread"])
    coverage = top / wall if wall > 0 else 0.0
    if coverage < 0.95:
        problems.append(f"top-level spans cover {coverage:.1%} of the traced wall time")
    builds = [s for s in spans if s["name"] == "graph.build_graph" and s["command"] == 0]
    first = builds[0] if builds else {"edges": 0, "pairs_in": 0}

    m = {f"{name}_s": self_time.get(name, 0.0) for name in (
        "sweep.brandes", "sweep.distance", "centrality.eigenvector",
        "centrality.clustering", "community.louvain", "community.modularity",
        "community.tables", "powerlaw.fit", "typology.load_affiliations",
        "typology.profiles", "typology.kmeans", "ingest.load_articles",
        "ingest.load_aliases", "ingest.apply_aliases", "ingest.ingest_stats",
        "graph.build_graph", "graph.write_edge_csv", "graph.load_input",
        "graph.read_edge_csv", "graph.connected_components", "report.exports",
        "report.sha256")}
    m.update({
        "sweep.brandes_sources": total("sweep.brandes", "sources"),
        "sweep.distance_sources": total("sweep.distance", "sources"),
        "centrality.compute_bundle_self_s": self_time.get("centrality.compute_bundle", 0.0),
        "community.louvain_communities": total("community.louvain", "communities"),
        "ingest.articles": total("ingest.load_articles", "articles"),
        "ingest.pair_slots": total("ingest.ingest_stats", "pair_slots"),
        "graph.edges": first["edges"],
        "graph.unique_pair_frac": first["edges"] / first["pairs_in"] if first["pairs_in"] else 0.0,
        "report.run_pipeline_self_s": self_time.get("report.run_pipeline", 0.0),
        "report.audit_self_s": self_time.get("report.audit", 0.0),
        "cli.self_s": wall - top,
        "trace.coverage": coverage,
    })
    return m, problems


def main(argv: list[str]) -> int:
    trace_path, commands_path = argv
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    trace = run(commands)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return max(c["rc"] for c in trace["commands"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
