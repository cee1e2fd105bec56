import csv
import dataclasses
import hashlib
import itertools
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import (graph_from, graphml_oracle, id_pairs, labeled, modularity_oracle,
                      random_pairs)
from comention import (
    CentralityBundle,
    DataError,
    DegreeDistribution,
    Graph,
    Partition,
    PipelineConfig,
    build_graph,
    compute_bundle,
    emit_plot_data,
    export_dot,
    export_graphml,
    export_induced_graphml,
    fit_loglog,
    induced_graph,
    louvain,
    read_graphml,
    run_pipeline,
    top_k,
    top_members,
)
from comention.report import (
    RUN_FILES,
    SUMMARY_FIELDS,
    PipelineRun,
    audit,
    write_centrality_files,
    write_induced_files,
)
from comention.synth import benchmark_graph, generate_corpus, write_articles_jsonl

CLIQUE_ARTICLES = [
    {"id": "left", "persons": [f"L{i}" for i in range(5)]},
    {"id": "right", "persons": [f"R{i}" for i in range(5)]},
    {"id": "bridge", "persons": ["L0", "R0"]},
]

AFFILIATIONS = "\n".join(
    ["name,category"]
    + [f"L{i},business" for i in range(3)]
    + [f"L{i},politics" for i in range(3, 5)]
    + [f"R{i},press" for i in range(4)]
    + ["R4,criminal"]
) + "\n"


def write_fixture(tmp_path, with_affiliations=True):
    articles = tmp_path / "articles.jsonl"
    articles.write_text(
        "".join(json.dumps(a) + "\n" for a in CLIQUE_ARTICLES),
        encoding="utf-8",
    )
    aff = None
    if with_affiliations:
        aff = tmp_path / "affiliations.csv"
        aff.write_text(AFFILIATIONS, encoding="utf-8")
    return articles, aff


def clique_config(tmp_path, out_name="out", **kw):
    articles, aff = write_fixture(tmp_path, kw.pop("with_affiliations", True))
    defaults = dict(
        input=str(articles),
        seed=5,
        out_dir=str(tmp_path / out_name),
        affiliations=None if aff is None else str(aff),
        min_community_size=2,
        kmeans_k=2,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def local(tag):
    return tag.rsplit("}", 1)[-1]


class TestPipelineConfig:
    def test_defaults_follow_reported_methodology(self):
        cfg = PipelineConfig(input="x", seed=1, out_dir="y")
        assert cfg.min_community_size == 100
        assert cfg.dmin == 3
        assert cfg.kmeans_k == 4
        assert cfg.top_k_persons == 10
        assert cfg.top_k_members == 5

    def test_positive_threshold_validation(self):
        for field in (
            "min_community_size",
            "dmin",
            "kmeans_k",
            "top_k_persons",
            "top_k_members",
        ):
            with pytest.raises(DataError):
                PipelineConfig(
                    input="x", seed=1, out_dir="y", **{field: 0}
                ).validate()

    def test_input_format_validation(self):
        with pytest.raises(DataError):
            PipelineConfig(
                input="x", seed=1, out_dir="y", input_format="parquet"
            ).validate()

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(DataError, match="unknown"):
            PipelineConfig.from_mapping(
                {"input": "x", "seed": 1, "out_dir": "y", "topk": 3}
            )

    def test_from_mapping_requires_seed(self):
        with pytest.raises(DataError, match="seed"):
            PipelineConfig.from_mapping({"input": "x", "out_dir": "y"})

    def test_echo_excludes_paths_and_threads(self):
        cfg = PipelineConfig(
            input="/a", seed=1, out_dir="/b", aliases="/c", threads=7
        )
        echo = cfg.echo()
        assert "input" not in echo
        assert "out_dir" not in echo
        assert "aliases" not in echo
        assert "threads" not in echo
        assert echo["seed"] == 1
        assert echo["min_community_size"] == 100


class TestRunPipeline:
    def test_two_clique_fixture(self, tmp_path):
        bundle = run_pipeline(clique_config(tmp_path))
        out = tmp_path / "out"
        assert bundle.summary["nodes"] == 10
        assert bundle.summary["edges"] == 21
        assert bundle.summary["community_count"] == 2
        assert bundle.summary["retained_count"] == 2
        assert bundle.summary["component_count"] == 1
        assert bundle.summary["diameter"] == 3

        with open(out / "partition.csv", newline="", encoding="utf-8") as fh:
            community_of = {
                row["name"]: int(row["community"])
                for row in csv.DictReader(fh)
            }
        with open(out / "edges.csv", newline="", encoding="utf-8") as fh:
            edge_rows = [
                (row["source"], row["target"]) for row in csv.DictReader(fh)
            ]
        g = build_graph(edge_rows)
        labels = [community_of[name] for name in g.names]
        want_q = modularity_oracle(g.node_count, id_pairs(g), labels)
        assert bundle.summary["modularity"] == pytest.approx(
            want_q, abs=1e-12
        )

        for name in (
            "edges.csv",
            "ingest_stats.json",
            "partition.csv",
            "top10.csv",
            "degree_dist.csv",
            "profiles.csv",
            "typology.csv",
            "community_types.csv",
            "summary.json",
        ):
            assert name in bundle.files
            assert (out / name).exists()
        assert (out / "manifest.json").exists()

        # only two distinct tail degrees here, so the power-law stage skips
        assert bundle.summary["alpha"] is None
        assert any(stage == "powerlaw" for stage, _ in bundle.skipped)

    @pytest.mark.parametrize("affiliations", [True, False],
                             ids=["affiliations", "no-affiliations"])
    @pytest.mark.parametrize("input_format", ["articles", "edges"])
    def test_manifest_lists_the_documented_files(self, tmp_path, input_format, affiliations):
        cfg = clique_config(tmp_path, with_affiliations=affiliations)
        expected = {
            "edges.csv", "graph.graphml", "centrality.csv", "top10.csv", "partition.csv",
            "communities.csv", "top_members.csv", "induced.json", "induced.graphml",
            "induced.dot", "degree_dist.csv", "powerlaw_fit.csv", "powerlaw.json",
            "summary.json"}
        if input_format == "articles":
            expected.add("ingest_stats.json")
        else:
            edges = tmp_path / "edges.csv"
            edges.write_text("source,target\n" + "".join(
                f"{a},{b}\n" for article in CLIQUE_ARTICLES
                for a, b in itertools.combinations(article["persons"], 2)), encoding="utf-8")
            cfg = dataclasses.replace(cfg, input=str(edges), input_format="edges")
        if affiliations:
            expected |= {"profiles.csv", "typology.csv", "community_types.csv"}
        bundle = run_pipeline(cfg)
        assert set(bundle.files) == expected
        written = {p.name for p in (tmp_path / "out").iterdir()}
        assert written == set(bundle.files) | {"manifest.json"}

    def test_data_error_leaves_no_partial_output(self, tmp_path):
        with pytest.raises(DataError, match="min_size"):
            run_pipeline(clique_config(tmp_path, min_community_size=50))
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_typology_skipped_without_affiliations(self, tmp_path):
        bundle = run_pipeline(
            clique_config(tmp_path, with_affiliations=False)
        )
        assert "typology.csv" not in bundle.files
        assert "profiles.csv" not in bundle.files
        assert any(stage == "typology" for stage, _ in bundle.skipped)

    def test_edges_input_skips_ingest_stats(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text(
            "source,target\nA,B\nB,C\nC,A\nC,D\n", encoding="utf-8"
        )
        cfg = PipelineConfig(
            input=str(edges),
            seed=3,
            out_dir=str(tmp_path / "out"),
            input_format="edges",
            min_community_size=1,
        )
        bundle = run_pipeline(cfg)
        assert "ingest_stats.json" not in bundle.files
        assert bundle.summary["nodes"] == 4

    def test_manifest_identical_across_runs_and_threads(self, tmp_path):
        cfg1 = clique_config(tmp_path, out_name="out1", threads=1)
        cfg2 = clique_config(tmp_path, out_name="out2", threads=2)
        run_pipeline(cfg1)
        run_pipeline(cfg2)
        m1 = (tmp_path / "out1" / "manifest.json").read_bytes()
        m2 = (tmp_path / "out2" / "manifest.json").read_bytes()
        assert m1 == m2

    def test_induced_means_are_communities_column_b(self, tmp_path):
        articles = tmp_path / "articles.jsonl"
        write_articles_jsonl(generate_corpus(n_articles=120, n_persons=240, seed=3), articles)
        bundle = run_pipeline(PipelineConfig(
            input=str(articles), seed=3, out_dir=str(tmp_path / "out"),
            min_community_size=5, include_other=True))
        assert bundle.summary["retained_count"] > 3
        out = tmp_path / "out"
        with open(out / "communities.csv", newline="", encoding="utf-8") as fh:
            column_b = {row["label"]: float(row["B"]) for row in csv.DictReader(fh)}
        induced = json.loads((out / "induced.json").read_text(encoding="utf-8"))
        means = {c["label"]: c["mean_betweenness"] for c in induced["communities"]
                 if c["community"] >= 0}
        assert means == column_b

    def test_unreadable_input_is_data_error(self, tmp_path):
        cfg = PipelineConfig(
            input=str(tmp_path / "missing.jsonl"),
            seed=1,
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises((DataError, OSError)):
            run_pipeline(cfg)


class TestRoundOffProofRanking:
    """Scores equal in every written digit rank by name, whatever the round-off."""

    @staticmethod
    def near_tie(tmp_path):
        g = build_graph([("Zed", "Amy"), ("Amy", "Bob"), ("Bob", "Zed")])
        n = g.node_count
        betweenness = np.zeros(n)
        betweenness[g.names.index("Amy")] = 0.3
        betweenness[g.names.index("Zed")] = 0.3 * (1.0 + 1e-15)  # a few ulps above
        assert betweenness[g.names.index("Zed")] > betweenness[g.names.index("Amy")]
        bundle = CentralityBundle(
            degree=g.degrees.astype(np.int64), closeness=np.zeros(n),
            betweenness=betweenness, eigenvector=np.zeros(n),
            clustering=np.zeros(n), eccentricity=np.ones(n, dtype=np.int64))
        run = PipelineRun(PipelineConfig(input="unused", seed=1,
                                         out_dir=str(tmp_path / "out")))
        run.source = (g, None)
        run.bundle = bundle
        return g, bundle, run

    def test_tables_and_top_k_list_the_pair_in_name_order(self, tmp_path):
        g, bundle, run = self.near_tie(tmp_path)
        write_centrality_files(run)
        out = tmp_path / "out"
        with open(out / "centrality.csv", newline="", encoding="utf-8") as fh:
            names = [row["name"] for row in csv.DictReader(fh)]
        assert names == ["Amy", "Zed", "Bob"]
        with open(out / "top10.csv", newline="", encoding="utf-8") as fh:
            column = [row["betweenness"].rstrip("†") for row in csv.DictReader(fh)]
        assert column[:2] == ["Amy", "Zed"]
        assert top_k(g, bundle, "betweenness", k=2) == ["Amy", "Zed"]
        one = Partition.from_labels([0] * g.node_count)
        assert top_members(g, one, bundle, [0], k=2) == {0: ["Amy", "Zed"]}

    def test_induced_json_ignores_round_off(self, tmp_path):
        written, means = set(), set()
        for i, scale in enumerate((1.0, 1.0 + 1e-15)):
            g, bundle, run = self.near_tie(tmp_path / str(i))
            run.bundle = dataclasses.replace(bundle, betweenness=bundle.betweenness * scale)
            run.partition = Partition.from_labels([0] * g.node_count)
            run.retained = [0]
            write_induced_files(run)
            means.add(run.induced.mean_betweenness[0])
            written.add((tmp_path / str(i) / "out" / "induced.json").read_bytes())
        assert len(means) == 2
        assert len(written) == 1


class TestGraphML:
    def test_triangle_element_counts(self, tmp_path):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")])
        path = tmp_path / "g.graphml"
        export_graphml(g, path)
        tree = ET.parse(path)
        tags = [local(el.tag) for el in tree.iter()]
        assert tags.count("node") == 3
        assert tags.count("edge") == 3

    def test_round_trip_random_graphs(self, tmp_path, eighth_scale):
        """The graph comes back in its own ids: the same names in the same
        order and the same CSR arrays."""
        rng = np.random.default_rng(271)
        graphs = [graph_from(random_pairs(rng)) for _ in range(8)]
        for i, g in enumerate(graphs + [g for g, _, _ in eighth_scale.values()]):
            path = tmp_path / f"g{i}.graphml"
            export_graphml(g, path)
            back = read_graphml(path)
            assert back.names == g.names
            assert back.indptr.dtype == g.indptr.dtype
            assert np.array_equal(back.indptr, g.indptr)
            assert back.adjacency.dtype == g.adjacency.dtype
            assert np.array_equal(back.adjacency, g.adjacency)

    NODES = ('<node id="n0"><data key="d_name">A</data></node>'
             '<node id="n1"><data key="d_name">B</data></node>')

    @pytest.mark.parametrize("body,error", [
        pytest.param(NODES + '<edge source="n0" target="n1"', "not well-formed XML",
                     id="malformed"),
        pytest.param(NODES + '<edge source="n0" target="n2" />', "unknown node 'n2'",
                     id="unknown-node"),
        pytest.param(NODES + '<edge source="n1" target="n1" />', "joins a node to itself",
                     id="self-loop"),
        pytest.param(NODES + '<node id="n1"><data key="d_name">C</data></node>'
                     '<edge source="n0" target="n1" />', "repeats a node id or name",
                     id="repeated-id"),
        pytest.param(NODES + '<node id="n2"><data key="d_name">A</data></node>'
                     '<edge source="n0" target="n1" />', "repeats a node id or name",
                     id="repeated-name"),
        pytest.param(NODES, "no edges", id="no-edges"),
    ])
    def test_read_graphml_rejects(self, tmp_path, body, error):
        path = tmp_path / "bad.graphml"
        path.write_text('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
                        f'<graph id="G" edgedefault="undirected">{body}</graph></graphml>',
                        encoding="utf-8")
        with pytest.raises(DataError, match=error):
            read_graphml(path)

    def test_induced_weight_attribute(self, tmp_path):
        g = build_graph(
            [("A", "B"), ("B", "C"), ("X", "Y"), ("A", "X"), ("B", "Y")]
        )
        p = Partition.from_labels(
            [0 if n in "ABC" else 1 for n in g.names]
        )
        bundle = compute_bundle(g)
        ind = induced_graph(g, p, labeled(g, p, bundle, [0, 1]), bundle)
        path = tmp_path / "induced.graphml"
        export_induced_graphml(ind, path)
        text = path.read_text(encoding="utf-8")
        assert "weight" in text
        tree = ET.parse(path)
        weights = [
            el.text
            for el in tree.iter()
            if local(el.tag) == "data" and el.get("key") == "d_weight"
        ]
        assert "2" in weights

    @staticmethod
    def same_as_oracle(obj, tmp_path, write=export_graphml):
        write(obj, tmp_path / "written.graphml")
        graphml_oracle(obj, tmp_path / "oracle.graphml")
        written = (tmp_path / "written.graphml").read_bytes()
        assert written == (tmp_path / "oracle.graphml").read_bytes()
        return written

    def test_escaped_names_match_element_tree(self, tmp_path):
        names = ["A & B", "<C>", 'D "quoted"', "E's", "Ж ü 東", "&amp;", "x>y<z"]
        g = build_graph(list(zip(names, names[1:])))
        text = self.same_as_oracle(g, tmp_path).decode("utf-8")
        assert "<data key=\"d_name\">A &amp; B</data>" in text and "&lt;C&gt;" in text
        assert read_graphml(tmp_path / "written.graphml").names == g.names

    def test_lone_surrogate_matches_element_tree(self, tmp_path):
        """Ingest rejects such a name; written anyway, it is a character
        reference, as ElementTree writes it."""
        g = build_graph([("Ann \ud800 X", "B")])
        assert b"Ann &#55296; X" in self.same_as_oracle(g, tmp_path)

    @pytest.mark.parametrize("names", [("A", "B"), ("",), ()], ids=["two", "empty-name", "none"])
    def test_nodes_without_edges_match_element_tree(self, tmp_path, names):
        """An empty name is unreachable from ``build_graph``; the writer still
        closes its element the way ElementTree does."""
        g = Graph(names, np.zeros(len(names) + 1, dtype=np.int64), np.zeros(0, dtype=np.int32))
        self.same_as_oracle(g, tmp_path)

    @pytest.fixture(scope="class")
    def eighth_scale(self):
        """Both canonical inputs at 1/8 scale, each with its Louvain partition
        and centrality bundle."""
        graphs = {"bench-graph": build_graph(benchmark_graph(1390, 4693, seed=11)),
                  "corpus": build_graph(r.persons for r in generate_corpus(650, 1312, seed=7))}
        return {name: (g, louvain(g, seed=7), compute_bundle(g, threads=1))
                for name, g in graphs.items()}

    @pytest.mark.parametrize("name", ["bench-graph", "corpus"])
    def test_eighth_scale_graphs_match_element_tree(self, tmp_path, eighth_scale, name):
        g, p, bundle = eighth_scale[name]
        self.same_as_oracle(g, tmp_path)
        assert read_graphml(tmp_path / "written.graphml").names == g.names
        for include_other in (False, True):
            ind = induced_graph(g, p, labeled(g, p, bundle, range(p.count // 2)), bundle,
                                include_other=include_other)
            assert ind.edges and (-1 in ind.community_ids) == include_other
            self.same_as_oracle(ind, tmp_path, export_induced_graphml)

    def test_single_community_induced_matches_element_tree(self, tmp_path):
        g = build_graph([("A", "B"), ("B", "C")])
        p = Partition.from_labels([0, 0, 0])
        bundle = compute_bundle(g)
        ind = induced_graph(g, p, labeled(g, p, bundle, [0]), bundle, include_other=True)
        assert ind.community_ids == (0,) and not ind.edges
        self.same_as_oracle(ind, tmp_path, export_induced_graphml)


class TestDot:
    def test_two_node_induced_statements(self, tmp_path):
        g = build_graph([("A", "B"), ("B", "C"), ("X", "Y"), ("A", "X")])
        p = Partition.from_labels([0 if n in "ABC" else 1 for n in g.names])
        bundle = compute_bundle(g)
        ind = induced_graph(g, p, labeled(g, p, bundle, [0, 1]), bundle)
        path = tmp_path / "induced.dot"
        export_dot(ind, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        node_lines = [l for l in lines if "tooltip=" in l]
        edge_lines = [l for l in lines if "--" in l]
        assert len(node_lines) == 2
        assert len(edge_lines) == 1
        assert 'label="1"' in edge_lines[0]

    def test_equal_betweenness_uniform_shade(self, tmp_path):
        g = build_graph([("A", "B"), ("C", "D"), ("A", "C"), ("B", "D")])
        p = Partition.from_labels([0, 0, 1, 1])
        bundle = compute_bundle(g)
        ind = induced_graph(g, p, labeled(g, p, bundle, [0, 1]), bundle)
        path = tmp_path / "induced.dot"
        export_dot(ind, path)
        shades = {
            part.split(",")[0]
            for line in path.read_text(encoding="utf-8").splitlines()
            if "fillcolor=" in line
            for part in [line.split("fillcolor=")[1]]
        }
        assert len(shades) == 1

    def test_byte_identical_across_runs(self, tmp_path):
        g = build_graph([("A", "B"), ("B", "C"), ("X", "Y"), ("A", "X")])
        p = Partition.from_labels([0 if n in "ABC" else 1 for n in g.names])
        bundle = compute_bundle(g)
        ind = induced_graph(g, p, labeled(g, p, bundle, [0, 1]), bundle)
        p1 = tmp_path / "a.dot"
        p2 = tmp_path / "b.dot"
        export_dot(ind, p1)
        export_dot(ind, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPlotData:
    @staticmethod
    def exact_dist(alpha=-2.0, lo=3, hi=30):
        degrees = np.arange(lo, hi + 1)
        weights = degrees.astype(np.float64) ** alpha
        return DegreeDistribution(
            degrees=degrees,
            counts=weights,
            fractions=weights / weights.sum(),
        )

    def test_exact_input_fitted_equals_observed(self, tmp_path):
        dist = self.exact_dist()
        fit = fit_loglog(dist, dmin=3)
        path = tmp_path / "fit.csv"
        emit_plot_data(dist, fit, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == dist.degrees.size
        for row in rows:
            assert float(row["fitted"]) == pytest.approx(
                float(row["f_d"]), rel=1e-9
            )

    def test_no_fit_leaves_blank_with_notice(self, tmp_path, caplog):
        dist = self.exact_dist(lo=1, hi=2)
        path = tmp_path / "fit.csv"
        with caplog.at_level("WARNING", logger="comention.report"):
            emit_plot_data(dist, None, path)
        assert caplog.records
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["fitted"] == "" for row in rows)

    def test_fitted_matches_independent_evaluation(self, tmp_path):
        rng = np.random.default_rng(277)
        degrees = np.arange(3, 40)
        weights = degrees.astype(np.float64) ** -1.9 * np.exp(
            rng.normal(0, 0.05, size=degrees.size)
        )
        dist = DegreeDistribution(
            degrees=degrees,
            counts=weights,
            fractions=weights / weights.sum(),
        )
        fit = fit_loglog(dist, dmin=3)
        path = tmp_path / "fit.csv"
        emit_plot_data(dist, fit, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            want = float(
                np.exp(fit.intercept) * int(row["d"]) ** fit.alpha
            )
            assert float(row["fitted"]) == pytest.approx(want, rel=1e-9)


class TestAudit:
    def test_fresh_run_passes(self, tmp_path):
        run_pipeline(clique_config(tmp_path))
        checks = audit(tmp_path / "out")
        failed = [c for c in checks if not c.ok]
        assert not failed, failed
        names = {c.name for c in checks}
        assert {"digests", "modularity", "degree_dist"} <= names

    def test_tampered_file_detected(self, tmp_path):
        run_pipeline(clique_config(tmp_path))
        out = tmp_path / "out"
        with open(out / "edges.csv", "a", encoding="utf-8") as fh:
            fh.write("Z1,Z2\n")
        checks = audit(out)
        assert any(not c.ok for c in checks)

    def test_missing_manifest_reported(self, tmp_path):
        checks = audit(tmp_path)
        assert len(checks) == 1
        assert not checks[0].ok

    def test_extra_partition_column_fails(self, tmp_path):
        """partition.csv is re-rendered, so a column the run never wrote fails
        the partition check even when the manifest carries the new digest."""
        run_pipeline(clique_config(tmp_path))
        out = tmp_path / "out"
        path = out / "partition.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(line + ",x\n" for line in lines), encoding="utf-8")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest["files"]["partition.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        failed = [(c.name, c.detail) for c in audit(out) if not c.ok]
        assert failed == [("partition", f"rows {', '.join(map(str, range(11)))} differ")]


class TestRunFiles:
    """report.RUN_FILES: each file a run writes, with its writer and audit check."""

    # files whose content no audit check re-derives: their digest protects
    # them, and induced.json also has its conservation total checked
    GAPS = {"ingest_stats.json", "induced.graphml", "induced.dot", "induced.json",
            "profiles.csv", "typology.csv", "community_types.csv"}

    def test_every_file_has_a_check_or_is_a_named_gap(self, tmp_path):
        run_pipeline(clique_config(tmp_path))
        checks = audit(tmp_path / "out")
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]
        assert len(checks) == 22
        emitted = {c.name for c in checks}
        for entry in RUN_FILES:
            if entry.name == "summary.json":  # checked field by field
                covered = set(SUMMARY_FIELDS) <= emitted
            else:
                covered = entry.check in emitted
            assert covered != (entry.name in self.GAPS), entry.name

    def test_names_and_checks_are_unique(self):
        names = [entry.name for entry in RUN_FILES]
        checks = [entry.check for entry in RUN_FILES if entry.check is not None]
        assert len(set(names)) == len(names) == 18
        assert len(set(checks)) == len(checks)
