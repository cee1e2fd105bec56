import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comention import DataError, PipelineConfig, community, typology
from comention import _sweep, centrality, graph, ingest, report, synth
from comention.cli import build_parser, main

ARTICLES = "\n".join(
    [
        json.dumps({"id": "left", "persons": [f"L{i}" for i in range(5)]}),
        json.dumps({"id": "right", "persons": [f"R{i}" for i in range(5)]}),
        json.dumps({"id": "bridge", "persons": ["L0", "R0"]}),
    ]
) + "\n"

AFFILIATIONS = "\n".join(
    ["name,category"]
    + [f"L{i},business" for i in range(5)]
    + [f"R{i},press" for i in range(5)]
) + "\n"


@pytest.fixture
def articles(tmp_path):
    path = tmp_path / "articles.jsonl"
    path.write_text(ARTICLES, encoding="utf-8")
    return path


@pytest.fixture
def edges_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("source,target\nA,B\nB,C\nC,D\nD,E\n", encoding="utf-8")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


# every file a corpus run with an affiliation table lists in manifest.json
MANIFEST_FILES = (
    "edges.csv", "ingest_stats.json", "summary.json", "centrality.csv", "top10.csv",
    "partition.csv", "communities.csv", "top_members.csv", "induced.graphml",
    "induced.dot", "induced.json", "degree_dist.csv", "powerlaw_fit.csv",
    "powerlaw.json", "graph.graphml", "profiles.csv", "typology.csv",
    "community_types.csv",
)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """Output directory of one corpus run with affiliations; copy before tampering."""
    root = tmp_path_factory.mktemp("clean")
    articles, aff = root / "articles.jsonl", root / "affiliations.csv"
    articles.write_text(ARTICLES, encoding="utf-8")
    aff.write_text(AFFILIATIONS, encoding="utf-8")
    assert run_cli("run", "--input", articles, "--affiliations", aff, "--k", "2",
                   "--out-dir", root / "out", "--seed", "5",
                   "--min-community-size", "2") == 0
    return root / "out"


@pytest.fixture(scope="module")
def fitted_run(tmp_path_factory):
    """Output directory of a run on the star forest, whose power-law fit succeeds."""
    root = tmp_path_factory.mktemp("fitted")
    assert run_cli("run", "--input", TestFitPowerlaw.star_forest(root), "--input-format",
                   "edges", "--out-dir", root / "out", "--seed", "5",
                   "--min-community-size", "2") == 0
    return root / "out"


def redigest(out, filename, edit):
    """Rewrite one table's rows, or a JSON file's document, through ``edit`` and
    record the file's new digest in the manifest."""
    path = out / filename
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["files"][filename] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def audit_copy(clean_run, tmp_path, tamper, capsys):
    """Audit a tampered copy of ``clean_run``; returns (exit code, FAIL lines, stderr)."""
    out = tmp_path / "out"
    shutil.copytree(clean_run, out)
    tamper(out)
    capsys.readouterr()
    rc = run_cli("audit", "--out-dir", out)
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    return rc, failed, captured.err


class TestIngest:
    def test_writes_edges_and_stats(self, tmp_path, articles):
        out = tmp_path / "out"
        rc = run_cli("ingest", "--input", articles, "--out-dir", out)
        assert rc == 0
        with open(out / "edges.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        stats = json.loads((out / "ingest_stats.json").read_text())
        assert stats["articles"] == 3
        assert stats["persons_distinct"] == 10

    def test_module_form_logs_as_comention_cli(self, tmp_path, articles):
        """``python -m comention.cli`` (how the benchmark runs it) logs under
        the same name as the console script, not ``__main__``."""
        src = str(Path(report.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "comention.cli", "ingest", "--input", str(articles),
             "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("INFO comention.cli: wrote ")
        assert "__main__" not in proc.stderr

    def test_aliases_applied(self, tmp_path, articles):
        aliases = tmp_path / "aliases.csv"
        aliases.write_text("alias,canonical\nL1,L0\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = run_cli(
            "ingest", "--input", articles, "--aliases", aliases,
            "--out-dir", out,
        )
        assert rc == 0
        text = (out / "edges.csv").read_text(encoding="utf-8")
        assert "L1" not in text


class TestStats:
    def test_stdout_json(self, articles, capsys):
        rc = run_cli("stats", "--input", articles)
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 10
        assert payload["edges"] == 21

    def test_edges_input_format(self, edges_csv, capsys):
        rc = run_cli(
            "stats", "--input", edges_csv, "--input-format", "edges"
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 5
        assert payload["edges"] == 4


class TestOneDiameter:
    """``stats``, ``run`` and ``audit`` share one diameter product: the
    eccentricity of a Brandes bundle the run already holds, else one
    distance-only sweep."""

    GRAPHS = {"connected": "source,target\nA,B\nB,C\nC,A\nC,D\nD,E\nE,F\n",
              "disconnected": "source,target\nA,B\nB,C\nC,D\nD,E\nX,Y\nY,Z\n"}
    FIELDS = ("nodes", "edges", "density", "diameter", "component_count")

    @pytest.fixture(params=sorted(GRAPHS))
    def graph_csv(self, request, tmp_path):
        path = tmp_path / f"{request.param}.csv"
        path.write_text(self.GRAPHS[request.param], encoding="utf-8")
        return path

    @staticmethod
    def sweeps(monkeypatch) -> list[str]:
        """The kind of every sweep started from here on, wherever it is looked up."""
        kinds = []
        for module in (_sweep, centrality, graph):
            def watched(*args, betweenness=False, _original=module.sweep, **kwargs):
                kinds.append("brandes" if betweenness else "distance")
                return _original(*args, betweenness=betweenness, **kwargs)
            monkeypatch.setattr(module, "sweep", watched)
        return kinds

    def test_stats_starts_no_brandes_sweep(self, graph_csv, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("stats computed a centrality bundle")

        monkeypatch.setattr(centrality, "compute_bundle", forbidden)
        kinds = self.sweeps(monkeypatch)
        assert run_cli("stats", "--input", graph_csv, "--input-format", "edges") == 0
        assert kinds == ["distance"]

    def test_run_starts_no_distance_sweep(self, tmp_path, graph_csv, monkeypatch):
        kinds = self.sweeps(monkeypatch)
        assert run_cli("run", "--input", graph_csv, "--input-format", "edges", "--seed", "1",
                       "--min-community-size", "1", "--out-dir", tmp_path / "out") == 0
        assert kinds == ["brandes"]

    def test_stats_run_and_audit_agree(self, tmp_path, graph_csv, capsys):
        assert run_cli("stats", "--input", graph_csv, "--input-format", "edges") == 0
        stats = json.loads(capsys.readouterr().out)
        out = tmp_path / "out"
        assert run_cli("run", "--input", graph_csv, "--input-format", "edges", "--seed", "1",
                       "--min-community-size", "1", "--out-dir", out) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        checks = {check.name: check for check in report.audit(out)}
        assert all(check.ok for check in checks.values())
        # each summary check's detail is "<recomputed> vs <recorded>"
        audited = {name: json.loads(checks[name].detail.split(" vs ")[0])
                   for name in self.FIELDS}
        for name in self.FIELDS:
            assert stats[name] == summary[name] == audited[name], name
        assert (stats["component_count"] > 1) == (graph_csv.stem == "disconnected")
        assert stats["largest_component"] == {"connected": 6, "disconnected": 5}[graph_csv.stem]


class TestCentrality:
    def test_writes_tables(self, tmp_path, articles):
        out = tmp_path / "out"
        rc = run_cli("centrality", "--input", articles, "--out-dir", out)
        assert rc == 0
        with open(out / "centrality.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        betw = [float(r["betweenness"]) for r in rows]
        assert betw == sorted(betw, reverse=True)
        top = (out / "top10.csv").read_text(encoding="utf-8")
        assert "L0" in top

    def test_cross_column_marker(self, tmp_path, articles):
        out = tmp_path / "out"
        run_cli("centrality", "--input", articles, "--out-dir", out)
        top = (out / "top10.csv").read_text(encoding="utf-8")
        # bridge endpoints dominate every measure here
        assert "†" in top

    def test_eigen_non_convergence_exit_code(self, tmp_path, edges_csv, monkeypatch):
        monkeypatch.setattr(centrality, "EIGEN_MAX_ITER", 1)
        rc = run_cli(
            "centrality", "--input", edges_csv, "--input-format", "edges",
            "--out-dir", tmp_path / "out",
        )
        assert rc == 3


class TestCommunities:
    def test_prints_partition_stats(self, tmp_path, articles, capsys):
        out = tmp_path / "out"
        rc = run_cli(
            "communities", "--input", articles, "--out-dir", out,
            "--seed", "5", "--min-community-size", "2",
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["community_count"] == 2
        assert payload["retained_count"] == 2
        assert 0.4 < payload["modularity"] < 0.5
        assert (out / "partition.csv").exists()
        assert (out / "communities.csv").exists()

    def test_seed_is_required(self, tmp_path, articles):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "communities", "--input", articles,
                "--out-dir", tmp_path / "out",
            )
        assert err.value.code == 1


class TestInduced:
    def test_writes_induced_artifacts(self, tmp_path, articles):
        out = tmp_path / "out"
        rc = run_cli(
            "induced", "--input", articles, "--out-dir", out,
            "--seed", "5", "--min-community-size", "2",
        )
        assert rc == 0
        induced = json.loads((out / "induced.json").read_text())
        total = (
            sum(e["weight"] for e in induced["edges"])
            + sum(c["intra_weight"] for c in induced["communities"])
            + induced["dropped_edges"]
        )
        assert total == 21
        assert (out / "induced.graphml").exists()
        assert (out / "induced.dot").exists()


class TestFitPowerlaw:
    @staticmethod
    def star_forest(tmp_path):
        # hubs with exact degrees 3..7, more hubs at low degrees, so the
        # tail frequencies decay and the log-log slope is negative
        edges = tmp_path / "edges.csv"
        rows = ["source,target"]
        for d, hubs in ((3, 9), (4, 5), (5, 3), (6, 2), (7, 1)):
            for j in range(hubs):
                for i in range(d):
                    rows.append(f"h{d}_{j},s{d}_{j}_{i}")
        edges.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return edges

    def test_stdout_loglog(self, tmp_path, capsys):
        edges = self.star_forest(tmp_path)
        rc = run_cli(
            "fit-powerlaw", "--input", edges, "--input-format", "edges",
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "loglog"
        assert payload["alpha"] < 0

    def test_stdout_mle(self, tmp_path, capsys):
        edges = self.star_forest(tmp_path)
        rc = run_cli(
            "fit-powerlaw", "--input", edges, "--input-format", "edges",
            "--method", "mle",
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "mle"
        assert payload["alpha"] < -1

    def test_insufficient_tail_is_data_error(self, edges_csv):
        rc = run_cli(
            "fit-powerlaw", "--input", edges_csv, "--input-format", "edges",
        )
        assert rc == 2


class TestTypology:
    def test_writes_typology_tables(self, tmp_path, articles):
        aff = tmp_path / "affiliations.csv"
        aff.write_text(AFFILIATIONS, encoding="utf-8")
        out = tmp_path / "out"
        rc = run_cli(
            "typology", "--input", articles, "--out-dir", out,
            "--seed", "5", "--min-community-size", "2",
            "--affiliations", aff, "--k", "2",
        )
        assert rc == 0
        assert (out / "typology.csv").exists()
        assert (out / "community_types.csv").exists()
        assert (out / "profiles.csv").exists()
        text = (out / "typology.csv").read_text(encoding="utf-8")
        assert "business" in text
        assert "press" in text


class TestRun:
    def test_full_run_with_flags(self, tmp_path, articles, capsys):
        out = tmp_path / "out"
        rc = run_cli(
            "run", "--input", articles, "--out-dir", out, "--seed", "5",
            "--min-community-size", "2",
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["nodes"] == 10
        assert (out / "manifest.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, articles, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "input": str(articles),
                    "seed": 5,
                    "out_dir": str(tmp_path / "ignored"),
                    "min_community_size": 2,
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        rc = run_cli("run", "--config", cfg, "--out-dir", out)
        assert rc == 0
        capsys.readouterr()
        assert (out / "manifest.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, articles):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "input": str(articles),
                    "seed": 5,
                    "out_dir": str(tmp_path / "out"),
                    "minimum_size": 2,
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--config", cfg)
        assert err.value.code == 1

    @pytest.mark.parametrize("key,value", [
        ("eigen_tol", 1e-10), ("eigen_max_iter", 10000), ("eigen_mixing", 1.0),
        ("restarts", 1), ("top_k_persons", 10),
    ])
    def test_retired_config_key_is_usage_error(self, tmp_path, articles, capsys, key, value):
        """The fixed eigenvector, k-means and leaderboard settings are no config keys."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"input": str(articles), "seed": 5,
                                   "out_dir": str(tmp_path / "out"), key: value}),
                       encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--config", cfg)
        assert err.value.code == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_seed_is_usage_error(self, tmp_path, articles):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "run", "--input", articles, "--out-dir", tmp_path / "out"
            )
        assert err.value.code == 1


class TestAuditCommand:
    def test_clean_audit_exit_zero(self, tmp_path, articles, capsys):
        out = tmp_path / "out"
        run_cli(
            "run", "--input", articles, "--out-dir", out, "--seed", "5",
            "--min-community-size", "2",
        )
        capsys.readouterr()
        rc = run_cli("audit", "--out-dir", out)
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_tampered_audit_exit_two(self, tmp_path, articles, capsys):
        out = tmp_path / "out"
        run_cli(
            "run", "--input", articles, "--out-dir", out, "--seed", "5",
            "--min-community-size", "2",
        )
        with open(out / "edges.csv", "a", encoding="utf-8") as fh:
            fh.write("Z1,Z2\n")
        capsys.readouterr()
        rc = run_cli("audit", "--out-dir", out)
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out


    @pytest.mark.parametrize("filename", ["centrality.csv", "partition.csv"])
    @pytest.mark.parametrize("tamper", ["rename", "delete", "corrupt"])
    def test_tampered_row_fails_checks(self, tmp_path, articles, capsys,
                                       filename, tamper):
        out = tmp_path / "out"
        run_cli(
            "run", "--input", articles, "--out-dir", out, "--seed", "5",
            "--min-community-size", "2",
        )
        path = out / filename
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        name, rest = lines[1].split(",", 1)
        if tamper == "rename":
            lines[1] = f"Nobody,{rest}"
        elif tamper == "delete":
            del lines[1]
        else:
            lines[1] = f"{name},x,{rest.split(',', 1)[-1]}"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        rc = run_cli("audit", "--out-dir", out)
        assert rc == 2
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        # beyond the digest mismatch, a content check must fail
        assert any("file:" not in line for line in failed), failed

    @pytest.mark.parametrize("filename", MANIFEST_FILES)
    @pytest.mark.parametrize("tamper", ["delete", "truncate", "unlist-and-corrupt"])
    def test_every_manifest_file_is_tamper_checked(self, tmp_path, clean_run, capsys,
                                                   filename, tamper):
        manifest = json.loads((clean_run / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["files"]) == set(MANIFEST_FILES)

        def damage(out):
            path = out / filename
            data = path.read_bytes()
            if tamper == "delete":
                path.unlink()
            elif tamper == "truncate":
                path.write_bytes(data[: len(data) // 2])
            else:
                del manifest["files"][filename]
                (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
                path.write_bytes(data + b"tampered\n")

        rc, failed, err = audit_copy(clean_run, tmp_path, damage, capsys)
        assert rc == 2
        assert any(f"file:{filename}" in line for line in failed), failed
        assert "Traceback" not in err

    def test_manifest_listing_no_files_fails(self, tmp_path, clean_run, capsys):
        def damage(out):
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            manifest["files"] = {}
            (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
            with open(out / "centrality.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            with open(out / "centrality.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows({**row, "betweenness": "0.5", "eigenvector": "0.5"}
                                 for row in rows)
            (out / "communities.csv").unlink()
            (out / "induced.json").unlink()

        rc, failed, _ = audit_copy(clean_run, tmp_path, damage, capsys)
        assert rc == 2
        names = {line.split()[1].rstrip(":") for line in failed}
        assert {f"file:{name}" for name in MANIFEST_FILES} <= names
        assert {"community_means", "induced_conservation"} <= names

    def test_manifest_config_with_retired_key_fails_config(self, tmp_path, clean_run, capsys):
        """A run written while ``restarts`` was a config key is audited by that version."""
        def damage(out):
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            manifest["config"]["restarts"] = 1
            (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        rc, failed, _ = audit_copy(clean_run, tmp_path, damage, capsys)
        assert rc == 2
        assert failed == ["FAIL config: cannot be computed: DataError: "
                          "unknown config keys: restarts"]

    @pytest.mark.parametrize("filename,key,value", [
        pytest.param("manifest.json", None, [], id="manifest=[]"),
        pytest.param("manifest.json", "files", [], id="files=[]"),
        pytest.param("manifest.json", "config", [], id="config=[]"),
        pytest.param("summary.json", None, [1, 2], id="summary=[1,2]"),
    ])
    def test_json_of_wrong_shape_fails(self, tmp_path, clean_run, capsys,
                                       filename, key, value):
        def damage(out):
            doc = json.loads((out / filename).read_text(encoding="utf-8"))
            if key is None:
                doc = value
            else:
                doc[key] = value
            (out / filename).write_text(json.dumps(doc), encoding="utf-8")

        rc, failed, err = audit_copy(clean_run, tmp_path, damage, capsys)
        assert rc == 2
        assert any("must be a JSON object" in line for line in failed), failed
        assert "Traceback" not in err

    @pytest.mark.parametrize("filename,column,value", [
        pytest.param("partition.csv", "community", "9" * 20, id="partition-id-20-digits"),
        pytest.param("partition.csv", "community", str(10**13), id="partition-id-1e13"),
        pytest.param("degree_dist.csv", "d", "9" * 20, id="degree-20-digits"),
    ])
    def test_out_of_range_integer_fails(self, tmp_path, fitted_run, capsys,
                                        filename, column, value):
        def edit(rows):
            rows[1][rows[0].index(column)] = value

        rc, failed, err = audit_copy(fitted_run, tmp_path,
                                     lambda out: redigest(out, filename, edit), capsys)
        assert rc == 2
        assert failed and not any("file:" in line for line in failed), failed
        assert any(filename.removesuffix(".csv") in line for line in failed), failed
        assert "Traceback" not in err

    @pytest.mark.parametrize("filename", ["top10.csv", "top_members.csv"])
    def test_rewritten_leaderboard_fails(self, tmp_path, clean_run, capsys, filename):
        def edit(rows):  # swap the first two rows, keeping the rank column in place
            rank = rows[0].index("rank")
            first, second = rows[1], rows[2]
            rows[1] = [*second[:rank], first[rank], *second[rank + 1:]]
            rows[2] = [*first[:rank], second[rank], *first[rank + 1:]]
            assert rows[1] != first

        rc, failed, err = audit_copy(clean_run, tmp_path,
                                     lambda out: redigest(out, filename, edit), capsys)
        assert rc == 2
        assert [line.split()[1] for line in failed] == [filename.removesuffix(".csv") + ":"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("filename,check", [
        ("edges.csv", "edge_list"),
        ("centrality.csv", "centrality"),
        ("communities.csv", "community_means"),
        ("degree_dist.csv", "degree_dist"),
        ("powerlaw_fit.csv", "powerlaw_fit"),
        ("powerlaw.json", "powerlaw"),
    ])
    def test_rewritten_table_fails(self, tmp_path, clean_run, fitted_run, capsys,
                                   filename, check):
        """Every re-rendered file has exactly one content check."""
        def edit(doc):
            if isinstance(doc, dict):  # powerlaw.json: change one value
                doc["alpha"] += 0.5
                return
            first, second = list(doc[1]), list(doc[2])
            doc[1], doc[2] = second, first  # swap two rows, keeping a rank column in place
            if "rank" in doc[0]:
                rank = doc[0].index("rank")
                first[rank], second[rank] = second[rank], first[rank]
            assert doc[1] != first

        source = fitted_run if filename.startswith("powerlaw") else clean_run
        rc, failed, err = audit_copy(source, tmp_path,
                                     lambda out: redigest(out, filename, edit), capsys)
        assert rc == 2
        assert [line.split()[1] for line in failed] == [check + ":"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", ["unknown-name", "duplicated-name"])
    def test_partition_rows_not_one_per_node_fail(self, tmp_path, clean_run, capsys, extra):
        def edit(rows):
            rows.append(["Nobody", rows[1][1]] if extra == "unknown-name" else list(rows[1]))

        rc, failed, err = audit_copy(clean_run, tmp_path,
                                     lambda out: redigest(out, "partition.csv", edit), capsys)
        assert rc == 2
        assert "partition:" in [line.split()[1] for line in failed], failed
        assert not any("file:" in line for line in failed), failed
        assert "Traceback" not in err

    def test_swapped_partition_rows_fail(self, tmp_path, clean_run, capsys):
        """partition.csv lists nodes in the order graph.graphml does.  (A swap in
        centrality.csv, which is in rank order, fails its re-rendering.)"""
        def edit(rows):
            rows[1], rows[2] = rows[2], rows[1]

        rc, failed, err = audit_copy(clean_run, tmp_path,
                                     lambda out: redigest(out, "partition.csv", edit), capsys)
        assert rc == 2
        assert any("partition:" in line and "node order of graph.graphml" in line
                   for line in failed), failed
        assert not any("file:" in line for line in failed), failed
        assert "Traceback" not in err

    def test_malformed_graphml_fails(self, tmp_path, clean_run, capsys):
        def damage(out):
            path = out / "graph.graphml"
            path.write_bytes(path.read_bytes()[:200])
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            manifest["files"]["graph.graphml"] = hashlib.sha256(path.read_bytes()).hexdigest()
            (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        rc, failed, err = audit_copy(clean_run, tmp_path, damage, capsys)
        assert rc == 2
        assert any("graph:" in line and "not well-formed XML" in line
                   for line in failed), failed
        assert "Traceback" not in err

    def test_retargeted_graphml_edge_fails(self, tmp_path, clean_run, capsys):
        """The graph is read from graph.graphml, so edges.csv is checked against it."""
        def damage(out):
            path = out / "graph.graphml"
            text = path.read_text(encoding="utf-8")
            edge = 'source="n0" target="n1"'  # L0-L1; L0 and R4 (n9) are not adjacent
            assert edge in text and 'source="n0" target="n9"' not in text
            path.write_text(text.replace(edge, 'source="n0" target="n9"'), encoding="utf-8")
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            manifest["files"]["graph.graphml"] = hashlib.sha256(path.read_bytes()).hexdigest()
            (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        rc, failed, err = audit_copy(clean_run, tmp_path, damage, capsys)
        assert rc == 2
        assert "edge_list:" in [line.split()[1] for line in failed], failed
        assert not any("file:" in line for line in failed), failed
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["absolute-path", "parent-path", "directory"])
    def test_manifest_entry_outside_run_fails(self, tmp_path, clean_run, capsys, entry):
        """A manifest entry that is not a file name a run writes is a failure of
        its own, never opened, and every other entry is still checked."""
        outside = tmp_path / "outside.csv"
        outside.write_text("source,target\nA,B\n", encoding="utf-8")
        name = {"absolute-path": str(outside), "parent-path": "../outside.csv",
                "directory": str(tmp_path)}[entry]

        def damage(out):
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            manifest["files"][name] = hashlib.sha256(outside.read_bytes()).hexdigest()
            (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
            with open(out / "top10.csv", "a", encoding="utf-8") as fh:
                fh.write("tampered\n")

        rc, failed, err = audit_copy(clean_run, tmp_path, damage, capsys)
        assert rc == 2
        assert f"FAIL file:{name}: not a file a run writes" in failed, failed
        assert "FAIL file:top10.csv: digest mismatch" in failed, failed
        assert not any("digests:" in line for line in failed), failed
        assert "Traceback" not in err

    def test_audit_only_reads(self, tmp_path, clean_run, capsys, monkeypatch):
        """No product the run wrote is recomputed, and the run directory is left as it was."""
        def forbidden(*args, **kwargs):
            raise AssertionError("audit recomputed a product it can read from the run")

        monkeypatch.setattr(community, "louvain", forbidden)
        monkeypatch.setattr(centrality, "compute_bundle", forbidden)
        monkeypatch.setattr(report, "kmeans", forbidden)
        for module in (_sweep, centrality, graph):
            def distance_only(*args, betweenness=False, _original=module.sweep, **kwargs):
                if betweenness:
                    forbidden()
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "sweep", distance_only)

        out = tmp_path / "out"
        shutil.copytree(clean_run, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert run_cli("audit", "--out-dir", out) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestOptionValidation:
    @pytest.mark.parametrize("command",
                             ["centrality", "communities", "induced", "typology", "run"])
    @pytest.mark.parametrize("threads", ["-3", "0"])
    def test_non_positive_threads_is_data_error(self, tmp_path, articles, command,
                                                threads):
        out = tmp_path / "out"
        argv = [command, "--input", articles, "--threads", threads, "--out-dir", out]
        if command in ("communities", "induced", "typology", "run"):
            argv += ["--seed", "5", "--min-community-size", "2"]
        if command == "typology":
            aff = tmp_path / "affiliations.csv"
            aff.write_text(AFFILIATIONS, encoding="utf-8")
            argv += ["--affiliations", aff, "--k", "2"]
        assert run_cli(*argv) == 2
        assert not out.exists()

    def test_stats_takes_no_threads(self, articles):
        """stats starts no Brandes sweep, the only stage that reads --threads."""
        with pytest.raises(SystemExit) as err:
            run_cli("stats", "--input", articles, "--threads", "2")
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["communities", "induced", "typology", "run"])
    def test_negative_seed_is_data_error(self, tmp_path, articles, capsys, command):
        """``np.random.default_rng`` (k-means) rejects a negative seed, so no
        subcommand takes one."""
        out = tmp_path / "out"
        argv = [command, "--input", articles, "--out-dir", out, "--seed", "-1",
                "--min-community-size", "2"]
        if command in ("typology", "run"):
            aff = tmp_path / "affiliations.csv"
            aff.write_text(AFFILIATIONS, encoding="utf-8")
            argv += ["--affiliations", aff, "--k", "2"]
        rc = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: seed must be a non-negative integer, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [
        pytest.param("-1", id="resolution=-1"),
        pytest.param("inf", id="resolution=inf"),
    ])
    def test_out_of_range_float_option_is_data_error(self, tmp_path, articles, capsys, value):
        out = tmp_path / "out"
        rc = run_cli("communities", "--input", articles, "--out-dir", out, "--seed", "5",
                     "--resolution", value)
        assert rc == 2
        assert "resolution" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("resolution", "1"), ("input", 5), ("out_dir", 5), ("aliases", 5),
        ("include_other", "no"), ("min_community_size", True), ("affiliations", ["a.csv"]),
        ("threads", True),
    ])
    def test_wrong_type_in_config_is_data_error(self, tmp_path, articles, capsys,
                                                 field, value):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(articles), "seed": 5, "out_dir": str(out),
                                      "min_community_size": 2, field: value}),
                          encoding="utf-8")
        rc = run_cli("run", "--config", config)
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {field} must be" in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["stats", "centrality", "communities", "induced",
                                         "fit-powerlaw", "typology", "run"])
    def test_unknown_input_format_is_data_error(self, tmp_path, articles, capsys, command):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(articles), "seed": 5, "out_dir": str(out),
                                      "input_format": "bogus"}), encoding="utf-8")
        assert run_cli("run", "--config", config) == 2
        expected = capsys.readouterr().err
        assert "error: input_format must be one of" in expected
        argv = [command, "--input", articles, "--input-format", "bogus"]
        if command not in ("stats", "fit-powerlaw"):
            argv += ["--out-dir", out]
        if command in ("communities", "induced", "typology", "run"):
            argv += ["--seed", "5"]
        if command == "typology":
            argv += ["--affiliations", articles]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()


def subcommands() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    """Every subcommand's options, generated from PipelineConfig's fields."""

    # "!" marks a required option and "+" a switch; each dest is the flag's
    # name with underscores, except that --k sets kmeans_k
    SOURCE = "--input! --input-format --aliases"
    STAGE = f"{SOURCE} --out-dir! --threads"
    DETECT = f"{STAGE} --seed! --resolution --min-community-size"
    OPTIONS = {
        "ingest": "--input! --aliases --out-dir!",
        "stats": f"{SOURCE} --out-dir",
        "centrality": STAGE,
        "communities": f"{DETECT} --top-k-members",
        "induced": f"{DETECT} --include-other+",
        "fit-powerlaw": f"{SOURCE} --dmin --method --out-dir",
        "typology": f"{DETECT} --affiliations! --k --top-k-members",
        "run": "--config --input --input-format --aliases --affiliations --seed --resolution "
               "--min-community-size --dmin --k --top-k-members --include-other+ --out-dir "
               "--threads",
        "audit": "--out-dir!",
    }

    def test_subcommands(self):
        assert list(subcommands()) == list(self.OPTIONS)

    @pytest.mark.parametrize("command", OPTIONS)
    def test_options_pinned(self, command):
        found = {(tuple(a.option_strings), a.dest, a.required, a.nargs == 0)
                 for a in subcommands()[command]._actions if a.dest != "help"}
        expected = set()
        for spec in self.OPTIONS[command].split():
            flag = spec.rstrip("!+")
            dest = "kmeans_k" if flag == "--k" else flag[2:].replace("-", "_")
            expected.add(((flag,), dest, "!" in spec, "+" in spec))
        assert found == expected

    def test_every_config_field_is_a_run_flag(self):
        run = subcommands()["run"]
        by_dest = {a.dest: a for a in run._actions}
        for field in dataclasses.fields(PipelineConfig):
            action = by_dest[field.name]
            argv = [action.option_strings[0]] + ([] if action.nargs == 0 else ["1"])
            assert getattr(run.parse_args(argv), field.name) is not None, field.name

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_exits_zero_and_describes_every_option(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(command, "--help")
        assert err.value.code == 0
        assert "usage: comention" in capsys.readouterr().out
        assert all(a.help for a in subcommands()[command]._actions)


class TestErrorChannels:
    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("explode")
        assert err.value.code == 1

    def test_missing_input_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("stats")
        assert err.value.code == 1

    def test_missing_file_data_error(self, tmp_path):
        rc = run_cli("stats", "--input", tmp_path / "nope.jsonl")
        assert rc == 2

    def test_malformed_articles_data_error(self, tmp_path, capsys):
        bad = tmp_path / "articles.jsonl"
        bad.write_text('{"id":"a1","persons":["A","B"]}\n{broken\n')
        rc = run_cli("stats", "--input", bad)
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize("kind", ["articles", "edges", "aliases", "affiliations",
                                      "config"])
    def test_non_utf8_input_is_data_error(self, tmp_path, articles, capsys, kind):
        bad = tmp_path / f"bad-{kind}"
        out = tmp_path / "out"
        text = {"articles": ARTICLES, "edges": "source,target\nA,B\n",
                "aliases": "alias,canonical\nL1,L0\n", "affiliations": AFFILIATIONS,
                "config": json.dumps({"input": str(articles), "seed": 5,
                                      "out_dir": str(out)})}[kind]
        bad.write_bytes(text.encode("utf-8") + b"\xff\n")
        argv = {
            "articles": ["stats", "--input", bad],
            "edges": ["stats", "--input", bad, "--input-format", "edges"],
            "aliases": ["ingest", "--input", articles, "--aliases", bad, "--out-dir", out],
            "affiliations": ["typology", "--input", articles, "--affiliations", bad,
                             "--k", "2", "--seed", "5", "--min-community-size", "2",
                             "--out-dir", out],
            "config": ["run", "--config", bad],
        }[kind]
        rc = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {bad}: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["ingest", "run"])
    def test_lone_surrogate_name_is_data_error(self, tmp_path, capsys, command):
        """A \\ud800 escape decodes to a lone surrogate, which no UTF-8 file can hold."""
        bad = tmp_path / "articles.jsonl"
        bad.write_text(ARTICLES + '{"id": "s1", "persons": ["L0", "Ann \\ud800 X"]}\n',
                       encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--input", bad, "--out-dir", out]
        if command == "run":
            argv += ["--seed", "5", "--min-community-size", "2"]
        rc = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 4: person name 'Ann \\ud800 X' is not valid Unicode" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,command", [("articles", "ingest"), ("articles", "run"),
                                              ("edges", "stats"), ("edges", "run")])
    def test_name_xml_forbids_is_data_error(self, tmp_path, capsys, kind, command):
        """XML 1.0 cannot carry U+0001 even as a reference, so graph.graphml could
        never hold the name; the input is refused at the line that names it."""
        if kind == "articles":
            bad = tmp_path / "articles.jsonl"
            bad.write_text(ARTICLES + '{"id": "s1", "persons": ["L0", "A\\u0001x"]}\n',
                           encoding="utf-8")
            where = f"{bad}: line 4: person name 'A\\x01x'"
        else:
            bad = tmp_path / "edges.csv"
            bad.write_text("source,target\nL0,L1\nA\x01x,B\n", encoding="utf-8")
            where = f"{bad}: line 3: name 'A\\x01x'"
        out = tmp_path / "out"
        argv = [command, "--input", bad]
        if kind == "edges":
            argv += ["--input-format", "edges"]
        if command != "stats":
            argv += ["--out-dir", out]
        if command == "run":
            argv += ["--seed", "5", "--min-community-size", "1"]
        rc = run_cli(*argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {where} holds '\\x01', which XML 1.0 forbids" in err
        assert "Traceback" not in err
        assert not out.exists()


SHARED_NAMES = st.sampled_from(["Ann", "Bob", "Cy", " Dee ", "Eve"])
# mostly shared names, so runs get past ingest; the rest arbitrary Unicode but
# surrogates, half of them free of control characters
ANY_NAME = st.one_of(SHARED_NAMES, SHARED_NAMES,
                     st.text(st.characters(exclude_categories=("Cs", "Cc")), max_size=6),
                     st.text(st.characters(exclude_categories=("Cs",)), max_size=6))


class TestAnyInput:
    """On any small input, ``run`` refuses the data or writes a run that
    audits clean."""

    @settings(max_examples=100, deadline=None)
    @given(articles=st.lists(st.lists(ANY_NAME, min_size=1, max_size=5),
                             min_size=1, max_size=12),
           kind=st.sampled_from(["articles", "edges"]))
    def test_run_refuses_or_audits_clean(self, articles, kind):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            if kind == "articles":
                source = root / "articles.jsonl"
                source.write_text("".join(json.dumps({"id": f"a{i}", "persons": p}) + "\n"
                                          for i, p in enumerate(articles)), encoding="utf-8")
            else:  # each article's first and last name as one row
                source = root / "edges.csv"
                with open(source, "w", encoding="utf-8", newline="") as fh:
                    csv.writer(fh).writerows([("source", "target")]
                                             + [(p[0], p[-1]) for p in articles])
            out = root / "out"
            with contextlib.redirect_stdout(io.StringIO()) as printed, \
                    contextlib.redirect_stderr(printed):
                rc = run_cli("run", "--input", source, "--input-format", kind, "--seed", "1",
                             "--min-community-size", "1", "--out-dir", out)
                assert rc in (0, 2), printed.getvalue()
                if rc == 0:
                    assert run_cli("audit", "--out-dir", out) == 0, [
                        line for line in printed.getvalue().splitlines() if "FAIL" in line]


class TestStageParity:
    """Each stage subcommand writes the same bytes as ``run`` with the same options."""

    STAGES = {
        "ingest": [],
        "centrality": [],
        "communities": ["--seed", "5", "--min-community-size", "2"],
        "induced": ["--seed", "5", "--min-community-size", "2"],
        "typology": ["--seed", "5", "--min-community-size", "2", "--k", "2"],
        "fit-powerlaw": [],
    }
    # exactly the files each stage writes
    WRITES = {
        "ingest": {"edges.csv", "ingest_stats.json"},
        "centrality": {"centrality.csv", "top10.csv"},
        "communities": {"communities.csv", "partition.csv", "top_members.csv"},
        "induced": {"induced.dot", "induced.graphml", "induced.json"},
        "typology": {"community_types.csv", "profiles.csv", "typology.csv"},
        "fit-powerlaw": {"degree_dist.csv", "powerlaw.json", "powerlaw_fit.csv"},
    }

    @staticmethod
    def assert_parity(tmp_path, source, affiliations, capsys):
        run_out = tmp_path / "run"
        assert run_cli("run", *source, "--affiliations", affiliations, "--seed", "5",
                       "--min-community-size", "2", "--k", "2", "--out-dir", run_out) == 0
        written = {}
        for stage, options in TestStageParity.STAGES.items():
            if stage == "ingest" and "edges" in source:
                continue  # ingest reads articles only
            out = tmp_path / stage
            argv = [stage, *source, *options, "--out-dir", out]
            if stage == "ingest":  # takes no --input-format
                argv = [stage, "--input", source[1], "--out-dir", out]
            elif stage == "typology":
                argv += ["--affiliations", affiliations]
            rc = run_cli(*argv)
            written[stage] = sorted(p.name for p in out.iterdir()) if out.exists() else []
            assert rc == (0 if written[stage] else 2), stage
            for name in written[stage]:
                assert (out / name).read_bytes() == (run_out / name).read_bytes(), (stage, name)
        capsys.readouterr()
        return written

    def test_articles_with_affiliations(self, tmp_path, articles, capsys):
        aff = tmp_path / "affiliations.csv"
        aff.write_text(AFFILIATIONS, encoding="utf-8")
        written = self.assert_parity(tmp_path, ["--input", articles], aff, capsys)
        for stage in self.STAGES:
            if stage != "fit-powerlaw":
                assert set(written[stage]) == self.WRITES[stage], stage
        # two distinct tail degrees: the fit is skipped by run, an error here
        assert written["fit-powerlaw"] == []

    def test_edges_input(self, tmp_path, capsys):
        edges = TestFitPowerlaw.star_forest(tmp_path)
        with open(edges, newline="", encoding="utf-8") as fh:
            names = sorted({name for row in csv.reader(fh) for name in row} - {"source", "target"})
        aff = tmp_path / "affiliations.csv"
        aff.write_text("name,category\n" + "".join(
            f"{name},{'business' if name.startswith('h') else 'press'}\n" for name in names),
            encoding="utf-8")
        written = self.assert_parity(
            tmp_path, ["--input", edges, "--input-format", "edges"], aff, capsys)
        for stage in self.STAGES:
            if stage != "ingest":
                assert set(written[stage]) == self.WRITES[stage], stage


class TestCrossFile:
    """The files of one clean run with typology agree with each other."""

    @pytest.fixture(scope="class")
    def typed(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("typed")
        records = synth.generate_corpus(120, 200, 3)
        synth.write_articles_jsonl(records, root / "articles.jsonl")
        names = sorted({p for r in records for p in r.persons})
        picks = np.random.default_rng(3).integers(len(typology.CATEGORIES), size=len(names))
        (root / "affiliations.csv").write_text("name,category\n" + "".join(
            f"{n},{typology.CATEGORIES[c]}\n" for n, c in zip(names, picks.tolist())),
            encoding="utf-8")
        assert run_cli("run", "--input", root / "articles.jsonl", "--affiliations",
                       root / "affiliations.csv", "--seed", "5", "--min-community-size", "14",
                       "--k", "3", "--include-other", "--out-dir", root / "out") == 0
        return root / "out"

    @staticmethod
    def rows(out, name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_every_label_is_the_rank_one_member(self, typed):
        top = {row["community"]: row["name"] for row in self.rows(typed, "top_members.csv")
               if row["rank"] == "1"}
        assert all(row["label"] == top[row["community"]]
                   for row in self.rows(typed, "top_members.csv"))
        assert sorted(row["label"] for row in self.rows(typed, "communities.csv")) == \
            sorted(top.values())
        types = self.rows(typed, "community_types.csv")
        assert {row["community"]: row["label"] for row in types} == top
        induced = json.loads((typed / "induced.json").read_text(encoding="utf-8"))
        named = {str(c["community"]): c["label"] for c in induced["communities"]}
        assert named.pop(str(community.OTHER)) == "other"  # some community is not retained
        assert named == top and len(top) >= 4

    def test_each_type_column_sums_its_profiles(self, typed):
        profiles = {row.pop("community"): row for row in self.rows(typed, "profiles.csv")}
        types = {row["community"]: row["type"] for row in self.rows(typed, "community_types.csv")}
        table = self.rows(typed, "typology.csv")
        columns = [f"T{t}" for t in range(1, 4)]
        assert list(table[0]) == ["category", *columns]
        for column in columns:
            kept = [c for c, t in types.items() if f"T{t}" == column]
            assert kept, column  # every type holds a community
            for row in table:
                want = (len(kept) if row["category"] == "communities"
                        else sum(int(profiles[c][row["category"]]) for c in kept))
                assert int(row[column]) == want, (column, row["category"])
        assert [row["category"] for row in table] == [*typology.CATEGORIES, "communities"]


class TestEdgesInput:
    def test_aliases_fold_collapse_and_drop(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("source,target\nA,B\nA2,B\nA,A2\nB,C\nC,D\nD,E\n",
                         encoding="utf-8")
        aliases = tmp_path / "aliases.csv"
        aliases.write_text("alias,canonical\nA2,A\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = run_cli("run", "--input", edges, "--input-format", "edges",
                     "--aliases", aliases, "--seed", "1", "--min-community-size", "1",
                     "--out-dir", out)
        assert rc == 0
        # A2,B collapses onto A,B; A,A2 becomes a self-pair and is dropped
        assert (out / "edges.csv").read_text(encoding="utf-8") == (
            "source,target\nA,B\nB,C\nC,D\nD,E\n")
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["nodes"] == 5
        assert payload["summary"]["edges"] == 4

    @pytest.mark.parametrize("text", [
        "from,to\nA,B\n",       # bad header
        "source,target\nA\n",   # one column
        "source,target\nA, \n",  # blank endpoint
    ])
    def test_malformed_csv_same_error_everywhere(self, tmp_path, capsys, text):
        edges = tmp_path / "edges.csv"
        edges.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as err:
            ingest.read_edge_pairs(edges)
        rc = run_cli("stats", "--input", edges, "--input-format", "edges")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"


class TestNumericalFailures:
    def test_louvain_modularity_decrease_exits_3(self, tmp_path, articles, capsys,
                                                  monkeypatch):
        values = iter([0.5, 0.1])
        monkeypatch.setattr(community, "modularity", lambda *a: next(values))
        rc = run_cli("communities", "--input", articles, "--out-dir", tmp_path / "out",
                     "--seed", "5", "--min-community-size", "2")
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: modularity decreased" in err
        assert "Traceback" not in err

    def test_kmeans_objective_increase_exits_3(self, tmp_path, articles, capsys,
                                               monkeypatch):
        values = iter(range(1, 100))
        monkeypatch.setattr(typology, "_objective", lambda *a: float(next(values)))
        aff = tmp_path / "affiliations.csv"
        aff.write_text(AFFILIATIONS, encoding="utf-8")
        rc = run_cli("typology", "--input", articles, "--out-dir", tmp_path / "out",
                     "--seed", "5", "--min-community-size", "2",
                     "--affiliations", aff, "--k", "2")
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: k-means objective increased" in err
        assert "Traceback" not in err
