"""The bytes of ``comention run`` on the two canonical inputs at 1/8 scale,
and of ``comention ingest --aliases`` on a small corpus.

Every file or column pinned by sha256 here comes from integer work,
``bincount`` sums and IEEE division only, so its bytes must not move when an
engine changes.  The eigenvector column (its norm goes through BLAS) and the
power-law fit (numpy's SIMD ``log``) may differ in the last bit between
machines, so they are compared with stored values within 1e-9.  A change
that moves a pinned byte on purpose updates the pin and says why.
"""

import csv
import gzip
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from comention import synth
from comention.cli import main
from comention.typology import CATEGORIES

# input -> output -> sha256; "centrality.csv[...]" is the listed columns only
PINS = {
    "corpus": {
        "edges.csv":
            "e3aab1e0c6c237d910f30209f1ab63a7063a4e439f2452135c8be71cd9e658c0",
        "partition.csv":
            "20441febd26fbfbf20ddbc07178db7027e361119589fa4ad3fa0764640fcb5ef",
        "graph.graphml":
            "2e30556dec32d3fc4750070e37a550413030215ceb34e195f111d211104a0b99",
        "degree_dist.csv":
            "f96c76171fc99ca18e97f48be247dd2b54ca783d930f83d86e79d718afaa9318",
        "centrality.csv[name,degree,closeness,betweenness,clustering]":
            "93e4fb23ece795929eaefb83e67a269415b252ebab5842ed2057d51acee09df4",
        "ingest_stats.json":  # written for article input only
            "dbd95ebceeba944208b2bfb47aba07ff3d6a7109b6c77b192af4ea75ffb1a020",
    },
    "bench-graph": {
        "edges.csv":
            "a3746ab53ba67fb49381192758bd2f8204225e11b0058a8a86964ea368b4789f",
        "partition.csv":
            "684f675602910e0d48a495fc7ba4770c8f4129bf1795414ceace41127d01b3d8",
        "graph.graphml":
            "80efca329c610343667b3866102ab41639473431c2971fb606b779f106710cdc",
        "degree_dist.csv":
            "dc049d2e7d9dca12f524003088a84a993d8641a402e0ea96377e8458c0bde8e1",
        "centrality.csv[name,degree,closeness,betweenness,clustering]":
            "1c6a5dd541d8bbbcb6800d3e7cdf5cdfeeeb3559233dc23b3ac4ed8463d136c5",
    },
}
PINNED_COLUMNS = ["name", "degree", "closeness", "betweenness", "clustering"]

# input -> {"eigenvector": [...], "powerlaw_fit.csv": rows, "powerlaw.json": {...}}
VALUES = Path(__file__).with_name("output_pins_values.json.gz")


def write_inputs(name, directory):
    """The 1/8 canonical input and its ``run`` arguments.  The corpus gets an
    affiliation table, one of the categories per person drawn from the seed."""
    if name == "corpus":
        records = synth.generate_corpus(650, 1312, 7)
        path = directory / "articles.jsonl"
        synth.write_articles_jsonl(records, path)
        names = sorted({p for r in records for p in r.persons})
        picks = np.random.default_rng([7, 1]).integers(len(CATEGORIES), size=len(names))
        affiliations = directory / "affiliations.csv"
        affiliations.write_text("name,category\n" + "".join(
            f"{n},{CATEGORIES[c]}\n" for n, c in zip(names, picks.tolist())),
            encoding="utf-8")
        return ["--input", path, "--affiliations", affiliations, "--seed", "7"]
    path = directory / "edges.csv"
    path.write_text("source,target\n" + "".join(
        f"{a},{b}\n" for a, b in synth.benchmark_graph(1390, 4693, 11)), encoding="utf-8")
    return ["--input", path, "--input-format", "edges", "--seed", "11"]


def run_outputs(name, directory, threads):
    out = directory / "out"
    argv = write_inputs(name, directory) + [
        "--threads", str(threads), "--min-community-size", "25", "--out-dir", out]
    assert main(["run", *map(str, argv)]) == 0
    return out


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def observed(out):
    """(digests, values) of one run's outputs, in the shapes of PINS and VALUES."""
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in ("edges.csv", "partition.csv", "graph.graphml", "degree_dist.csv",
                         "ingest_stats.json") if (out / f).exists()}
    rows = read_rows(out / "centrality.csv")
    keep = [rows[0].index(c) for c in PINNED_COLUMNS]
    text = "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
    digests[f"centrality.csv[{','.join(PINNED_COLUMNS)}]"] = \
        hashlib.sha256(text.encode("utf-8")).hexdigest()
    values = {
        "eigenvector": [row[rows[0].index("eigenvector")] for row in rows[1:]],
        "powerlaw_fit.csv": read_rows(out / "powerlaw_fit.csv"),
        "powerlaw.json": json.loads((out / "powerlaw.json").read_text(encoding="utf-8")),
    }
    return digests, values


def close(a, b):
    """Equal, or both numbers within 1e-9 relative (1e-15 absolute near zero)."""
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return False
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-15)


def assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert close(got, want), (where, got, want)


# `ingest --aliases` on write_alias_inputs' corpus
ALIAS_PINS = {
    "edges.csv": "d84020811a4c50558a19a0fa01e1c995d728d1c0c004d316c3226108f3630996",
    "ingest_stats.json": "4c1e531248983926ad3fbc14e68efadbdbd0fd1535e7355518e7c5de1529d632",
}


def write_alias_inputs(directory):
    """A 200-article corpus whose alias table folds persons named in the same
    article onto each other; some mentions and alias rows carry stray
    whitespace, so the fold runs on normalized names.  Two leading articles
    fold down to one person each, so neither adds a node."""
    records = synth.generate_corpus(200, 400, 5)
    names = sorted({p for r in records for p in r.persons})
    # every seventh name from the second on folds onto its predecessor, which
    # is never an alias; neighbours share the corpus's coverage articles
    aliases = {names[i]: names[i - 1] for i in range(1, len(names), 7)}
    aliases["Lone A."] = "Lone B."
    lines = ['{"id": "x1", "persons": ["Lone A.", "Lone B.", " Lone  A."]}',
             '{"id": "x2", "persons": ["P00008", "P00007"]}']
    for j, r in enumerate(records):
        persons = [f"  {p}\t" if (j + k) % 5 == 0 else p for k, p in enumerate(r.persons)]
        lines.append(json.dumps({"id": r.id, "persons": persons, "date": r.date}))
    path = directory / "articles.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = directory / "aliases.csv"
    table.write_text("alias,canonical\n" + "".join(
        f" {a} ,{c}\n" if i % 2 else f"{a},{c}\n"
        for i, (a, c) in enumerate(aliases.items())), encoding="utf-8")
    return ["--input", path, "--aliases", table]


def test_alias_ingest_pinned(tmp_path):
    """The bytes of ``ingest --aliases`` when aliases merge persons within an article."""
    out = tmp_path / "out"
    assert main(["ingest", *map(str, write_alias_inputs(tmp_path)), "--out-dir", str(out)]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ALIAS_PINS}
    assert digests == ALIAS_PINS


@pytest.mark.parametrize("name", sorted(PINS))
def test_run_outputs_pinned(name, tmp_path, capsys):
    """The pinned run's bytes, then an audit of it that passes every check."""
    out = run_outputs(name, tmp_path, threads=2)
    digests, values = observed(out)
    assert digests == PINS[name]
    with gzip.open(VALUES, "rt", encoding="utf-8") as fh:
        want = json.load(fh)[name]
    assert_close(values, want, name)
    capsys.readouterr()
    rc = main(["audit", "--out-dir", str(out)])
    checks = capsys.readouterr().out.splitlines()
    assert rc == 0, [line for line in checks if line.startswith("FAIL")]
    assert {"graphml:", "edge_list:"} <= {line.split()[1] for line in checks
                                          if line.startswith("ok")}
