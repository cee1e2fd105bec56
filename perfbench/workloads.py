"""Seeded benchmark inputs and the CLI commands that make up one operation.

Every input comes from the workload seed alone, so the same seed always gives
the same files.  The program under test only ever sees these files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from comention import synth
from comention.typology import CATEGORIES

WORKLOADS = ("corpus", "bench-graph", "ingest-large")

# Reference outputs are stored for POOL input seeds per workload; any --seed
# maps onto one of them so that the correctness gate always has a reference.
# The pools hold the canonical seeds: 7 for the corpus, 11 for the graph.
POOL = 8
_POOL_BASE = {"corpus": 0, "bench-graph": 8, "ingest-large": 0}

# One eighth of the canonical 5200-article / 10500-person corpus and of the
# canonical 11118-node / 37544-edge graph, so one operation takes seconds.
CORPUS_SIZE = (650, 1312)
GRAPH_SIZE = (1390, 4693)
# min_community_size scaled with the inputs (the CLI default of 100 suits the
# full-size corpus; at one eighth no community would be retained)
MIN_COMMUNITY_SIZE = 25

LARGE_ARTICLES = 100_000
LARGE_PERSONS = 10_000
LARGE_ZIPF = 0.9        # popularity exponent; skew makes co-mention pairs repeat
LARGE_ALIAS_SHARE = 0.04  # persons that also appear under an alias spelling
_SIZES = np.array([2, 3, 4, 5, 6])
_SIZE_PROBS = np.array([0.35, 0.30, 0.20, 0.10, 0.05])


def input_seed(workload: str, seed: int) -> int:
    return _POOL_BASE[workload] + seed % POOL


def pool_seeds(workload: str) -> list[int]:
    return [_POOL_BASE[workload] + i for i in range(POOL)]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_affiliations(names, seed: int, path: Path) -> None:
    """One of the 8 categories per person, drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    picks = rng.integers(len(CATEGORIES), size=len(names))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,category\n")
        for name, c in zip(names, picks.tolist()):
            fh.write(f"{name},{CATEGORIES[c]}\n")


def _write_large_corpus(seed: int, articles: Path, aliases: Path) -> None:
    """Zipf-popular article corpus plus an alias table, generated vectorised.

    ``synth.generate_corpus`` draws each article with an O(persons) weighted
    choice, which is far too slow at this size.
    """
    rng = np.random.default_rng([seed, 2])
    sizes = rng.choice(_SIZES, size=LARGE_ARTICLES, p=_SIZE_PROBS)
    weights = 1.0 / np.arange(1, LARGE_PERSONS + 1) ** LARGE_ZIPF
    rank = rng.permutation(LARGE_PERSONS)  # popularity rank is not the id order
    weights = weights[rank] / weights.sum()
    picks = rng.choice(LARGE_PERSONS, size=int(sizes.sum()), p=weights)
    aliased = rng.random(LARGE_PERSONS) < LARGE_ALIAS_SHARE
    use_alias = aliased[picks] & (rng.random(picks.size) < 0.5)
    names = [f"Person {i:05d}" for i in range(LARGE_PERSONS)]
    alias_of = [f"P. {i:05d}" for i in range(LARGE_PERSONS)]
    mentions = [alias_of[p] if a else names[p]
                for p, a in zip(picks.tolist(), use_alias.tolist())]
    days = rng.integers(0, 2922, size=LARGE_ARTICLES)
    dates = (np.datetime64("2013-01-01") + days).astype(str).tolist()
    titled = (rng.random(LARGE_ARTICLES) < 0.7).tolist()

    ends = np.cumsum(sizes).tolist()
    start = 0
    with open(articles, "w", encoding="utf-8", newline="\n") as fh:
        for a, end in enumerate(ends):
            obj = {"date": dates[a], "id": f"a{a:06d}", "persons": mentions[start:end]}
            if titled[a]:
                obj["title"] = f"Article {a}"
            fh.write(json.dumps(obj, sort_keys=True))
            fh.write("\n")
            start = end
    with open(aliases, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alias,canonical\n")
        for i in np.flatnonzero(aliased).tolist():
            fh.write(f"{alias_of[i]},{names[i]}\n")


def make_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's input files for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "corpus":
        paths = {"articles": directory / "articles.jsonl",
                 "affiliations": directory / "affiliations.csv"}
        records = synth.generate_corpus(*CORPUS_SIZE, seed)
        synth.write_articles_jsonl(records, paths["articles"])
        names = sorted({p for r in records for p in r.persons})
        _write_affiliations(names, seed, paths["affiliations"])
    elif workload == "bench-graph":
        paths = {"edges": directory / "edges.csv",
                 "affiliations": directory / "affiliations.csv"}
        edges = synth.benchmark_graph(*GRAPH_SIZE, seed)
        with open(paths["edges"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("source,target\n")
            fh.writelines(f"{a},{b}\n" for a, b in edges)
        names = sorted({name for edge in edges for name in edge})
        _write_affiliations(names, seed, paths["affiliations"])
    elif workload == "ingest-large":
        paths = {"articles": directory / "articles.jsonl",
                 "aliases": directory / "aliases.csv"}
        _write_large_corpus(seed, paths["articles"], paths["aliases"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return paths


def operation(workload: str, inputs: dict[str, Path], seed: int, threads: int,
              out_dir: Path) -> list[list[str]]:
    """CLI argument lists of one operation; the first one produces the outputs."""
    out = str(out_dir)
    if workload == "ingest-large":
        return [["ingest", "--input", str(inputs["articles"]),
                 "--aliases", str(inputs["aliases"]), "--out-dir", out]]
    if workload == "corpus":
        source = ["--input", str(inputs["articles"])]
    else:
        source = ["--input", str(inputs["edges"]), "--input-format", "edges"]
    run = ["run", *source, "--affiliations", str(inputs["affiliations"]),
           "--seed", str(seed), "--threads", str(threads),
           "--min-community-size", str(MIN_COMMUNITY_SIZE), "--out-dir", out]
    if workload == "corpus":
        return [run, ["audit", "--out-dir", out]]
    return [run]
