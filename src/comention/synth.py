"""Deterministic synthetic inputs: corpora, benchmark graphs, planted partitions.

Everything here is seed-driven so pipelines and benchmarks built on these
fixtures are exactly reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True, slots=True)
class ArticleRecord:
    """One generated article: id, ordered distinct persons, optional title/date."""

    id: str
    persons: tuple[str, ...]
    title: str | None = None
    date: str | None = None


_SIZES = np.array([2, 3, 4, 5, 6])
_SIZE_PROBS = np.array([0.35, 0.30, 0.20, 0.10, 0.05])


def generate_corpus(n_articles: int = 5200, n_persons: int = 10500,
                    seed: int = 7) -> list[ArticleRecord]:
    """Build an article list whose co-mention graph is one connected component.

    A coverage phase walks every person through a 4-person article (three
    sequential persons plus one popular anchor), which guarantees each person
    at least one co-mention and ties all articles to a common core.  The
    remaining articles sample 2..6 persons with a rank-skewed popularity, so
    degrees come out heavy-tailed.
    """
    coverage = (n_persons + 2) // 3
    if n_articles < coverage + 1:
        raise DataError(f"need at least {coverage + 1} articles to cover "
                        f"{n_persons} persons, got {n_articles}")
    rng = np.random.default_rng(seed)
    names = [f"P{i:05d}" for i in range(n_persons)]

    # rank-skewed popularity: low indices act as hubs
    weights = 1.0 / (np.arange(n_persons) + 10.0) ** 0.8
    weights /= weights.sum()
    anchor_pool = min(200, n_persons)
    anchor_weights = 1.0 / (np.arange(anchor_pool) + 3.0)
    anchor_weights /= anchor_weights.sum()

    day_span = np.datetime64("2020-12-31") - np.datetime64("2013-01-01")
    base_day = np.datetime64("2013-01-01")

    records: list[ArticleRecord] = []
    for a in range(n_articles):
        if a < coverage:
            start = a * 3
            block = [names[i] for i in range(start, min(start + 3, n_persons))]
            anchor = names[int(rng.choice(anchor_pool, p=anchor_weights))]
            if anchor in block:
                if len(block) >= 2:
                    persons = block
                else:  # tiny-corpus corner: keep the article pair-producing
                    anchor = next(names[i] for i in range(anchor_pool) if names[i] not in block)
                    persons = block + [anchor]
            else:
                persons = block + [anchor]
        else:
            k = int(rng.choice(_SIZES, p=_SIZE_PROBS))
            picked = rng.choice(n_persons, size=k, replace=False, p=weights)
            persons = [names[i] for i in np.sort(picked)]
        title = f"Article {a}" if rng.random() > 0.3 else None
        when = None
        if rng.random() > 0.1:
            when = str(base_day + np.timedelta64(int(rng.integers(int(day_span.astype(int)) + 1)), "D"))
        records.append(ArticleRecord(id=f"a{a:06d}", persons=tuple(persons),
                                     title=title, date=when))
    return records


def write_articles_jsonl(records, path) -> None:
    """Write article records as one JSON object per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            obj: dict = {"id": record.id, "persons": list(record.persons)}
            if record.title is not None:
                obj["title"] = record.title
            if record.date is not None:
                obj["date"] = record.date
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def benchmark_graph(n: int, m: int, seed: int = 11) -> list[tuple[str, str]]:
    """Connected graph with exactly n nodes and m distinct edges.

    Grows a preferential-attachment tree, then adds degree-biased extra edges
    until m is reached, so the degree distribution is heavy-tailed like a real
    co-mention network.
    """
    if n < 2:
        raise DataError(f"need at least 2 nodes, got {n}")
    if m < n - 1:
        raise DataError(f"{m} edges cannot connect {n} nodes")
    if m > n * (n - 1) // 2:
        raise DataError(f"{m} edges exceed the {n}-node maximum")
    rng = np.random.default_rng(seed)
    endpoints = [0]
    pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        u = endpoints[int(rng.integers(len(endpoints)))]
        edge = (u, v) if u < v else (v, u)
        pairs.add(edge)
        edges.append(edge)
        endpoints.append(u)
        endpoints.append(v)
    while len(edges) < m:
        u = endpoints[int(rng.integers(len(endpoints)))]
        v = int(rng.integers(n))
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in pairs:
            continue
        pairs.add(edge)
        edges.append(edge)
        endpoints.append(u)
        endpoints.append(v)
    names = [f"P{i:05d}" for i in range(n)]
    return [(names[u], names[v]) for u, v in edges]


def planted_partition(n_blocks: int = 4, block_size: int = 25, p_in: float = 0.3,
                      p_out: float = 0.01, seed: int = 23):
    """Random graph with planted communities and its ground-truth labels.

    Returns ``(edges, truth)`` where ``truth`` maps node name to block index.
    Every node is guaranteed at least one edge (an isolated node would fall
    out of the graph and desync the labels), by linking it to the next node in
    its block if sampling left it bare.
    """
    if n_blocks < 2 or block_size < 2:
        raise DataError("need at least 2 blocks of at least 2 nodes")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise DataError("probabilities must satisfy 0 <= p_out <= p_in <= 1")
    n = n_blocks * block_size
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    same = (iu // block_size) == (ju // block_size)
    keep = rng.random(iu.size) < np.where(same, p_in, p_out)
    us = iu[keep]
    vs = ju[keep]

    touched = np.zeros(n, dtype=bool)
    touched[us] = True
    touched[vs] = True
    extra = []
    for v in np.flatnonzero(~touched).tolist():
        block = v // block_size
        w = block * block_size + (v + 1 - block * block_size) % block_size
        extra.append((min(v, w), max(v, w)))

    names = [f"N{i:03d}" for i in range(n)]
    edges = [(names[u], names[v]) for u, v in zip(us.tolist(), vs.tolist())]
    edges.extend((names[u], names[v]) for u, v in extra)
    truth = {names[i]: i // block_size for i in range(n)}
    return edges, truth
