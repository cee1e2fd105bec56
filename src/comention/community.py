"""Louvain community detection and community-level reporting structures."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .centrality import CentralityBundle, as_written
from .errors import ConvergenceError, DataError
from .graph import Graph, Partition, relabel_by_size

logger = logging.getLogger(__name__)

OTHER = -1  # pseudo-community absorbing non-retained nodes in the induced view


def intra_edges(g: Graph, p: Partition) -> np.ndarray:
    """Number of edges with both endpoints in community ``c``, per ``c``."""
    us, vs = g.edge_arrays()
    lu = p.labels[us]
    return np.bincount(lu[lu == p.labels[vs]], minlength=p.count)


def modularity(g: Graph, p: Partition, resolution: float = 1.0) -> float:
    """Q = sum over communities of e_c/m - resolution * (d_c / 2m)^2."""
    if p.labels.size != g.node_count:
        raise DataError(f"partition covers {p.labels.size} nodes, graph has {g.node_count}")
    m = g.edge_count
    e_c = intra_edges(g, p)
    d_c = np.bincount(p.labels, weights=g.degrees.astype(np.float64), minlength=p.count)
    return float((e_c / m).sum() - resolution * ((d_c / (2.0 * m)) ** 2).sum())


def _one_level(indptr, adjacency, weights, loops, total_weight, resolution,
               rng) -> tuple[bool, np.ndarray]:
    """Local moving phase; returns (any move happened, dense community labels)."""
    n = indptr.size - 1
    owner = np.repeat(np.arange(n), np.diff(indptr))
    k = (2.0 * loops + np.bincount(owner, weights=weights, minlength=n)).tolist()
    ptr, nbr, wt = indptr.tolist(), adjacency.tolist(), weights.tolist()
    rows = [list(zip(nbr[ptr[v]:ptr[v + 1]], wt[ptr[v]:ptr[v + 1]])) for v in range(n)]
    comm = list(range(n))
    comm_tot = k.copy()
    two_m = 2.0 * total_weight
    order = list(range(n))
    rng.shuffle(order)

    moved_any = False
    while True:
        moves = 0
        for v in order:
            cv = comm[v]
            kv = k[v]
            weight_to: dict[int, float] = {}
            for u, w in rows[v]:
                cu = comm[u]
                weight_to[cu] = weight_to.get(cu, 0.0) + w
            comm_tot[cv] -= kv
            stay_gain = weight_to.get(cv, 0.0) - resolution * comm_tot[cv] * kv / two_m
            best_c = cv
            best_gain = stay_gain
            # the highest gain wins, the lowest id among equal gains; cv's own
            # entry reproduces stay_gain, which never passes the 1e-12 test
            for c, w in weight_to.items():
                gain = w - resolution * comm_tot[c] * kv / two_m
                if (gain > best_gain or gain == best_gain and c < best_c) \
                        and (gain - stay_gain) / total_weight > 1e-12:
                    best_c = c
                    best_gain = gain
            comm_tot[best_c] += kv
            if best_c != cv:
                comm[v] = best_c
                moves += 1
        if moves == 0:
            break
        moved_any = True

    # dense ids in order of first appearance
    _, first, inverse = np.unique(comm, return_index=True, return_inverse=True)
    remap = np.empty(first.size, dtype=np.int64)
    remap[np.argsort(first)] = np.arange(first.size)
    return moved_any, remap[inverse]


def _aggregate(indptr, adjacency, weights, loops, labels):
    """Collapse each community into one node: CSR rows sorted by neighbour, plus loops."""
    count = int(labels.max()) + 1
    cu = np.repeat(labels, np.diff(indptr))
    cv = labels[adjacency]
    intra = cu == cv
    # every intra edge sits in both endpoints' rows, hence the halving
    new_loops = (np.bincount(labels, weights=loops, minlength=count)
                 + 0.5 * np.bincount(cu[intra], weights=weights[intra], minlength=count))
    keys, inverse = np.unique(cu[~intra] * count + cv[~intra], return_inverse=True)
    new_weights = np.bincount(inverse, weights=weights[~intra])
    new_indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // count, minlength=count), out=new_indptr[1:])
    return new_indptr, keys % count, new_weights, new_loops


def louvain(g: Graph, seed: int, resolution: float = 1.0) -> Partition:
    """Two-phase Louvain modularity optimization.

    Local moving visits nodes in a seed-shuffled order and accepts a move only
    when it improves modularity by more than 1e-12, breaking ties toward the
    lowest community id; the aggregated graph then replays the same procedure
    until a phase moves nothing.  Each level is weighted CSR arrays, level 0
    being the graph itself.  Output community ids are renumbered largest
    community first.  Deterministic for a fixed seed.
    """
    if g.node_count == 0:
        raise DataError("louvain needs a non-empty graph")
    rng = random.Random(seed)
    n = g.node_count
    # (indptr, adjacency, weights, loops)
    level = (g.indptr, g.adjacency, np.ones(g.adjacency.size), np.zeros(n))
    total_weight = float(g.edge_count)

    node_to_comm = np.arange(n, dtype=np.int64)
    # an aggregated level's modularity is that of the composed partition on g
    q_prev = modularity(g, Partition.from_labels(node_to_comm), resolution)
    while True:
        moved, labels = _one_level(*level, total_weight, resolution, rng)
        q_here = modularity(g, Partition.from_labels(labels[node_to_comm]), resolution)
        if q_here < q_prev - 1e-12:
            raise ConvergenceError(f"modularity decreased across a phase: {q_prev} -> {q_here}")
        q_prev = q_here
        if not moved:
            break
        node_to_comm = labels[node_to_comm]
        level = _aggregate(*level, labels)
    return Partition(*relabel_by_size(node_to_comm))


def filter_communities(p: Partition, min_size: int = 100) -> list[int]:
    """Ids of communities holding at least ``min_size`` nodes, largest first."""
    if min_size < 1:
        raise DataError(f"min_size must be >= 1, got {min_size}")
    kept = [c for c in range(p.count) if p.sizes[c] >= min_size]
    kept.sort(key=lambda c: (-p.sizes[c], c))
    if not kept:
        largest = max(p.sizes)
        raise DataError(f"no community reaches min_size={min_size} (largest is {largest}); "
                        f"lower the threshold")
    return kept


def _community_ids(p: Partition, communities) -> list[int]:
    """The given community ids as ints, each checked to be one of ``p``'s."""
    ids = [int(c) for c in communities]
    for c in ids:
        if not 0 <= c < p.count:
            raise DataError(f"unknown community id {c}")
    return ids


def _means(labels: np.ndarray, values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-label mean of ``values``: the one formula behind every community mean."""
    return np.bincount(labels, weights=values, minlength=sizes.size) / sizes


@dataclass(frozen=True)
class CommunitySummary:
    """Per-community mean scores plus size and internal density."""

    community: int
    label: str
    mean_betweenness: float
    size: int
    mean_closeness: float
    mean_eigenvector: float
    mean_clustering: float
    internal_density: float


def community_summary(g: Graph, p: Partition, bundle: CentralityBundle,
                      labels: Mapping[int, str]) -> list[CommunitySummary]:
    """Mean member scores of each community ``labels`` names, by mean
    betweenness :func:`as_written` descending, then community id.

    Internal density is intra-community edges over C(size, 2); a singleton
    community scores 0.
    """
    ids = _community_ids(p, labels)
    sizes = np.asarray(p.sizes, dtype=np.float64)
    mean_b, mean_c, mean_e, mean_cc = (_means(p.labels, x, sizes) for x in (
        bundle.betweenness, bundle.closeness, bundle.eigenvector, bundle.clustering))
    intra = intra_edges(g, p)

    out = []
    for c, label in zip(ids, labels.values()):
        s = p.sizes[c]
        d = float(intra[c]) / (s * (s - 1) / 2.0) if s > 1 else 0.0
        out.append(CommunitySummary(
            community=c, label=label, mean_betweenness=float(mean_b[c]), size=s,
            mean_closeness=float(mean_c[c]), mean_eigenvector=float(mean_e[c]),
            mean_clustering=float(mean_cc[c]), internal_density=d))
    out.sort(key=lambda r: (-as_written(r.mean_betweenness), r.community))
    return out


@dataclass(frozen=True)
class InducedGraph:
    """Community-level view of the person graph.

    Nodes are retained communities (plus an optional pseudo-node ``OTHER``
    absorbing everything else); an edge weight counts original edges with one
    endpoint in each community.  ``dropped_edges`` counts original edges not
    represented, so weights + intra counts + dropped always total m.
    """

    community_ids: tuple[int, ...]
    labels: dict[int, str]
    sizes: dict[int, int]
    mean_betweenness: dict[int, float]
    intra_weights: dict[int, int]
    edges: tuple[tuple[int, int, int], ...]
    dropped_edges: int


def induced_graph(g: Graph, p: Partition, labels: Mapping[int, str],
                  bundle: CentralityBundle, include_other: bool = False) -> InducedGraph:
    """Collapse the partition into a weighted community network.

    The retained communities are the keys of ``labels``, in its order.  One
    Louvain aggregation step over slots: each retained community is a slot,
    and all other nodes share a rest slot, kept as ``OTHER`` when
    ``include_other`` and otherwise dropped with its edges.  Every edge counts
    once: as a kept slot's intra weight, as an induced edge's weight (edges in
    retained order, ``OTHER`` last), or as dropped.  Unit weights keep every
    sum exact; an empty rest slot's size is taken as 1 to avoid 0/0.
    """
    retained = _community_ids(p, labels)
    rest = len(retained)
    fold = np.full(p.count, rest, dtype=np.int64)
    fold[retained] = np.arange(rest)
    slot = fold[p.labels]
    sizes = np.bincount(slot, minlength=rest + 1)
    ids = retained + ([OTHER] if include_other and sizes[rest] else [])
    indptr, heads, weights, loops = _aggregate(
        g.indptr, g.adjacency, np.ones(g.adjacency.size), np.zeros(g.node_count), slot)
    tails = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    inter = (tails < heads) & (heads < len(ids))
    edges = tuple((ids[a], ids[b], int(w)) for a, b, w in zip(
        tails[inter].tolist(), heads[inter].tolist(), weights[inter].tolist()))
    intra = [int(w) for w in loops[:len(ids)]]
    means = _means(slot, bundle.betweenness, np.maximum(sizes, 1))
    return InducedGraph(
        community_ids=tuple(ids),
        labels={c: "other" if c == OTHER else labels[c] for c in ids},
        sizes={c: int(sizes[i]) for i, c in enumerate(ids)},
        mean_betweenness={c: float(means[i]) for i, c in enumerate(ids)},
        intra_weights=dict(zip(ids, intra)), edges=edges,
        dropped_edges=g.edge_count - sum(intra) - sum(w for _, _, w in edges))


def top_members(g: Graph, p: Partition, bundle: CentralityBundle,
                communities: Sequence[int], k: int = 5) -> dict[int, list[str]]:
    """Top-k members per community by betweenness :func:`as_written`
    descending, ties broken by name ascending; the first names the community.

    One sort ranks every node within its community.
    """
    if k <= 0:
        raise DataError(f"k must be positive, got {k}")
    ids = _community_ids(p, communities)
    order = np.lexsort((g.name_order, -bundle.written("betweenness"), p.labels))
    ranked = np.split(order, np.cumsum(p.sizes)[:-1])
    return {c: [g.names[v] for v in ranked[c][:k].tolist()] for c in ids}
