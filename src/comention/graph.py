"""Immutable sparse undirected graph over interned node names."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from ._sweep import sweep
from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph in compressed sparse row form.

    Node ids are dense integers assigned in first-seen order of the input
    edge list; ``names[v]`` recovers the display name of node ``v``.
    Neighbor rows are strictly sorted, self-loop free and symmetric, so
    ``adjacency.size`` is exactly twice the edge count.
    """

    names: tuple[str, ...]
    indptr: np.ndarray
    adjacency: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.names)

    @property
    def edge_count(self) -> int:
        return self.adjacency.size // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def check_node(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.node_count:
            raise DataError(f"node id {v} out of range 0..{self.node_count - 1}")
        return v

    def neighbors(self, v: int) -> np.ndarray:
        v = self.check_node(v)
        return self.adjacency[self.indptr[v]:self.indptr[v + 1]]

    def degree_of(self, v: int) -> int:
        v = self.check_node(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every undirected edge once, as parallel (u, v) arrays with u < v."""
        src = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)
        keep = src < self.adjacency
        return src[keep], self.adjacency[keep].astype(np.int64)

    def edges(self) -> Iterator[tuple[str, str]]:
        """Named edges in ascending (u, v) id order."""
        us, vs = self.edge_arrays()
        for u, v in zip(us.tolist(), vs.tolist()):
            yield self.names[u], self.names[v]

    def has_edge(self, a: str, b: str) -> bool:
        ia = self.name_to_id.get(a)
        ib = self.name_to_id.get(b)
        if ia is None or ib is None:
            return False
        row = self.neighbors(ia)
        pos = np.searchsorted(row, ib)
        return pos < row.size and row[pos] == ib


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Connected components, relabelled so component 0 is the largest.

    Ties in size keep the component whose lowest node id is smaller first.
    """

    labels: np.ndarray
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)

    def members(self, component: int) -> np.ndarray:
        return np.flatnonzero(self.labels == component)


def build_graph(edges: Iterable[tuple[str, str]]) -> Graph:
    """Intern names and build the deduplicated undirected graph.

    Self-pairs are dropped, repeated pairs collapse to one edge, and node ids
    follow first appearance in the stream.  Raises :class:`DataError` on an
    empty or blank name, or when no usable edge survives cleanup.
    """
    index: dict[str, int] = {}
    seen: set[int] = set()
    us: list[int] = []
    vs: list[int] = []
    for a, b in edges:
        if not isinstance(a, str) or not isinstance(b, str) or not a or not b:
            raise DataError(f"edge endpoint must be a non-empty string, got ({a!r}, {b!r})")
        if a == b:
            continue
        ia = index.setdefault(a, len(index))
        ib = index.setdefault(b, len(index))
        if ia > ib:
            ia, ib = ib, ia
        key = (ia << 32) | ib  # safe: node counts stay far below 2**32
        if key in seen:
            continue
        seen.add(key)
        us.append(ia)
        vs.append(ib)
    if not us:
        raise DataError("no usable edges after dropping self-pairs and duplicates")

    n = len(index)
    src = np.concatenate([np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)])
    dst = np.concatenate([np.array(vs, dtype=np.int64), np.array(us, dtype=np.int64)])
    order = np.lexsort((dst, src))
    adjacency = dst[order].astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    names = tuple(index)  # dict preserves insertion order
    return Graph(names=names, indptr=indptr, adjacency=adjacency)


def density(node_count: int, edge_count: int) -> float:
    """Fraction of realized node pairs, ``2m / (n (n - 1))``."""
    if node_count < 2:
        raise DataError(f"density needs at least 2 nodes, got {node_count}")
    if edge_count < 0:
        raise DataError(f"edge count must be non-negative, got {edge_count}")
    return 2.0 * edge_count / (node_count * (node_count - 1))


def degree_histogram(g: Graph) -> dict[int, int]:
    """Map degree value to the number of nodes holding it."""
    counts = np.bincount(g.degrees)
    return {int(d): int(c) for d, c in enumerate(counts) if c > 0}


def connected_components(g: Graph) -> ComponentLabeling:
    """Union-find over the edge list, then relabel components by size."""
    n = g.node_count
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    us, vs = g.edge_arrays()
    for u, v in zip(us.tolist(), vs.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            if ru > rv:
                ru, rv = rv, ru
            parent[rv] = ru

    roots = np.fromiter((find(v) for v in range(n)), count=n, dtype=np.int64)
    labels, sizes = relabel_by_size(roots)
    return ComponentLabeling(labels=labels, sizes=sizes)


def relabel_by_size(groups) -> tuple[np.ndarray, tuple[int, ...]]:
    """Relabel groups densely, largest first; ties keep the earlier first member.

    Returns the new per-node labels and the size of each new label.
    """
    uniq, first_pos, inverse, counts = np.unique(
        groups, return_index=True, return_inverse=True, return_counts=True)
    order = np.lexsort((first_pos, -counts))
    remap = np.empty(uniq.size, dtype=np.int64)
    remap[order] = np.arange(uniq.size)
    return remap[inverse], tuple(int(c) for c in counts[order])


def diameter(g: Graph, *, components: ComponentLabeling | None = None) -> int:
    """Longest shortest path within the largest connected component."""
    labeling = components if components is not None else connected_components(g)
    if labeling.count > 1:
        logger.warning("graph is disconnected (%d components); diameter taken over "
                       "the largest component of %d nodes", labeling.count, labeling.sizes[0])
    members = labeling.members(0)
    if members.size < 2:
        return 0
    result = sweep(g.indptr, g.adjacency, g.node_count, members)
    return int(result.eccentricity.max())


def write_edge_csv(g: Graph, path) -> None:
    """Write the edge list as a two-column CSV with a source,target header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "target"])
        for a, b in g.edges():
            writer.writerow([a, b])


def read_edge_pairs(path) -> list[tuple[str, str]]:
    """Named pairs of a two-column CSV with a source,target header.

    Names are normalized the same way article ingest normalizes them, so a
    round trip through disk reproduces the graph exactly.
    """
    from .ingest import read_name_pairs

    pairs = [(a, b) for _, a, b in read_name_pairs(path, ("source", "target"))]
    if not pairs:
        raise DataError(f"{path}: no edges")
    return pairs


def read_edge_csv(path) -> Graph:
    """Load a two-column edge CSV produced by :func:`write_edge_csv`."""
    return build_graph(read_edge_pairs(path))
