"""Immutable sparse undirected graph over interned node names."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._sweep import sweep
from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph in compressed sparse row form.

    Node ids are dense integers assigned in first-seen order of the input
    pairs; ``names[v]`` recovers the display name of node ``v``.
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

    @cached_property
    def name_order(self) -> np.ndarray:
        """Each node's position among all names sorted ascending."""
        order = np.empty(self.node_count, dtype=np.int64)
        order[sorted(range(self.node_count), key=self.names.__getitem__)] = \
            np.arange(self.node_count)
        return order

    def check_node(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.node_count:
            raise DataError(f"node id {v} out of range 0..{self.node_count - 1}")
        return v

    def neighbors(self, v: int) -> np.ndarray:
        v = self.check_node(v)
        return self.adjacency[self.indptr[v]:self.indptr[v + 1]]

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


def build_graph(groups: Iterable[Sequence[str]]) -> Graph:
    """Intern names and build the deduplicated undirected graph of cliques.

    Every group of names links each two of its members: an edge list passes
    2-tuples, an article corpus each record's persons.  ``groups`` is read
    once.  Self-pairs are dropped, repeated pairs collapse to one edge, and
    node ids follow first appearance among the pairs, so a group without two
    distinct names adds no node.  Raises :class:`DataError` on a name that is
    not a non-empty string, or when no usable edge survives cleanup.
    """
    names, ids, sizes = _intern(groups)
    return csr_graph(names, _clique_pairs(ids, sizes))


def _intern(groups) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """``(names, ids, sizes)`` of the groups that hold two distinct names:
    node names in first appearance, each such group's node ids laid end to
    end, and each such group's size."""
    groups = list(groups)
    flat = list(chain.from_iterable(groups))
    index: dict[str, int] = {}
    try:  # each slot's key: the first slot holding its name
        keys = np.fromiter(map(index.setdefault, flat, count()), np.int64, len(flat))
    except TypeError:  # an unhashable name
        keys = None
    if keys is None or not all(isinstance(name, str) and name for name in index):
        bad = next(g for g in groups if not all(isinstance(n, str) and n for n in g))
        raise DataError("edge endpoint must be a non-empty string, "
                        f"got ({', '.join(map(repr, bad))})")
    sizes = np.fromiter(map(len, groups), np.int64, len(groups))
    starts = np.cumsum(sizes) - sizes
    # a linked group holds two distinct names, so it adds a pair
    linked = sizes > 1
    linked[linked] = (np.minimum.reduceat(keys, starts[linked])
                      != np.maximum.reduceat(keys, starts[linked]))
    if not linked.any():
        raise DataError("no usable edges after dropping self-pairs and duplicates")
    # first[key]: the name's first slot in a linked group, which is where it
    # first appears among the pairs; its node opens there, and ids count the
    # nodes in that order
    slots = np.flatnonzero(np.repeat(linked, sizes))
    first = np.full(keys.size, keys.size)
    np.minimum.at(first, keys[slots], slots)
    opens = np.zeros(keys.size, dtype=bool)
    opens[first[first < keys.size]] = True
    ids = (np.cumsum(opens) - 1)[first[keys[slots]]]
    return tuple(compress(flat, opens.tolist())), ids, sizes[linked]


def _clique_pairs(ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Every pair of two slots within one group, as an (m, 2) array of node
    ids without self-pairs; ``ids`` holds the groups' ids end to end."""
    starts = np.cumsum(sizes) - sizes
    per_size = np.bincount(sizes)
    ends = np.empty((sum(c * k * (k - 1) // 2 for k, c in enumerate(per_size.tolist())), 2),
                    dtype=np.int64)
    at = 0
    for k in np.flatnonzero(per_size).tolist():  # all groups of k slots at once
        members = ids[starts[sizes == k][:, None] + np.arange(k)]
        tails, heads = np.triu_indices(k, 1)
        block = ends[at:at + members.shape[0] * tails.size]
        block[:, 0] = members[:, tails].ravel()
        block[:, 1] = members[:, heads].ravel()
        at += len(block)
    self_pairs = ends[:, 0] == ends[:, 1]  # from a group that repeats a name
    return ends[~self_pairs] if self_pairs.any() else ends


def csr_graph(names: tuple[str, ...], ends: np.ndarray) -> Graph:
    """The graph over ``names`` whose edges are the rows of ``ends``, an
    (m, 2) int64 array of node ids without self-pairs; a repeated pair
    collapses to one edge."""
    # Both directions of every pair packed as (tail << 32) | head (node counts
    # stay far below 2**32); sorted, a repeated pair is a run of equal keys.
    keys = np.concatenate([(ends[:, 0] << 32) | ends[:, 1], (ends[:, 1] << 32) | ends[:, 0]])
    keys.sort()
    fresh = np.empty(keys.size, dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    n = len(names)
    adjacency = (keys & 0xFFFFFFFF).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys >> 32, minlength=n), out=indptr[1:])
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


def _csv_cells(names) -> list[str]:
    """Each name as :mod:`csv` writes it in a cell: quoted only where it must be."""
    written: list[str] = []
    writer = csv.writer(SimpleNamespace(write=written.append), lineterminator="\n")
    cells = []
    for name in names:
        writer.writerow((name,))
        cells.append("".join(written)[:-1])
        written.clear()
    return cells


def write_edge_csv(g: Graph, path) -> None:
    """Write the edge list as a two-column CSV with a source,target header.

    Each name is quoted once; a row is then its two cells joined, in
    ascending (u, v) id order.
    """
    cells = np.array(_csv_cells(g.names), dtype=object)
    us, vs = g.edge_arrays()
    rows = np.empty((us.size, 2), dtype=object)
    rows[:, 0] = (cells + ",")[us]
    rows[:, 1] = (cells + "\n")[vs]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source,target\n")
        fh.write("".join(rows.ravel().tolist()))


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
