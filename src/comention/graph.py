"""Immutable sparse undirected graph over interned node names."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from ._sweep import sweep
from .errors import DataError

logger = logging.getLogger(__name__)

EDGE_BLOCK = 1 << 15  # rows per write of write_edge_csv


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
    def name_order(self) -> np.ndarray:
        """Each node's position among all names sorted ascending."""
        order = np.empty(self.node_count, dtype=np.int64)
        order[sorted(range(self.node_count), key=self.names.__getitem__)] = \
            np.arange(self.node_count)
        return order

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every undirected edge once, as parallel (u, v) arrays with u < v,
        in ``adjacency``'s dtype."""
        src = np.repeat(np.arange(self.node_count, dtype=self.adjacency.dtype), self.degrees)
        keep = src < self.adjacency
        return src[keep], self.adjacency[keep]


def build_graph(groups: Iterable[Sequence[str]]) -> Graph:
    """Intern names and build the deduplicated undirected graph of cliques.

    Every group of names links each two of its members; an edge list passes
    2-tuples.  ``groups`` is read once.  Names are keyed in first appearance
    and handed to :func:`clique_graph`.  Raises :class:`DataError` on a name
    that is not a non-empty string, or as :func:`clique_graph` does.
    """
    groups = list(groups)
    flat = list(chain.from_iterable(groups))
    index: dict[str, int] = {}
    try:  # each slot's first slot holding its name, in C
        firsts = np.fromiter(map(index.setdefault, flat, count()), np.int64, len(flat))
    except TypeError:  # an unhashable name
        firsts = None
    if firsts is None or not all(isinstance(name, str) and name for name in index):
        bad = next(g for g in groups if not all(isinstance(n, str) and n for n in g))
        raise DataError("edge endpoint must be a non-empty string, "
                        f"got ({', '.join(map(repr, bad))})")
    keys = np.zeros(len(flat), dtype=np.int64)  # a name's key, at its first slot
    keys[np.fromiter(index.values(), np.int64, len(index))] = np.arange(len(index))
    return clique_graph(tuple(index), keys[firsts],
                        np.fromiter(map(len, groups), np.int64, len(groups)))


def clique_graph(names: Sequence[str], keys: np.ndarray, sizes: np.ndarray) -> Graph:
    """The deduplicated undirected graph linking each two members of a group.

    ``keys`` holds the groups' name keys (indices into ``names``) end to end
    and ``sizes`` each group's length; an article corpus passes its
    :class:`~comention.ingest.Articles` columns.  Self-pairs are dropped,
    repeated pairs collapse to one edge, and node ids follow first appearance
    among the pairs, so a group without two distinct keys adds no node.
    Raises :class:`DataError` when no usable edge survives cleanup.
    """
    starts = np.cumsum(sizes) - sizes
    # a linked group holds two distinct keys, so it adds a pair; every
    # non-empty group is a segment, so none reads into the next one's keys
    linked = sizes > 0
    linked[linked] = (np.minimum.reduceat(keys, starts[linked])
                      != np.maximum.reduceat(keys, starts[linked]))
    if not linked.any():
        raise DataError("no usable edges after dropping self-pairs and duplicates")
    # first[key]: the key's first slot in a linked group, which is where it
    # first appears among the pairs; node ids count the keys in that order
    in_linked = np.repeat(linked, sizes)
    first = np.full(len(names), keys.size)
    np.minimum.at(first, keys[in_linked], np.flatnonzero(in_linked))
    opened = np.argsort(first)[:np.count_nonzero(first < keys.size)]
    rank = np.empty(len(names), dtype=np.int64)
    rank[opened] = np.arange(opened.size)
    return csr_graph(tuple(map(names.__getitem__, opened.tolist())), rank[keys[in_linked]],
                     sizes[linked])


def _clique_pairs(ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Both directions of every pair of two slots within one group, packed
    as ``(tail << 32) | head`` (node counts stay far below 2**31), without
    self-pairs; ``ids`` holds the groups' node ids end to end."""
    starts = np.cumsum(sizes) - sizes
    per_size = np.bincount(sizes)
    keys = np.empty(sum(c * k * (k - 1) for k, c in enumerate(per_size.tolist())), np.int64)
    at = 0
    for k in np.flatnonzero(per_size).tolist():  # all groups of k slots at once
        members = ids[starts[sizes == k][:, None] + np.arange(k)]
        tails, heads = np.nonzero(~np.eye(k, dtype=bool))
        block = keys[at:at + members.size * (k - 1)].reshape(len(members), -1)
        # "clip" (every index is in range) lets take write into block unbuffered
        np.take(members << 32, tails, axis=1, out=block, mode="clip")
        block |= members[:, heads]
        distinct = (members[:, :, None] != members[:, None, :])[:, tails, heads].ravel()
        if not distinct.all():  # a group that repeats a name
            block = block.ravel()[distinct]
            keys[at:at + block.size] = block
        at += block.size
    return keys[:at]


def csr_graph(names: tuple[str, ...], ids: np.ndarray, sizes: np.ndarray) -> Graph:
    """The graph over ``names`` linking each two members of a group: ``ids``
    holds the groups' node ids end to end and ``sizes`` each group's length.
    Self-pairs are dropped and a repeated pair collapses to one edge."""
    # sorted, a repeated pair is a run of equal keys and each node's row is
    # the run of keys between node << 32 and (node + 1) << 32
    keys = _clique_pairs(ids, sizes)
    del ids  # freed before the sort where the caller keeps no other reference
    keys.sort()
    fresh = np.empty(keys.size, dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    indptr = np.searchsorted(keys, np.arange(len(names) + 1, dtype=np.int64) << 32)
    keys &= 0xFFFFFFFF
    return Graph(names=names, indptr=indptr, adjacency=keys.astype(np.int32))


def density(node_count: int, edge_count: int) -> float:
    """Fraction of realized node pairs, ``2m / (n (n - 1))``."""
    if node_count < 2:
        raise DataError(f"density needs at least 2 nodes, got {node_count}")
    if edge_count < 0:
        raise DataError(f"edge count must be non-negative, got {edge_count}")
    return 2.0 * edge_count / (node_count * (node_count - 1))


def connected_components(g: Graph) -> Partition:
    """Union-find over the edge list, then relabel components by size:
    component 0 is the largest, and ties in size keep the component whose
    lowest node id is smaller first."""
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
    return Partition(*relabel_by_size(roots))


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


@dataclass(frozen=True, eq=False)
class Partition:
    """Dense node-to-group assignment: Louvain communities, or connected
    components.

    Group ids run 0..count-1 with no gaps; ``sizes[c]`` is the member count
    of group ``c`` and sums to the node count.
    """

    labels: np.ndarray
    sizes: tuple[int, ...]

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise DataError("labels must be a non-empty 1-d sequence")
        count = int(labels.max()) + 1
        if labels.min() < 0:
            raise DataError("community ids must be non-negative")
        if count > labels.size:  # checked before bincount allocates count slots
            raise DataError("community ids must be dense starting at 0")
        sizes = np.bincount(labels, minlength=count)
        if (sizes == 0).any():
            raise DataError("community ids must be dense starting at 0")
        return cls(labels=labels, sizes=tuple(int(s) for s in sizes))

    @property
    def count(self) -> int:
        return len(self.sizes)

    def members(self, group: int) -> np.ndarray:
        return np.flatnonzero(self.labels == group)


def diameter(g: Graph, *, components: Partition | None = None) -> int:
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
    ascending (u, v) id order, written ``EDGE_BLOCK`` rows at a time.
    """
    cells = np.array(_csv_cells(g.names), dtype=object)
    sources, targets = cells + ",", cells + "\n"
    us, vs = g.edge_arrays()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("source,target\n")
        for at in range(0, us.size, EDGE_BLOCK):
            block = slice(at, at + EDGE_BLOCK)
            rows = np.column_stack((sources[us[block]], targets[vs[block]]))
            fh.write("".join(rows.ravel().tolist()))

