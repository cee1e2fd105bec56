"""The all-sources BFS sweeps behind closeness, betweenness and the diameter.

Closed twins, nodes with equal closed neighbourhoods N[v], get identical BFS
results: the same distances to every other node and the same dependency
vector, which is zero on their whole class.  Clique expansion makes them
common, so :func:`sweep` runs one BFS per twin class and weights its
dependencies by how many requested sources the class holds.

A distance-only sweep is a bit-parallel multi-source BFS (MS-BFS; Then et
al., "The More the Merrier: Efficient Multi-Source Graph Traversal", VLDB
2015) in this process: ``CHUNK`` representatives share one traversal, each
owning one bit of every node's words, and all of them advance one level per
whole-array operation.

A Brandes sweep runs one level-synchronous numpy BFS per representative.
Representatives are split into fixed-size chunks that forked worker
processes sweep; partial results are reduced in ascending chunk order, so
numbers come out bit-identical no matter how many workers run the chunks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CHUNK = 256


@dataclass(frozen=True)
class SweepResult:
    """Per-source BFS aggregates.

    ``eccentricity``, ``distance_sum`` and ``reachable`` align with the
    ``sources`` array handed to :func:`sweep`.  ``betweenness_raw`` is per
    node and holds directed pair-dependency sums (both orientations of every
    pair), or ``None`` when dependency accumulation was not requested.
    """

    eccentricity: np.ndarray
    distance_sum: np.ndarray
    reachable: np.ndarray
    betweenness_raw: np.ndarray | None


def gather_rows(indptr: np.ndarray, adjacency: np.ndarray, rows: np.ndarray):
    """Concatenate the adjacency rows of ``rows``.

    Returns ``(neighbors, counts)`` where ``counts[i]`` is the length of row
    ``rows[i]``, so ``np.repeat(rows, counts)`` names the row of each neighbor.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return adjacency[offsets + np.arange(offsets.size)], counts


def bfs(indptr, adjacency, dist: np.ndarray, sigma: np.ndarray, source: int):
    """Level-synchronous BFS from ``source`` for Brandes' dependency pass.

    Fills ``dist`` (all -1 on entry) and counts shortest paths into ``sigma``
    (all 0 on entry).  Returns ``(eccentricity, distance_sum, reached,
    level_edges)``, where ``level_edges`` lists each level's ``(tails,
    heads)`` edges.
    """
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    level = total = 0
    reached = 1
    level_edges: list[tuple[np.ndarray, np.ndarray]] = []
    while True:
        neighbors, counts = gather_rows(indptr, adjacency, frontier)
        unseen = dist[neighbors] == -1
        fresh = neighbors[unseen]
        tails = np.repeat(frontier, counts)[unseen]
        # the frontier is kept sorted, which fixes the Brandes edge arrays and
        # so the order in which dependencies are summed.  A sort plus a repeat
        # mask gives np.unique's array faster, and its cost follows the
        # frontier: marking dist and scanning all n nodes would be quadratic
        # on a path
        frontier = np.sort(fresh)
        distinct = np.ones(frontier.size, dtype=bool)
        np.not_equal(frontier[1:], frontier[:-1], out=distinct[1:])
        frontier = frontier[distinct]
        if frontier.size == 0:
            return level, total, reached, level_edges
        level += 1
        dist[frontier] = level
        total += level * frontier.size
        reached += frontier.size
        sigma += np.bincount(fresh, weights=sigma[tails], minlength=sigma.size)
        level_edges.append((tails, fresh))


def _chunk_sweep(indptr, adjacency, node_count, sources, weights):
    """Brandes over one chunk; ``weights[i]`` scales the dependencies of ``sources[i]``."""
    k = sources.size
    ecc = np.zeros(k, dtype=np.int64)
    dist_sum = np.zeros(k, dtype=np.int64)
    reach = np.zeros(k, dtype=np.int64)
    raw = np.zeros(node_count, dtype=np.float64)
    sigma = np.zeros(node_count, dtype=np.float64)
    dist = np.empty(node_count, dtype=np.int64)

    for i, s in enumerate(sources.tolist()):
        dist.fill(-1)
        sigma.fill(0.0)
        ecc[i], dist_sum[i], reach[i], level_edges = bfs(indptr, adjacency, dist, sigma, s)
        delta = np.zeros(node_count, dtype=np.float64)
        for tails, heads in reversed(level_edges):
            contrib = sigma[tails] / sigma[heads] * (1.0 + delta[heads])
            delta += np.bincount(tails, weights=contrib, minlength=node_count)
        delta[s] = 0.0
        raw += weights[i] * delta
    return ecc, dist_sum, reach, raw


def _distance_batch(indptr, adjacency, node_count, batch):
    """MS-BFS from every node of ``batch`` at once; returns per-source
    ``(eccentricity, distance_sum, reached)``.

    Bit ``i`` of a node's ``uint64`` words is set once ``batch[i]`` has
    reached it.  A level ORs, for every node with edges, the frontier words
    of its neighbours (one ``reduceat`` over the CSR rows), then keeps the
    bits not seen before.  Sources must be distinct.
    """
    k = batch.size
    bit = np.arange(k)
    seen = np.zeros((node_count, (k + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(seen, (batch, bit >> 6),
                     np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)))
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    frontier = seen.copy()
    ecc = np.zeros(k, dtype=np.int64)
    total = np.zeros(k, dtype=np.int64)
    reached = np.ones(k, dtype=np.int64)
    level = 0
    while True:
        fresh = np.zeros_like(seen)
        fresh[rows] = np.bitwise_or.reduceat(frontier[adjacency], starts, axis=0)
        fresh &= ~seen
        active = fresh[fresh.any(axis=1)]
        if active.size == 0:
            return ecc, total, reached
        level += 1
        seen |= fresh
        # little-endian bytes, so bit i of the unpacked row is source i
        bits = np.unpackbits(active.astype("<u8", copy=False).view(np.uint8),
                             axis=1, bitorder="little")
        counts = bits.sum(axis=0, dtype=np.int64)[:k]
        ecc[counts > 0] = level
        total += level * counts
        reached += counts
        frontier = fresh


def closed_twin_representatives(indptr, adjacency, node_count: int) -> np.ndarray:
    """For each node, the smallest node id with the same closed neighbourhood.

    Classes come from exact comparison of the sorted rows of N[v].  An
    isolated node is its own class.
    """
    nodes = np.arange(node_count, dtype=np.int64)
    owners = np.concatenate((np.repeat(nodes, np.diff(indptr)), nodes))
    members = np.concatenate((adjacency.astype(np.int64), nodes))
    members = members[np.lexsort((members, owners))]
    bounds = (indptr + np.arange(node_count + 1)).tolist()
    first: dict[bytes, int] = {}
    rep = np.empty(node_count, dtype=np.int64)
    for v in range(node_count):
        rep[v] = first.setdefault(members[bounds[v]:bounds[v + 1]].tobytes(), v)
    return rep


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pool_size(threads: int | None, chunk_count: int) -> int:
    """Worker processes for a sweep: ``threads`` (``None``: every usable CPU),
    capped by the chunk count and the usable CPUs."""
    cpus = usable_cpus()
    return min(cpus if threads is None else threads, chunk_count, cpus)


# The graph of the current Brandes sweep, set in each forked worker only.
# Fork hands it over without pickling, and the CSR is shared copy-on-write.
_worker_job = None


def _adopt_job(job):
    global _worker_job
    _worker_job = job


def _worker_chunk(chunk):
    return _chunk_sweep(*_worker_job, *chunk)


def _run_chunks(job, chunks, threads):
    """Sweep ``chunks`` in order on forked processes, or serially in this
    process for one worker or on a platform without ``fork``."""
    workers = pool_size(threads, len(chunks))
    if workers > 1:
        import multiprocessing  # deferred: most CLI calls never start a pool

        # fork, not spawn: a spawned worker would import the package again
        # and receive the CSR by pickle.  The pool lives only for this call.
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with context.Pool(workers, initializer=_adopt_job, initargs=(job,)) as pool:
                return pool.map(_worker_chunk, chunks, chunksize=1)
    return [_chunk_sweep(*job, *chunk) for chunk in chunks]


def sweep(indptr, adjacency, node_count: int, sources: np.ndarray, *,
          betweenness: bool = False, threads: int | None = None) -> SweepResult:
    """Run one BFS per closed-twin class of ``sources`` and aggregate.

    Results align with ``sources``, duplicates included; a duplicated source
    counts twice in ``betweenness_raw``.  ``threads`` is the number of worker
    processes for the Brandes sweep (``None``: every usable CPU); the
    distance-only sweep always runs bit-parallel in this process.  It only
    changes wall time, never the numbers: chunk boundaries are fixed at
    ``CHUNK`` representatives and partial sums are combined in ascending
    chunk order.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        zero = np.zeros(0, dtype=np.int64)
        raw = np.zeros(node_count, dtype=np.float64) if betweenness else None
        return SweepResult(zero, zero.copy(), zero.copy(), raw)

    rep = closed_twin_representatives(indptr, adjacency, node_count)[sources]
    reps, slot, multiplicity = np.unique(rep, return_inverse=True, return_counts=True)
    batches = range(0, reps.size, CHUNK)
    raw = None
    if betweenness:
        weights = multiplicity.astype(np.float64)
        chunks = [(reps[i:i + CHUNK], weights[i:i + CHUNK]) for i in batches]
        parts = _run_chunks((indptr, adjacency, node_count), chunks, threads)
        raw = np.zeros(node_count, dtype=np.float64)
        for p in parts:
            raw += p[3]
    else:
        parts = [_distance_batch(indptr, adjacency, node_count, reps[i:i + CHUNK])
                 for i in batches]

    ecc, dist_sum, reach = (np.concatenate([p[j] for p in parts])[slot] for j in range(3))
    return SweepResult(ecc, dist_sum, reach, raw)
