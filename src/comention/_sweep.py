"""One level-synchronous BFS shared by the distance and betweenness code.

Each BFS level is processed with whole-array numpy operations instead of a
per-edge Python loop.

Closed twins, nodes with equal closed neighbourhoods N[v], get identical BFS
results: the same distances to every other node and the same dependency
vector, which is zero on their whole class.  Clique expansion makes them
common, so :func:`sweep` runs one BFS per twin class and weights its
dependencies by how many requested sources the class holds.

Representatives are split into fixed-size chunks that forked worker processes
sweep; partial results are reduced in ascending chunk order, so numbers come
out bit-identical no matter how many workers run the chunks.
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


def bfs(indptr, adjacency, dist: np.ndarray, source: int, sigma: np.ndarray | None = None):
    """Level-synchronous BFS from ``source``; fills ``dist`` (all -1 on entry).

    Returns ``(eccentricity, distance_sum, reached, level_edges)``.  With
    ``sigma`` (all 0 on entry) it also counts shortest paths into ``sigma``
    and lists each level's ``(tails, heads)`` edges, for Brandes' dependency
    pass; without it ``level_edges`` stays empty.
    """
    dist[source] = 0
    if sigma is not None:
        sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    level = total = 0
    reached = 1
    level_edges: list[tuple[np.ndarray, np.ndarray]] = []
    while True:
        neighbors, counts = gather_rows(indptr, adjacency, frontier)
        unseen = dist[neighbors] == -1
        fresh = neighbors[unseen]
        if sigma is not None:
            tails = np.repeat(frontier, counts)[unseen]
        # np.unique keeps each frontier sorted; that order fixes the Brandes
        # edge arrays and so the order in which dependencies are summed
        frontier = np.unique(fresh)
        if frontier.size == 0:
            return level, total, reached, level_edges
        level += 1
        dist[frontier] = level
        total += level * frontier.size
        reached += frontier.size
        if sigma is not None:
            sigma += np.bincount(fresh, weights=sigma[tails], minlength=sigma.size)
            level_edges.append((tails, fresh))


def _chunk_sweep(indptr, adjacency, node_count, want_betweenness, sources, weights):
    """Sweep one chunk; ``weights[i]`` scales the dependencies of ``sources[i]``."""
    k = sources.size
    ecc = np.zeros(k, dtype=np.int64)
    dist_sum = np.zeros(k, dtype=np.int64)
    reach = np.zeros(k, dtype=np.int64)
    raw = np.zeros(node_count, dtype=np.float64) if want_betweenness else None
    sigma = np.zeros(node_count, dtype=np.float64) if want_betweenness else None
    dist = np.empty(node_count, dtype=np.int64)

    for i, s in enumerate(sources.tolist()):
        dist.fill(-1)
        if sigma is not None:
            sigma.fill(0.0)
        ecc[i], dist_sum[i], reach[i], level_edges = bfs(indptr, adjacency, dist, s, sigma)
        if raw is None:
            continue
        delta = np.zeros(node_count, dtype=np.float64)
        for tails, heads in reversed(level_edges):
            contrib = sigma[tails] / sigma[heads] * (1.0 + delta[heads])
            delta += np.bincount(tails, weights=contrib, minlength=node_count)
        delta[s] = 0.0
        raw += weights[i] * delta
    return ecc, dist_sum, reach, raw


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


# The graph and mode of the current sweep, set in each forked worker only.
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
    processes (``None``: every usable CPU).  It only changes wall time, never
    the numbers: chunk boundaries are fixed at ``CHUNK`` representatives and
    partial sums are combined in ascending chunk order.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        zero = np.zeros(0, dtype=np.int64)
        raw = np.zeros(node_count, dtype=np.float64) if betweenness else None
        return SweepResult(zero, zero.copy(), zero.copy(), raw)

    rep = closed_twin_representatives(indptr, adjacency, node_count)[sources]
    reps, slot, multiplicity = np.unique(rep, return_inverse=True, return_counts=True)
    weights = multiplicity.astype(np.float64)
    chunks = [(reps[i:i + CHUNK], weights[i:i + CHUNK]) for i in range(0, reps.size, CHUNK)]
    parts = _run_chunks((indptr, adjacency, node_count, betweenness), chunks, threads)

    ecc, dist_sum, reach = (np.concatenate([p[j] for p in parts])[slot] for j in range(3))
    raw = None
    if betweenness:
        raw = np.zeros(node_count, dtype=np.float64)
        for p in parts:
            raw += p[3]
    return SweepResult(ecc, dist_sum, reach, raw)
