"""The all-sources BFS sweeps behind closeness, betweenness and the diameter.

Closed twins, nodes with equal closed neighbourhoods N[v], get identical BFS
results: the same distances to every other node and the same dependency
vector, which is zero on their whole class.  Clique expansion makes them
common, so :func:`sweep` runs one BFS per twin class and weights its
dependencies by how many requested sources the class holds.

Both sweeps walk the graph with one bit-parallel multi-source BFS (MS-BFS;
Then et al., "The More the Merrier: Efficient Multi-Source Graph
Traversal", VLDB 2015): ``CHUNK`` representatives share one traversal, each
owning one bit of every node's words, and all of them advance one level per
whole-array operation.  A distance-only sweep needs nothing more and runs in
this process.

A Brandes sweep (Brandes, "A faster algorithm for betweenness centrality",
J. Math. Sociol. 2001) also has the MS-BFS record every node's level from
every source of a chunk.  Each source's shortest-path DAG is then read off
the CSR by comparing levels, and its path counts and dependencies are summed
level by level, in the order a top-down BFS with a sorted frontier would
give.  Chunks are swept by forked worker processes, and partial results are
reduced in ascending chunk order, so numbers come out bit-identical no
matter how many workers run the chunks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CHUNK = 256
_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]


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


def _level_matrix(k: int, node_count: int) -> np.ndarray:
    """A ``(k, node_count)`` array of -1 for :func:`_ms_bfs` to fill: int16
    while every level and level + 1 fit, else int32."""
    small = node_count <= np.iinfo(np.int16).max
    return np.full((k, node_count), -1, dtype=np.int16 if small else np.int32)


def _ms_bfs(indptr, adjacency, node_count, batch, levels=None):
    """MS-BFS from every node of ``batch`` at once; returns per-source
    ``(eccentricity, distance_sum, reached)``.

    Bit ``i`` of a node's ``uint64`` words is set once ``batch[i]`` has
    reached it.  A level ORs, for every node with edges, the frontier words
    of its neighbours (one ``reduceat`` over the CSR rows), then keeps the
    bits not seen before.  Sources must be distinct.  ``levels``, when
    given, is a ``(k, node_count)`` array of -1 that receives every reached
    node's distance from each source, row ``i`` for ``batch[i]``: a level
    adds ``level + 1`` where a bit is new, read source-major straight from
    the bytes of ``fresh``.
    """
    k = batch.size
    bit = np.arange(k)
    seen = np.zeros((node_count, (k + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(seen, (batch, bit >> 6),
                     np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)))
    if levels is not None:
        levels[bit, batch] = 0
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
        gained = np.flatnonzero(fresh.any(axis=1))
        if gained.size == 0:
            return ecc, total, reached
        level += 1
        seen |= fresh
        # little-endian bytes, so bit i of the unpacked row is source i
        octets = fresh.astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(octets[gained], axis=1, bitorder="little")
        counts = bits.sum(axis=0, dtype=np.int64)[:k]
        ecc[counts > 0] = level
        total += level * counts
        reached += counts
        if levels is not None:
            # byte j of a row holds sources 8j..8j+7, so shifting the
            # byte-major copy gives the rows of levels in order; one word of
            # sources at a time keeps the temporaries small
            by_byte = np.ascontiguousarray(octets.T)
            for w in range(0, k, 64):
                word = levels[w:w + 64]
                bits = (by_byte[w // 8:w // 8 + 8, None, :] >> _SHIFTS) & np.uint8(1)
                word += np.multiply(bits.reshape(64, node_count)[:len(word)], level + 1,
                                    dtype=word.dtype)
        frontier = fresh


def _chunk_sweep(indptr, adjacency, node_count, sources, weights):
    """Brandes over one chunk; ``weights[i]`` scales the dependencies of ``sources[i]``.

    One MS-BFS pass gives every node's level from every source of the chunk.
    The shortest-path DAG of a source is then the CSR entries whose head
    sits one level below their tail.  A stable sort by the tail's level
    splits them into levels, each in CSR order (tail ascending, then the
    row's order), which is the order a top-down BFS with a sorted frontier
    meets them in; so every ``bincount`` adds the same terms in the same
    order.
    """
    n = node_count
    levels = _level_matrix(sources.size, n)
    ecc, dist_sum, reach = _ms_bfs(indptr, adjacency, n, sources, levels)
    owner = np.repeat(np.arange(n), np.diff(indptr))
    head_of = adjacency.astype(np.intp)  # numpy indexes fastest with intp
    raw = np.zeros(n, dtype=np.float64)
    for i, s in enumerate(sources.tolist()):
        lv = levels[i]
        tail_level = lv[owner]
        dag = np.flatnonzero(lv[head_of] == tail_level + 1)
        dag = dag[np.argsort(tail_level[dag], kind="stable")]
        cuts = np.searchsorted(tail_level[dag], np.arange(ecc[i] + 1)).tolist()
        tails, heads = owner[dag], head_of[dag]
        level_edges = [(tails[a:b], heads[a:b]) for a, b in zip(cuts, cuts[1:])]
        sigma = np.zeros(n, dtype=np.float64)
        sigma[s] = 1.0
        for t, h in level_edges:
            sigma += np.bincount(h, weights=sigma[t], minlength=n)
        delta = np.zeros(n, dtype=np.float64)
        for t, h in reversed(level_edges):
            contrib = sigma[t] / sigma[h] * (1.0 + delta[h])
            delta += np.bincount(t, weights=contrib, minlength=n)
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
        parts = [_ms_bfs(indptr, adjacency, node_count, reps[i:i + CHUNK])
                 for i in batches]

    ecc, dist_sum, reach = (np.concatenate([p[j] for p in parts])[slot] for j in range(3))
    return SweepResult(ecc, dist_sum, reach, raw)
