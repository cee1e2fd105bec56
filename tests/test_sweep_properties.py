"""Property tests: the BFS sweep in both modes against the conftest oracles.

Graphs are small enough for Floyd-Warshall and exhaustive path enumeration,
and are grown to hold what the sweep treats specially: closed twins, which
share one BFS, leaves, isolated nodes and sources listed more than once.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import INF, csr, dependency_oracle, floyd_warshall
from comention import _sweep


@st.composite
def grown_graphs(draw):
    """(n, pairs) on at most 12 nodes: a random core of up to 6 nodes, then
    closed twins, leaves and isolated nodes added one at a time."""
    n = draw(st.integers(1, 6))
    core = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = draw(st.sets(st.sampled_from(core))) if core else set()
    for kind in draw(st.lists(st.sampled_from(("twin", "leaf", "isolated")),
                              max_size=12 - n)):
        if kind != "isolated":
            v = draw(st.integers(0, n - 1))
            if kind == "twin":  # N[n] = N[v] once n and v are joined
                pairs |= {(a + b - v, n) for a, b in pairs if v in (a, b)}
            pairs.add((v, n))
        n += 1
    return n, sorted(pairs)


@settings(max_examples=80, deadline=None)
@given(graph=grown_graphs(), data=st.data(), threads=st.sampled_from([1, 2]))
def test_sweep_matches_oracles(graph, data, threads):
    n, pairs = graph
    sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    sources.append(sources[0])  # a duplicated source counts twice
    indptr, adjacency = csr(n, pairs)
    dist = floyd_warshall(n, pairs)
    want_raw = sum(dependency_oracle(n, pairs, s) for s in sources)
    # chunks of 3 representatives, so that two workers share a sweep
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_sweep, "CHUNK", 3)
        for betweenness in (False, True):
            result = _sweep.sweep(indptr, adjacency, n, np.array(sources),
                                  betweenness=betweenness, threads=threads)
            for i, s in enumerate(sources):
                finite = [d for d in dist[s] if d < INF]
                assert result.eccentricity[i] == max(finite)
                assert result.distance_sum[i] == sum(finite)
                assert result.reachable[i] == len(finite)
            if betweenness:
                assert np.allclose(result.betweenness_raw, want_raw, atol=1e-9, rtol=0)
            else:
                assert result.betweenness_raw is None


# components 0 | 1-2 | triangle 3-4-5 with tail 5-6 | path 7..11 | 12.  Nodes 1
# and 2, and 3 and 4, are closed twins, which leaves 11 representatives
SCATTERED = (13, [(1, 2), (3, 4), (3, 5), (4, 5), (5, 6), (7, 8), (8, 9), (9, 10), (10, 11)])


@pytest.mark.parametrize("chunk", [2, 5])
@pytest.mark.parametrize("threads", [1, 2])
def test_brandes_chunks_across_components(chunk, threads):
    """Chunks mixing an isolated source, a two-node component's source and
    sources of several components, then a last chunk of one isolated source."""
    n, pairs = SCATTERED
    indptr, adjacency = csr(n, pairs)
    reps = np.unique(_sweep.closed_twin_representatives(indptr, adjacency, n))
    # the first chunk opens with isolated 0 and the 1-2 component's 1
    assert reps[:2].tolist() == [0, 1] and reps.size % chunk == 1 and reps[-1] == 12
    sources = list(range(n)) + [2, 0, 6]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_sweep, "CHUNK", chunk)
        result = _sweep.sweep(indptr, adjacency, n, np.array(sources),
                              betweenness=True, threads=threads)
    finite = [[d for d in row if d < INF] for row in floyd_warshall(n, pairs)]
    assert_aggregates(result, sources, lambda s: max(finite[s]),
                      lambda s: sum(finite[s]), lambda s: len(finite[s]))
    want = sum(dependency_oracle(n, pairs, s) for s in sources)
    assert np.allclose(result.betweenness_raw, want, atol=1e-9, rtol=0)


def test_level_matrix_type():
    """int16 while every level and level + 1 fit, int32 beyond."""
    assert _sweep._level_matrix(2, 32767).dtype == np.int16
    assert _sweep._level_matrix(2, 32768).dtype == np.int32
    assert (_sweep._level_matrix(2, 5) == -1).all()


def assert_aggregates(result, sources, eccentricity, distance_sum, reachable):
    for i, s in enumerate(sources):
        assert (result.eccentricity[i], result.distance_sum[i], result.reachable[i]) == (
            eccentricity(s), distance_sum(s), reachable(s)), s


@pytest.mark.parametrize("betweenness", [False, True])
def test_long_path_and_cycle_closed_forms(betweenness):
    """Thousands of levels of one or two frontier nodes each, where every
    dependency sum is an exact integer."""
    n = 3000
    sources = [0, 1499, 2999, 1499, 7]
    indptr, adjacency = csr(n, [(v, v + 1) for v in range(n - 1)])
    result = _sweep.sweep(indptr, adjacency, n, np.array(sources),
                          betweenness=betweenness, threads=1)
    assert_aggregates(result, sources, lambda v: max(v, n - 1 - v),
                      lambda v: (v * (v + 1) + (n - 1 - v) * (n - v)) // 2, lambda v: n)
    if betweenness:
        # v lies inside the path from s to every node beyond v
        want = [sum(n - 1 - v if s < v else v for s in sources if s != v) for v in range(n)]
        assert result.betweenness_raw.tolist() == want
        # levels run far past the int8 range: 2999 from either end
        distinct = np.array(sorted(set(sources)))
        levels = _sweep._level_matrix(distinct.size, n)
        _sweep._ms_bfs(indptr, adjacency, n, distinct, levels)
        assert levels.dtype == np.int16
        assert (levels == np.abs(np.arange(n) - distinct[:, None])).all()

    n = 3001  # odd: every shortest path is unique
    half = (n - 1) // 2
    sources = [0, 1500, 3000, 0]
    indptr, adjacency = csr(n, [(v, (v + 1) % n) for v in range(n)])
    result = _sweep.sweep(indptr, adjacency, n, np.array(sources),
                          betweenness=betweenness, threads=1)
    assert_aggregates(result, sources, lambda v: half, lambda v: half * (half + 1),
                      lambda v: n)
    if betweenness:
        # v lies inside the path from s to every node up to half away from s
        # on v's side
        want = [sum(half - min(abs(s - v), n - abs(s - v)) for s in sources if s != v)
                for v in range(n)]
        assert result.betweenness_raw.tolist() == want


def test_batch_boundaries_at_real_chunk():
    """More than CHUNK representatives, so the bit-parallel sweep fills four
    words and leaves a partial last batch, with repeats at word edges."""
    ring = 300
    twins = (ring, ring + 1)  # N[a] = N[b] = {0, a, b}
    pairs = [(v, (v + 1) % ring) for v in range(ring)] + [(0, twins[0]), (0, twins[1]), twins]
    n = ring + 2 + 3  # three isolated nodes: zero-length CSR rows
    # scatter the ids, so that empty rows sit between non-empty ones
    perm = np.random.default_rng(239).permutation(n)
    pairs = sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in pairs)
    indptr, adjacency = csr(n, pairs)
    reps = np.unique(_sweep.closed_twin_representatives(indptr, adjacency, n))
    assert _sweep.CHUNK == 256 and reps.size == n - 1
    # a source's bit is its representative's rank, so these repeat bits 0,
    # 63, 64 and 255: the ends of word 0, the start of word 1, the end of word 3
    sources = list(range(n)) + reps[[0, 63, 64, 255, 63]].tolist()
    dist = floyd_warshall(n, pairs)
    finite = [[d for d in row if d < INF] for row in dist]
    for betweenness in (False, True):
        result = _sweep.sweep(indptr, adjacency, n, np.array(sources),
                              betweenness=betweenness, threads=2)
        assert_aggregates(result, sources, lambda s: max(finite[s]),
                          lambda s: sum(finite[s]), lambda s: len(finite[s]))
