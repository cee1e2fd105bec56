"""Property tests: the BFS sweep in both modes against the conftest oracles.

Graphs are small enough for Floyd-Warshall and exhaustive path enumeration,
and are grown to hold what the sweep treats specially: closed twins, which
share one BFS, leaves, isolated nodes and sources listed more than once.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import INF, adjacency_sets, dependency_oracle, floyd_warshall
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


def csr(n, pairs):
    adj = adjacency_sets(n, pairs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in adj], out=indptr[1:])
    adjacency = np.array([u for row in adj for u in sorted(row)], dtype=np.int32)
    return indptr, adjacency


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
