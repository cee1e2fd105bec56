import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    betweenness_oracle,
    clustering_oracle,
    closeness_oracle,
    dependency_oracle,
    diameter_oracle,
    eigenvector_oracle,
    floyd_warshall,
    graph_from,
    graph_on,
    id_pairs,
    INF,
    pearson_oracle,
    random_connected_pairs,
    random_pairs,
)
from comention import (
    CentralityBundle,
    ConvergenceError,
    DataError,
    betweenness_centrality,
    build_graph,
    closeness_centrality,
    clustering_coefficient,
    compute_bundle,
    connected_components,
    degree_centrality,
    eigenvector_centrality,
    diameter,
    pearson_correlation,
    top_k,
    top_table,
)
from comention import _sweep, centrality
from comention.graph import Graph


def star(k=5):
    return build_graph([("hub", f"leaf{i}") for i in range(k)])


def complete(names):
    return build_graph(
        [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    )


def fake_bundle(g, **vectors):
    n = g.node_count
    fields = dict(
        degree=np.zeros(n),
        closeness=np.zeros(n),
        betweenness=np.zeros(n),
        eigenvector=np.zeros(n),
        clustering=np.zeros(n),
        eccentricity=np.zeros(n),
    )
    fields.update({k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()})
    return CentralityBundle(**fields)


class TestDegree:
    def test_star(self):
        g = star(5)
        d = degree_centrality(g)
        assert d[g.names.index("hub")] == 5
        assert d[g.names.index("leaf3")] == 1

    def test_large_hub_fixture(self):
        g = build_graph([("vip", f"contact{i}") for i in range(960)])
        assert degree_centrality(g)[g.names.index("vip")] == 960

    def test_matches_row_sum_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            g = graph_from(random_pairs(rng))
            rows = np.zeros(g.node_count, dtype=np.int64)
            for u, v in id_pairs(g):
                rows[u] += 1
                rows[v] += 1
            assert (degree_centrality(g) == rows).all()


class TestCloseness:
    def test_path_three(self):
        g = build_graph([("A", "B"), ("B", "C")])
        c = closeness_centrality(g)
        assert c[g.names.index("B")] == pytest.approx(1.0, abs=1e-15)
        assert c[g.names.index("A")] == pytest.approx(2 / 3, abs=1e-15)

    def test_complete_four(self):
        c = closeness_centrality(complete(list("ABCD")))
        assert (c == 1.0).all()

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            g = graph_from(random_pairs(rng, n_max=10))
            got = closeness_centrality(g)
            want = closeness_oracle(g.node_count, id_pairs(g))
            assert np.allclose(got, want, atol=1e-12, rtol=0)

    def test_maximal_exactly_when_adjacent_to_component(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            g = graph_from(random_pairs(rng, p=0.5))
            comps = connected_components(g)
            c = closeness_centrality(g)
            comp_size = np.asarray(comps.sizes)[comps.labels]
            for v in range(g.node_count):
                adjacent_all = g.degrees[v] == comp_size[v] - 1 > 0
                assert (c[v] == 1.0) == adjacent_all


class TestBetweenness:
    def test_star_center(self):
        g = star(5)
        b = betweenness_centrality(g)
        assert b[g.names.index("hub")] == 1.0
        assert b[g.names.index("leaf0")] == 0.0

    def test_path_middle(self):
        g = build_graph([("A", "B"), ("B", "C")])
        assert betweenness_centrality(g)[g.names.index("B")] == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            g = graph_from(random_pairs(rng, n_max=9))
            got = betweenness_centrality(g)
            want = betweenness_oracle(g.node_count, id_pairs(g))
            assert np.allclose(got, want, atol=1e-9, rtol=0)

    def test_raw_sum_equals_mean_interior_length_identity(self):
        # sum of pair dependencies = sum over pairs of the average number
        # of interior nodes on their shortest paths
        rng = np.random.default_rng(79)
        g = graph_from(random_pairs(rng, n_max=8, p=0.5))
        n = g.node_count
        raw = betweenness_centrality(g) * ((n - 1.0) * (n - 2.0))
        dist = floyd_warshall(n, id_pairs(g))
        expect = sum(
            dist[s][t] - 1
            for s in range(n)
            for t in range(n)
            if s != t and 1 < dist[s][t] < INF
        )
        assert raw.sum() == pytest.approx(expect, abs=1e-9)

    def test_thread_count_does_not_change_bits(self):
        rng = np.random.default_rng(83)
        pairs = random_connected_pairs(rng, 300, extra=500)
        g = build_graph(pairs)
        one = betweenness_centrality(g, threads=1)
        four = betweenness_centrality(g, threads=4)
        assert (one == four).all()


class TestEigenvector:
    def test_cycle_uniform(self):
        g = build_graph(
            [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
        )
        e = eigenvector_centrality(g)
        assert np.allclose(e, 1 / math.sqrt(5), atol=1e-12, rtol=0)

    def test_star_ratio(self):
        g = star(5)
        e = eigenvector_centrality(g)
        ratio = e[g.names.index("hub")] / e[g.names.index("leaf0")]
        assert ratio == pytest.approx(math.sqrt(5), abs=1e-9)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            n = int(rng.integers(2, 51))
            g = build_graph(random_connected_pairs(rng, n, extra=int(rng.integers(0, n))))
            got = eigenvector_centrality(g)
            want = eigenvector_oracle(g.node_count, id_pairs(g))
            if np.dot(got, want) < 0:
                want = -want
            assert np.allclose(got, want, atol=1e-6, rtol=0)

    def test_nonnegative_unit_norm_zeros_off_component(self):
        g = build_graph([("A", "B"), ("B", "C"), ("X", "Y")])
        e = eigenvector_centrality(g)
        assert (e >= 0).all()
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-9)
        assert e[g.names.index("X")] == 0.0
        assert e[g.names.index("Y")] == 0.0

    def test_eigen_residual_bound(self):
        rng = np.random.default_rng(97)
        g = build_graph(random_connected_pairs(rng, 30, extra=20))
        v = eigenvector_centrality(g)
        a = np.zeros((g.node_count, g.node_count))
        for s, t in id_pairs(g):
            a[s, t] = a[t, s] = 1.0
        lam = v @ a @ v
        assert np.abs(a @ v - lam * v).max() < 1e-6

    def test_non_convergence_suggests_mixing(self):
        g = build_graph([("A", "B"), ("B", "C")])
        with pytest.raises(ConvergenceError, match="0.999"):
            eigenvector_centrality(g, max_iter=1)

    def test_mixing_retry_converges(self):
        g = build_graph([("A", "B"), ("B", "C")])
        e = eigenvector_centrality(g, mixing=0.999)
        assert e[g.names.index("B")] > e[g.names.index("A")]

    def test_same_bits_under_any_blas_thread_count(self):
        """On the full-size canonical corpus graph (10 500 persons; at 1/8
        scale a threaded BLAS ``ddot`` stays on one thread) the scores have
        the same bits under 1 and 2 BLAS threads: the norm is no BLAS call."""
        script = ("import hashlib\n"
                  "from comention import build_graph, eigenvector_centrality, synth\n"
                  "g = build_graph(r.persons for r in synth.generate_corpus(5200, 10500, 7))\n"
                  "print(hashlib.sha256(eigenvector_centrality(g).tobytes()).hexdigest())\n")
        src = str(Path(centrality.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]


@st.composite
def tied_graphs(draw):
    """(n, pairs) on at most 16 nodes: disjoint cliques and cycles, whose
    nodes share one degree, joined by a few random edges, then leaves of
    degree 1 and isolated nodes."""
    n, pairs = 0, set()
    for kind, size in draw(st.lists(st.tuples(st.sampled_from(("clique", "cycle")),
                                              st.integers(3, 5)), max_size=3)):
        block = range(n, n + size)
        if kind == "clique":
            pairs |= set(itertools.combinations(block, 2))
        else:
            pairs |= {(min(u, v), max(u, v)) for u, v in zip(block, [*block[1:], block[0]])}
        n += size
    if n > 1:
        links = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs |= {(min(u, v), max(u, v)) for u, v in draw(st.lists(links, max_size=4)) if u != v}
    for kind in draw(st.lists(st.sampled_from(("leaf", "isolated")), max_size=16 - n)):
        if kind == "leaf" and n:
            pairs.add((draw(st.integers(0, n - 1)), n))
        n += 1
    return n, sorted(pairs)


class TestClustering:
    def test_complete_clique(self):
        assert (clustering_coefficient(complete(list("ABCD"))) == 1.0).all()

    def test_complete_sixty(self):
        assert (clustering_coefficient(complete([f"v{i}" for i in range(60)])) == 1.0).all()

    def test_star_center_zero(self):
        g = star(5)
        assert clustering_coefficient(g)[g.names.index("hub")] == 0.0

    def test_large_star_all_zero(self):
        """Unoriented, the hub alone would list 12.5 M pairs of leaves."""
        assert (clustering_coefficient(star(5000)) == 0.0).all()

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            g = graph_from(random_pairs(rng, p=0.5))
            got = clustering_coefficient(g)
            want = clustering_oracle(g.node_count, id_pairs(g))
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(graph=tied_graphs())
    def test_matches_oracle_with_ties_leaves_and_isolated_nodes(self, graph):
        n, pairs = graph
        got = clustering_coefficient(graph_on(n, pairs))
        assert got.tobytes() == clustering_oracle(n, pairs).tobytes()

    def test_invariant_to_remote_edges(self):
        base = [("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")]
        g1 = build_graph(base)
        g2 = build_graph(base + [("D", "E"), ("E", "F")])
        cc1 = clustering_coefficient(g1)
        cc2 = clustering_coefficient(g2)
        for name in ("A", "B"):
            assert cc1[g1.names.index(name)] == cc2[g2.names.index(name)]


class TestPearson:
    def test_affine_positive(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2 * v + 1 for v in x]
        assert pearson_correlation(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        x = [1.0, 2.0, 5.0, 7.0]
        y = [-v for v in x]
        assert pearson_correlation(x, y) == pytest.approx(-1.0, abs=1e-12)

    def test_fixture_matches_two_pass_oracle(self):
        rng = np.random.default_rng(103)
        x = rng.normal(size=10).tolist()
        y = (rng.normal(size=10) + np.asarray(x) * 0.5).tolist()
        assert pearson_correlation(x, y) == pytest.approx(
            pearson_oracle(x, y), abs=1e-12
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            pearson_correlation([1.0], [2.0])


class TestTopK:
    def test_star_betweenness_top_one(self):
        g = star(5)
        bundle = compute_bundle(g)
        assert top_k(g, bundle, "betweenness", k=1) == ["hub"]

    def test_tie_breaks_by_name(self):
        g = build_graph([("A", "B"), ("B", "C")])
        bundle = fake_bundle(g, degree=[3.0, 3.0, 1.0])
        assert top_k(g, bundle, "degree", k=2) == ["A", "B"]

    def test_k_larger_than_n_returns_all(self):
        g = build_graph([("A", "B")])
        bundle = fake_bundle(g, degree=[1.0, 1.0])
        assert top_k(g, bundle, "degree", k=10) == ["A", "B"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(107)
        g = graph_from(random_pairs(rng, n_max=9, p=0.6))
        scores = rng.random(g.node_count)
        bundle = fake_bundle(g, closeness=scores)
        want = [
            name
            for _, name in sorted(
                zip(-scores, g.names), key=lambda t: (t[0], t[1])
            )
        ][:3]
        assert top_k(g, bundle, "closeness", k=3) == want

    def test_rank_matches_written_key_sort(self):
        """Written value descending, then name: ties past the 12 written digits
        and equal values on nodes listed in any order."""
        rng = np.random.default_rng(109)
        names = [f"n{i:02d}" for i in range(40)]
        g = build_graph([(a, b) for a, b in zip(names, names[1:])][::-1])
        scores = rng.choice([0.0, 1 / 3, 1 / 3 * (1 + 1e-15), 0.25, 7.0], size=g.node_count)
        written = fake_bundle(g, betweenness=scores).written("betweenness")
        nodes = rng.permutation(g.node_count)[:25]
        for subset in (None, nodes, nodes.tolist()):
            want = sorted(range(g.node_count) if subset is None else subset,
                          key=lambda v: (-centrality.as_written(scores[v]), g.names[v]))
            assert centrality.rank(g, written, subset) == [int(v) for v in want]

    def test_written_formats_each_score_once(self, monkeypatch):
        g = star(6)
        bundle = compute_bundle(g)
        calls = []
        monkeypatch.setattr(centrality, "as_written",
                            lambda x: calls.append(x) or float(format(x, ".12g")))
        first = bundle.written("betweenness")
        top_table(g, bundle, k=3)
        assert bundle.written("betweenness") is first
        assert len(calls) == len(centrality.MEASURES) * g.node_count

    def test_invalid_measure_rejected(self):
        g = build_graph([("A", "B")])
        with pytest.raises(DataError):
            top_k(g, fake_bundle(g), "pagerank", k=1)

    def test_nonpositive_k_rejected(self):
        g = build_graph([("A", "B")])
        with pytest.raises(DataError):
            top_k(g, fake_bundle(g), "degree", k=0)


class TestTopTable:
    def test_cross_column_marking(self):
        g = star(4)
        bundle = compute_bundle(g)
        table = top_table(g, bundle, k=1)
        # the hub tops every measure, so it appears in all four columns
        assert table.columns["betweenness"] == ["hub"]
        assert table.appearances["hub"] == 4
        assert table.marked("hub")

    def test_unique_appearance_not_marked(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")])
        bundle = compute_bundle(g)
        table = top_table(g, bundle, k=2)
        flagged = {n for n in g.names if table.marked(n)}
        recount = {}
        for col in table.columns.values():
            for name in col:
                recount[name] = recount.get(name, 0) + 1
        assert flagged == {n for n, c in recount.items() if c > 1}


class TestBundleAndInvariance:
    def test_bundle_matches_individual_measures(self):
        rng = np.random.default_rng(109)
        g = build_graph(random_connected_pairs(rng, 25, extra=15))
        bundle = compute_bundle(g, threads=1)
        assert (bundle.degree == degree_centrality(g)).all()
        assert (bundle.closeness == closeness_centrality(g)).all()
        assert (
            bundle.betweenness == betweenness_centrality(g, threads=1)
        ).all()
        assert (bundle.clustering == clustering_coefficient(g)).all()
        assert np.allclose(
            bundle.eigenvector, eigenvector_centrality(g), atol=0, rtol=0
        )

    def test_eccentricity_matches_floyd_warshall(self):
        rng = np.random.default_rng(113)
        g = graph_from(random_pairs(rng, n_max=10, p=0.4))
        dist = floyd_warshall(g.node_count, id_pairs(g))
        bundle = compute_bundle(g)
        for v in range(g.node_count):
            finite = [d for d in dist[v] if d < INF]
            assert bundle.eccentricity[v] == max(finite)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(127)
        pairs = random_connected_pairs(rng, 18, extra=12)
        names = sorted({n for p in pairs for n in p})
        mapping = dict(zip(names, rng.permutation(names)))
        g1 = build_graph(pairs)
        g2 = build_graph([(mapping[a], mapping[b]) for a, b in pairs])
        b1 = compute_bundle(g1, threads=1)
        b2 = compute_bundle(g2, threads=1)
        for measure in ("degree", "closeness", "betweenness", "eigenvector",
                        "clustering"):
            tol = 1e-7 if measure == "eigenvector" else 1e-12
            v1 = getattr(b1, measure)
            v2 = getattr(b2, measure)
            for name in names:
                a = v1[g1.names.index(name)]
                b = v2[g2.names.index(mapping[name])]
                assert a == pytest.approx(b, abs=tol)


def clique_expanded(rng, persons, articles, max_size):
    """Co-mention pairs of random articles; a person named in one article
    only is a closed twin of its co-mentioned peers."""
    pairs = set()
    for _ in range(articles):
        size = int(rng.integers(2, max_size + 1))
        named = sorted(rng.choice(persons, size=size, replace=False).tolist())
        pairs.update(itertools.combinations([f"p{i:04d}" for i in named], 2))
    return sorted(pairs)


def with_isolated_node(g):
    """``g`` plus one node without edges, which build_graph cannot produce."""
    return Graph(names=g.names + ("isolated",),
                 indptr=np.append(g.indptr, g.indptr[-1]),
                 adjacency=g.adjacency)


def twin_class_count(g):
    reps = _sweep.closed_twin_representatives(g.indptr, g.adjacency, g.node_count)
    return np.unique(reps).size


class TestTwinCollapsing:
    def test_representatives_share_closed_neighbourhoods(self):
        rng = np.random.default_rng(211)
        g = build_graph(clique_expanded(rng, 30, 12, 6))
        reps = _sweep.closed_twin_representatives(g.indptr, g.adjacency, g.node_count)
        closed = [set(g.adjacency[g.indptr[v]:g.indptr[v + 1]].tolist()) | {v}
                  for v in range(g.node_count)]
        for u in range(g.node_count):
            for v in range(g.node_count):
                assert (reps[u] == reps[v]) == (closed[u] == closed[v])
            assert reps[u] == min(v for v in range(g.node_count) if closed[v] == closed[u])

    def test_matches_oracles_on_clique_expanded_graphs(self):
        rng = np.random.default_rng(223)
        # a second component that is one twin class: every node sees N[v] = K4
        clique = list(itertools.combinations(["z0", "z1", "z2", "z3"], 2))
        collapsed = 0
        for _ in range(15):
            g = with_isolated_node(build_graph(clique_expanded(rng, 12, 5, 5) + clique))
            n = g.node_count
            pairs = id_pairs(g)
            collapsed += n - 3 - twin_class_count(g)
            assert np.allclose(betweenness_centrality(g), betweenness_oracle(n, pairs),
                               atol=1e-9, rtol=0)
            assert (closeness_centrality(g) == closeness_oracle(n, pairs)).all()
            assert diameter(g) == diameter_oracle(n, pairs)
            bundle = compute_bundle(g)
            assert bundle.eccentricity[n - 1] == 0
            assert all(bundle.closeness[g.names.index(z)] == 1.0 for z in ("z0", "z3"))
        assert collapsed >= 15  # twins outside the K4 as well

    @pytest.mark.parametrize("betweenness", [False, True])
    def test_duplicate_and_subset_sources(self, betweenness):
        rng = np.random.default_rng(227)
        g = with_isolated_node(build_graph(clique_expanded(rng, 12, 5, 5)))
        n = g.node_count
        pairs = id_pairs(g)
        reps = _sweep.closed_twin_representatives(g.indptr, g.adjacency, n)
        twins = [v for v in range(n) if reps[v] != v]
        assert twins
        sources = [twins[0], n - 1, reps[twins[0]], twins[0], 3, 3, twins[-1]]
        result = _sweep.sweep(g.indptr, g.adjacency, n, np.array(sources),
                              betweenness=betweenness, threads=1)
        dist = floyd_warshall(n, pairs)
        for i, s in enumerate(sources):
            finite = [d for d in dist[s] if d < INF]
            assert result.eccentricity[i] == max(finite)
            assert result.distance_sum[i] == sum(finite)
            assert result.reachable[i] == len(finite)
        if not betweenness:
            assert result.betweenness_raw is None
            return
        want = sum(dependency_oracle(n, pairs, s) for s in sources)
        assert np.allclose(result.betweenness_raw, want, atol=1e-9, rtol=0)

    def test_bundle_bits_independent_of_worker_count(self):
        rng = np.random.default_rng(229)
        g = build_graph(clique_expanded(rng, 1200, 420, 6))
        # three chunks or more, so that the order of the reduction matters
        assert 2 * _sweep.CHUNK < twin_class_count(g) < g.node_count
        one = compute_bundle(g, threads=1)
        for threads in (2, 4):
            other = compute_bundle(g, threads=threads)
            for measure in ("closeness", "betweenness", "eccentricity"):
                assert (getattr(one, measure) == getattr(other, measure)).all()

    def test_serial_without_fork(self, monkeypatch):
        import multiprocessing

        rng = np.random.default_rng(233)
        g = build_graph(clique_expanded(rng, 700, 200, 5))
        assert twin_class_count(g) > _sweep.CHUNK
        want = betweenness_centrality(g, threads=2)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing.context.ForkContext, "Pool", no_pool)
        assert (betweenness_centrality(g, threads=2) == want).all()

    def test_pool_size_is_capped(self):
        cpus = _sweep.usable_cpus()
        assert _sweep.pool_size(10 ** 9, 10 ** 9) == cpus
        assert _sweep.pool_size(None, 3) == min(3, cpus)
        assert _sweep.pool_size(4, 1) == 1
        assert _sweep.pool_size(1, 50) == 1
