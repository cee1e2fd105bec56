import dataclasses
import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    graph_from,
    id_pairs,
    modularity_oracle,
    nmi_oracle,
    random_pairs,
    set_partitions,
)
from comention import (
    DataError,
    OTHER,
    Partition,
    build_graph,
    community_summary,
    compute_bundle,
    filter_communities,
    induced_graph,
    label_communities,
    louvain,
    modularity,
    top_members,
)
from comention.community import _one_level
from comention.synth import benchmark_graph, generate_corpus, planted_partition


def two_cliques(size=5, bridges=1):
    pairs = []
    left = [f"L{i}" for i in range(size)]
    right = [f"R{i}" for i in range(size)]
    for group in (left, right):
        pairs += [
            (a, b) for i, a in enumerate(group) for b in group[i + 1:]
        ]
    pairs += [(left[i], right[i]) for i in range(bridges)]
    return build_graph(pairs)


def lean_q(labels, edges, degs, m):
    inside = {}
    dsum = {}
    for u, v in edges:
        if labels[u] == labels[v]:
            inside[labels[u]] = inside.get(labels[u], 0) + 1
    for v, d in enumerate(degs):
        dsum[labels[v]] = dsum.get(labels[v], 0) + d
    return sum(
        inside.get(c, 0) / m - (dc / (2.0 * m)) ** 2
        for c, dc in dsum.items()
    )


class TestLouvain:
    def test_two_cliques_recovered(self):
        g = two_cliques()
        p = louvain(g, seed=5)
        assert p.count == 2
        left = {p.labels[g.names.index(f"L{i}")] for i in range(5)}
        right = {p.labels[g.names.index(f"R{i}")] for i in range(5)}
        assert len(left) == len(right) == 1
        assert left != right

    def test_two_cliques_is_exhaustive_optimum(self):
        g = two_cliques()
        p = louvain(g, seed=5)
        q_louvain = modularity(g, p)
        edges = id_pairs(g)
        degs = g.degrees.tolist()
        m = g.edge_count
        best = max(
            lean_q(labels, edges, degs, m)
            for labels in set_partitions(g.node_count)
        )
        assert q_louvain == pytest.approx(best, abs=1e-12)

    def test_single_edge_graph(self):
        g = build_graph([("A", "B")])
        p = louvain(g, seed=1)
        assert p.count in (1, 2)
        q = modularity(g, p)
        assert q == modularity_oracle(2, id_pairs(g), p.labels.tolist())
        assert -0.5 <= q <= 1.0

    def test_planted_partition_recovery(self):
        hits = 0
        for seed in range(10):
            pairs, truth = planted_partition(seed=seed)
            g = build_graph(pairs)
            p = louvain(g, seed=seed)
            want = [truth[name] for name in g.names]
            nmi = nmi_oracle(want, p.labels)
            hits += nmi >= 0.95
        assert hits >= 9

    def test_nmi_oracle_hand_computed_value(self):
        # joint (1/2, 1/4, 1/4): MI = ln(4/3)/2 + ln(2/3)/4 + ln(2)/4,
        # entropies ln 2 and ln 4 - (3/4) ln 3
        mi = np.log(4 / 3) / 2 + np.log(2 / 3) / 4 + np.log(2) / 4
        mean_h = (np.log(2) + np.log(4) - 0.75 * np.log(3)) / 2
        assert nmi_oracle([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(mi / mean_h, rel=1e-12)
        assert nmi_oracle([0, 0, 1, 1], [7, 7, 3, 3]) == pytest.approx(1.0, rel=1e-12)
        assert nmi_oracle([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(131)
        g = graph_from(random_pairs(rng, n_max=30, p=0.2))
        p1 = louvain(g, seed=9)
        p2 = louvain(g, seed=9)
        assert (p1.labels == p2.labels).all()

    def test_quality_never_below_trivial_partitions(self):
        rng = np.random.default_rng(137)
        for _ in range(15):
            g = graph_from(random_pairs(rng, n_max=12, p=0.35))
            q = modularity(g, louvain(g, seed=3))
            singletons = Partition.from_labels(np.arange(g.node_count))
            assert q >= 0.0 - 1e-12
            assert q >= modularity(g, singletons) - 1e-12
            assert -0.5 <= q <= 1.0

    def test_near_optimal_on_tiny_graphs(self):
        rng = np.random.default_rng(139)
        for _ in range(10):
            g = graph_from(random_pairs(rng, n_max=8, p=0.45))
            q = modularity(g, louvain(g, seed=11))
            edges = id_pairs(g)
            degs = g.degrees.tolist()
            best = max(
                lean_q(labels, edges, degs, g.edge_count)
                for labels in set_partitions(g.node_count)
            )
            assert q >= best - 0.05

    def test_phases_never_decrease_quality(self):
        # the implementation raises if an aggregation phase lowers Q
        rng = np.random.default_rng(149)
        for _ in range(30):
            g = graph_from(random_pairs(rng, n_max=14, p=0.3))
            louvain(g, seed=int(rng.integers(1000)))

    def test_community_ids_ordered_by_size(self):
        g = build_graph(
            [("A", "B"), ("B", "C"), ("C", "A"), ("X", "Y")]
        )
        p = louvain(g, seed=2)
        assert list(p.sizes) == sorted(p.sizes, reverse=True)


class TestLocalMoving:
    @pytest.mark.parametrize("row", [[2, 1], [1, 2]], ids=["higher-first", "lower-first"])
    def test_exact_tie_goes_to_lowest_id(self, row):
        """Path 1 - 0 - 2, where 1 and 2 carry one self-loop each: node 0
        gains exactly as much in community 2 as in community 1, whichever its
        row meets first.  It joins 1; once it has, 2 gains nothing by joining."""
        indptr = np.array([0, 2, 3, 4])
        adjacency = np.array([*row, 0, 0])
        weights = np.ones(4)
        loops = np.array([0.0, 1.0, 1.0])
        in_id_order = SimpleNamespace(shuffle=lambda order: None)
        moved, labels = _one_level(indptr, adjacency, weights, loops, 4.0, 1.0, in_id_order)
        assert moved
        assert labels.tolist() == [0, 0, 1]


class TestLouvainGolden:
    """Exact partitions at 1/8 of the canonical sizes; any change to local
    moving, tie breaking or aggregation moves these digests."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return {"bench-graph": build_graph(benchmark_graph(1390, 4693, seed=11)),
                "corpus": build_graph(r.persons for r in generate_corpus(650, 1312, seed=7))}

    @pytest.mark.parametrize("name,seed,resolution,count,digest", [
        ("bench-graph", 9, 1.0, 15,
         "9e37e772fb5234604ca90fa868d83f791a5cbd8129b25ba7b1dd73b1f0da29cf"),
        ("corpus", 3, 1.0, 25,
         "73e1cbe174bcaa19ef971e7d7db8dcc73513d6d5cb580c7d4e466e9e5f5db9a6"),
        ("corpus", 3, 0.5, 14,
         "728c649b1d5ba795b8ea571b01cf780e0f93c622eff1873edf03651edf18d8d7"),
    ])
    def test_labels_digest(self, graphs, name, seed, resolution, count, digest):
        p = louvain(graphs[name], seed=seed, resolution=resolution)
        assert p.count == count
        assert hashlib.sha256(p.labels.tobytes()).hexdigest() == digest


class TestModularity:
    def test_all_in_one_is_zero(self):
        rng = np.random.default_rng(151)
        for _ in range(10):
            g = graph_from(random_pairs(rng))
            p = Partition.from_labels(np.zeros(g.node_count, dtype=int))
            assert modularity(g, p) == 0.0

    def test_triangle_singletons(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")])
        p = Partition.from_labels([0, 1, 2])
        assert modularity(g, p) == pytest.approx(-1 / 3, abs=1e-12)

    def test_two_clique_partition_matches_oracle(self):
        g = two_cliques()
        labels = [0 if name.startswith("L") else 1 for name in g.names]
        p = Partition.from_labels(labels)
        want = modularity_oracle(g.node_count, id_pairs(g), labels)
        assert modularity(g, p) == pytest.approx(want, abs=1e-12)

    def test_random_partitions_match_oracle(self):
        rng = np.random.default_rng(157)
        for _ in range(25):
            g = graph_from(random_pairs(rng, p=0.4))
            raw = rng.integers(0, 3, size=g.node_count)
            _, dense = np.unique(raw, return_inverse=True)
            p = Partition.from_labels(dense)
            want = modularity_oracle(
                g.node_count, id_pairs(g), dense.tolist()
            )
            assert modularity(g, p) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("resolution", [0.3, 0.5, 1.0, 2.0])
    def test_resolution_matches_oracle(self, resolution):
        rng = np.random.default_rng(163)
        for _ in range(10):
            g = graph_from(random_pairs(rng, p=0.4))
            raw = rng.integers(0, 3, size=g.node_count)
            _, dense = np.unique(raw, return_inverse=True)
            for p in (Partition.from_labels(dense), louvain(g, seed=5, resolution=resolution)):
                want = modularity_oracle(g.node_count, id_pairs(g), p.labels.tolist(), resolution)
                assert modularity(g, p, resolution) == pytest.approx(want, abs=1e-12)
            assert modularity(g, p, 1.0) == modularity(g, p)

    def test_partition_validation(self):
        with pytest.raises(DataError):
            Partition.from_labels([0, 2])  # not dense
        with pytest.raises(DataError, match="dense starting at 0"):
            Partition.from_labels([0, 10**13])  # rejected before sizing a count array
        with pytest.raises(DataError):
            Partition.from_labels([-1, 0])
        with pytest.raises(DataError):
            Partition.from_labels([])


class TestFilterCommunities:
    def test_size_boundary_fixture(self):
        labels = [0] * 1470 + [1] * 99 + [2] * 3
        p = Partition.from_labels(labels)
        assert filter_communities(p, min_size=100) == [0]

    def test_min_size_one_keeps_all(self):
        p = Partition.from_labels([0, 0, 1, 2])
        assert set(filter_communities(p, min_size=1)) == {0, 1, 2}

    def test_empty_result_advises_lower_threshold(self):
        p = Partition.from_labels([0, 1])
        with pytest.raises(DataError, match="[Ll]ower"):
            filter_communities(p, min_size=100)

    def test_invalid_threshold_rejected(self):
        p = Partition.from_labels([0])
        with pytest.raises(DataError):
            filter_communities(p, min_size=0)

    def test_matches_filter_oracle(self):
        rng = np.random.default_rng(163)
        for _ in range(20):
            sizes = rng.integers(1, 12, size=6)
            labels = np.repeat(np.arange(6), sizes)
            p = Partition.from_labels(labels)
            got = filter_communities(p, min_size=5)
            want = sorted(
                (c for c in range(6) if sizes[c] >= 5),
                key=lambda c: (-sizes[c], c),
            )
            assert got == want


class TestLabelCommunities:
    def test_strict_maximum(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "D")])
        bundle = compute_bundle(g)
        p = Partition.from_labels([0] * 4)
        labels = label_communities(g, p, bundle)
        # B and C tie on betweenness for the path; check a strict case
        g2 = build_graph([("A", "B"), ("B", "C")])
        labels2 = label_communities(
            g2, Partition.from_labels([0] * 3), compute_bundle(g2)
        )
        assert labels2[0] == "B"
        assert set(labels.values()) == {"B"}  # B beats C by name on the tie

    def test_tie_breaks_lexicographically(self):
        g = build_graph(
            [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")]
        )
        bundle = compute_bundle(g)
        labels = label_communities(
            g, Partition.from_labels([0] * 4), bundle
        )
        assert labels[0] == "A"

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(167)
        for _ in range(15):
            g = graph_from(random_pairs(rng, p=0.4))
            bundle = compute_bundle(g)
            p = louvain(g, seed=7)
            labels = label_communities(g, p, bundle)
            for c in range(p.count):
                members = p.members(c)
                want = min(
                    members,
                    key=lambda v: (-bundle.betweenness[v], g.names[v]),
                )
                assert labels[c] == g.names[want]


class TestCommunitySummary:
    def test_clique_community(self):
        g = two_cliques(5, bridges=1)
        bundle = compute_bundle(g)
        labels = [0 if n.startswith("L") else 1 for n in g.names]
        p = Partition.from_labels(labels)
        rows = community_summary(g, p, bundle, [0, 1])
        for row in rows:
            assert row.mean_clustering == pytest.approx(1.0, abs=0.11)
            assert row.internal_density == 1.0
            assert row.size == 5

    def test_pure_clique_exact(self):
        g = build_graph(
            [(f"K{i}", f"K{j}") for i in range(5) for j in range(i + 1, 5)]
        )
        bundle = compute_bundle(g)
        p = Partition.from_labels([0] * 5)
        row = community_summary(g, p, bundle, [0])[0]
        assert row.mean_clustering == 1.0
        assert row.internal_density == 1.0

    def test_singleton_density_zero(self):
        g = build_graph([("A", "B"), ("B", "C")])
        bundle = compute_bundle(g)
        p = Partition.from_labels([0, 0, 1])
        rows = community_summary(g, p, bundle, [0, 1])
        singleton = [r for r in rows if r.size == 1][0]
        assert singleton.internal_density == 0.0

    def test_means_match_recomputation(self):
        rng = np.random.default_rng(173)
        for _ in range(10):
            g = graph_from(random_pairs(rng, p=0.4))
            bundle = compute_bundle(g)
            p = louvain(g, seed=13)
            retained = filter_communities(p, min_size=1)
            rows = community_summary(g, p, bundle, retained)
            assert len(rows) == len(retained)
            by_id = {r.community: r for r in rows}
            for c in retained:
                members = p.members(c)
                row = by_id[c]
                for field, vector in (
                    ("mean_betweenness", bundle.betweenness),
                    ("mean_closeness", bundle.closeness),
                    ("mean_eigenvector", bundle.eigenvector),
                    ("mean_clustering", bundle.clustering),
                ):
                    want = float(np.mean([vector[v] for v in members]))
                    assert getattr(row, field) == pytest.approx(
                        want, abs=1e-12
                    )
                intra = sum(
                    1
                    for u, v in id_pairs(g)
                    if p.labels[u] == c and p.labels[v] == c
                )
                s = len(members)
                want_d = 0.0 if s < 2 else intra / (s * (s - 1) / 2)
                assert row.internal_density == pytest.approx(
                    want_d, abs=1e-12
                )

    def test_sorted_by_mean_betweenness_descending(self):
        rng = np.random.default_rng(179)
        g = graph_from(random_pairs(rng, n_max=16, p=0.3))
        bundle = compute_bundle(g)
        p = louvain(g, seed=17)
        rows = community_summary(
            g, p, bundle, filter_communities(p, min_size=1)
        )
        scores = [r.mean_betweenness for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_near_tied_means_list_in_id_order(self):
        """Means equal in every written digit order by community id, whatever the round-off."""
        g = build_graph([("A", "B"), ("B", "C"), ("C", "D")])
        betweenness = np.array([0.3, 0.3, 0.3, 0.3 * (1.0 + 1e-15)])
        bundle = dataclasses.replace(compute_bundle(g), betweenness=betweenness)
        p = Partition.from_labels([0, 0, 1, 1])
        rows = community_summary(g, p, bundle, [0, 1])
        assert rows[1].mean_betweenness > rows[0].mean_betweenness
        assert [r.community for r in rows] == [0, 1]


class TestInducedGraph:
    def test_cross_edge_weight(self):
        g = two_cliques(5, bridges=3)
        labels = [0 if n.startswith("L") else 1 for n in g.names]
        p = Partition.from_labels(labels)
        ind = induced_graph(g, p, [0, 1], compute_bundle(g))
        assert ind.edges == ((0, 1, 3),)
        assert ind.intra_weights == {0: 10, 1: 10}
        assert ind.dropped_edges == 0

    def test_no_cross_edges(self):
        g = build_graph([("A", "B"), ("X", "Y")])
        p = Partition.from_labels([0, 0, 1, 1])
        ind = induced_graph(g, p, [0, 1], compute_bundle(g))
        assert ind.edges == ()

    def test_weights_match_pairwise_oracle_and_conservation(self):
        rng = np.random.default_rng(181)
        with_other = 0
        for _ in range(15):
            g = graph_from(random_pairs(rng, n_max=9, p=0.5))
            p = louvain(g, seed=19)
            bundle = compute_bundle(g)
            retained = filter_communities(p, min_size=2) if max(
                p.sizes
            ) >= 2 else filter_communities(p, min_size=1)
            # the largest community alone leaves a rest whenever there are two
            for kept, include_other in itertools.product((retained, retained[:1]),
                                                         (False, True)):
                ind = induced_graph(g, p, kept, bundle, include_other=include_other)
                keep = set(kept)
                slot = [int(c) if int(c) in keep else OTHER for c in p.labels]
                if include_other and OTHER in slot:
                    keep.add(OTHER)
                    with_other += 1
                want = {}
                intra = dict.fromkeys(keep, 0)
                dropped = 0
                for u, v in id_pairs(g):
                    cu, cv = slot[u], slot[v]
                    if cu == cv and cu in keep:
                        intra[cu] += 1
                    elif cu in keep and cv in keep:
                        key = frozenset((cu, cv))
                        want[key] = want.get(key, 0) + 1
                    else:
                        dropped += 1
                got = {frozenset((u, v)): w for u, v, w in ind.edges}
                assert got == want
                assert ind.intra_weights == intra
                assert ind.dropped_edges == dropped
                assert set(ind.sizes) == set(ind.mean_betweenness) == keep
                for c in keep:
                    members = [v for v in range(g.node_count) if slot[v] == c]
                    assert ind.sizes[c] == len(members)
                    want_mean = sum(bundle.betweenness[v] for v in members) / len(members)
                    assert ind.mean_betweenness[c] == pytest.approx(
                        want_mean, rel=1e-12, abs=0)
                total = (
                    sum(w for _, _, w in ind.edges)
                    + sum(ind.intra_weights.values())
                    + ind.dropped_edges
                )
                assert total == g.edge_count
        assert with_other > 0

    def test_other_pseudo_node(self):
        g = build_graph(
            [("A", "B"), ("B", "C"), ("C", "A"), ("A", "X"), ("X", "Y")]
        )
        p = Partition.from_labels(
            [0, 0, 0, 1, 1][: g.node_count]
        )
        ind = induced_graph(g, p, [0], compute_bundle(g), include_other=True)
        assert OTHER in ind.sizes
        got = {frozenset((u, v)): w for u, v, w in ind.edges}
        assert got == {frozenset((0, OTHER)): 1}
        assert ind.intra_weights[OTHER] == 1
        assert ind.dropped_edges == 0
        total = (
            sum(w for _, _, w in ind.edges)
            + sum(ind.intra_weights.values())
            + ind.dropped_edges
        )
        assert total == g.edge_count

    def test_no_self_edges(self):
        rng = np.random.default_rng(191)
        g = graph_from(random_pairs(rng, p=0.5))
        p = louvain(g, seed=23)
        ind = induced_graph(g, p, filter_communities(p, min_size=1), compute_bundle(g))
        assert all(u != v for u, v, _ in ind.edges)


class TestTopMembers:
    def test_small_community_returns_all(self):
        g = build_graph([("A", "B"), ("B", "C")])
        bundle = compute_bundle(g)
        p = Partition.from_labels([0, 0, 0])
        got = top_members(g, p, bundle, [0], k=5)
        assert sorted(got[0]) == ["A", "B", "C"]

    def test_strict_sort_order(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "D")])
        bundle = compute_bundle(g)
        p = Partition.from_labels([0] * 4)
        got = top_members(g, p, bundle, [0], k=4)[0]
        scores = [bundle.betweenness[g.names.index(n)] for n in got]
        assert scores == sorted(scores, reverse=True)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(193)
        g = graph_from(random_pairs(rng, p=0.45))
        bundle = compute_bundle(g)
        p = louvain(g, seed=29)
        retained = filter_communities(p, min_size=1)
        got = top_members(g, p, bundle, retained, k=3)
        for c in retained:
            members = p.members(c)
            want = sorted(
                (g.names[v] for v in members),
                key=lambda n: (
                    -bundle.betweenness[g.names.index(n)],
                    n,
                ),
            )[:3]
            assert got[c] == want

    def test_nonpositive_k_rejected(self):
        g = build_graph([("A", "B")])
        bundle = compute_bundle(g)
        p = Partition.from_labels([0, 0])
        with pytest.raises(DataError):
            top_members(g, p, bundle, [0], k=0)
