import itertools

import numpy as np
import pytest

from conftest import best_two_partition, wcss
from comention import (
    CATEGORIES,
    CommunityProfile,
    DataError,
    KMeansResult,
    build_profiles,
    kmeans,
    load_affiliations,
    type_table,
)
from comention.typology import canonical_category


def profile(community, counts, unlabeled=0):
    return CommunityProfile(
        community=community,
        counts=np.asarray(counts, dtype=np.int64),
        unlabeled=unlabeled,
    )


class TestCategories:
    def test_closed_set(self):
        assert CATEGORIES == (
            "business",
            "politics",
            "law_enforcement",
            "banking",
            "government",
            "criminal",
            "press",
            "other",
        )

    def test_canonical_spelling_variants(self):
        assert canonical_category("Business") == "business"
        assert canonical_category("law enforcement") == "law_enforcement"
        assert canonical_category("Law-Enforcement") == "law_enforcement"

    def test_unknown_category_rejected(self):
        with pytest.raises(DataError):
            canonical_category("astronaut")


class TestLoadAffiliations:
    def test_basic_load(self, tmp_path):
        f = tmp_path / "aff.csv"
        f.write_text(
            "name,category\nIvanov I.,Business\nPetrov P.,law enforcement\n"
        )
        table = load_affiliations(f)
        assert table == {
            "Ivanov I.": "business",
            "Petrov P.": "law_enforcement",
        }

    def test_category_whitespace_normalized(self, tmp_path):
        f = tmp_path / "aff.csv"
        f.write_text("name,category\nA, law  enforcement \n")
        assert load_affiliations(f) == {"A": "law_enforcement"}

    def test_conflicting_duplicate_rejected(self, tmp_path):
        f = tmp_path / "aff.csv"
        f.write_text("name,category\nA,business\nA,press\n")
        with pytest.raises(DataError):
            load_affiliations(f)

    def test_unknown_category_rejected(self, tmp_path):
        f = tmp_path / "aff.csv"
        f.write_text("name,category\nA,wizard\n")
        with pytest.raises(DataError):
            load_affiliations(f)

    def test_blank_name_rejected(self, tmp_path):
        f = tmp_path / "aff.csv"
        f.write_text("name,category\n,business\n")
        with pytest.raises(DataError):
            load_affiliations(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "aff.csv"
        f.write_text("person,kind\nA,business\n")
        with pytest.raises(DataError):
            load_affiliations(f)


class TestBuildProfiles:
    def test_example_vector(self):
        table = {
            "P1": "business",
            "P2": "business",
            "P3": "politics",
            "P4": "politics",
            "P5": "press",
        }
        profiles = build_profiles({1: ["P1", "P2", "P3", "P4", "P5"]}, table)
        assert len(profiles) == 1
        assert profiles[0].counts.tolist() == [2, 2, 0, 0, 0, 0, 1, 0]
        assert profiles[0].unlabeled == 0

    def test_all_unlabeled_warns(self, caplog):
        with caplog.at_level("WARNING", logger="comention.typology"):
            profiles = build_profiles({3: ["A", "B", "C", "D", "E"]}, {"Z": "press"})
        assert profiles[0].counts.tolist() == [0] * 8
        assert profiles[0].unlabeled == 5
        assert caplog.records

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            build_profiles({1: ["A"]}, {})

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(227)
        names = [f"n{i}" for i in range(40)]
        table = {
            n: CATEGORIES[rng.integers(8)]
            for n in names
            if rng.random() < 0.8
        }
        tops = {
            c: [names[i] for i in rng.choice(40, size=5, replace=False)]
            for c in range(6)
        }
        profiles = build_profiles(tops, table)
        assert [p.community for p in profiles] == sorted(tops)
        for p in profiles:
            want = [0] * 8
            missing = 0
            for name in tops[p.community]:
                if name in table:
                    want[CATEGORIES.index(table[name])] += 1
                else:
                    missing += 1
            assert p.counts.tolist() == want
            assert p.unlabeled == missing

    def test_count_budget(self):
        rng = np.random.default_rng(229)
        table = {f"n{i}": CATEGORIES[rng.integers(8)] for i in range(20)}
        tops = {0: [f"n{i}" for i in range(5)], 1: [f"x{i}" for i in range(5)]}
        for p in build_profiles(tops, table):
            assert p.counts.sum() + p.unlabeled == 5


class TestKMeans:
    def test_separated_singletons(self):
        corners = np.zeros((4, 8))
        corners[0, 0] = corners[1, 1] = corners[2, 2] = corners[3, 3] = 10.0
        result = kmeans(corners, k=4, seed=0)
        assert sorted(result.labels.tolist()) == [0, 1, 2, 3]
        ordered = result.centroids[result.labels]
        assert (ordered == corners).all()
        assert result.objective == 0.0

    def test_identical_points_collapse(self):
        points = np.ones((6, 8)) * 3.0
        result = kmeans(points, k=2, seed=1)
        assert len(set(result.labels.tolist())) == 1
        assert result.objective == 0.0

    def test_two_blobs_match_exhaustive_optimum(self):
        rng = np.random.default_rng(233)
        blob_a = rng.normal(0.0, 0.4, size=(6, 8))
        blob_b = rng.normal(8.0, 0.4, size=(6, 8))
        points = np.vstack([blob_a, blob_b])
        result = kmeans(points, k=2, seed=3)
        got = frozenset(
            frozenset(np.flatnonzero(result.labels == c).tolist())
            for c in (0, 1)
        )
        want, want_cost = best_two_partition(points)
        assert got == want
        assert result.objective == pytest.approx(want_cost, rel=1e-9)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(239)
        points = rng.random((30, 8))
        r1 = kmeans(points, k=4, seed=7)
        r2 = kmeans(points, k=4, seed=7)
        assert (r1.labels == r2.labels).all()
        assert (r1.centroids == r2.centroids).all()
        assert r1.objective == r2.objective

    def test_objective_equals_wcss_of_labels(self):
        rng = np.random.default_rng(241)
        points = rng.random((25, 8))
        result = kmeans(points, k=3, seed=11)
        groups = [
            np.flatnonzero(result.labels == c).tolist() for c in range(3)
        ]
        assert result.objective == pytest.approx(
            wcss(points, groups), rel=1e-12
        )

    def test_point_order_does_not_change_partition(self):
        rng = np.random.default_rng(251)
        blob_a = rng.normal(0.0, 0.3, size=(5, 8))
        blob_b = rng.normal(9.0, 0.3, size=(7, 8))
        points = np.vstack([blob_a, blob_b])
        perm = rng.permutation(12)
        shuffled = points[perm]
        r1 = kmeans(points, k=2, seed=13)
        r2 = kmeans(shuffled, k=2, seed=13)
        part1 = frozenset(
            frozenset(map(tuple, points[result_labels]))
            for result_labels in (
                np.flatnonzero(r1.labels == c) for c in (0, 1)
            )
        )
        part2 = frozenset(
            frozenset(map(tuple, shuffled[result_labels]))
            for result_labels in (
                np.flatnonzero(r2.labels == c) for c in (0, 1)
            )
        )
        assert part1 == part2

    def test_restarts_attain_exhaustive_optimum(self):
        rng = np.random.default_rng(257)
        points = rng.random((12, 8)) * 3.0
        _, want_cost = best_two_partition(points)
        result = kmeans(points, k=2, seed=0, restarts=50)
        assert result.objective == pytest.approx(want_cost, rel=1e-9)

    def test_fewer_points_than_k_rejected(self):
        with pytest.raises(DataError):
            kmeans(np.zeros((3, 8)), k=4, seed=0)

    def test_invalid_k_rejected(self):
        with pytest.raises(DataError):
            kmeans(np.zeros((4, 8)), k=0, seed=0)


class TestAssignTypes:
    def test_covers_every_profile(self):
        profiles = [profile(c, [c, 0, 0, 0, 0, 0, 0, 0]) for c in range(5)]
        result = KMeansResult(
            labels=np.array([0, 1, 0, 1, 0]),
            centroids=np.zeros((2, 8)),
            objective=0.0,
            iterations=1,
        )
        table = type_table(profiles, result)
        assert sorted(table.types) == [0, 1, 2, 3, 4]
        assert set(table.types.values()) == {1, 2}
        assert len(table.type_names) == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            type_table(
                [profile(0, [0] * 8)],
                KMeansResult(
                    labels=np.array([0, 1]),
                    centroids=np.zeros((2, 8)),
                    objective=0.0,
                    iterations=1,
                ),
            )


class TestTypeTable:
    def test_single_community_single_type(self):
        profiles = [profile(1, [2, 2, 0, 0, 0, 0, 1, 0])]
        result = KMeansResult(
            labels=np.array([0]),
            centroids=np.zeros((1, 8)),
            objective=0.0,
            iterations=1,
        )
        table = type_table(profiles, result)
        assert table.matrix[:, 0].tolist() == [2, 2, 0, 0, 0, 0, 1, 0]
        assert table.communities_per_type == (1,)
        assert table.type_names == ("business",)

    def test_table_bottom_row_fixture(self):
        # 33 communities in four types; community counts 15/8/6/4 with
        # dominant categories business/politics/banking/law_enforcement
        profiles = []
        labels = []
        cid = 0
        for raw, (cat_idx, n_comms) in enumerate(
            [(0, 15), (1, 8), (3, 6), (2, 4)]
        ):
            for _ in range(n_comms):
                counts = [0] * 8
                counts[cat_idx] = 2
                profiles.append(profile(cid, counts))
                labels.append(raw)
                cid += 1
        result = KMeansResult(
            labels=np.array(labels),
            centroids=np.zeros((4, 8)),
            objective=0.0,
            iterations=1,
        )
        table = type_table(profiles, result)
        assert table.communities_per_type == (15, 8, 6, 4)
        assert table.type_names == (
            "business",
            "politics",
            "banking",
            "law_enforcement",
        )
        assert table.matrix.sum() == sum(p.counts.sum() for p in profiles)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(263)
        profiles = [
            profile(c, rng.integers(0, 3, size=8)) for c in range(12)
        ]
        labels = rng.integers(0, 3, size=12)
        while len(set(labels.tolist())) < 3:
            labels = rng.integers(0, 3, size=12)
        result = KMeansResult(
            labels=labels,
            centroids=np.zeros((3, 8)),
            objective=0.0,
            iterations=1,
        )
        table = type_table(profiles, result)
        for pos in range(3):
            want = np.zeros(8, dtype=np.int64)
            n = 0
            for p in profiles:
                if table.types[p.community] == pos + 1:
                    want += p.counts
                    n += 1
            assert table.matrix[:, pos].tolist() == want.tolist()
            assert table.communities_per_type[pos] == n
        # each type is one k-means cluster: communities share a type exactly
        # when they share a label
        for a, b in itertools.combinations(range(12), 2):
            assert (table.types[a] == table.types[b]) == (labels[a] == labels[b])

    def test_conservation(self):
        rng = np.random.default_rng(269)
        profiles = [
            profile(c, rng.integers(0, 4, size=8)) for c in range(9)
        ]
        result = KMeansResult(
            labels=rng.integers(0, 2, size=9),
            centroids=np.zeros((2, 8)),
            objective=0.0,
            iterations=1,
        )
        table = type_table(profiles, result)
        assert table.matrix.sum() == sum(p.counts.sum() for p in profiles)

    def test_missing_assignment_rejected(self):
        profiles = [profile(0, [1] + [0] * 7), profile(1, [1] + [0] * 7)]
        result = KMeansResult(
            labels=np.array([0]),
            centroids=np.zeros((1, 8)),
            objective=0.0,
            iterations=1,
        )
        with pytest.raises(DataError):
            type_table(profiles, result)
