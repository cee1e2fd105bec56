import numpy as np
import pytest

from conftest import article_groups
from comention import DataError, build_graph, connected_components
from comention.synth import (
    benchmark_graph,
    generate_corpus,
    planted_partition,
    write_articles_jsonl,
)


class TestGenerateCorpus:
    def test_shape_and_coverage(self):
        records = generate_corpus(n_articles=600, n_persons=1200, seed=3)
        assert len(records) == 600
        mentioned = {p for r in records for p in r.persons}
        assert len(mentioned) == 1200
        assert all(2 <= len(r.persons) <= 6 for r in records)

    def test_deterministic(self):
        a = generate_corpus(n_articles=200, n_persons=400, seed=9)
        b = generate_corpus(n_articles=200, n_persons=400, seed=9)
        assert a == b

    def test_round_trips_through_jsonl(self, tmp_path):
        from comention import load_articles

        records = generate_corpus(n_articles=120, n_persons=240, seed=4)
        path = tmp_path / "articles.jsonl"
        write_articles_jsonl(records, path)
        articles = load_articles(path)
        assert article_groups(articles) == [r.persons for r in records]
        assert articles.dates == {r.date for r in records if r.date is not None}


class TestBenchmarkGraph:
    def test_exact_counts_and_connectivity(self):
        g = build_graph(benchmark_graph(220, 500, seed=11))
        assert g.node_count == 220
        assert g.edge_count == 500
        assert connected_components(g).count == 1

    def test_deterministic(self):
        assert benchmark_graph(64, 120, seed=2) == benchmark_graph(
            64, 120, seed=2
        )

    def test_validation(self):
        with pytest.raises(DataError):
            benchmark_graph(10, 8, seed=1)  # below spanning tree
        with pytest.raises(DataError):
            benchmark_graph(4, 7, seed=1)  # above complete graph
        with pytest.raises(DataError):
            benchmark_graph(1, 0, seed=1)


class TestPlantedPartition:
    def test_every_node_labeled_and_present(self):
        pairs, truth = planted_partition(seed=0)
        g = build_graph(pairs)
        assert g.node_count == 100
        assert set(truth) == set(g.names)
        sizes = np.bincount([truth[n] for n in g.names])
        assert sizes.tolist() == [25, 25, 25, 25]

    def test_deterministic(self):
        assert planted_partition(seed=6) == planted_partition(seed=6)

    def test_blocks_are_denser_than_background(self):
        pairs, truth = planted_partition(seed=1)
        intra = sum(1 for a, b in pairs if truth[a] == truth[b])
        inter = len(pairs) - intra
        assert intra > inter
