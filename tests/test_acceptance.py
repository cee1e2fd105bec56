"""Acceptance suite: one test per required criterion, with runtime budgets.

Each test prints a single pass line once its assertions hold, so running
``pytest -v tests/test_acceptance.py`` yields one verdict line per criterion.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    best_two_partition,
    betweenness_oracle,
    closeness_oracle,
    diameter_oracle,
    eigenvector_oracle,
    graph_from,
    id_pairs,
    modularity_oracle,
    nmi_oracle,
    random_connected_pairs,
    random_pairs,
    sample_discrete_powerlaw,
    wcss,
)
from comention import (
    DegreeDistribution,
    Partition,
    PipelineConfig,
    betweenness_centrality,
    build_graph,
    build_profiles,
    closeness_centrality,
    compute_bundle,
    density,
    diameter,
    eigenvector_centrality,
    fit_loglog,
    fit_mle,
    kmeans,
    louvain,
    modularity,
    run_pipeline,
)
from comention.synth import benchmark_graph, generate_corpus, planted_partition, write_articles_jsonl


def verdict(number, message):
    print(f"criterion {number:02d} PASS: {message}")


class Budget:
    """Wall-clock guard for a criterion's stated runtime bound."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds {self.limit}s budget"
            )
        return False


def test_criterion_01_density_formula():
    value = density(11118, 37544)
    assert value == pytest.approx(0.0006075, abs=1e-7)
    verdict(1, f"density(11118, 37544) = {value:.7f} within 1e-7 of 0.0006075")


def test_criterion_02_betweenness_oracle_equivalence():
    rng = np.random.default_rng(2024)
    with Budget(10) as budget:
        for _ in range(100):
            g = graph_from(random_pairs(rng, n_max=9))
            got = betweenness_centrality(g)
            want = betweenness_oracle(g.node_count, id_pairs(g))
            assert np.abs(got - want).max() <= 1e-9
    verdict(2, f"Brandes = path enumeration on 100 graphs (n<=9) "
               f"to 1e-9 in {budget.elapsed:.1f}s")


def test_criterion_03_eigenvector_oracle_equivalence():
    rng = np.random.default_rng(3024)
    with Budget(10) as budget:
        for _ in range(50):
            n = int(rng.integers(2, 51))
            extra = int(rng.integers(0, n))
            g = build_graph(random_connected_pairs(rng, n, extra=extra))
            got = eigenvector_centrality(g)
            want = eigenvector_oracle(g.node_count, id_pairs(g))
            if np.dot(got, want) < 0:
                want = -want
            assert np.abs(got - want).max() <= 1e-6
    verdict(3, f"power iteration = dense eigensolver on 50 connected "
               f"graphs (n<=50) to 1e-6 in {budget.elapsed:.1f}s")


def test_criterion_04_closeness_diameter_oracle_equivalence():
    rng = np.random.default_rng(4024)
    with Budget(10) as budget:
        for _ in range(100):
            g = graph_from(random_pairs(rng, n_max=10))
            got = closeness_centrality(g)
            want = closeness_oracle(g.node_count, id_pairs(g))
            assert (got == want).all()
            assert diameter(g) == diameter_oracle(g.node_count, id_pairs(g))
    verdict(4, f"closeness/diameter exactly match Floyd-Warshall on "
               f"100 graphs (n<=10) in {budget.elapsed:.1f}s")


def test_criterion_05_louvain_planted_partition_recovery():
    hits = 0
    slowest = 0.0
    for seed in range(100):
        pairs, truth = planted_partition(
            n_blocks=4, block_size=25, p_in=0.3, p_out=0.01, seed=seed
        )
        g = build_graph(pairs)
        start = time.perf_counter()
        p = louvain(g, seed=seed)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 1.0, f"seed {seed} took {elapsed:.2f}s"
        want = [truth[name] for name in g.names]
        nmi = nmi_oracle(want, p.labels)
        hits += nmi >= 0.95
    assert hits >= 95, f"only {hits}/100 seeds reached NMI >= 0.95"
    verdict(5, f"NMI >= 0.95 in {hits}/100 planted-partition seeds, "
               f"slowest run {slowest * 1000:.0f}ms")


def test_criterion_06_modularity_definition_and_monotonicity():
    rng = np.random.default_rng(6024)
    checked = 0
    for _ in range(30):
        g = graph_from(random_pairs(rng, n_max=12, p=0.4))
        n = g.node_count
        pairs = id_pairs(g)

        whole = Partition.from_labels(np.zeros(n, dtype=int))
        assert modularity(g, whole) == 0.0

        partitions = [
            whole,
            Partition.from_labels(np.arange(n)),
            louvain(g, seed=int(rng.integers(10_000))),  # asserts per-phase Q
        ]
        raw = rng.integers(0, 3, size=n)
        partitions.append(
            Partition.from_labels(np.unique(raw, return_inverse=True)[1])
        )
        for p in partitions:
            want = modularity_oracle(n, pairs, p.labels.tolist())
            assert abs(modularity(g, p) - want) <= 1e-12
            checked += 1
    verdict(6, f"modularity(all-in-one)=0, oracle agreement to 1e-12 on "
               f"{checked} partitions, Louvain phases monotone")


def test_criterion_07_power_law_fits():
    with Budget(5) as budget:
        degrees = np.arange(3, 101)
        weights = 0.7 * degrees.astype(np.float64) ** -1.85
        dist = DegreeDistribution(
            degrees=degrees, counts=weights, fractions=weights / weights.sum()
        )
        fit = fit_loglog(dist, dmin=3)
        assert fit.alpha == pytest.approx(-1.85, abs=1e-6)

        samples = sample_discrete_powerlaw(-2.5, 3, 100_000, seed=7024)
        mle = fit_mle(samples, dmin=3)
        assert mle.alpha == pytest.approx(-2.5, abs=0.05)
    verdict(7, f"log-log alpha {fit.alpha:.8f} (+-1e-6), MLE alpha "
               f"{mle.alpha:.3f} within 0.05 of -2.5 in {budget.elapsed:.1f}s")


def test_criterion_08_kmeans_determinism_and_optimum():
    with Budget(1) as budget:
        rng = np.random.default_rng(8024)
        blob_a = rng.normal(0.0, 0.5, size=(6, 8))
        blob_b = rng.normal(9.0, 0.5, size=(6, 8))
        points = np.vstack([blob_a, blob_b])

        r1 = kmeans(points, k=2, seed=41)
        r2 = kmeans(points, k=2, seed=41)
        assert (r1.labels == r2.labels).all()
        assert (r1.centroids == r2.centroids).all()
        assert r1.objective == r2.objective

        groups = [np.flatnonzero(r1.labels == c).tolist() for c in (0, 1)]
        assert r1.objective == pytest.approx(wcss(points, groups), rel=1e-12)

        got = frozenset(frozenset(gr) for gr in groups)
        want, want_cost = best_two_partition(points)
        assert got == want
        assert r1.objective == pytest.approx(want_cost, rel=1e-9)
    verdict(8, f"k-means deterministic, objective = WCSS, matches "
               f"exhaustive optimum in {budget.elapsed:.2f}s")


def test_criterion_09_typology_profile_vector():
    table = {
        "Entrepreneur A": "business",
        "Entrepreneur B": "business",
        "Politician A": "politics",
        "Politician B": "politics",
        "Journalist A": "press",
    }
    profiles = build_profiles({1: list(table)}, table)
    assert profiles[0].counts.tolist() == [2, 2, 0, 0, 0, 0, 1, 0]
    verdict(9, "top-5 of 2x business, 2x politics, 1x press -> "
               "(2, 2, 0, 0, 0, 0, 1, 0)")


@pytest.fixture(scope="module")
def bundled_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    records = generate_corpus(n_articles=5200, n_persons=10500, seed=7)
    assert len(records) >= 5000
    persons = {p for r in records for p in r.persons}
    assert len(persons) >= 10_000
    path = root / "articles.jsonl"
    write_articles_jsonl(records, path)
    return path


def test_criterion_10_end_to_end_determinism(bundled_corpus, tmp_path):
    elapsed = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        cfg = PipelineConfig(
            input=str(bundled_corpus), seed=7, out_dir=str(out)
        )
        with Budget(60) as budget:
            run_pipeline(cfg)
        elapsed.append(budget.elapsed)

    m1 = (tmp_path / "run1" / "manifest.json").read_bytes()
    m2 = (tmp_path / "run2" / "manifest.json").read_bytes()
    assert m1 == m2

    summary = json.loads((tmp_path / "run1" / "summary.json").read_text())
    induced = json.loads((tmp_path / "run1" / "induced.json").read_text())
    total = (
        sum(e["weight"] for e in induced["edges"])
        + sum(c["intra_weight"] for c in induced["communities"])
        + induced["dropped_edges"]
    )
    assert total == summary["edges"]
    verdict(10, f"two runs in {elapsed[0]:.1f}s/{elapsed[1]:.1f}s (<60s), "
                f"byte-identical manifests, conservation {total} = m exact")


def test_criterion_11_full_scale_smoke():
    pairs = benchmark_graph(11118, 37544, seed=11)
    with Budget(120) as budget:
        g = build_graph(pairs)
        bundle = compute_bundle(g)
        p = louvain(g, seed=11)
        q = modularity(g, p)
    assert g.node_count == 11118
    assert g.edge_count == 37544
    assert bundle.betweenness.max() > 0
    assert -0.5 <= q <= 1.0
    verdict(11, f"centralities + Louvain at 11118/37544 scale in "
                f"{budget.elapsed:.1f}s (<120s), Q={q:.3f}")
