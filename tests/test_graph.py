import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    build_graph_oracle,
    components_oracle,
    diameter_oracle,
    floyd_warshall,
    graph_from,
    id_pairs,
    INF,
    named_edges,
    random_pairs,
)
from comention import (
    DataError,
    build_graph,
    connected_components,
    degree_histogram,
    density,
    diameter,
    normalize_name,
    write_edge_csv,
)
from comention._sweep import sweep
from comention.graph import read_edge_pairs


def star(k=5):
    return build_graph([("hub", f"leaf{i}") for i in range(k)])


def path(names):
    return build_graph(list(zip(names, names[1:])))


def row(g, v):
    """Node ``v``'s CSR row: its neighbours."""
    return g.adjacency[g.indptr[v]:g.indptr[v + 1]]


class TestBuildGraph:
    def test_dedup_and_self_loop_drop(self):
        g = build_graph([("A", "B"), ("B", "A"), ("A", "A")])
        assert g.node_count == 2
        assert g.edge_count == 1
        assert named_edges(g) == [("A", "B")]

    def test_triangle(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")])
        assert (g.node_count, g.edge_count) == (3, 3)

    def test_first_seen_interning(self):
        g = build_graph([("B", "A"), ("C", "A")])
        assert g.names == ("B", "A", "C")

    def test_empty_edge_list_rejected(self):
        with pytest.raises(DataError):
            build_graph([])

    def test_all_self_pairs_rejected(self):
        with pytest.raises(DataError):
            build_graph([("A", "A")])

    def test_empty_name_rejected(self):
        with pytest.raises(DataError):
            build_graph([("A", "")])

    def test_random_pairs_against_set_oracle(self):
        rng = np.random.default_rng(101)
        names = [f"p{i}" for i in range(100)]
        pairs = [
            (names[rng.integers(100)], names[rng.integers(100)])
            for _ in range(500)
        ]
        expect = {frozenset(p) for p in pairs if p[0] != p[1]}
        g = build_graph(pairs)
        assert g.node_count <= 100
        assert g.edge_count == len(expect)
        assert {frozenset(e) for e in named_edges(g)} == expect

    def test_symmetry_and_handshake(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = graph_from(random_pairs(rng))
            for v in range(g.node_count):
                for u in row(g, v).tolist():
                    assert v in row(g, u)
            assert int(g.degrees.sum()) == 2 * g.edge_count

    def test_neighbors_sorted(self):
        g = build_graph([("C", "A"), ("C", "B"), ("C", "D")])
        nbrs = row(g, 0)
        assert (np.sort(nbrs) == nbrs).all()


@st.composite
def pair_streams(draw):
    """A named pair stream holding at least one of each: a pair repeated
    reversed, a self-pair of a name before that name's first real pair, and a
    name met only in self-pairs."""
    names = [f"v{i}" for i in range(draw(st.integers(2, 8)))]
    real = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1])
    stream = draw(st.lists(real, min_size=1, max_size=30))
    for a, b in draw(st.lists(st.sampled_from(stream), min_size=1, max_size=10)):
        stream.insert(draw(st.integers(0, len(stream))), (b, a))
    used = sorted({name for pair in stream for name in pair})
    for name in draw(st.lists(st.sampled_from(used), min_size=1, max_size=4)):
        first = next(i for i, pair in enumerate(stream) if name in pair and pair[0] != pair[1])
        stream.insert(draw(st.integers(0, first)), (name, name))
    for i in range(draw(st.integers(1, 3))):
        stream.insert(draw(st.integers(0, len(stream))), (f"solo{i}", f"solo{i}"))
    return stream


class TestBuildGraphOracle:
    """``build_graph`` against the set-based dedupe in conftest, array for array."""

    @settings(max_examples=200, deadline=None)
    @given(stream=pair_streams())
    def test_matches_set_oracle(self, stream):
        names, indptr, adjacency = build_graph_oracle(stream)
        g = build_graph(iter(stream))
        assert g.names == names
        assert not any(name.startswith("solo") for name in g.names)
        assert g.indptr.dtype == indptr.dtype and np.array_equal(g.indptr, indptr)
        assert g.adjacency.dtype == adjacency.dtype and np.array_equal(g.adjacency, adjacency)

    @pytest.mark.parametrize("stream", [
        [("A", "B"), ("", "C")],
        [("A", "B"), ("C", "")],
        [("A", "B"), (None, "C")],
        [("A", "B"), ("C", 7)],
        [("A", "B"), ("C", ["D"])],
        [("A", "A"), ("B", "B")],
        [],
    ], ids=["blank-first", "blank-second", "none", "int", "list", "all-self-pairs", "empty"])
    def test_rejects_like_oracle(self, stream):
        with pytest.raises(DataError) as want:
            build_graph_oracle(stream)
        with pytest.raises(DataError) as got:
            build_graph(stream)
        assert str(got.value) == str(want.value)


class TestDensity:
    def test_large_sparse_counts(self):
        assert density(11118, 37544) == pytest.approx(0.0006075, abs=1e-7)

    def test_triangle_complete(self):
        assert density(3, 3) == 1.0

    def test_ten_nodes_fifteen_edges(self):
        assert density(10, 15) == pytest.approx(15 / 45, abs=1e-15)

    def test_small_n_rejected(self):
        with pytest.raises(DataError):
            density(1, 0)

    def test_bounds_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = graph_from(random_pairs(rng))
            d = density(g.node_count, g.edge_count)
            assert 0 < d <= 1


class TestDegree:
    def test_triangle_all_two(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")])
        assert g.degrees.tolist() == [2, 2, 2]

    def test_star_center_and_leaf(self):
        g = star(5)
        assert g.degrees[g.names.index("hub")] == 5
        assert g.degrees[g.names.index("leaf0")] == 1

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = graph_from(random_pairs(rng))
            assert int(g.degrees.sum()) == 2 * g.edge_count


class TestDegreeHistogram:
    def test_star(self):
        assert degree_histogram(star(5)) == {1: 5, 5: 1}

    def test_path_three(self):
        assert degree_histogram(path(["A", "B", "C"])) == {1: 2, 2: 1}

    def test_large_fixture_counts(self):
        # 1050 disjoint edges give 2100 degree-1 nodes; one 2051-cycle
        # gives 2051 degree-2 nodes.
        pairs = [(f"e{i}a", f"e{i}b") for i in range(1050)]
        pairs += [(f"c{i}", f"c{(i + 1) % 2051}") for i in range(2051)]
        hist = degree_histogram(build_graph(pairs))
        assert hist == {1: 2100, 2: 2051}

    def test_histogram_totals(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            g = graph_from(random_pairs(rng))
            hist = degree_histogram(g)
            assert sum(hist.values()) == g.node_count
            assert set(hist) == set(np.unique(g.degrees).tolist())


class TestConnectedComponents:
    def test_triangle_single(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A")])
        assert connected_components(g).count == 1

    def test_two_disjoint_edges(self):
        comps = connected_components(build_graph([("A", "B"), ("C", "D")]))
        assert comps.count == 2
        assert sorted(comps.sizes) == [2, 2]

    def test_largest_component_is_label_zero(self):
        g = build_graph([("A", "B"), ("B", "C"), ("X", "Y")])
        comps = connected_components(g)
        assert comps.sizes[0] == 3
        assert sorted(comps.members(0).tolist()) == [0, 1, 2]

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = graph_from(random_pairs(rng, n_max=10))
            got = connected_components(g)
            want = components_oracle(g.node_count, id_pairs(g))
            assert got.count == len(want)
            grouped = {
                frozenset(got.members(c).tolist()) for c in range(got.count)
            }
            assert grouped == {frozenset(c) for c in want}


class TestDiameter:
    def test_path_five(self):
        assert diameter(path(list("ABCDE"))) == 4

    def test_complete_four(self):
        names = list("ABCD")
        g = build_graph(
            [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        )
        assert diameter(g) == 1

    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            g = graph_from(random_pairs(rng, n_max=12))
            assert diameter(g) == diameter_oracle(g.node_count, id_pairs(g))

    def test_disconnected_warns_and_uses_largest_component(self, caplog):
        g = build_graph([("A", "B"), ("B", "C"), ("X", "Y")])
        with caplog.at_level("WARNING", logger="comention.graph"):
            assert diameter(g) == 2
        assert any("disconnected" in r.getMessage() for r in caplog.records)


class TestShortestPaths:
    """All-sources sweep aggregates of built graphs, in both sweep modes."""

    @staticmethod
    def both_modes(g):
        n = g.node_count
        return [sweep(g.indptr, g.adjacency, n, np.arange(n, dtype=np.int64),
                      betweenness=betweenness, threads=1) for betweenness in (False, True)]

    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            g = graph_from(random_pairs(rng, n_max=10))
            dist = floyd_warshall(g.node_count, id_pairs(g))
            for result in self.both_modes(g):
                for s in range(g.node_count):
                    finite = [d for d in dist[s] if d < INF]
                    assert result.eccentricity[s] == max(finite)
                    assert result.distance_sum[s] == sum(finite)
                    assert result.reachable[s] == len(finite)

    def test_triangle_inequality_sampled(self):
        # d(u, w) <= 1 + d(v, w) for every edge uv, so adjacent nodes reach
        # the same nodes and their aggregates differ by at most one hop per node
        rng = np.random.default_rng(37)
        g = graph_from(random_pairs(rng, n_max=9, p=0.6))
        for result, (u, v) in itertools.product(self.both_modes(g), id_pairs(g)):
            reach = result.reachable[u]
            assert result.reachable[v] == reach
            assert abs(result.eccentricity[u] - result.eccentricity[v]) <= 1
            assert abs(result.distance_sum[u] - result.distance_sum[v]) <= reach - 2


class TestEdgeCsv:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(41)
        for i in range(10):
            g = graph_from(random_pairs(rng))
            target = tmp_path / f"g{i}.csv"
            write_edge_csv(g, target)
            back = build_graph(read_edge_pairs(target))
            assert set(back.names) == set(g.names)
            assert {frozenset(e) for e in named_edges(back)} == {
                frozenset(e) for e in named_edges(g)
            }

    NAMES = ["Smith, J.", 'The "Boss"', "Łukasz Ж", "Ю, \"Q\"", "plain", "Żółć 株"]

    @staticmethod
    def csv_module_bytes(g):
        """The file as ``csv.writer(..., lineterminator="\\n")`` writes it row by row."""
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["source", "target"])
        for a, b in named_edges(g):
            writer.writerow([a, b])
        return buf.getvalue().encode("utf-8")

    def test_quoted_names_match_csv_module(self, tmp_path):
        names = self.NAMES
        g = build_graph([(a, b) for i, a in enumerate(names) for b in names[i + 1:]][::-1])
        target = tmp_path / "edges.csv"
        write_edge_csv(g, target)
        assert target.read_bytes() == self.csv_module_bytes(g)
        back = build_graph(read_edge_pairs(target))
        assert back.names == g.names
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.adjacency, g.adjacency)

    def test_newline_in_name_is_quoted(self, tmp_path):
        g = build_graph([("two\nlines", "B"), ("B", 'q"\r\n"'), ("C", "two\nlines")])
        target = tmp_path / "edges.csv"
        write_edge_csv(g, target)
        assert target.read_bytes() == self.csv_module_bytes(g)
        with open(target, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [list(e) for e in named_edges(g)]

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(st.text(",\"é Ж\nab", min_size=1, max_size=5),
                          min_size=2, max_size=8, unique=True),
           data=st.data())
    def test_random_names_match_csv_module(self, tmp_path_factory, names, data):
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                                   min_size=1, max_size=20))
        pairs.append((names[0], names[1]))
        g = build_graph(pairs)
        target = tmp_path_factory.mktemp("csv") / "edges.csv"
        write_edge_csv(g, target)
        assert target.read_bytes() == self.csv_module_bytes(g)
        if all(normalize_name(name) == name for name in g.names):
            back = build_graph(read_edge_pairs(target))
            assert set(back.names) == set(g.names)
            assert ({frozenset(e) for e in named_edges(back)}
                    == {frozenset(e) for e in named_edges(g)})

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("from,to\nA,B\n")
        with pytest.raises(DataError):
            read_edge_pairs(bad)

    def test_short_row_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("source,target\nA,B\nC\n")
        with pytest.raises(DataError, match="line 3"):
            read_edge_pairs(bad)
