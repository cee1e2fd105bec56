import itertools
import json
import tracemalloc
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import article_groups as groups, named_edges
from comention import (
    DataError,
    build_graph,
    clique_graph,
    ingest_stats,
    load_aliases,
    load_articles,
    normalize_name,
    parse_articles,
)
from comention.graph import csr_graph, density
from comention.ingest import read_edge_pairs, read_name_pairs
from comention.typology import load_affiliations


def line(*persons, id="a1", **fields):
    return json.dumps({"id": id, "persons": list(persons), **fields})


def pairs_of(groups):
    """Every co-mention pair, one clique per group, in group order."""
    return [pair for g in groups for pair in itertools.combinations(g, 2)]


def parsed_graph(lines):
    """The parsed corpus of ``lines`` and the graph the pipeline builds from it."""
    articles = parse_articles(lines)
    return articles, clique_graph(articles.names, articles.keys, articles.sizes)


def columns(articles):
    """Every field of a parsed corpus, comparable with ``==``."""
    return (articles.names, articles.keys.dtype, articles.keys.tolist(),
            articles.sizes.dtype, articles.sizes.tolist(), articles.dates)


class TestNormalizeName:
    def test_whitespace_collapse(self):
        assert normalize_name("  Ivanov   I. ") == "Ivanov I."

    def test_unicode_composition(self):
        decomposed = "Séguin"
        assert normalize_name(decomposed) == "Séguin"

    def test_inner_newlines_and_tabs(self):
        assert normalize_name("A\tB\nC") == "A B C"


class TestParseArticles:
    def test_two_person_record(self):
        lines = ['{"id":"a1","persons":["Meshalkin V.","Patrushev Jr."]}']
        articles = parse_articles(lines)
        assert len(articles) == 1
        assert articles.names == ("Meshalkin V.", "Patrushev Jr.")
        assert articles.keys.tolist() == [0, 1] and articles.sizes.tolist() == [2]

    def test_person_dedup(self):
        articles = parse_articles(['{"id":"a1","persons":["A","A"]}'])
        assert groups(articles) == [("A",)]

    def test_whitespace_trim_and_empty_drop(self):
        articles = parse_articles(['{"id":"a1","persons":["  A ","","B"]}'])
        assert groups(articles) == [("A", "B")]
        assert articles.names == ("A", "B")

    def test_round_trip_thousand_records(self):
        lines = [
            json.dumps({"id": f"a{i}", "persons": [f"p{i}", f"p{i + 1}"]})
            for i in range(1000)
        ]
        assert len(parse_articles(lines)) == 1000

    def test_malformed_json_carries_line_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse_articles(['{"id":"a1","persons":["A","B"]}', "{oops"])

    def test_non_object_line_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            parse_articles(['[1,2]'])

    def test_missing_id_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            parse_articles(['{"persons":["A"]}'])

    def test_missing_persons_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            parse_articles(['{"id":"a1"}'])

    def test_bad_date_rejected(self):
        line = '{"id":"a1","date":"2020-13-45","persons":["A","B"]}'
        with pytest.raises(DataError, match="line 1"):
            parse_articles([line])

    def test_good_date_kept(self):
        line = '{"id":"a1","date":"2019-05-04","persons":["A","B"]}'
        assert parse_articles([line]).dates == {"2019-05-04"}

    def test_zero_person_record_skipped_with_warning(self, caplog):
        lines = ['{"id":"a1","date":"1990-01-01","persons":[]}',
                 '{"id":"a2","persons":["A","B"]}', '{"id":"a3","persons":[" ", ""]}']
        with caplog.at_level("WARNING", logger="comention.ingest"):
            articles = parse_articles(lines)
        assert groups(articles) == [("A", "B")]
        assert articles.dates == frozenset()
        assert [r.getMessage() for r in caplog.records] == [
            "line 1: record 'a1' mentions no usable person, skipping",
            "line 3: record 'a3' mentions no usable person, skipping"]

    def test_blank_lines_ignored(self):
        lines = ["", '{"id":"a1","persons":["A","B"]}', "   "]
        assert len(parse_articles(lines)) == 1

    @pytest.mark.parametrize("entry", [["B"], {"name": "B"}, 7, None])
    def test_non_string_person_carries_line_number(self, entry):
        bad = json.dumps({"id": "a2", "persons": ["A", entry]})
        with pytest.raises(DataError, match="line 3: person entries must be strings"):
            parse_articles(['{"id":"a1","persons":["A","B"]}', "", bad])

    def test_large_article_keeps_first_mention_order(self):
        """20,000 mentions of 10,000 persons in one article, each person once as
        written and once as a whitespace or NFD variant."""
        rng = np.random.default_rng(5)
        canonical = [f"Pé {i:05d}" for i in range(10_000)]
        variants = [f"  Pé\t {i:05d} " if i % 2 else unicodedata.normalize("NFD", name)
                    for i, name in enumerate(canonical)]
        order = rng.permutation(20_000).tolist()
        mentions = [canonical[k] if k < 10_000 else variants[k - 10_000] for k in order]
        want = list(dict.fromkeys(canonical[k % 10_000] for k in order))
        (rec,) = groups(parse_articles([json.dumps({"id": "big", "persons": mentions})]))
        assert list(rec) == want

        aliases = {name: canonical[i - 1] for i, name in enumerate(canonical) if i % 3 == 1}
        folded = parse_articles([json.dumps({"id": "big", "persons": mentions})], aliases)
        assert list(folded.names) == list(dict.fromkeys(aliases.get(n, n) for n in want))
        assert folded.keys.tolist() == list(range(10_000 - len(aliases)))

    def test_load_articles_error_includes_path(self, tmp_path):
        bad = tmp_path / "articles.jsonl"
        bad.write_text("{nope\n")
        with pytest.raises(DataError, match="articles.jsonl"):
            load_articles(bad)

    @pytest.mark.parametrize("when", [[1], {}, 20200101])
    def test_non_string_date_carries_line_number(self, when):
        bad = json.dumps({"id": "a2", "date": when, "persons": ["A", "B"]})
        with pytest.raises(DataError, match="line 2: 'date' must look like YYYY-MM-DD"):
            parse_articles(['{"id":"a1","date":"2020-01-01","persons":["A","B"]}', bad])

    def test_repeated_bad_date_fails_on_its_first_line(self):
        lines = [json.dumps({"id": f"a{i}", "date": when, "persons": ["A", "B"]})
                 for i, when in enumerate(["2020-01-01", "2020-01-01", "2020-02-30",
                                           "2020-02-30"])]
        with pytest.raises(DataError, match="line 3: 'date' is not a real calendar date"):
            parse_articles(lines)
        assert parse_articles(lines[:2]).dates == {"2020-01-01"}

    @pytest.mark.parametrize("payload", [
        '\ufeff{"id":"a1","persons":["A","B"]}\n',
        '{"id":"a1","persons":["A","B"]} {"id":"a2"}\n',
        '{"id":"a1","persons":["A","B"]\n',
        '{"id":"a1","persons":["A","B"]},\n',
        "nul\n",
    ], ids=["bom", "extra-data", "unclosed", "trailing-comma", "bad-literal"])
    def test_invalid_json_message_is_json_loads_own(self, payload):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(payload)
        with pytest.raises(DataError) as got:
            parse_articles([payload])
        assert str(got.value) == f"line 1: invalid JSON: {want.value.msg}"

    @pytest.mark.parametrize("payload", [
        ' {"id":"a1","persons":["A","B"]}\n',
        '{"id":"a1","persons":["A","B"]} \t\r\n',
        '{"id":"a1","persons":["A","B"]}',
    ], ids=["leading-space", "trailing-space", "no-newline"])
    def test_surrounding_whitespace_parses_as_json_loads_does(self, payload):
        assert groups(parse_articles([payload])) == [("A", "B")]


class TestForbiddenCharacters:
    """A name that XML 1.0 cannot carry fails where it is first normalized."""

    FORBIDDEN = ["\x00", "\x01", "\x08", "\x0e", "\x1b", "\ufffe", "\uffff"]

    @pytest.mark.parametrize("char", FORBIDDEN)
    def test_article_name_rejected_with_line(self, char):
        bad = line("A", f"B{char}x", id="a2")
        with pytest.raises(DataError, match="line 2: person name .* which XML 1.0 forbids"):
            parse_articles([line("A", "B"), bad])

    def test_load_articles_names_the_file(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text(line("A\u0001x", "B") + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"articles\.jsonl: line 1: person name 'A\\x01x' "
                                            r"holds '\\x01'"):
            load_articles(path)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1f"])
    def test_whitespace_controls_are_normalized_away(self, char):
        assert groups(parse_articles([line(f"A{char}x", "B")])) == [("A x", "B")]

    @pytest.mark.parametrize("char", ["\x7f", "\x80", "\ufffd"])
    def test_characters_xml_allows_are_kept(self, tmp_path, char):
        assert groups(parse_articles([line(f"A{char}x", "B")])) == [(f"A{char}x", "B")]
        f = tmp_path / "edges.csv"
        f.write_text(f"source,target\nA{char}x,B\n", encoding="utf-8")
        assert read_edge_pairs(f) == [(f"A{char}x", "B")]


class TestAliases:
    """Aliases fold inside the parser, onto normalized names."""

    def test_example_substitution(self):
        articles = parse_articles([line("Slyunyaev I.", "Someone Else")],
                                  {"Slyunyaev I.": "Albin I."})
        assert groups(articles) == [("Albin I.", "Someone Else")]

    def test_empty_map_identity(self):
        lines = [line("A", "B"), line(" B ", "C", id="a2")]
        assert columns(parse_articles(lines, {})) == columns(parse_articles(lines))

    def test_substitution_can_merge_persons(self):
        articles = parse_articles([line("A", "B"), line("B", " A ", "C", id="a2")], {"B": "A"})
        assert groups(articles) == [("A",), ("A", "C")]
        assert articles.names == ("A", "C")
        assert articles.keys.tolist() == [0, 0, 1]

    def test_idempotent_on_random_maps(self):
        rng = np.random.default_rng(43)
        names = [f"n{i}" for i in range(30)]
        for _ in range(20):
            canon = [n for n in names if rng.random() < 0.5] or [names[0]]
            alias_keys = [n for n in names if n not in canon]
            aliases = {
                a: canon[rng.integers(len(canon))] for a in alias_keys
            }
            lines = [
                line(*rng.choice(names, size=4, replace=False).tolist(), id=f"r{j}")
                for j in range(10)
            ]
            once = parse_articles(lines, aliases)
            again = [line(*g, id=f"r{j}") for j, g in enumerate(groups(once))]
            assert columns(parse_articles(again, aliases)) == columns(once)
            assert not set(once.names) & set(aliases)

    def test_load_aliases(self, tmp_path):
        f = tmp_path / "aliases.csv"
        f.write_text("alias,canonical\nSlyunyaev I.,Albin I.\n")
        assert load_aliases(f) == {"Slyunyaev I.": "Albin I."}

    def test_self_mapping_dropped_with_warning(self, tmp_path, caplog):
        f = tmp_path / "aliases.csv"
        f.write_text("alias,canonical\nA,A\n")
        with caplog.at_level("WARNING", logger="comention.ingest"):
            assert load_aliases(f) == {}
        assert caplog.records

    def test_conflicting_duplicate_rejected(self, tmp_path):
        f = tmp_path / "aliases.csv"
        f.write_text("alias,canonical\nA,B\nA,C\n")
        with pytest.raises(DataError):
            load_aliases(f)

    def test_chained_alias_rejected(self, tmp_path):
        f = tmp_path / "aliases.csv"
        f.write_text("alias,canonical\nA,B\nB,C\n")
        with pytest.raises(DataError):
            load_aliases(f)


class TestReadNamePairs:
    """One reader behind the edge, alias and affiliation CSVs."""

    LOADERS = [(read_edge_pairs, "source,target"), (load_aliases, "alias,canonical"),
               (load_affiliations, "name,category")]

    def test_rows_normalized_blank_rows_skipped(self, tmp_path):
        f = tmp_path / "pairs.csv"
        f.write_text("Alias , CANONICAL\n\n  Ivanov   I. ,Petrov P.,extra\nB,C\n")
        assert list(read_name_pairs(f, ("alias", "canonical"))) == [
            (3, "Ivanov I.", "Petrov P."), (4, "B", "C")]

    @pytest.mark.parametrize("loader,header", LOADERS)
    @pytest.mark.parametrize("body,message", [
        (None, "expected header"),
        ("A\n", "line 2: expected 2 columns, got 1"),
        ("\nA, \n", "line 3: blank "),
    ])
    def test_same_errors_for_every_table(self, tmp_path, loader, header, body, message):
        f = tmp_path / "pairs.csv"
        f.write_text("wrong,header\nA,B\n" if body is None else f"{header}\n{body}")
        with pytest.raises(DataError, match=message):
            loader(f)

    @pytest.mark.parametrize("loader,header", LOADERS)
    @pytest.mark.parametrize("row", ["A\x01x,press", "B,press\ufffe"])
    def test_name_xml_forbids_rejected_with_line(self, tmp_path, loader, header, row):
        f = tmp_path / "pairs.csv"
        f.write_text(f"{header}\nC,press\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"pairs\.csv: line 3: name .* which XML 1\.0 forbids"):
            loader(f)

    @pytest.mark.parametrize("loader,header", LOADERS)
    def test_byte_order_mark_named(self, tmp_path, loader, header):
        f = tmp_path / "pairs.csv"
        f.write_text(f"{header}\nA,press\n", encoding="utf-8-sig")
        with pytest.raises(DataError, match=r"pairs\.csv: line 1: unexpected UTF-8 "
                                            r"byte-order mark \(BOM\)"):
            loader(f)


class TestCliqueExpand:
    """The keyed builder expands each group into the clique over its keys."""

    def test_three_person_record(self):
        _, g = parsed_graph([line("A", "B", "C")])
        assert named_edges(g) == [("A", "B"), ("A", "C"), ("B", "C")]

    def test_singleton_record_yields_nothing(self):
        articles, g = parsed_graph([line("A"), line("B", "C", id="a2"), line(" ", id="a3")])
        assert articles.names == ("A", "B", "C") and len(articles) == 2
        assert g.names == ("B", "C") and g.edge_count == 1
        assert build_graph([("A",), ("B", "C"), ()]).names == ("B", "C")

    def test_pair_count_formula(self):
        for k in range(2, 51):
            _, g = parsed_graph([line(*(f"p{i}" for i in range(k)))])
            assert g.edge_count == k * (k - 1) // 2

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(47)
        names = [f"n{i}" for i in range(40)]
        lines = [line(*rng.choice(names, size=rng.integers(1, 8), replace=False).tolist(),
                      id=f"r{j}")
                 for j in range(50)]
        articles, got = parsed_graph(lines)
        want = []
        for ps in groups(articles):
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    want.append((ps[i], ps[j]))
        oracle = build_graph(want)
        assert got.names == oracle.names
        assert np.array_equal(got.indptr, oracle.indptr)
        assert np.array_equal(got.adjacency, oracle.adjacency)

    def test_graph_nodes_are_co_mentioned_persons(self):
        _, g = parsed_graph([line("A", "B"), line("Alone", id="a2")])
        assert set(g.names) == {"A", "B"}

    def test_node_order_is_first_appearance_among_pairs(self):
        """Keys count every kept mention; node ids only those in a pair."""
        articles, g = parsed_graph([line("Solo"), line("B", "Solo", id="a2"),
                                    line("C", "B", id="a3")])
        assert articles.names == ("Solo", "B", "C")
        assert g.names == ("B", "Solo", "C")

    def test_transient_memory_under_three_packed_pair_arrays(self):
        """Both directions of a pair slot pack into 16 bytes; everything the
        build allocates at once stays under three times that per slot."""
        rng = np.random.default_rng(1919)
        sizes = rng.integers(2, 7, size=20_000)
        keys = rng.integers(0, 2_000, size=int(sizes.sum()))
        names = tuple(f"p{i}" for i in range(2_000))
        slots = int((sizes * (sizes - 1) // 2).sum())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            clique_graph(names, keys, sizes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * slots, f"{peak / (16 * slots):.2f} packed pair arrays"


class TestIngestStats:
    def test_single_pair(self):
        articles, g = parsed_graph([line("A", "B")])
        stats = ingest_stats(articles, g)
        assert stats["persons_distinct"] == 2
        assert stats["edges"] == 1
        assert stats["articles"] == 1

    def test_collapsed_duplicates_match_set_oracle(self):
        articles, g = parsed_graph([line("A", "B", "C"), line("A", "B", id="a2")])
        stats = ingest_stats(articles, g)
        emitted = pairs_of(groups(articles))
        distinct = {frozenset(p) for p in emitted}
        assert stats["pair_slots"] == len(emitted) == 4
        assert stats["unique_pairs"] == len(distinct) == 3
        assert stats["pair_slots"] - stats["unique_pairs"] == 1

    def test_duplicate_heavy_corpus(self):
        rng = np.random.default_rng(53)
        names = [f"n{i}" for i in range(12)]
        lines = [line(*rng.choice(names, size=rng.integers(2, 6), replace=False).tolist(),
                      id=f"r{j}")
                 for j in range(60)]
        articles, g = parsed_graph(lines)
        stats = ingest_stats(articles, g)
        emitted = pairs_of(groups(articles))
        assert stats["pair_slots"] == len(emitted)
        assert stats["unique_pairs"] == len({frozenset(p) for p in emitted})
        assert stats["edges"] == g.edge_count == stats["unique_pairs"]

    def test_date_range(self):
        articles, g = parsed_graph([
            line("A", "B", date="2015-03-01"),
            line("C", "D", id="a2", date="2013-01-09"),
            line("E", "F", id="a3"),
            line(" ", id="a4", date="1990-01-01"),  # skipped: no usable person
        ])
        stats = ingest_stats(articles, g)
        assert stats["date_min"] == "2013-01-09"
        assert stats["date_max"] == "2015-03-01"

    def test_single_person_records_count_as_persons(self):
        articles, g = parsed_graph([line("A", "B"), line("Solo", id="a2")])
        stats = ingest_stats(articles, g)
        assert (stats["articles"], stats["persons_distinct"], stats["nodes"]) == (2, 3, 2)
        assert stats["pair_slots"] == 1

    def test_density_echoes_graph(self):
        articles, _ = parsed_graph([line("A", "B")])
        assert ingest_stats(articles, build_graph([("A", "B")]))["density"] == 1.0


def reference_parse(lines, aliases):
    """Each kept record's (persons, date), parsed one record at a time as
    before the columns: names normalized, folded, deduplicated first mention
    first, blanks dropped, and a record left without persons skipped."""
    records = []
    for text in lines:
        if text.strip():
            obj = json.loads(text)
            persons = dict.fromkeys(aliases.get(name, name)
                                    for name in map(normalize_name, obj["persons"]))
            persons.pop("", None)
            if persons:
                records.append((tuple(persons), obj.get("date")))
    return records


def reference_stats(records, g):
    """``ingest_stats`` as a loop over (persons, date) records."""
    persons: set[str] = set()
    pair_slots = 0
    dates: list[str] = []
    for names, when in records:
        persons.update(names)
        pair_slots += len(names) * (len(names) - 1) // 2
        if when:
            dates.append(when)
    return {"articles": len(records), "persons_distinct": len(persons),
            "pair_slots": pair_slots, "unique_pairs": g.edge_count, "nodes": g.node_count,
            "edges": g.edge_count, "density": density(g.node_count, g.edge_count),
            "date_min": min(dates) if dates else None,
            "date_max": max(dates) if dates else None}


def reference_build_graph(pairs):
    """``build_graph`` as a loop interning one pair at a time."""
    index = {}
    intern = index.setdefault
    ids = []
    for a, b in pairs:
        if not isinstance(a, str) or not isinstance(b, str) or not a or not b:
            raise DataError(f"edge endpoint must be a non-empty string, got ({a!r}, {b!r})")
        if a == b:
            continue
        ids += (intern(a, len(index)), intern(b, len(index)))
    if not ids:
        raise DataError("no usable edges after dropping self-pairs and duplicates")
    return csr_graph(tuple(index), np.array(ids, dtype=np.int64), np.full(len(ids) // 2, 2))


def built(build, source):
    """``build(source)`` as (names, indptr, adjacency), or the DataError text."""
    try:
        g = build(source)
    except DataError as exc:
        return str(exc)
    return g.names, g.indptr.dtype, g.indptr.tolist(), g.adjacency.dtype, g.adjacency.tolist()


BASE_NAMES = ["Ann", "Bob", "Cy", "Dee", "Eve", "Séguin", "Йона", "株式"]
# raw spellings of each name: as is, padded, tab-separated, decomposed
SPELLINGS = [s for n in BASE_NAMES
             for s in (n, f" {n} ", f"{n}\t", unicodedata.normalize("NFD", n))] + ["", "  "]


@st.composite
def corpora(draw):
    """(JSONL lines, alias map): 1-12 articles of 1-5 raw mentions, with
    repeats, single-person articles and articles of blank names only (which
    are skipped, dates and all), and an idempotent alias map, which can merge
    two mentions of one article."""
    lines = []
    for i in range(draw(st.integers(1, 12))):
        mentions = draw(st.one_of(
            st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=5),
            st.lists(st.sampled_from(["", "  ", "\t"]), min_size=1, max_size=2)))
        when = draw(st.sampled_from([None, "1990-01-01", "2019-05-04", "2020-02-29"]))
        lines.append(json.dumps({"id": f"a{i}", "persons": mentions, "date": when}))
    canonical = draw(st.lists(st.sampled_from(BASE_NAMES + ["Zed"]), min_size=1, unique=True))
    rest = [n for n in BASE_NAMES if n not in canonical]
    aliased = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    aliases = {a: draw(st.sampled_from(canonical)) for a in aliased}
    return lines, aliases


def keyed_graph(articles):
    return clique_graph(articles.names, articles.keys, articles.sizes)


class TestFoldAndCliqueEquivalence:
    """The columnar parse, the keyed builder and ``ingest_stats`` against a
    record-by-record parse, the pairwise interning loop and a loop over the
    records; and ``build_graph`` over string groups against the same loop."""

    @settings(max_examples=300, deadline=None)
    @given(corpus=corpora())
    def test_articles(self, corpus):
        lines, aliases = corpus
        articles = parse_articles(lines, aliases)
        records = reference_parse(lines, aliases)
        persons = [names for names, _ in records]
        assert articles.names == tuple(dict.fromkeys(itertools.chain.from_iterable(persons)))
        assert groups(articles) == persons
        assert articles.dates == {when for _, when in records if when is not None}
        assert len(articles) == len(records)
        got = built(keyed_graph, articles)
        assert got == built(reference_build_graph, pairs_of(persons))
        if not isinstance(got, str):
            assert (ingest_stats(articles, keyed_graph(articles))
                    == reference_stats(records, reference_build_graph(pairs_of(persons))))

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from(BASE_NAMES + [""]),
                                    st.sampled_from(BASE_NAMES)), max_size=30))
    def test_edge_lists(self, pairs):
        assert built(build_graph, iter(pairs)) == built(reference_build_graph, pairs)

    @settings(max_examples=300, deadline=None)
    @given(name_groups=st.lists(st.lists(st.sampled_from(BASE_NAMES[:5]), min_size=1,
                                         max_size=6), max_size=12))
    @example(name_groups=[["Ann", "Ann"], ["Bob"], ["Cy", "Cy", "Cy"]])
    @example(name_groups=[["Ann", "Ann"], ["Bob"], ["Cy", "Dee"]])
    def test_groups_with_repeated_names(self, name_groups):
        """A group that repeats a name puts self-pairs inside its clique."""
        assert (built(build_graph, iter(name_groups))
                == built(reference_build_graph, pairs_of(name_groups)))
