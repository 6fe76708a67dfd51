"""Background index: df counting, fuzzy matching, TF-IDF, persistence."""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reviewgen.corpus as corpus_module
from reviewgen.background import (
    BackgroundIndex,
    PaperRef,
    build_index,
    load_index,
    match_element,
    restrict,
    save_index,
    tfidf,
)
from reviewgen.corpus import RelationType, corpus_paths, parse_paper
from reviewgen.errors import (
    CutoffMismatchError,
    FormatVersionError,
    ParseError,
)
from reviewgen.kg import TARGET_SCOPE, ElementKey, build_kg, elements

from synth import (
    assert_loads_as_oracle,
    build_random_corpus,
    build_random_paper,
    oracle_index_row,
    oracle_key_match,
    oracle_tfidf,
)


def tiny_paper(paper_id: str, year: int) -> "PaperRecord":
    """One paper with exactly 3 elements: two nodes and one edge."""
    doc = {
        "paper_id": paper_id,
        "title": "t",
        "year": year,
        "venue": "v",
        "citations": [],
        "sections": {"abstract": [["cnn", "for", "tagging", "."]]},
        "mentions": [
            {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 1],
             "type": "method"},
            {"id": 1, "section": "abstract", "sentence": 0, "span": [2, 3],
             "type": "task"},
        ],
        "clusters": [],
        "relations": [
            {"head_id": 0, "tail_id": 1, "type": "used_for",
             "section": "abstract", "sentence": 0}
        ],
    }
    return parse_paper(doc)


class TestBuildIndex:
    def test_cutoff_is_strict(self):
        index = build_index([tiny_paper("A", 2018)], 2018)
        assert index.n_papers == 0
        assert index.postings == {}
        assert index.year_counts == {}

    def test_single_pre_cutoff_paper(self):
        index = build_index([tiny_paper("A", 2016)], 2018)
        assert index.n_papers == 1
        assert len(index.postings) == 3
        assert all(len(refs) == 1 for refs in index.postings.values())
        assert index.year_counts == {2016: 1}

    def test_paper_with_no_elements_still_counted(self):
        doc = {
            "paper_id": "E0", "title": "t", "year": 2015, "venue": "v",
            "citations": [], "sections": {"abstract": [["nothing", "here", "."]]},
            "mentions": [], "clusters": [], "relations": [],
        }
        index = build_index([parse_paper(doc), tiny_paper("A", 2016)], 2018)
        assert index.n_papers == 2
        assert all(len(refs) == 1 for refs in index.postings.values())

    def test_duplicate_paper_ids_rejected(self):
        from reviewgen.errors import ValidationError

        with pytest.raises(ValidationError):
            build_index([tiny_paper("A", 2015), tiny_paper("A", 2016)], 2018)

    def test_toy_counts(self, corpus):
        index = build_index(corpus, 2018)
        assert index.n_papers == 11
        assert sum(index.year_counts.values()) == 11
        assert index.year_counts == {2012: 1, 2013: 2, 2014: 2, 2015: 2,
                                     2016: 2, 2017: 2}

    def test_all_posting_years_below_cutoff(self):
        rng = random.Random(31)
        corpus = build_random_corpus(rng, 12)
        index = build_index(corpus, 2014)
        for refs in index.postings.values():
            assert all(ref.year < 2014 for ref in refs)

    def test_df_matches_flat_rescan(self, corpus):
        """Oracle: count distinct papers per exact element key, no index."""
        index = build_index(corpus, 2017)
        recount: dict[ElementKey, set[str]] = {}
        for paper in corpus:
            if paper.year >= 2017:
                continue
            for key in set(elements(build_kg(paper, TARGET_SCOPE))):
                recount.setdefault(key, set()).add(paper.paper_id)
        assert {k: len(v) for k, v in recount.items()} == {
            k: len(refs) for k, refs in index.postings.items()
        }

    def test_input_order_does_not_matter(self, corpus):
        shuffled = list(corpus)
        random.Random(3).shuffle(shuffled)
        assert build_index(shuffled, 2018) == build_index(corpus, 2018)

    @pytest.mark.parametrize("cpus_used", [1, 2])
    def test_paths_graphed_by_workers_give_element_keys(
        self, toy_dir, index2018, monkeypatch, cpus, cpus_used
    ):
        # each paper's keys come back as plain tuples, which hash and compare
        # as ElementKeys do, so only their type shows a key left unconverted
        cpus(cpus_used)
        monkeypatch.setattr(corpus_module, "PARALLEL_MIN_PAPERS", 2)
        index = build_index(corpus_paths(toy_dir / "papers"), 2018)
        assert index.postings == index2018.postings
        assert all(type(key) is ElementKey for key in index.postings)


class TestRestrict:
    def test_equals_rebuild_at_earlier_cutoff(self, corpus, index2018):
        for year in range(2012, 2019):
            assert restrict(index2018, year) == build_index(corpus, year)

    def test_same_cutoff_is_identity(self, index2018):
        assert restrict(index2018, 2018) == index2018

    def test_widening_rejected(self, index2018):
        with pytest.raises(CutoffMismatchError):
            restrict(index2018, 2019)

    def test_random_corpora(self):
        rng = random.Random(41)
        for _ in range(10):
            papers = build_random_corpus(rng, rng.randint(0, 10))
            wide = build_index(papers, 2018)
            year = rng.randint(2010, 2018)
            index = restrict(wide, year)
            assert index == build_index(papers, year)
            assert all(index.postings.values())


# a three-token alphabet, so that repeated tokens and containment chains
# are common
SMALL_TEXT = st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(tuple)
SMALL_KEYS = st.one_of(
    SMALL_TEXT.map(ElementKey),
    st.builds(
        ElementKey,
        SMALL_TEXT,
        st.sampled_from([RelationType.USED_FOR, RelationType.COMPARE]),
        SMALL_TEXT,
    ),
)


@st.composite
def small_index_queries(draw) -> tuple[BackgroundIndex, list[ElementKey]]:
    """A small index, whose edge endpoints need not be node keys, and queries:
    drawn keys, and sub-spans and superstrings of indexed heads."""
    papers = [PaperRef(f"P{i}", 2010 + i % 3) for i in range(5)]
    refs = st.lists(st.sampled_from(papers), min_size=1, max_size=3, unique=True)
    refs = refs.map(sorted).map(tuple)
    postings = draw(st.dictionaries(SMALL_KEYS, refs, max_size=20))
    queries = draw(st.lists(SMALL_KEYS, max_size=6))
    for _ in range(draw(st.integers(0, 6)) if postings else 0):
        k = draw(st.sampled_from(sorted(postings, key=ElementKey.sort_key)))
        i = draw(st.integers(0, len(k.head) - 1))
        j = draw(st.integers(i + 1, len(k.head)))
        longer = draw(SMALL_TEXT) + k.head + draw(SMALL_TEXT)
        queries += [k._replace(head=k.head[i:j]), k._replace(head=longer)]
    return BackgroundIndex(2018, {2010: 2, 2011: 2, 2012: 1}, postings), queries


class TestMatchElement:
    def test_containment_query(self):
        index = build_index([tiny_paper("A", 2015)], 2018)
        # "cnn" is indexed; a longer query containing it matches
        refs = match_element(index, ElementKey(("deep", "cnn")))
        assert [ref.paper_id for ref in refs] == ["A"]

    def test_empty_index(self):
        index = build_index([], 2018)
        assert match_element(index, ElementKey(("anything",))) == ()

    def test_edge_requires_same_relation(self):
        from reviewgen.corpus import RelationType

        index = build_index([tiny_paper("A", 2015)], 2018)
        hit = match_element(
            index,
            ElementKey(("cnn",), RelationType.USED_FOR, ("tagging",)),
        )
        miss = match_element(
            index,
            ElementKey(("cnn",), RelationType.COMPARE, ("tagging",)),
        )
        assert len(hit) == 1 and miss == ()

    def test_matches_brute_force_scan(self):
        """Oracle: linear scan of every posting, no candidate index."""
        rng = random.Random(77)
        corpus = build_random_corpus(rng, 20)
        index = build_index(corpus, 2018)
        queries = []
        for _ in range(100):
            probe = build_random_paper(rng, paper_id="Q", max_mentions=6)
            queries.extend(elements(build_kg(probe, TARGET_SCOPE)))
        for query in queries[:100]:
            hits: dict[str, int] = {}
            for key, refs in index.postings.items():
                if oracle_key_match(query, key):
                    for ref in refs:
                        hits[ref.paper_id] = ref.year
            want = tuple(
                sorted(
                    (PaperRef(p, y) for p, y in hits.items()),
                    key=lambda r: (-r.year, r.paper_id),
                )
            )
            assert match_element(index, query) == want

    def test_long_tail_lookup_matches_oracle_scan(self):
        """Zipf-weighted tokens, heads with repeated tokens, queries longer
        and shorter than the indexed heads, nodes and edges."""
        from reviewgen.corpus import RelationType

        rng = random.Random(2020)
        vocab = [f"t{r}" for r in range(40)]
        weights = [1.0 / (r + 1) for r in range(40)]
        relations = [RelationType.USED_FOR, RelationType.COMPARE]

        def head(max_len):
            return tuple(rng.choices(vocab, weights, k=rng.randint(1, max_len)))

        def key(max_len):
            if rng.random() < 0.6:
                return ElementKey(head(max_len))
            return ElementKey(head(max_len), rng.choice(relations), head(3))

        papers = [PaperRef(f"P{i:03d}", 2000 + i % 15) for i in range(60)]
        keys = {key(4) for _ in range(600)}
        keys |= {
            ElementKey(h)
            for h in [("a",), ("b", "a"), ("a", "b", "a"), ("a", "b", "a", "b")]
        }
        index = BackgroundIndex(
            cutoff_year=2018,
            year_counts={year: 4 for year in range(2000, 2015)},
            postings={
                k: tuple(sorted(rng.sample(papers, rng.randint(1, 4))))
                for k in sorted(keys, key=ElementKey.sort_key)
            },
        )
        indexed = list(index.postings)
        queries = [key(7) for _ in range(300)]
        queries += [ElementKey(h) for h in [("a",), ("a", "b", "a"), ("b", "a", "b")]]
        # sub-spans and superstrings of indexed heads, so that most queries match
        for k in rng.sample(indexed, 100):
            i = rng.randrange(len(k.head))
            j = rng.randint(i + 1, len(k.head))
            span = k.head[i:j]
            longer = head(2) + k.head + head(2)
            for h in (span, longer):
                queries.append(ElementKey(h, k.relation, k.tail))
        matched = 0
        for query in queries:
            truth = [k for k in indexed if oracle_key_match(query, k)]
            candidates = index.candidate_keys(query)
            assert len(candidates) == len(set(candidates))
            assert set(candidates) == set(truth)
            hits = {ref.paper_id: ref.year for k in truth for ref in index.postings[k]}
            want = tuple(
                sorted(
                    (PaperRef(p, y) for p, y in hits.items()),
                    key=lambda r: (-r.year, r.paper_id),
                )
            )
            assert match_element(index, query) == want
            matched += bool(truth)
        assert matched > len(queries) // 3

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(small_index_queries())
    def test_small_alphabet_matches_oracle_scan(self, index_queries):
        index, queries = index_queries
        for query in queries:
            truth = [k for k in index.postings if oracle_key_match(query, k)]
            candidates = index.candidate_keys(query)
            assert len(candidates) == len(set(candidates))
            assert set(candidates) == set(truth)
            hits = {ref.paper_id: ref.year for k in truth for ref in index.postings[k]}
            want = sorted(
                (PaperRef(p, y) for p, y in hits.items()),
                key=lambda r: (-r.year, r.paper_id),
            )
            assert match_element(index, query) == tuple(want)

    def test_result_ordering(self, corpus, index2018, tmp_path):
        refs = match_element(
            index2018, ElementKey(("neural", "machine", "translation"))
        )
        assert [ref.paper_id for ref in refs] == ["P08", "P05", "P01"]
        years = [ref.year for ref in refs]
        assert years == sorted(years, reverse=True)
        # the refs returned are the index's own objects, never rebuilt ones
        save_index(index2018, tmp_path / "index.jsonl")
        for index in (index2018, load_index(tmp_path / "index.jsonl")):
            held = {id(ref) for refs in index.postings.values() for ref in refs}
            for key in index.postings:
                refs = match_element(index, key)
                assert refs and all(id(ref) in held for ref in refs)


class TestTfidf:
    def build_graph(self, counts: dict[str, int]):
        """A graph whose entities have exactly the given mention counts."""
        sentences, mentions, clusters = [], [], []
        for surface, count in counts.items():
            ids = []
            for _ in range(count):
                words = surface.split()
                sentences.append(words + ["."])
                mentions.append(
                    {"id": len(mentions), "section": "abstract",
                     "sentence": len(sentences) - 1,
                     "span": [0, len(words)], "type": "method"}
                )
                ids.append(mentions[-1]["id"])
            if len(ids) > 1:
                clusters.append(ids)
        doc = {
            "paper_id": "T1", "title": "t", "year": 2018, "venue": "v",
            "citations": [], "sections": {"abstract": sentences},
            "mentions": mentions, "clusters": clusters, "relations": [],
        }
        return build_kg(parse_paper(doc), TARGET_SCOPE)

    def index_with(self, n_papers: int, key: ElementKey, df: int) -> BackgroundIndex:
        refs = tuple(PaperRef(f"B{i}", 2000 + i) for i in range(df))
        postings = {key: refs} if df else {}
        return BackgroundIndex(
            cutoff_year=2018,
            year_counts={2000: n_papers},
            postings=postings,
        )

    def test_absent_most_mentioned_scores_one(self):
        kg = self.build_graph({"alpha beta": 3, "gamma delta": 1})
        index = self.index_with(10, ElementKey(("other",)), 0)
        assert tfidf(index, kg)[ElementKey(("alpha", "beta"))] == 1.0

    def test_df_equal_n_scores_zero(self):
        key = ElementKey(("alpha", "beta"))
        kg = self.build_graph({"alpha beta": 2})
        index = self.index_with(5, key, 5)
        assert tfidf(index, kg)[key] == 0.0

    def test_half_tf_unit_idf(self):
        key = ElementKey(("alpha", "beta"))
        kg = self.build_graph({"alpha beta": 1, "gamma delta": 2})
        index = self.index_with(4, key, 1)
        assert tfidf(index, kg)[key] == pytest.approx(0.5, abs=1e-15)

    def test_matches_scalar_oracle(self):
        rng = random.Random(99)
        key = ElementKey(("alpha", "beta"))
        for _ in range(200):
            n = rng.randint(1, 300)
            df = rng.randint(0, n)
            tf_count = rng.randint(1, 6)
            other = rng.randint(1, 6)
            kg = self.build_graph({"alpha beta": tf_count, "gamma delta": other})
            index = self.index_with(n, key, df)
            got = tfidf(index, kg)[key]
            want = oracle_tfidf(tf_count, max(tf_count, other), df, n)
            assert got == pytest.approx(want, abs=1e-12)

    def test_edge_count_is_min_of_endpoints(self, papers, index2018):
        from reviewgen.corpus import RelationType

        gp = build_kg(papers["P12"], TARGET_SCOPE)
        key = ElementKey(
            ("cross-lingual", "pivot", "loss"),
            RelationType.USED_FOR,
            ("dual", "decoder", "fusion"),
        )
        # endpoint counts are 2 and 3; max entity count in the graph is 3
        assert tfidf(index2018, gp)[key] == pytest.approx(2 / 3, abs=1e-12)


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        index = build_index([], 2018)
        path = tmp_path / "bg.json"
        save_index(index, path)
        assert load_index(path) == index

    def test_toy_round_trip_and_byte_stability(self, index2018, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_index(index2018, a)
        loaded = load_index(a)
        save_index(loaded, b)
        assert load_index(b) == index2018
        assert a.read_bytes() == b.read_bytes()
        # an edge key holds the very token tuples of its endpoints' node keys
        nodes = {key.head: key.head for key in loaded.postings if key.relation is None}
        edges = [key for key in loaded.postings if key.relation is not None]
        assert edges
        for key in edges:
            assert nodes[key.head] is key.head and nodes[key.tail] is key.tail

    def test_truncated_file_rejected(self, index2018, tmp_path):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-3]), encoding="utf-8")
        with pytest.raises((ParseError, FormatVersionError)):
            load_index(path)

    def test_corrupt_row_rejected(self, index2018, tmp_path):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        lines[3] = "not json\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError):
            load_index(path)

    @pytest.mark.parametrize("row", ['{"a": 1}', "3", "null"])
    def test_non_array_row_rejected(self, index2018, tmp_path, row):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = row + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="row must be an array"):
            load_index(path)

    @pytest.mark.parametrize(
        "row",
        [
            '["node", 5, [["P01", 2010]]]',
            '["edge", "a b", "used_for", null, [["P01", 2010]]]',
            '["node", "zzz unseen", [["P01", true]]]',
        ],
    )
    def test_malformed_row_fields_rejected(self, index2018, tmp_path, row):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = row + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="not a string|malformed posting"):
            load_index(path)

    @pytest.mark.parametrize("year", [2018, 2030])
    def test_posting_at_or_after_cutoff_rejected(self, index2018, tmp_path, year):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        row[-1][-1][1] = year
        lines[1] = json.dumps(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="not before cutoff 2018"):
            load_index(path)

    @pytest.mark.parametrize(
        "change",
        [
            {"year_counts": {"2016": "2"}},  # a string count
            {"year_counts": {"2016": 0}},
            {"year_counts": {"2018": 1}},  # a year at the cutoff
            {"n_papers": 111},  # 100 above sum(year_counts)
            {"n_papers": 10},
            {"num_keys": str},  # "47" once read "expected 47 ..., found 47"
            {"num_keys": float},
        ],
    )
    def test_bad_header_counts_rejected(self, index2018, tmp_path, change):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        for field, value in change.items():
            if field == "year_counts":
                header[field].update(value)
            elif field == "num_keys":
                header[field] = value(header[field])
            else:
                header[field] = value
        lines[0] = json.dumps(header) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="year count|n_papers|num_keys"):
            load_index(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cutoff_year", 2017.9),
            ("cutoff_year", "2018"),
            ("cutoff_year", True),
            ("n_papers", 10.5),
            ("n_papers", "11"),
            ("year_counts", "20_12"),
            ("year_counts", " 2012"),
            ("year_counts", "02012"),
            ("year_counts", "+2012"),
        ],
    )
    def test_header_integers_must_be_exact(self, index2018, tmp_path, field, value):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        if field == "year_counts":  # rename the 2012 key
            counts = header[field]
            header[field] = {value if y == "2012" else y: c for y, c in counts.items()}
        else:
            header[field] = value
        lines[0] = json.dumps(header) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="must be an integer|not a plain integer"):
            load_index(path)

    @staticmethod
    def rewrite_postings(index, path, edit) -> None:
        """Save ``index`` to ``path`` with ``edit(row_number, refs)`` applied
        to the postings of every key line."""
        save_index(index, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        for number, row in enumerate(rows):
            edit(number, row[-1])
        lines[1:] = [json.dumps(row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_paper_with_two_years_rejected(self, index2018, tmp_path):
        # P04 (2014) is in several rows; date it 2013 in the first one only
        def edit(number, refs):
            for ref in refs:
                if number == 0 and ref[0] == "P04":
                    ref[1] = 2013

        path = tmp_path / "bg.json"
        self.rewrite_postings(index2018, path, edit)
        with pytest.raises(ParseError, match="'P04' is dated 2014 here and 2013 elsewhere"):
            load_index(path)

    def test_posting_year_without_count_rejected(self, index2018, tmp_path):
        # every posting of P04 moves to 1999, which year_counts lacks
        def edit(number, refs):
            for ref in refs:
                if ref[0] == "P04":
                    ref[1] = 1999

        path = tmp_path / "bg.json"
        self.rewrite_postings(index2018, path, edit)
        with pytest.raises(ParseError, match="1999.*no year count"):
            load_index(path)

    @pytest.mark.parametrize("change", ["reversed", "repeated"])
    def test_unsorted_or_repeated_refs_rejected(self, index2018, tmp_path, change):
        def edit(number, refs):
            if len(refs) > 1 and number == 0:
                if change == "reversed":
                    refs.reverse()
                else:
                    refs.insert(1, list(refs[1]))

        path = tmp_path / "bg.json"
        self.rewrite_postings(index2018, path, edit)
        with pytest.raises(ParseError, match="unsorted or repeated"):
            load_index(path)

    def test_more_papers_than_n_papers_rejected(self, index2018, tmp_path):
        named = {ref.paper_id for refs in index2018.postings.values() for ref in refs}
        extra = index2018.n_papers - len(named) + 1

        def edit(number, refs):
            if number == 0:
                refs.extend([f"Q{i}", 2016] for i in range(extra))

        path = tmp_path / "bg.json"
        self.rewrite_postings(index2018, path, edit)
        with pytest.raises(ParseError, match="more than n_papers 11"):
            load_index(path)

    @staticmethod
    def count_json_loads(monkeypatch) -> list:
        calls = []
        loads = json.loads

        def counting(text, *args, **kwargs):
            calls.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        return calls

    def test_canonical_rows_skip_json_loads(self, index2018, tmp_path, monkeypatch):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        calls = self.count_json_loads(monkeypatch)
        assert load_index(path) == index2018
        assert len(calls) == 1  # the header

    @pytest.mark.parametrize("layout", ["crlf", "padded"])
    def test_crlf_and_padded_rows_load_equal(
        self, index2018, tmp_path, monkeypatch, layout
    ):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        if layout == "crlf":
            path.write_bytes("\r\n".join([header, *rows, ""]).encode("utf-8"))
        else:
            padded = [" \t" * (i % 2) + row + " " * (i % 3) for i, row in enumerate(rows)]
            path.write_text("\n".join([header, *padded, ""]), encoding="utf-8")
        calls = self.count_json_loads(monkeypatch)
        assert load_index(path) == index2018
        if layout == "crlf":
            # reading the file turns CRLF into LF, so every row scans clean
            assert len(calls) == 1
        else:
            # only the rows that carry padding go back to json.loads
            padded_rows = sum(1 for i in range(len(rows)) if i % 2 or i % 3)
            assert len(calls) == 1 + padded_rows

    @pytest.mark.parametrize(
        "edit",
        [
            "relation unknown",
            "relation not a string",
            "head not a string",
            "head new",
            "head with empty token",
            "tail null",
            "node with edge fields",
            "edge without tail",
            "empty row",
            "postings only",
            "repeated key",
        ],
    )
    def test_edited_edge_row_loads_as_the_oracle_does(self, index2018, tmp_path, edit):
        """Each way an edited edge row can fail or change its key."""
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        i = next(i for i, line in enumerate(lines) if line.startswith('["edge"'))
        row = json.loads(lines[i])
        if edit == "relation unknown":
            row[2] = "cites"
        elif edit == "relation not a string":
            row[2] = ["used_for"]
        elif edit == "head not a string":
            row[1] = {"text": row[1]}
        elif edit == "head new":
            row[1] = "never seen before"
        elif edit == "head with empty token":
            row[1] = row[1] + " "
        elif edit == "tail null":
            row[3] = None
        elif edit == "node with edge fields":
            row[0] = "node"
        elif edit == "edge without tail":
            del row[3]
        elif edit == "empty row":
            row = []
        elif edit == "postings only":
            row = [row[-1]]
        else:
            row = json.loads(lines[i - 1])
        lines[i] = json.dumps(row)
        path.write_text("\n".join(lines), encoding="utf-8")
        assert_loads_as_oracle(path)

    @pytest.mark.parametrize(
        "cut",
        [
            '["',  # the C scanner raises JSONDecodeError in a string
            '["node", "accuracy"',
            "",  # the C scanner raises StopIteration
            "]",
            '["node", "accuracy", [["P04", 2014]]]]',  # text after the row
            '["node", "accuracy", [["P04", 2014]]] ["node"]',
            '\ufeff["node", "accuracy", [["P04", 2014]]]',
        ],
    )
    def test_rows_the_scanner_does_not_end_keep_json_messages(
        self, index2018, tmp_path, cut
    ):
        path = tmp_path / "bg.json"
        save_index(index2018, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[2] = cut
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(cut)
        with pytest.raises(ParseError) as got:
            load_index(path)
        assert str(got.value) == f"{path}:3: malformed row: {want.value.msg}"

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "bg.json"
        path.write_text('{"format": "something-else"}\n', encoding="utf-8")
        with pytest.raises(FormatVersionError):
            load_index(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_index(tmp_path / "nope.json")


# Index text that JSON must escape or may leave raw: quotes, backslashes,
# control characters, the breaks that str.splitlines() honours, non-ASCII.
# A token holds no space; the writer joins tokens with one.
AWKWARD_TEXT = st.text(
    st.sampled_from(list('ab"\\/\t\r\n\x00\x1f\x7f\x85\xe9\u2028\u2029\U0001f600'))
    | st.characters(blacklist_characters=" ", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
)
TOKENS = st.lists(AWKWARD_TEXT, min_size=1, max_size=3).map(tuple)
ELEMENT_KEYS = TOKENS.map(ElementKey) | st.builds(
    ElementKey, TOKENS, st.sampled_from(list(RelationType)), TOKENS
)


@st.composite
def awkward_indexes(draw) -> BackgroundIndex:
    """An index that keeps every ``load_index`` invariant, over awkward text."""
    years = draw(st.dictionaries(AWKWARD_TEXT, st.integers(1900, 2017),
                                 min_size=1, max_size=4))
    refs = sorted(PaperRef(p, y) for p, y in years.items())
    keys = draw(st.lists(ELEMENT_KEYS, min_size=1, max_size=6, unique=True))
    postings = {
        key: tuple(draw(st.lists(st.sampled_from(refs), min_size=1, unique=True)
                        .map(sorted)))
        for key in keys
    }
    year_counts: dict[int, int] = {}
    for year in years.values():
        year_counts[year] = year_counts.get(year, 0) + 1
    return BackgroundIndex(2018, year_counts, postings)


class TestRowEncoding:
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(awkward_indexes())
    def test_rows_equal_json_dumps_and_round_trip(self, index):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bg.json"
            save_index(index, path)
            header, *rows, end = path.read_bytes().split(b"\n")
            assert end == b""
            expected = [
                oracle_index_row(key, index.postings[key]).encode("utf-8")
                for key in sorted(index.postings, key=ElementKey.sort_key)
            ]
            assert rows == expected
            assert load_index(path) == index
