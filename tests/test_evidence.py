"""Evidence extraction: summary, novelty, comparison, features, timeline."""

from __future__ import annotations

import json
import random
import subprocess
import sys

import numpy as np
import pytest

import reviewgen.evidence
from reviewgen.background import build_index, tfidf
from reviewgen.corpus import RelationType, parse_paper
from reviewgen.evidence import (
    FEATURE_DIM,
    FEATURE_NAMES,
    build_bundle,
    evidence_features,
    extract_comparison,
    extract_novelty,
    extract_summary,
    format_timeline,
    novelty_timeline,
    recommend_related,
)
from reviewgen.kg import (
    RELATED_SCOPE,
    TARGET_SCOPE,
    ElementKey,
    build_kg,
    elements,
)

from synth import (
    build_random_corpus,
    build_random_paper,
    oracle_novelty,
    oracle_timeline,
)

from conftest import golden

# the index half of a review in a fresh interpreter: prints the numpy
# submodules that loading the index, building the bundle and pickling and
# unpickling it loaded, then whether the bundle's features equal
# evidence_features of its own fields and the features of its copy
_INDEX_HALF = """
import json, pickle, sys
from reviewgen import cli, evidence_features, load_index, load_paper
paper = load_paper(sys.argv[1])
bundle = cli._bundles([paper], load_index(sys.argv[2]), None)[paper.paper_id]
copy = pickle.loads(pickle.dumps(bundle))
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
features = bundle.features.tobytes()
fields = evidence_features(
    bundle.gp, bundle.novelty_new, bundle.comparison, bundle.tfidf).tobytes()
print(json.dumps([loaded, features == fields, features == copy.features.tobytes()]))
"""


def make_paper(paper_id, year, sentences, mentions, relations, clusters=(),
               citations=()):
    doc = {
        "paper_id": paper_id, "title": "t", "year": year, "venue": "v",
        "citations": list(citations),
        "sections": {"abstract": sentences},
        "mentions": mentions, "clusters": list(clusters),
        "relations": relations,
    }
    return parse_paper(doc)


def two_node_paper(paper_id, year, relation="used_for"):
    """One "alpha beta" -> "gamma" edge plus both nodes."""
    return make_paper(
        paper_id, year,
        sentences=[["alpha", "beta", "helps", "gamma", "."]],
        mentions=[
            {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 2],
             "type": "method"},
            {"id": 1, "section": "abstract", "sentence": 0, "span": [3, 4],
             "type": "task"},
        ],
        relations=[{"head_id": 0, "tail_id": 1, "type": relation,
                    "section": "abstract", "sentence": 0}],
    )


class TestExtractSummary:
    def test_undescribable_relations_dropped(self):
        gp = build_kg(two_node_paper("A", 2018, relation="hyponym_of"),
                      TARGET_SCOPE)
        summary = extract_summary(gp)
        assert summary.edges == ()
        assert summary.entities == ()

    def test_keeps_endpoints_only(self):
        paper = make_paper(
            "A", 2018,
            sentences=[["alpha", "helps", "gamma", ".", "delta", "."]],
            mentions=[
                {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 1],
                 "type": "method"},
                {"id": 1, "section": "abstract", "sentence": 0, "span": [2, 3],
                 "type": "task"},
                {"id": 2, "section": "abstract", "sentence": 0, "span": [4, 5],
                 "type": "material"},
            ],
            relations=[{"head_id": 0, "tail_id": 1, "type": "used_for",
                        "section": "abstract", "sentence": 0}],
        )
        summary = extract_summary(build_kg(paper, TARGET_SCOPE))
        assert sorted(e.rep_surface for e in summary.entities) == ["alpha", "gamma"]
        assert len(summary.edges) == 1

    def test_golden_p03(self, papers):
        summary = extract_summary(build_kg(papers["P03"], TARGET_SCOPE))
        lines = [
            f"entity\t{' '.join(e.representative)}\t{e.rep_surface}"
            f"\t{e.entity_type.value}"
            for e in summary.entities
        ]
        lines += [str(e) for e in summary.edges]
        assert "".join(f"{line}\n" for line in lines) == golden("p03_summary.txt")


class TestExtractNovelty:
    def test_empty_index_everything_new(self):
        gp = build_kg(two_node_paper("A", 2018), TARGET_SCOPE)
        index = build_index([], 2018)
        assert extract_novelty(gp, index) == elements(gp)

    def test_all_indexed_nothing_new(self):
        target = two_node_paper("A", 2018)
        older = two_node_paper("B", 2015)
        index = build_index([older], 2018)
        assert extract_novelty(build_kg(target, TARGET_SCOPE), index) == []

    def test_generic_nodes_excluded_by_default(self):
        paper = make_paper(
            "A", 2018,
            sentences=[["this", "method", "helps", "gamma", "."]],
            mentions=[
                {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 2],
                 "type": "generic"},
                {"id": 1, "section": "abstract", "sentence": 0, "span": [3, 4],
                 "type": "task"},
            ],
            relations=[{"head_id": 0, "tail_id": 1, "type": "used_for",
                        "section": "abstract", "sentence": 0}],
        )
        gp = build_kg(paper, TARGET_SCOPE)
        index = build_index([], 2018)
        default = extract_novelty(gp, index)
        # the generic node key is dropped; the edge it anchors is kept
        assert [k for k in default if not k.is_edge] == [
            k for k in elements(gp) if not k.is_edge and k.head == ("gamma",)
        ]
        assert len([k for k in default if k.is_edge]) == 1
        assert [k for k in elements(gp) if k not in default] == [
            ElementKey(("this", "method"))
        ]

    def test_golden_p12(self, p12_bundle):
        got = "".join(f"{key}\n" for key in p12_bundle.novelty_new)
        assert got == golden("p12_novelty.txt")

    def test_matches_double_loop_oracle(self):
        rng = random.Random(5)
        for i in range(30):
            background = build_random_corpus(rng, rng.randint(0, 8))
            target = build_random_paper(
                rng, paper_id="T", year=2018, max_mentions=10
            )
            index = build_index(background, 2018)
            gp = build_kg(target, TARGET_SCOPE)
            assert extract_novelty(gp, index) == oracle_novelty(target, background)


class TestExtractComparison:
    def background(self, n_with, n_without, year=2015):
        """n_with copies of the probe paper plus unrelated papers."""
        papers = [two_node_paper(f"W{i}", year + i) for i in range(n_with)]
        for i in range(n_without):
            papers.append(
                make_paper(
                    f"O{i}", year,
                    sentences=[["unrelated", "thing", "."]],
                    mentions=[{"id": 0, "section": "abstract", "sentence": 0,
                               "span": [0, 2], "type": "material"}],
                    relations=[],
                )
            )
        return papers

    def test_golden_p12(self, p12_bundle):
        got = "".join(
            f"{entry.tfidf:.12f}\t{entry.element}\t"
            + ",".join(f"{ref.paper_id}:{ref.year}" for ref in entry.uncited)
            + "\n"
            for entry in p12_bundle.comparison
        )
        assert got == golden("p12_comparison.txt")

    def test_exact_threshold_excluded(self):
        # N=4, df=2, tf=1: score is log(2)/log(4), exactly one half in
        # binary floating point, and the comparison must be strict
        target = two_node_paper("T", 2018)
        index = build_index(self.background(2, 2), 2018)
        gp = build_kg(target, TARGET_SCOPE)
        grel = build_kg(target, RELATED_SCOPE)
        from reviewgen.kg import ElementKey

        assert tfidf(index, gp)[ElementKey(("alpha", "beta"))] == 0.5
        entries = extract_comparison(tfidf(index, gp), grel, index, set())
        assert entries == []

    def test_above_threshold_included(self):
        target = two_node_paper("T", 2018)
        index = build_index(self.background(1, 3), 2018)
        gp = build_kg(target, TARGET_SCOPE)
        grel = build_kg(target, RELATED_SCOPE)
        entries = extract_comparison(tfidf(index, gp), grel, index, set())
        assert len(entries) == 3  # both nodes and the edge all have df=1
        assert all(e.tfidf == 1.0 for e in entries)
        assert all([ref.paper_id for ref in e.uncited] == ["W0"]
                   for e in entries)

    def test_cited_papers_excluded(self):
        target = two_node_paper("T", 2018)
        index = build_index(self.background(1, 3), 2018)
        gp = build_kg(target, TARGET_SCOPE)
        grel = build_kg(target, RELATED_SCOPE)
        assert extract_comparison(tfidf(index, gp), grel, index, {"W0"}) == []

    def test_related_work_coverage_excluded(self):
        doc = {
            "paper_id": "T", "title": "t", "year": 2018, "venue": "v",
            "citations": [],
            "sections": {
                "abstract": [["alpha", "beta", "helps", "gamma", "."]],
                "related_work": [["alpha", "beta", "is", "known", "."]],
            },
            "mentions": [
                {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 2],
                 "type": "method"},
                {"id": 1, "section": "abstract", "sentence": 0, "span": [3, 4],
                 "type": "task"},
                {"id": 2, "section": "related_work", "sentence": 0,
                 "span": [0, 2], "type": "method"},
            ],
            "clusters": [],
            "relations": [{"head_id": 0, "tail_id": 1, "type": "used_for",
                           "section": "abstract", "sentence": 0}],
        }
        target = parse_paper(doc)
        index = build_index(self.background(1, 3), 2018)
        gp = build_kg(target, TARGET_SCOPE)
        grel = build_kg(target, RELATED_SCOPE)
        # W0 matches the related-work mention of "alpha beta", so it is
        # treated as discussed even though the citation list is empty
        assert extract_comparison(tfidf(index, gp), grel, index, set()) == []

    def test_df_zero_has_no_entry(self):
        target = two_node_paper("T", 2018)
        index = build_index(self.background(0, 4), 2018)
        gp = build_kg(target, TARGET_SCOPE)
        grel = build_kg(target, RELATED_SCOPE)
        assert extract_comparison(tfidf(index, gp), grel, index, set()) == []

    def test_sorted_by_tfidf_then_key(self, p12_bundle):
        scores = [e.tfidf for e in p12_bundle.comparison]
        assert scores == sorted(scores, reverse=True)
        for a, b in zip(p12_bundle.comparison, p12_bundle.comparison[1:]):
            if a.tfidf == b.tfidf:
                assert a.element.sort_key() < b.element.sort_key()


class TestRecommendRelated:
    def entry(self, n):
        from reviewgen.background import PaperRef
        from reviewgen.evidence import ComparisonEntry
        from reviewgen.kg import ElementKey

        refs = tuple(PaperRef(f"R{i}", 2017 - i) for i in range(n))
        return ComparisonEntry(ElementKey(("x",)), 0.9, refs)

    def test_caps_at_five_by_default(self):
        refs = recommend_related(self.entry(9))
        assert len(refs) == 5
        assert [r.paper_id for r in refs] == ["R0", "R1", "R2", "R3", "R4"]

    def test_shorter_lists_returned_whole(self):
        assert len(recommend_related(self.entry(2))) == 2


class TestEvidenceFeatures:
    def test_golden_p12(self, p12_bundle):
        got = "".join(
            f"{name}={value:.12g}\n"
            for name, value in zip(FEATURE_NAMES, p12_bundle.features)
        )
        assert got == golden("p12_features.txt")

    def test_dimension(self):
        assert FEATURE_DIM == 17
        assert len(FEATURE_NAMES) == 17

    def test_empty_graph_all_zero(self):
        paper = make_paper("E", 2018, sentences=[["nothing", "."]],
                           mentions=[], relations=[])
        gp = build_kg(paper, TARGET_SCOPE)
        index = build_index([], 2018)
        features = evidence_features(gp, [], [], tfidf(index, gp))
        assert features.shape == (17,)
        assert np.all(features == 0.0)

    def test_counts_split_by_type(self):
        gp = build_kg(two_node_paper("A", 2018), TARGET_SCOPE)
        index = build_index([], 2018)
        novelty = extract_novelty(gp, index)
        features = evidence_features(gp, novelty, [], tfidf(index, gp))
        by_name = dict(zip(FEATURE_NAMES, features))
        assert by_name["new_nodes_method"] == 1.0
        assert by_name["new_nodes_task"] == 1.0
        assert by_name["new_edges_used_for"] == 1.0
        assert by_name["total_entities"] == 2.0
        assert by_name["total_edges"] == 1.0
        assert by_name["mean_tfidf"] == 1.0  # df=0 everywhere


class TestBuildBundle:
    def test_surfaces_cover_both_scopes(self, p12_bundle, papers):
        gp = build_kg(papers["P12"], TARGET_SCOPE)
        grel = build_kg(papers["P12"], RELATED_SCOPE)
        for entity in list(gp.entities) + list(grel.entities):
            assert entity.representative in p12_bundle.surfaces

    def test_target_scope_surface_wins(self, p12_bundle, papers):
        gp = build_kg(papers["P12"], TARGET_SCOPE)
        for entity in gp.entities:
            assert p12_bundle.surfaces[entity.representative] == entity.rep_surface

    def test_scores_tfidf_once_per_paper(self, corpus, index2018, monkeypatch):
        returned = []

        def counting_tfidf(*args):
            returned.append(tfidf(*args))
            return returned[-1]

        monkeypatch.setattr(reviewgen.evidence, "tfidf", counting_tfidf)
        for paper in corpus:
            bundle = build_bundle(paper, index2018)
            assert len(returned) == 1, paper.paper_id
            scores = returned.pop()
            assert list(scores) == elements(bundle.gp)
            assert bundle.features[16] == np.mean(list(scores.values()))
            for entry in bundle.comparison:
                assert entry.tfidf == scores[entry.element]


    def test_bundle_built_and_pickled_without_numpy(self, trained, toy_dir):
        result = subprocess.run(
            [sys.executable, "-c", _INDEX_HALF,
             toy_dir / "papers" / "P12.json", trained["index"]],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[], True, True]


class TestNoveltyTimeline:
    def test_golden(self, corpus, papers):
        timeline = novelty_timeline(
            [papers["P12"]], corpus, list(range(2012, 2019))
        )
        assert format_timeline(timeline) == golden("timeline.txt")

    def test_anti_monotone_on_random_corpora(self):
        rng = random.Random(13)
        for _ in range(5):
            corpus = build_random_corpus(rng, 10)
            probe = build_random_paper(rng, paper_id="T", year=2018,
                                       max_mentions=8)
            timeline = novelty_timeline([probe], corpus,
                                        [2011, 2013, 2015, 2017])
            means = [m for _, m in timeline.entries]
            assert all(b <= a for a, b in zip(means, means[1:]))

    def test_equals_per_year_rebuild_on_random_corpora(self):
        rng = random.Random(23)
        for _ in range(10):
            corpus = build_random_corpus(rng, rng.randint(0, 12))
            papers = [
                build_random_paper(rng, paper_id=f"T{i}", year=2018, max_mentions=8)
                for i in range(rng.randint(1, 3))
            ] + rng.sample(corpus, min(len(corpus), 2))
            # the first year is never after the earliest corpus year (2010)
            start = rng.randint(2006, 2010)
            years = sorted({start} | set(rng.sample(range(start, 2020), 4)))
            got = novelty_timeline(papers, corpus, years)
            assert got.entries == oracle_timeline(papers, corpus, years)

    def test_builds_one_index_at_the_last_year(self, corpus, papers, monkeypatch):
        cutoffs = []

        def counting_build_index(corpus, cutoff_year, *args, **kwargs):
            cutoffs.append(cutoff_year)
            return build_index(corpus, cutoff_year, *args, **kwargs)

        monkeypatch.setattr(reviewgen.evidence, "build_index", counting_build_index)
        novelty_timeline([papers["P12"]], corpus, list(range(2012, 2019)))
        assert cutoffs == [2018]

    def test_empty_years_give_empty_timeline(self, corpus, papers):
        assert novelty_timeline([papers["P12"]], corpus, []).entries == ()

    def test_years_must_increase(self, corpus, papers):
        with pytest.raises(ValueError):
            novelty_timeline([papers["P12"]], corpus, [2014, 2014])

    def test_papers_must_be_non_empty(self, corpus):
        with pytest.raises(ValueError):
            novelty_timeline([], corpus, [2014])

    def test_format(self):
        from reviewgen.evidence import NoveltyTimeline

        text = format_timeline(NoveltyTimeline(((2012, 1.5), (2013, 0.0))))
        assert text == "2012\t1.500000\n2013\t0.000000\n"
