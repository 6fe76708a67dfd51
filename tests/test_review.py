"""Review text generation: polarity, templates, comments, rendering."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reviewgen
from reviewgen.corpus import Category, RelationType, parse_paper
from reviewgen.errors import UnsupportedRelationError, ValidationError
from reviewgen.evidence import ComparisonEntry, build_bundle
from reviewgen.background import PaperRef
from reviewgen.kg import ElementKey, TARGET_SCOPE, build_kg
from reviewgen.review import (
    CategoryTemplates,
    GENERIC_CATEGORIES,
    Polarity,
    ReviewDocument,
    assemble,
    default_templates,
    element_text,
    generate_comparison,
    generate_generic,
    generate_novelty,
    generate_summary,
    parse_templates,
    realize_relation,
    render,
    select_polarity,
)
from reviewgen.scoring.train import CategoryScore, ScoreReport

TEMPLATE_PATH = (
    Path(reviewgen.__file__).parent / "data" / "templates" / "default.json"
)


def raw_templates() -> dict:
    return json.loads(TEMPLATE_PATH.read_text(encoding="utf-8"))


def make_report(paper_id="P12", default=4, **overrides) -> ScoreReport:
    from reviewgen.corpus import SCOREABLE_CATEGORIES

    scores = {}
    for category in SCOREABLE_CATEGORIES:
        score = overrides.get(category.value, default)
        scores[category] = CategoryScore(
            score=score, confidence=0.9, probabilities=(0.1, 0.1, 0.1, 0.1, 0.6)
        )
    return ScoreReport(paper_id=paper_id, scores=scores)


def relation_paper(n_edges=1, relation="used_for"):
    sentences, mentions, relations = [], [], []
    for i in range(n_edges):
        sentences.append([f"a{i}", "acts", "on", f"b{i}", "."])
        mentions.append({"id": 2 * i, "section": "abstract", "sentence": i,
                         "span": [0, 1], "type": "method"})
        mentions.append({"id": 2 * i + 1, "section": "abstract", "sentence": i,
                         "span": [3, 4], "type": "task"})
        relations.append({"head_id": 2 * i, "tail_id": 2 * i + 1,
                          "type": relation, "section": "abstract",
                          "sentence": i})
    doc = {
        "paper_id": "R", "title": "t", "year": 2018, "venue": "v",
        "citations": [], "sections": {"abstract": sentences},
        "mentions": mentions, "clusters": [], "relations": relations,
    }
    return parse_paper(doc)


class TestSelectPolarity:
    def test_exhaustive(self):
        assert select_polarity(1) is Polarity.NEGATIVE
        assert select_polarity(2) is Polarity.NEGATIVE
        assert select_polarity(3) is Polarity.NEGATIVE
        assert select_polarity(4) is Polarity.POSITIVE
        assert select_polarity(5) is Polarity.POSITIVE

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            select_polarity(0)
        with pytest.raises(ValueError):
            select_polarity(6)


class TestTemplateParsing:
    def test_default_set_loads(self):
        tset = default_templates()
        assert len(tset.categories) == len(Category)
        assert RelationType.USED_FOR in tset.relation_phrases

    def test_missing_category_rejected(self):
        raw = raw_templates()
        del raw["categories"]["clarity"]
        with pytest.raises(ValidationError, match="clarity"):
            parse_templates(raw)

    def test_unknown_slot_rejected(self):
        raw = raw_templates()
        raw["categories"]["novelty"]["positive"] = ["uses ${BOGUS}"]
        with pytest.raises(ValidationError, match="BOGUS"):
            parse_templates(raw)

    def test_first_fault_in_reading_order_is_named(self):
        # a category's own templates are read before categories are counted
        raw = raw_templates()
        del raw["categories"]["clarity"]
        raw["categories"]["novelty"]["positive"] = ["uses ${BOGUS}"]
        with pytest.raises(ValidationError) as exc:
            parse_templates(raw)
        assert str(exc.value) == "category 'novelty': unknown slot 'BOGUS'"

    def test_malformed_marker_rejected(self):
        raw = raw_templates()
        raw["categories"]["novelty"]["positive"] = ["broken ${"]
        with pytest.raises(ValidationError, match="malformed"):
            parse_templates(raw)

    def test_phrase_must_use_head_and_tail(self):
        raw = raw_templates()
        raw["relation_phrases"]["used_for"] = "${HEAD} stands alone."
        with pytest.raises(ValidationError, match="HEAD and TAIL"):
            parse_templates(raw)

    def test_summary_relations_need_phrases(self):
        raw = raw_templates()
        del raw["relation_phrases"]["compare"]
        with pytest.raises(ValidationError, match="compare"):
            parse_templates(raw)

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_first_missing_phrase_is_in_relation_order(self, hash_seed):
        # USED_FOR precedes COMPARE in RelationType, whatever the hash seed
        script = (
            "import json, sys\n"
            "from reviewgen.review import parse_templates\n"
            "raw = json.loads(sys.stdin.read())\n"
            "del raw['relation_phrases']['compare']\n"
            "del raw['relation_phrases']['used_for']\n"
            "try:\n"
            "    parse_templates(raw)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=TEMPLATE_PATH.read_text(encoding="utf-8"),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "ValidationError relation_phrases missing 'used_for'\n"

    @pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
    def test_first_bad_pool_is_in_pool_order(self, hash_seed):
        # with all four pools malformed, "positive" is named whatever the seed
        script = (
            "import json, sys\n"
            "from reviewgen.review import parse_templates\n"
            "raw = json.loads(sys.stdin.read())\n"
            "raw['categories']['novelty'] = {k: 'x' for k in\n"
            "    ('negative_empty', 'positive_empty', 'negative', 'positive')}\n"
            "try:\n"
            "    parse_templates(raw)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=TEMPLATE_PATH.read_text(encoding="utf-8"),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "ValidationError novelty.positive: expected a list of strings\n"
        )

    def test_unknown_category_name_rejected(self):
        raw = raw_templates()
        raw["categories"]["bogus"] = {"positive": ["x"], "negative": ["y"]}
        with pytest.raises(ValidationError, match="bogus"):
            parse_templates(raw)

    def test_unknown_relation_name_rejected(self):
        raw = raw_templates()
        raw["relation_phrases"]["loves"] = "${HEAD} loves ${TAIL}."
        with pytest.raises(ValidationError, match="loves"):
            parse_templates(raw)

    def test_unknown_top_level_key_rejected(self):
        raw = raw_templates()
        raw["extra"] = 1
        with pytest.raises(ValidationError, match="extra"):
            parse_templates(raw)

    def test_empty_polarity_pool_rejected(self):
        raw = raw_templates()
        raw["categories"]["clarity"]["positive"] = []
        with pytest.raises(ValidationError, match="clarity"):
            parse_templates(raw)

    def test_bad_variant_rejected(self):
        raw = raw_templates()
        raw["variant"] = -1
        with pytest.raises(ValidationError, match="variant"):
            parse_templates(raw)

    def test_pick_falls_back_when_no_empty_variant(self):
        block = CategoryTemplates(positive=("P",), negative=("N",))
        assert block.pick(Polarity.POSITIVE, empty=True, variant=0) == "P"
        assert block.pick(Polarity.NEGATIVE, empty=True, variant=0) == "N"

    def test_pick_cycles_variants(self):
        block = CategoryTemplates(positive=("A", "B"), negative=("N",))
        assert block.pick(Polarity.POSITIVE, False, 0) == "A"
        assert block.pick(Polarity.POSITIVE, False, 1) == "B"
        assert block.pick(Polarity.POSITIVE, False, 3) == "B"


class TestElementText:
    def test_node_uses_surface_map(self):
        key = ElementKey(("gated", "unit"))
        assert element_text(key, {("gated", "unit"): "Gated Unit"}) == "Gated Unit"

    def test_node_falls_back_to_key(self):
        assert element_text(ElementKey(("gated", "unit")), {}) == "gated unit"

    def test_edge_gloss(self):
        key = ElementKey(("crf",), RelationType.USED_FOR, ("ner",))
        text = element_text(key, {("crf",): "CRF", ("ner",): "NER"})
        assert text == "CRF used for NER"


class TestRealizeRelation:
    @pytest.mark.parametrize("relation, fragment", [
        ("used_for", "is used for"),
        ("feature_of", "is a feature of"),
        ("compare", "is compared with"),
        ("evaluate_for", "is evaluated for"),
    ])
    def test_each_phrase(self, relation, fragment):
        graph = build_kg(relation_paper(relation=relation), TARGET_SCOPE)
        tset = default_templates()
        sentence = realize_relation(graph.edges[0], graph, tset.relation_phrases)
        assert sentence == f"a0 {fragment} b0."

    def test_unphrased_relation_rejected(self):
        graph = build_kg(relation_paper(relation="hyponym_of"), TARGET_SCOPE)
        tset = default_templates()
        with pytest.raises(UnsupportedRelationError):
            realize_relation(graph.edges[0], graph, tset.relation_phrases)


class TestGenerateSummary:
    def test_caps_relation_sentences(self):
        graph = build_kg(relation_paper(n_edges=7), TARGET_SCOPE)
        comments = generate_summary(graph, 4, default_templates())
        assert len(comments) == 1
        assert comments[0].count("is used for") == 5

    def test_empty_graph_uses_empty_variant(self):
        graph = build_kg(relation_paper(n_edges=0), TARGET_SCOPE)
        positive = generate_summary(graph, 5, default_templates())[0]
        negative = generate_summary(graph, 2, default_templates())[0]
        assert "no explicit relations" in positive
        assert positive != negative

    def test_edges_in_key_order(self):
        graph = build_kg(relation_paper(n_edges=3), TARGET_SCOPE)
        comment = generate_summary(graph, 4, default_templates())[0]
        assert comment.index("a0 is used for") < comment.index("a1 is used for")
        assert comment.index("a1 is used for") < comment.index("a2 is used for")


class TestGenerateNovelty:
    def surfaces(self, n):
        return {(f"c{i}",): f"c{i}" for i in range(n)}

    def keys(self, n):
        return [ElementKey((f"c{i}",)) for i in range(n)]

    def test_singular_count(self):
        comment = generate_novelty(self.keys(1), 4, default_templates(),
                                   self.surfaces(1))[0]
        assert "1 new knowledge element: c0" in comment

    def test_caps_listing_at_five(self):
        comment = generate_novelty(self.keys(7), 4, default_templates(),
                                   self.surfaces(7))[0]
        assert "7 new knowledge elements" in comment
        assert "c4" in comment and "c5" not in comment

    def test_empty_positive_and_negative(self):
        positive = generate_novelty([], 4, default_templates(), {})[0]
        negative = generate_novelty([], 2, default_templates(), {})[0]
        assert "no new knowledge elements" in positive
        assert "no new knowledge elements" in negative
        assert positive != negative


class TestGenerateComparison:
    def entries(self, n_entries, n_refs=2):
        out = []
        for i in range(n_entries):
            refs = tuple(PaperRef(f"B{i}{j}", 2016 - j) for j in range(n_refs))
            out.append(
                ComparisonEntry(ElementKey((f"c{i}",)), 0.9 - i * 0.1, refs)
            )
        return out

    def test_entry_and_recommendation_caps(self):
        comment = generate_comparison(
            self.entries(4, n_refs=9), 2, default_templates(),
            {(f"c{i}",): f"c{i}" for i in range(4)},
        )[0]
        assert "c2" in comment and "c3" not in comment  # 3 entries at most
        assert "B04" in comment and "B05" not in comment  # 5 refs per entry

    def test_clause_format(self):
        comment = generate_comparison(
            self.entries(1, n_refs=2), 2, default_templates(), {("c0",): "c0"}
        )[0]
        assert "for c0: B00 (2016), B01 (2015)" in comment

    def test_empty_variants(self):
        positive = generate_comparison([], 4, default_templates(), {})[0]
        negative = generate_comparison([], 2, default_templates(), {})[0]
        assert "references are adequate" in positive
        assert "thin" in negative


class TestGenerateGeneric:
    def test_all_generic_categories(self):
        tset = default_templates()
        for category in GENERIC_CATEGORIES:
            low = generate_generic(category, 2, tset)[0]
            high = generate_generic(category, 5, tset)[0]
            assert "2" in low and "5" in high
            assert low != high

    def test_special_categories_rejected(self):
        tset = default_templates()
        for category in (Category.SUMMARY, Category.NOVELTY,
                         Category.MEANINGFUL_COMPARISON):
            with pytest.raises(ValueError):
                generate_generic(category, 4, tset)


def two_variant_templates(variant: int):
    """Every pool of every category holds a "first" and a "second" template,
    each naming its pool."""
    raw = raw_templates()
    pools = ("positive", "negative", "positive_empty", "negative_empty")
    raw["categories"] = {
        category.value: {
            pool: [f"{ordinal} {pool} ${{SCORE}}" for ordinal in ("first", "second")]
            for pool in pools
        }
        for category in Category
    }
    raw["variant"] = variant
    return parse_templates(raw)


class TestVariant:
    @pytest.mark.parametrize("variant, ordinal", [(1, "second"), (2, "first")])
    @pytest.mark.parametrize("score", [2, 4])
    def test_every_comment_takes_the_variant(
        self, papers, index2018, variant, ordinal, score
    ):
        """Variant 1 takes the second template in all eight comments, and
        variant 2 wraps around to the first."""
        bundle = build_bundle(papers["P12"], index2018)
        doc = assemble("P12", make_report(default=score), bundle,
                       two_variant_templates(variant))
        polarity = "positive" if score > 3 else "negative"
        assert len(doc.comments) == 8
        for comments in doc.comments.values():
            (sentence,) = comments
            assert sentence.startswith(f"{ordinal} {polarity}")
            assert sentence.endswith(f" {score}")


class TestAssembleRender:
    def test_eight_comment_sections(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        doc = assemble("P12", make_report(), bundle, default_templates())
        assert len(doc.comments) == 8
        assert all(comments for comments in doc.comments.values())

    def test_missing_score_category_rejected(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        report = make_report()
        report.scores.pop(Category.CLARITY)
        with pytest.raises(ValueError, match="clarity"):
            assemble("P12", report, bundle, default_templates())

    def test_no_unfilled_slots(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        for default in (2, 4):
            doc = assemble("P12", make_report(default=default), bundle,
                           default_templates())
            for comments in doc.comments.values():
                for sentence in comments:
                    assert "${" not in sentence

    def test_entity_names_come_from_paper_surfaces(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        doc = assemble("P12", make_report(), bundle, default_templates())
        novelty = doc.comments[Category.NOVELTY][0]
        for key in bundle.novelty_new[:5]:
            assert bundle.surfaces[key.head] in novelty

    def test_render_is_timestamp_free_and_stable(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        a = assemble("P12", make_report(), bundle, default_templates())
        b = assemble("P12", make_report(), bundle, default_templates())
        assert a == b  # the document carries no wall-clock field
        assert render(a, "json") == render(b, "json")
        assert render(a, "markdown") == render(b, "markdown")
        assert "generated_at" not in render(a, "json")

    def test_json_shape(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        doc = assemble("P12", make_report(), bundle, default_templates())
        payload = json.loads(render(doc, "json"))
        assert sorted(payload) == ["comments", "paper_id", "scores"]
        assert len(payload["scores"]) == 7
        assert len(payload["comments"]) == 8
        text = render(doc, "json")
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_markdown_shape(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        doc = assemble("P12", make_report(), bundle, default_templates())
        text = render(doc, "markdown")
        lines = text.split("\n")
        assert lines[0] == "# Review of P12"
        assert "## Summary" in lines  # no score on the summary heading
        assert sum(line.startswith("## ") for line in lines) == 8
        assert any(
            line.startswith("## Novelty (score: 4, confidence: 0.900000)")
            for line in lines
        )

    def test_unknown_format_rejected(self):
        doc = ReviewDocument(paper_id="X", scores=make_report("X"), comments={})
        with pytest.raises(ValueError):
            render(doc, "html")
