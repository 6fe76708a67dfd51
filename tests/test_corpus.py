"""Corpus loading, validation, canonical serialization, and label targets."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from reviewgen.corpus import (
    Category,
    SCOREABLE_CATEGORIES,
    SectionKind,
    load_corpus,
    load_paper,
    load_review_labels,
    parse_paper,
    serialize_paper,
    target_scores,
)
from reviewgen.errors import ParseError, ReviewgenError, ValidationError

from conftest import TOY_DIR


def minimal_doc() -> dict:
    return {
        "paper_id": "X1",
        "title": "Tiny",
        "year": 2015,
        "venue": "TEST",
        "citations": [],
        "sections": {"abstract": [["a", "neural", "parser", "."]]},
        "mentions": [
            {"id": 0, "section": "abstract", "sentence": 0, "span": [1, 3],
             "type": "method"}
        ],
        "clusters": [],
        "relations": [],
    }


class TestParsePaper:
    def test_minimal_document(self):
        record = parse_paper(minimal_doc())
        assert record.paper_id == "X1"
        assert len(record.sections[SectionKind.ABSTRACT]) == 1
        # a section is a tuple of sentences, each a tuple of plain str tokens
        for section in record.sections.values():
            assert type(section) is tuple
            for sentence in section:
                assert type(sentence) is tuple
                assert all(type(token) is str for token in sentence)
        assert record.sections[SectionKind.ABSTRACT][0] == ("a", "neural", "parser", ".")
        assert len(record.annotations.mentions) == 1
        assert record.annotations.mentions[0].surface == "neural parser"
        assert record.annotations.relations == ()

    def test_missing_field_rejected(self):
        doc = minimal_doc()
        del doc["venue"]
        with pytest.raises(ParseError):
            parse_paper(doc)

    def test_unknown_field_rejected(self):
        doc = minimal_doc()
        doc["extra"] = 1
        with pytest.raises(ParseError):
            parse_paper(doc)

    def test_year_before_1900_rejected(self):
        doc = minimal_doc()
        doc["year"] = 1850
        with pytest.raises(ValidationError):
            parse_paper(doc)

    def test_span_past_sentence_end_rejected(self):
        doc = minimal_doc()
        doc["mentions"][0]["span"] = [1, 9]
        with pytest.raises(ValidationError):
            parse_paper(doc)

    def test_negative_mention_sentence_rejected(self):
        doc = minimal_doc()
        doc["mentions"][0]["sentence"] = -1
        with pytest.raises(ValidationError, match="missing sentence"):
            parse_paper(doc)

    def test_negative_relation_sentence_rejected(self):
        doc = minimal_doc()
        doc["mentions"].append(
            {"id": 1, "section": "abstract", "sentence": 0, "span": [0, 1],
             "type": "task"}
        )
        doc["relations"] = [
            {"head_id": 0, "tail_id": 1, "type": "used_for",
             "section": "abstract", "sentence": -1}
        ]
        with pytest.raises(ValidationError, match="missing sentence"):
            parse_paper(doc)

    def test_empty_span_rejected(self):
        doc = minimal_doc()
        doc["mentions"][0]["span"] = [2, 2]
        with pytest.raises(ValidationError):
            parse_paper(doc)

    def test_duplicate_mention_id_rejected(self):
        doc = minimal_doc()
        doc["mentions"].append(dict(doc["mentions"][0]))
        with pytest.raises(ValidationError):
            parse_paper(doc)

    def test_mention_in_two_clusters_rejected(self):
        doc = minimal_doc()
        doc["mentions"].append(
            {"id": 1, "section": "abstract", "sentence": 0, "span": [0, 1],
             "type": "generic"}
        )
        doc["clusters"] = [[0, 1], [0]]
        with pytest.raises(ValidationError):
            parse_paper(doc)

    def test_relation_endpoint_out_of_range(self):
        doc = minimal_doc()
        for i in (1, 2):
            doc["mentions"].append(
                {"id": i, "section": "abstract", "sentence": 0, "span": [0, 1],
                 "type": "task"}
            )
        doc["clusters"] = []
        doc["relations"] = [
            {"head_id": 0, "tail_id": 99, "type": "used_for",
             "section": "abstract", "sentence": 0}
        ]
        with pytest.raises(ValidationError, match="relation endpoint out of range"):
            parse_paper(doc)

    def test_unknown_section_rejected(self):
        doc = minimal_doc()
        doc["sections"]["appendix"] = [["x"]]
        with pytest.raises(ParseError):
            parse_paper(doc)

    def test_unknown_entity_type_rejected(self):
        doc = minimal_doc()
        doc["mentions"][0]["type"] = "widget"
        with pytest.raises(ParseError):
            parse_paper(doc)


def _annotated_doc() -> dict:
    """``minimal_doc`` plus a second mention and one relation between them."""
    doc = minimal_doc()
    doc["mentions"].append(
        {"id": 1, "section": "abstract", "sentence": 0, "span": [0, 1],
         "type": "task"}
    )
    doc["relations"] = [
        {"head_id": 0, "tail_id": 1, "type": "used_for",
         "section": "abstract", "sentence": 0}
    ]
    return doc


def _set(path: str, value):
    """Mutator that sets ``doc[path]`` (dotted, ints index lists)."""
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]

    def mutate(doc):
        target = doc
        for part in parents:
            target = target[part]
        target[last] = value

    return mutate


def _drop(path: str):
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]

    def mutate(doc):
        target = doc
        for part in parents:
            target = target[part]
        del target[last]

    return mutate


M = "paper.mentions[0]"
R = "paper.relations[0]"
S = "paper.sections"

# (id, mutator, exception type, full message): every per-field defect of a
# mention, relation, citation, cluster or sentence, with its locus
PARSE_DEFECTS = [
    ("mention-not-object", _set("mentions.0", [0]), ParseError,
     f"{M}: expected an object, got list"),
    ("mention-missing-field", _drop("mentions.0.type"), ParseError,
     f"{M}: missing field(s) ['type']"),
    ("mention-unknown-field", _set("mentions.0.extra", 1), ParseError,
     f"{M}: unknown field(s) ['extra']"),
    ("mention-id-str", _set("mentions.0.id", "0"), ParseError,
     f"{M}.id: expected an integer"),
    ("mention-id-bool", _set("mentions.0.id", False), ParseError,
     f"{M}.id: expected an integer"),
    ("mention-id-float", _set("mentions.0.id", 0.0), ParseError,
     f"{M}.id: expected an integer"),
    ("mention-section-int", _set("mentions.0.section", 1), ParseError,
     f"{M}.section: expected a string"),
    ("mention-section-unknown", _set("mentions.0.section", "appendix"), ParseError,
     f"{M}.section: unknown section 'appendix'"),
    ("mention-sentence-str", _set("mentions.0.sentence", "0"), ParseError,
     f"{M}.sentence: expected an integer"),
    ("mention-sentence-bool", _set("mentions.0.sentence", True), ParseError,
     f"{M}.sentence: expected an integer"),
    ("mention-type-none", _set("mentions.0.type", None), ParseError,
     f"{M}.type: expected a string"),
    ("mention-type-unknown", _set("mentions.0.type", "widget"), ParseError,
     f"{M}.type: unknown entity type 'widget'"),
    ("mention-span-not-list", _set("mentions.0.span", "1:3"), ParseError,
     f"{M}.span: expected [start, end]"),
    ("mention-span-tuple", _set("mentions.0.span", (1, 3)), ParseError,
     f"{M}.span: expected [start, end]"),
    ("mention-span-three", _set("mentions.0.span", [1, 2, 3]), ParseError,
     f"{M}.span: expected [start, end]"),
    ("mention-span-start-str", _set("mentions.0.span", ["1", 3]), ParseError,
     f"{M}.span[0]: expected an integer"),
    ("mention-span-end-bool", _set("mentions.0.span", [0, True]), ParseError,
     f"{M}.span[1]: expected an integer"),
    ("mention-section-absent", _set("mentions.0.section", "conclusion"),
     ValidationError,
     f"{M}: mention 0 points at missing sentence conclusion[0]"),
    ("mention-sentence-past-end", _set("mentions.0.sentence", 1), ValidationError,
     f"{M}: mention 0 points at missing sentence abstract[1]"),
    ("mention-sentence-negative", _set("mentions.0.sentence", -1), ValidationError,
     f"{M}: mention 0 points at missing sentence abstract[-1]"),
    ("mention-span-past-end", _set("mentions.0.span", [1, 9]), ValidationError,
     f"{M}: mention 0 span [1,9) outside sentence of length 4"),
    ("mention-span-empty", _set("mentions.0.span", [2, 2]), ValidationError,
     f"{M}: mention 0 span [2,2) outside sentence of length 4"),
    ("mention-span-negative", _set("mentions.0.span", [-1, 2]), ValidationError,
     f"{M}: mention 0 span [-1,2) outside sentence of length 4"),
    # the first failing field wins: keys, id, section, sentence, type, span
    ("mention-first-defect-wins",
     _set("mentions.0", {"id": "x", "section": "appendix", "sentence": "0",
                         "span": [9, 9], "type": "widget"}),
     ParseError, f"{M}.id: expected an integer"),
    ("mention-type-before-span",
     _set("mentions.0", {"id": 0, "section": "abstract", "sentence": 0,
                         "span": "x", "type": "widget"}),
     ParseError, f"{M}.type: unknown entity type 'widget'"),
    ("mention-missing-before-range",
     _set("mentions.0", {"id": 0, "section": "abstract", "sentence": 7,
                         "span": [9, 9], "type": "task"}),
     ValidationError, f"{M}: mention 0 points at missing sentence abstract[7]"),
    ("relation-not-object", _set("relations.0", "used_for"), ParseError,
     f"{R}: expected an object, got str"),
    ("relation-missing-field", _drop("relations.0.sentence"), ParseError,
     f"{R}: missing field(s) ['sentence']"),
    ("relation-unknown-field", _set("relations.0.weight", 1.0), ParseError,
     f"{R}: unknown field(s) ['weight']"),
    ("relation-head-str", _set("relations.0.head_id", "0"), ParseError,
     f"{R}.head_id: expected an integer"),
    ("relation-head-bool", _set("relations.0.head_id", False), ParseError,
     f"{R}.head_id: expected an integer"),
    ("relation-tail-none", _set("relations.0.tail_id", None), ParseError,
     f"{R}.tail_id: expected an integer"),
    ("relation-head-unknown", _set("relations.0.head_id", 99), ValidationError,
     f"{R}: relation endpoint out of range (mention 99)"),
    ("relation-tail-unknown", _set("relations.0.tail_id", -1), ValidationError,
     f"{R}: relation endpoint out of range (mention -1)"),
    ("relation-type-int", _set("relations.0.type", 3), ParseError,
     f"{R}.type: expected a string"),
    ("relation-type-unknown", _set("relations.0.type", "likes"), ParseError,
     f"{R}.type: unknown relation type 'likes'"),
    ("relation-section-list", _set("relations.0.section", ["abstract"]), ParseError,
     f"{R}.section: expected a string"),
    ("relation-section-unknown", _set("relations.0.section", "appendix"),
     ParseError, f"{R}.section: unknown section 'appendix'"),
    ("relation-sentence-str", _set("relations.0.sentence", "0"), ParseError,
     f"{R}.sentence: expected an integer"),
    ("relation-sentence-bool", _set("relations.0.sentence", True), ParseError,
     f"{R}.sentence: expected an integer"),
    ("relation-section-absent", _set("relations.0.section", "body"),
     ValidationError, f"{R}: relation points at missing sentence body[0]"),
    ("relation-sentence-past-end", _set("relations.0.sentence", 3),
     ValidationError, f"{R}: relation points at missing sentence abstract[3]"),
    # endpoints are checked before the type, the type before the section
    ("relation-endpoint-before-type",
     _set("relations.0", {"head_id": 99, "tail_id": 1, "type": "likes",
                          "section": "appendix", "sentence": "0"}),
     ValidationError, f"{R}: relation endpoint out of range (mention 99)"),
    ("relation-type-before-section",
     _set("relations.0", {"head_id": 0, "tail_id": 1, "type": "likes",
                          "section": "appendix", "sentence": "0"}),
     ParseError, f"{R}.type: unknown relation type 'likes'"),
    ("citation-int", _set("citations", ["A1", 3]), ParseError,
     "paper.citations[1]: expected a string"),
    ("citation-empty", _set("citations", [""]), ValidationError,
     "paper.citations[0]: empty citation id"),
    ("cluster-not-list", _set("clusters", [[0], 1]), ParseError,
     "paper.clusters[1]: expected a list of mention ids"),
    ("cluster-empty", _set("clusters", [[]]), ValidationError,
     "paper.clusters[0]: empty cluster"),
    ("cluster-member-str", _set("clusters", [["0"]]), ParseError,
     "paper.clusters[0]: expected an integer"),
    ("cluster-member-bool", _set("clusters", [[0], [True]]), ParseError,
     "paper.clusters[1]: expected an integer"),
    ("cluster-member-unknown", _set("clusters", [[0, 7]]), ValidationError,
     "paper.clusters[0]: unknown mention id 7"),
    ("cluster-member-twice", _set("clusters", [[0], [1, 0]]), ValidationError,
     "paper.clusters[1]: mention 0 in more than one cluster"),
    ("sections-unknown", _set("sections.appendix", [["x"]]), ParseError,
     f"{S}: unknown field(s) ['appendix']"),
    ("sentences-not-list", _set("sections.abstract", "a neural parser"),
     ParseError, f"{S}.abstract: expected a list of sentences"),
    ("sentence-not-list", _set("sections.abstract.0", "a"), ParseError,
     f"{S}.abstract[0]: expected a list of token strings"),
    ("sentence-token-int", _set("sections.abstract.0", ["a", 1]), ParseError,
     f"{S}.abstract[0]: expected a list of token strings"),
    ("sentence-empty", _set("sections.abstract.0", []), ValidationError,
     f"{S}.abstract[0]: sentence has no tokens"),
]


class TestParseErrorMessages:
    @pytest.mark.parametrize(
        "mutate, error, message",
        [case[1:] for case in PARSE_DEFECTS],
        ids=[case[0] for case in PARSE_DEFECTS],
    )
    def test_defect_raises_exact_error(self, mutate, error, message):
        doc = _annotated_doc()
        parse_paper(doc)  # the base document is valid
        mutate(doc)
        with pytest.raises(ReviewgenError) as info:
            parse_paper(doc)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_file_locus_is_the_path(self, tmp_path):
        doc = _annotated_doc()
        doc["mentions"][1]["span"] = [0, True]
        path = tmp_path / "X1.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_paper(path)
        assert str(info.value) == f"{path}.mentions[1].span[1]: expected an integer"

    def test_int_subclasses_other_than_bool_pass(self):
        class Index(int):
            pass

        doc = _annotated_doc()
        doc["mentions"][1].update(id=Index(1), sentence=Index(0), span=[Index(0), 1])
        doc["relations"][0].update(tail_id=Index(1), sentence=Index(0))
        record = parse_paper(doc)
        assert record == parse_paper(_annotated_doc())


class TestSerializePaper:
    def test_round_trip_equals(self):
        record = parse_paper(minimal_doc())
        again = parse_paper(json.loads(serialize_paper(record)))
        assert again == record

    def test_toy_files_are_canonical(self):
        for path in sorted((TOY_DIR / "papers").glob("*.json")):
            disk = path.read_text(encoding="utf-8")
            assert serialize_paper(load_paper(path)) == disk, path.name

    def test_serialization_is_deterministic(self):
        record = parse_paper(minimal_doc())
        assert serialize_paper(record) == serialize_paper(record)


class TestLoadCorpus:
    def test_toy_corpus_loads(self, corpus):
        assert [p.paper_id for p in corpus] == [f"P{i:02d}" for i in range(1, 13)]

    def test_duplicate_paper_id_rejected(self, tmp_path):
        doc = minimal_doc()
        (tmp_path / "a.json").write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "b.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_corpus(tmp_path)

    def test_not_a_directory_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_corpus(tmp_path / "missing")

    def test_manifest_counts_match_raw_and_parsed(self, corpus):
        manifest = json.loads(
            (TOY_DIR / "manifest.json").read_text(encoding="utf-8")
        )
        assert sorted(manifest) == [p.paper_id for p in corpus]
        for record in corpus:
            raw = json.loads(
                (TOY_DIR / "papers" / f"{record.paper_id}.json").read_text(
                    encoding="utf-8"
                )
            )
            expected = manifest[record.paper_id]
            assert len(raw["mentions"]) == expected["mentions"]
            assert len(raw["relations"]) == expected["relations"]
            assert len(raw["clusters"]) == expected["clusters"]
            assert raw["year"] == expected["year"]
            assert len(record.annotations.mentions) == expected["mentions"]
            assert len(record.annotations.relations) == expected["relations"]
            assert len(record.annotations.clusters) == expected["clusters"]


def labels_doc(reviews: list[dict]) -> list:
    return [{"paper_id": "P99", "reviews": reviews}]


def write_labels(tmp_path: Path, payload: list, name: str = "labels.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestReviewLabels:
    def test_two_reviews_kept(self, tmp_path):
        path = write_labels(
            tmp_path,
            labels_doc([{"overall_recommendation": 3},
                        {"overall_recommendation": 4}]),
        )
        (entry,) = load_review_labels(path)
        assert entry.paper_id == "P99"
        assert len(entry.per_review) == 2

    def test_score_above_five_rejected(self, tmp_path):
        path = write_labels(tmp_path, labels_doc([{"clarity": 6}]))
        with pytest.raises(ValidationError):
            load_review_labels(path)

    def test_score_below_one_rejected(self, tmp_path):
        path = write_labels(tmp_path, labels_doc([{"clarity": 0}]))
        with pytest.raises(ValidationError):
            load_review_labels(path)

    def test_empty_labels_list_rejected(self, tmp_path):
        path = write_labels(tmp_path, [])
        with pytest.raises(ValidationError) as exc:
            load_review_labels(path)
        assert str(exc.value) == f"labels file {path} contains no entries"

    def test_empty_review_list_rejected(self, tmp_path):
        path = write_labels(tmp_path, labels_doc([]))
        with pytest.raises(ValidationError, match="no reviews"):
            load_review_labels(path)

    def test_summary_score_rejected(self, tmp_path):
        path = write_labels(tmp_path, labels_doc([{"summary": 3}]))
        with pytest.raises(ValidationError):
            load_review_labels(path)

    def test_unknown_category_rejected(self, tmp_path):
        path = write_labels(tmp_path, labels_doc([{"excitement": 3}]))
        with pytest.raises(ParseError):
            load_review_labels(path)

    def test_toy_labels_cover_background_papers(self, labels):
        assert sorted(labels) == [f"P{i:02d}" for i in range(1, 12)]
        for entry in labels.values():
            for review in entry.per_review:
                assert set(review) == set(SCOREABLE_CATEGORIES)


class TestTargetScores:
    def test_half_rounds_up(self, tmp_path):
        path = write_labels(
            tmp_path,
            labels_doc([{"overall_recommendation": 3},
                        {"overall_recommendation": 4}]),
        )
        (entry,) = load_review_labels(path)
        assert target_scores(entry)[Category.OVERALL_RECOMMENDATION] == 4

    def test_below_half_rounds_down(self, tmp_path):
        path = write_labels(
            tmp_path, labels_doc([{"novelty": 2}, {"novelty": 2}, {"novelty": 3}])
        )
        (entry,) = load_review_labels(path)
        assert target_scores(entry)[Category.NOVELTY] == 2

    def test_single_review_is_identity(self, tmp_path):
        path = write_labels(tmp_path, labels_doc([{"overall_recommendation": 5}]))
        (entry,) = load_review_labels(path)
        assert target_scores(entry) == {Category.OVERALL_RECOMMENDATION: 5}

    def test_category_missing_from_all_reviews_absent(self, tmp_path):
        path = write_labels(tmp_path, labels_doc([{"clarity": 4}]))
        (entry,) = load_review_labels(path)
        assert Category.SOUNDNESS not in target_scores(entry)

    def test_matches_exact_rational_rounding(self, tmp_path):
        """Oracle: round-half-up via Fraction arithmetic, no floats."""
        rng = random.Random(7)
        for case in range(200):
            scores = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
            # a new file per case: replacing a written file can cost 0.1 s
            path = write_labels(
                tmp_path, labels_doc([{"soundness": s} for s in scores]),
                f"labels{case}.json",
            )
            (entry,) = load_review_labels(path)
            mean = Fraction(sum(scores), len(scores))
            expected = int(mean + Fraction(1, 2))  # floor(mean + 1/2)
            assert target_scores(entry)[Category.SOUNDNESS] == expected, scores
