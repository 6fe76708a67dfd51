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
from reviewgen.errors import ParseError, ValidationError

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


def write_labels(tmp_path: Path, payload: list) -> Path:
    path = tmp_path / "labels.json"
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
            path = write_labels(
                tmp_path, labels_doc([{"soundness": s} for s in scores])
            )
            (entry,) = load_review_labels(path)
            mean = Fraction(sum(scores), len(scores))
            expected = int(mean + Fraction(1, 2))  # floor(mean + 1/2)
            assert target_scores(entry)[Category.SOUNDNESS] == expected, scores
