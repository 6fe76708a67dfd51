"""End-to-end library pipeline on the bundled corpus, pinned by goldens."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from reviewgen.background import load_index, restrict
from reviewgen.corpus import Category, target_scores
from reviewgen.evidence import build_bundle
from reviewgen.review import assemble, default_templates, render
from reviewgen.scoring.train import load_model, predict_scores

from conftest import TOY_DIR, golden

GENERATOR = Path(__file__).parent.parent / "tools" / "gen_toy_corpus.py"


def load_all_models(model_dir):
    from reviewgen.corpus import SCOREABLE_CATEGORIES

    return {
        category: load_model(model_dir / f"{category.value}.json")
        for category in SCOREABLE_CATEGORIES
    }


def test_generator_reproduces_bundled_corpus(tmp_path):
    result = subprocess.run(
        [sys.executable, str(GENERATOR), str(tmp_path)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr

    def files(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    generated, bundled = files(tmp_path), files(TOY_DIR)
    assert sorted(generated) == sorted(bundled)
    for name, data in bundled.items():
        assert generated[name] == data, name


class TestLibraryMatchesCli:
    """The command line is a thin shell over these calls; outputs must agree."""

    def review_doc(self, trained, papers, paper_id):
        index = load_index(trained["index"])
        paper = papers[paper_id]
        restricted = restrict(index, min(index.cutoff_year, paper.year))
        models = load_all_models(trained["models"])
        bundle = build_bundle(paper, restricted)
        report = predict_scores(paper, bundle, models)
        return assemble(paper.paper_id, report, bundle, default_templates())

    def test_review_markdown_golden(self, trained, papers):
        doc = self.review_doc(trained, papers, "P12")
        assert render(doc, "markdown") == golden("p12_review.md")

    def test_review_json_golden(self, trained, papers):
        doc = self.review_doc(trained, papers, "P12")
        assert render(doc, "json") == golden("p12_review.json")


class TestWholeCorpusReviewable:
    def test_every_paper_gets_a_complete_review(self, trained, papers):
        index = load_index(trained["index"])
        models = load_all_models(trained["models"])
        for paper in papers.values():
            restricted = restrict(index, min(index.cutoff_year, paper.year))
            bundle = build_bundle(paper, restricted)
            report = predict_scores(paper, bundle, models)
            doc = assemble(paper.paper_id, report, bundle, default_templates())
            assert len(doc.comments) == 8
            for cs in report.scores.values():
                assert 1 <= cs.score <= 5
                assert 0.0 < cs.confidence <= 1.0
            payload = json.loads(render(doc, "json"))
            assert payload["paper_id"] == paper.paper_id


class TestLabelCoverage:
    def test_labels_span_all_categories_and_papers(self, labels):
        from reviewgen.corpus import SCOREABLE_CATEGORIES

        assert set(labels) == {f"P{i:02d}" for i in range(1, 12)}
        covered = set()
        for label in labels.values():
            for review in label.per_review:
                covered.update(review)
        assert covered == set(SCOREABLE_CATEGORIES)

    def test_targets_are_valid_scores(self, labels):
        for paper_id, label in labels.items():
            targets = target_scores(label)
            assert targets, paper_id
            assert all(1 <= score <= 5 for score in targets.values())


class TestTrainedModelQuality:
    def test_eval_metrics_in_range(self, trained):
        """The pinned eval golden stays sane: accuracy and mse parse and bound."""
        for line in golden("eval.txt").splitlines():
            category, _, accuracy, _, mse = line.split()
            assert 0.0 <= float(accuracy) <= 1.0
            assert float(mse) >= 0.0
            Category(category)

    def test_models_match_pinned_bytes(self, trained):
        """The recipe's seven models are byte for byte those whose sha256
        tools/gen_goldens.py wrote to models.sha256."""
        got = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
            for path in sorted(trained["models"].iterdir())
        )
        assert got == golden("models.sha256")
