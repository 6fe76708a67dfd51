"""Acceptance gate: one test per shipping criterion, run with pytest -v.

Each test is numbered; the -v line per test is the pass/fail record. The
headline numbers from the motivating research (review-score accuracy near
71%, comment validity percentages) depend on a proprietary review corpus
and a neural IE model, neither of which is available here, so criterion 1
records that substitution and criteria 2-11 verify the pipeline against
independent oracles, contracts, and byte-exact golden output instead.
"""

from __future__ import annotations

import json
import random
import sys
import time

import numpy as np
import pytest

from reviewgen.background import build_index, load_index, save_index
from reviewgen.corpus import parse_paper, serialize_paper
from reviewgen.errors import ParseError
from reviewgen.evidence import (
    extract_comparison,
    extract_novelty,
    novelty_timeline,
    recommend_related,
)
from reviewgen.kg import (
    ElementKey,
    RELATED_SCOPE,
    TARGET_SCOPE,
    build_kg,
    elements,
)
from reviewgen.review import Polarity, select_polarity
from reviewgen.scoring.grad import gradient_check
from reviewgen.scoring.model import TrainConfig, forward_trace
from reviewgen.scoring.train import load_model, save_model, train
from reviewgen.background import tfidf as index_tfidf

from synth import (
    build_random_corpus,
    build_random_paper,
    make_separable_dataset,
    oracle_novelty,
    oracle_partition,
    oracle_tfidf,
)

from conftest import TOY_DIR, golden, run_cli


def announce(number: int, detail: str) -> None:
    print(f"PASS criterion {number}: {detail}")


def clone_paper(record, paper_id: str, year: int):
    doc = json.loads(serialize_paper(record))
    doc["paper_id"] = paper_id
    doc["year"] = year
    return parse_paper(doc)


def comparison_instances(rng: random.Random, count: int):
    """Randomized (entries, citations) pairs through the real extractors.

    Every fourth instance seeds the background with clones of the probe
    paper so high-overlap entries are guaranteed to appear.
    """
    for case in range(count):
        probe = build_random_paper(
            rng, paper_id="T", year=2018, max_mentions=12,
            with_related_work=rng.random() < 0.5,
        )
        background = build_random_corpus(rng, rng.randint(3, 10))
        if case % 4 == 0:
            for j in range(rng.randint(1, 2)):
                background.append(
                    clone_paper(probe, f"C{case}_{j}", rng.randint(2010, 2017))
                )
        index = build_index(background, 2018)
        ids = [p.paper_id for p in background]
        citations = set(rng.sample(ids, k=rng.randint(0, min(3, len(ids)))))
        gp = build_kg(probe, TARGET_SCOPE)
        grel = build_kg(probe, RELATED_SCOPE)
        scores = index_tfidf(index, gp)
        yield extract_comparison(scores, grel, index, citations), citations


def test_criterion_01_headline_substitution():
    """The published headline metrics need data this build cannot ship.

    Score-prediction accuracy against real review corpora and human
    comment-validity ratings require the original labeled reviews and IE
    model. This suite substitutes oracle equivalence, contract, and
    determinism checks; this test records that every substitute below
    exists so the gate cannot silently lose a criterion.
    """
    module = sys.modules[__name__]
    for number in range(2, 12):
        assert any(
            name.startswith(f"test_criterion_{number:02d}") for name in dir(module)
        ), f"criterion {number} has no test"
    announce(1, "headline metrics substituted by oracle/contract criteria 2-11")


def test_criterion_02_kg_merge_oracle():
    """Entity partition equals the pairwise-containment closure oracle."""
    start = time.perf_counter()
    rng = random.Random(2)
    for case in range(100):
        record = build_random_paper(
            rng, paper_id=f"A{case}", max_mentions=15, max_clusters=8
        )
        kg = build_kg(record, TARGET_SCOPE)
        got = {frozenset(m.mention_id for m in e.mentions) for e in kg.entities}
        want = oracle_partition(record, TARGET_SCOPE, rng)
        assert got == want, f"case {case}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(2, f"100 random papers, exact partition match, {elapsed:.2f}s")


def test_criterion_03_novelty_oracle():
    """extract_novelty equals the index-free double-loop oracle."""
    start = time.perf_counter()
    rng = random.Random(3)
    for case in range(100):
        background = build_random_corpus(rng, rng.randint(0, 20))
        probe = build_random_paper(rng, paper_id="T", year=2018, max_mentions=12)
        index = build_index(background, 2018)
        got = extract_novelty(build_kg(probe, TARGET_SCOPE), index)
        assert got == oracle_novelty(probe, background), f"case {case}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(3, f"100 random instances, exact novelty match, {elapsed:.2f}s")


def test_criterion_04_novelty_anti_monotone(corpus):
    """Mean new-element count never grows as the background cutoff rises."""
    start = time.perf_counter()
    years = list(range(2012, 2019))

    def check(timeline):
        means = [m for _, m in timeline.entries]
        for (y1, m1), (y2, m2) in zip(timeline.entries, timeline.entries[1:]):
            assert m2 <= m1, f"mean rose from {m1} ({y1}) to {m2} ({y2})"

    check(novelty_timeline(corpus, corpus, years))
    for paper in corpus:
        check(novelty_timeline([paper], corpus, years))
    rng = random.Random(4)
    for _ in range(3):
        synthetic = build_random_corpus(rng, 10)
        probe = build_random_paper(rng, paper_id="T", year=2018)
        check(novelty_timeline([probe], synthetic, [2011, 2013, 2015, 2017]))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    announce(4, f"toy and random corpora, all cutoff pairs, {elapsed:.2f}s")


def test_criterion_05_tfidf_oracle():
    """TF-IDF matches the scalar oracle at 1e-12; entries beat 0.5 strictly."""

    def graph_with_counts(tf_count: int, other: int):
        sentences, mentions, clusters = [], [], []
        for surface, count in (("alpha beta", tf_count), ("gamma delta", other)):
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
            "paper_id": "T", "title": "t", "year": 2018, "venue": "v",
            "citations": [], "sections": {"abstract": sentences},
            "mentions": mentions, "clusters": clusters, "relations": [],
        }
        return build_kg(parse_paper(doc), TARGET_SCOPE)

    from reviewgen.background import BackgroundIndex, PaperRef

    rng = random.Random(5)
    key = ElementKey(("alpha", "beta"))
    for case in range(1000):
        n = rng.randint(1, 500)
        df = rng.randint(0, n)
        tf_count = rng.randint(1, 5)
        other = rng.randint(1, 5)
        graph = graph_with_counts(tf_count, other)
        index = BackgroundIndex(
            cutoff_year=2018,
            year_counts={2000: n},
            postings=(
                {key: tuple(PaperRef(f"B{i}", 2000) for i in range(df))}
                if df else {}
            ),
        )
        got = index_tfidf(index, graph)[key]
        want = oracle_tfidf(tf_count, max(tf_count, other), df, n)
        assert abs(got - want) <= 1e-12, f"case {case}: {got} vs {want}"

    entries_seen = 0
    for entries, _ in comparison_instances(random.Random(55), 100):
        for entry in entries:
            assert entry.tfidf > 0.5
            entries_seen += 1
    assert entries_seen > 0
    announce(5, f"1000 scalar cases at 1e-12; {entries_seen} entries all > 0.5")


def test_criterion_06_gradient_check():
    """Analytic gradients match finite differences on 20 seeded models."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        error = gradient_check(seed, dims=(4, 4, 4, 4))
        worst = max(worst, error)
        assert error < 1e-4, f"seed {seed}: {error:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(6, f"20 seeds, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_learnability():
    """The bucketed novelty-count dataset is learned to 95% within 50 epochs."""
    start = time.perf_counter()
    dataset = make_separable_dataset(0)
    assert len(dataset) == 500
    config = TrainConfig(d_w=16, d_h=24, d_a=12, d_e=12, epochs=50,
                         learning_rate=0.01, seed=0)
    first = train(dataset, 30, config)
    second = train(dataset, 30, config)
    for (_, a), (_, b) in zip(first.items(), second.items()):
        np.testing.assert_array_equal(a, b)
    hits = sum(
        int(np.argmax(forward_trace(ex.token_ids, ex.features, first).probs))
        == ex.target
        for ex in dataset
    )
    accuracy = hits / len(dataset)
    elapsed = time.perf_counter() - start
    assert accuracy >= 0.95, f"accuracy {accuracy:.3f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    announce(7, f"train accuracy {accuracy:.3f} in 50 epochs, "
                f"deterministic, {elapsed:.1f}s")


def test_criterion_08_recommendation_contract():
    """recommend_related: never cited, at most 5, newest first, id tie-break."""
    rng = random.Random(8)
    checked = 0
    for entries, citations in comparison_instances(rng, 1000):
        for entry in entries:
            refs = recommend_related(entry)
            assert len(refs) <= 5
            assert refs == list(entry.uncited[: len(refs)])
            for ref in refs:
                assert ref.paper_id not in citations
            keys = [(-ref.year, ref.paper_id) for ref in refs]
            assert keys == sorted(keys)
            checked += 1
    assert checked >= 300, f"only {checked} entries exercised"
    announce(8, f"{checked} recommendations over 1000 instances, 0 violations")


def test_criterion_09_polarity_contract():
    """Positive template family exactly for scores above 3."""
    got = {score: select_polarity(score) for score in range(1, 6)}
    assert {s for s, p in got.items() if p is Polarity.POSITIVE} == {4, 5}
    assert {s for s, p in got.items() if p is Polarity.NEGATIVE} == {1, 2, 3}
    announce(9, "select_polarity positive exactly on {4, 5}")


def test_criterion_10_end_to_end_determinism(trained):
    """Review runs are byte-identical and match the committed goldens.

    Python has a single build mode, so two fresh interpreter runs stand
    in for the build-variant comparison.
    """
    papers = TOY_DIR / "papers"
    md_args = ("review", papers / "P12.json", "--index", trained["index"],
               "--models", trained["models"], "--format", "markdown")
    json_args = md_args[:-1] + ("json",)

    md_first, md_second = run_cli(*md_args), run_cli(*md_args)
    js_first, js_second = run_cli(*json_args), run_cli(*json_args)
    assert md_first.returncode == js_first.returncode == 0
    assert md_first.stdout == md_second.stdout == golden("p12_review.md")
    assert js_first.stdout == js_second.stdout == golden("p12_review.json")

    payload = json.loads(js_first.stdout)
    assert len(payload["scores"]) == 7
    for block in payload["scores"].values():
        assert block["score"] in (1, 2, 3, 4, 5)
        assert 0.0 < block["confidence"] <= 1.0
    assert len(payload["comments"]) == 8
    assert all(payload["comments"].values())
    announce(10, "byte-identical runs matching goldens, shapes verified")


def test_criterion_11_persistence(corpus, trained, tmp_path):
    """Index and model files round-trip bitwise; truncation is rejected."""
    index = build_index(corpus, 2018)
    index_a, index_b = tmp_path / "ia.json", tmp_path / "ib.json"
    save_index(index, index_a)
    save_index(load_index(index_a), index_b)
    assert index_a.read_bytes() == index_b.read_bytes()
    truncated = tmp_path / "it.json"
    lines = index_a.read_text(encoding="utf-8").splitlines(keepends=True)
    truncated.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(ParseError):
        load_index(truncated)

    model_src = next(iter(sorted(trained["models"].glob("*.json"))))
    model = load_model(model_src)
    model_a, model_b = tmp_path / "ma.json", tmp_path / "mb.json"
    save_model(model, model_a)
    save_model(load_model(model_a), model_b)
    assert model_a.read_bytes() == model_b.read_bytes()
    cut = tmp_path / "mt.json"
    data = model_a.read_bytes()
    cut.write_bytes(data[: len(data) - 40])
    with pytest.raises(ParseError):
        load_model(cut)
    announce(11, "index and model files round-trip bitwise, truncation rejected")
