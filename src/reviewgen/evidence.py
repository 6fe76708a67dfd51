"""Per-category review evidence from comparing the three knowledge graphs.

Novelty evidence is the set difference between a paper's elements and the
background index; comparison evidence is the matched-but-uncited papers
behind the paper's high-TF-IDF elements; summary evidence is the subgraph
of relations worth describing in prose. The numeric feature vector that
feeds the score predictor is derived from the same pieces. A bundle scores
the paper's TF-IDF once; the comparison evidence and the mean-TF-IDF
feature both read that one score map.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from reviewgen import np
from reviewgen.corpus import EntityType, PaperRecord, RelationType
from reviewgen.background import (
    BackgroundIndex,
    PaperRef,
    build_index,
    match_element,
    tfidf,
)
from reviewgen.kg import (
    RELATED_SCOPE,
    TARGET_SCOPE,
    ElementKey,
    KnowledgeGraph,
    NormalizedString,
    build_kg,
    elements,
)

SUMMARY_RELATIONS: frozenset[RelationType] = frozenset(
    {
        RelationType.USED_FOR,
        RelationType.FEATURE_OF,
        RelationType.COMPARE,
        RelationType.EVALUATE_FOR,
    }
)

TFIDF_THRESHOLD = 0.5
DEFAULT_RECOMMENDATIONS = 5

# Feature vector layout: new-node counts per entity type (6), new-edge
# counts per relation type (7), graph totals, comparison entry count,
# and the mean TF-IDF over the paper's elements.
FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"new_nodes_{t.value}" for t in EntityType)
    + tuple(f"new_edges_{r.value}" for r in RelationType)
    + ("total_entities", "total_edges", "comparison_entries", "mean_tfidf")
)
FEATURE_DIM = len(FEATURE_NAMES)
assert FEATURE_DIM == 17


@dataclass(frozen=True)
class ComparisonEntry:
    """One high-TF-IDF element with the matched papers the author missed."""

    element: ElementKey
    tfidf: float
    uncited: tuple[PaperRef, ...]  # year descending, then paper_id ascending


@dataclass(frozen=True)
class EvidenceBundle:
    summary: KnowledgeGraph
    novelty_new: tuple[ElementKey, ...]
    comparison: tuple[ComparisonEntry, ...]
    features: np.ndarray
    gp: KnowledgeGraph  # target-scope graph
    grel: KnowledgeGraph  # related-work graph
    # representative -> original-casing surface, for rendering comments;
    # target-scope entities win over related-work ones on collisions
    surfaces: dict[NormalizedString, str] = field(default_factory=dict)


@dataclass(frozen=True)
class NoveltyTimeline:
    entries: tuple[tuple[int, float], ...]  # (cutoff_year, mean_new_elements)


def extract_summary(gp: KnowledgeGraph) -> KnowledgeGraph:
    """Subgraph of the four describable relation types and their endpoints."""
    edges = tuple(e for e in gp.edges if e.relation in SUMMARY_RELATIONS)
    keep = {e.head for e in edges} | {e.tail for e in edges}
    entities = tuple(e for e in gp.entities if e.representative in keep)
    return KnowledgeGraph(entities, edges)


def _novelty_candidates(gp: KnowledgeGraph) -> list[ElementKey]:
    generic_reps = {
        e.representative for e in gp.entities if e.entity_type is EntityType.GENERIC
    }
    return [k for k in elements(gp) if k.is_edge or k.head not in generic_reps]


def extract_novelty(gp: KnowledgeGraph, index: BackgroundIndex) -> list[ElementKey]:
    """Elements of ``gp`` with no fuzzy match anywhere in the background.

    Node keys of generic-typed entities are excluded ("it", "this method"
    would otherwise dominate the counts).
    """
    return [key for key in _novelty_candidates(gp) if not match_element(index, key)]


def extract_comparison(
    scores: dict[ElementKey, float],
    grel: KnowledgeGraph,
    index: BackgroundIndex,
    citations: set[str],
) -> list[ComparisonEntry]:
    """Matched-but-uncited background papers per high-TF-IDF element.

    ``scores`` is ``tfidf(index, gp)`` of the paper's target graph. A
    matched paper counts as cited when its id is in the citation list
    or when any of its indexed elements matches the related-work graph
    (annotation citation lists may be incomplete). Entries keep only
    elements with TF-IDF strictly above the threshold and a non-empty
    uncited list, sorted by TF-IDF descending then key order.
    """
    covered: set[str] = set()
    for key in elements(grel):
        covered.update(ref.paper_id for ref in match_element(index, key))

    entries = []
    for key, score in scores.items():
        if score <= TFIDF_THRESHOLD:
            continue
        matched = match_element(index, key)
        uncited = tuple(
            ref
            for ref in matched
            if ref.paper_id not in citations and ref.paper_id not in covered
        )
        if uncited:
            entries.append(ComparisonEntry(key, score, uncited))
    entries.sort(key=lambda e: (-e.tfidf, e.element.sort_key()))
    return entries


def recommend_related(
    entry: ComparisonEntry, k: int = DEFAULT_RECOMMENDATIONS
) -> list[PaperRef]:
    """The most recent uncited papers for one comparison entry, capped at k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return list(entry.uncited[:k])


def evidence_features(
    gp: KnowledgeGraph,
    novelty_new: list[ElementKey],
    comparison: list[ComparisonEntry],
    scores: dict[ElementKey, float],
) -> np.ndarray:
    """Deterministic 17-dim summary of one paper's evidence; ``scores`` is
    ``tfidf(index, gp)``, whose mean is the last feature."""
    features = dict.fromkeys(FEATURE_NAMES, 0.0)
    by_rep = gp.entity_by_representative
    for key in novelty_new:
        if key.is_edge:
            features[f"new_edges_{key.relation.value}"] += 1.0
        else:
            features[f"new_nodes_{by_rep[key.head].entity_type.value}"] += 1.0
    features["total_entities"] = float(len(gp.entities))
    features["total_edges"] = float(len(gp.edges))
    features["comparison_entries"] = float(len(comparison))
    if scores:
        features["mean_tfidf"] = float(np.mean(list(scores.values())))
    return np.array(list(features.values()), dtype=np.float64)


def build_bundle(paper: PaperRecord, index: BackgroundIndex) -> EvidenceBundle:
    """Full evidence bundle for one paper against a background index."""
    gp = build_kg(paper, TARGET_SCOPE)
    grel = build_kg(paper, RELATED_SCOPE)
    novelty_new = extract_novelty(gp, index)
    scores = tfidf(index, gp)
    comparison = extract_comparison(scores, grel, index, set(paper.citations))
    features = evidence_features(gp, novelty_new, comparison, scores)
    surfaces = {e.representative: e.rep_surface for e in grel.entities}
    surfaces.update((e.representative, e.rep_surface) for e in gp.entities)
    return EvidenceBundle(
        summary=extract_summary(gp),
        novelty_new=tuple(novelty_new),
        comparison=tuple(comparison),
        features=features,
        gp=gp,
        grel=grel,
        surfaces=surfaces,
    )


def novelty_timeline(
    papers: list[PaperRecord],
    corpus: Sequence[PaperRecord | Path],
    years: list[int],
) -> NoveltyTimeline:
    """Mean new-element count of ``papers`` per background cutoff year.

    ``corpus`` is what ``build_index`` takes: papers, or paper files.

    One index at the last cutoff serves every year: an element is new at
    cutoff Y when none of its matched papers is older than Y, which is
    what matching against ``restrict(index, Y)`` would find.
    """
    if any(b <= a for a, b in zip(years, years[1:])):
        raise ValueError("years must be strictly increasing")
    if not papers:
        raise ValueError("papers must be non-empty")
    if not years:
        return NoveltyTimeline(())
    index = build_index(corpus, years[-1])
    # per candidate element: the year of its oldest matched paper, or the
    # last cutoff when nothing matches (new at every cutoff)
    oldest = []
    for paper in papers:
        for key in _novelty_candidates(build_kg(paper, TARGET_SCOPE)):
            refs = match_element(index, key)  # year descending
            oldest.append(refs[-1].year if refs else years[-1])
    return NoveltyTimeline(
        tuple((y, sum(o >= y for o in oldest) / len(papers)) for y in years)
    )


def format_timeline(timeline: NoveltyTimeline) -> str:
    """Two-column plot-data text: year<TAB>mean, one entry per line."""
    return "".join(f"{year}\t{mean:.6f}\n" for year, mean in timeline.entries)
