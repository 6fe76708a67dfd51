"""Select the sentences a category's score model reads.

A category with element-level evidence (novelty, meaningful comparison,
overall recommendation) is scored from the sentences that mention its
evidence entities; every other category, and any category whose evidence
came up empty, falls back to the abstract.
"""

from __future__ import annotations

from reviewgen.corpus import Category, PaperRecord, SectionKind
from reviewgen.evidence import EvidenceBundle
from reviewgen.kg import ElementKey, KnowledgeGraph
from reviewgen.scoring.vocab import SEP_TOKEN, UNK_TOKEN

def _mention_positions(
    kg: KnowledgeGraph, keys: list[ElementKey]
) -> set[tuple[SectionKind, int]]:
    """(section, sentence) pairs where any entity behind ``keys`` is mentioned."""
    by_rep = kg.entity_by_representative
    positions: set[tuple[SectionKind, int]] = set()
    for key in keys:
        reps = [key.head] if key.tail is None else [key.head, key.tail]
        for rep in reps:
            entity = by_rep.get(tuple(rep))
            if entity is None:
                continue
            positions.update(
                (m.section, m.sentence_index) for m in entity.mentions
            )
    return positions


def _evidence_positions(
    bundle: EvidenceBundle, category: Category
) -> set[tuple[SectionKind, int]]:
    if category is Category.OVERALL_RECOMMENDATION:
        return {
            (m.section, m.sentence_index)
            for entity in bundle.summary.entities
            for m in entity.mentions
        }
    if category is Category.NOVELTY:
        return _mention_positions(bundle.gp, list(bundle.novelty_new))
    if category is Category.MEANINGFUL_COMPARISON:
        return _mention_positions(bundle.grel, [e.element for e in bundle.comparison])
    return set()  # score-only categories read the abstract


def category_sentences(
    paper: PaperRecord,
    bundle: EvidenceBundle,
    category: Category,
    max_seq_len: int,
) -> tuple[str, ...]:
    """Token sequence for one category: evidence sentences or the abstract.

    Sentences appear in document order (sections in ``SectionKind``'s
    reading order), separated by SEP; the result is truncated to
    ``max_seq_len`` and is never empty (a paper with no abstract and no
    evidence yields a single UNK token).
    """
    if max_seq_len < 1:
        raise ValueError(f"max_seq_len must be >= 1, got {max_seq_len}")
    positions = _evidence_positions(bundle, category)
    selected = [
        sentence
        for section in SectionKind
        for i, sentence in enumerate(paper.sections.get(section, ()))
        if (section, i) in positions
    ]
    if not selected:
        selected = list(paper.sections.get(SectionKind.ABSTRACT, ()))

    tokens: list[str] = []
    for i, sentence in enumerate(selected):
        if i:
            tokens.append(SEP_TOKEN)
        tokens.extend(sentence)
    if not tokens:
        return (UNK_TOKEN,)
    return tuple(tokens[:max_seq_len])
