"""Template-based review text: polarity selection, per-category comments,
document assembly, and JSON/Markdown rendering.

Templates live in a user-editable JSON file with ``${SLOT}`` markers.
Comment generation is a pure function of (evidence, scores, templates),
so end-to-end output stays byte-reproducible.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from reviewgen.corpus import (
    Category,
    RelationType,
    SCOREABLE_CATEGORIES,
    _CATEGORY_BY_VALUE,
    _RELATION_BY_VALUE,
    _load_json,
)
from reviewgen.errors import (
    UnsupportedRelationError,
    ValidationError,
)
from reviewgen.evidence import (
    ComparisonEntry,
    EvidenceBundle,
    SUMMARY_RELATIONS,
    recommend_related,
)
from reviewgen.kg import (
    ElementKey,
    KnowledgeGraph,
    NormalizedString,
)
from reviewgen.scoring.train import ScoreReport

MAX_RELATION_SENTENCES = 5
MAX_NOVEL_ELEMENTS = 5
MAX_COMPARISON_ENTRIES = 3

TEMPLATE_SLOTS = {"SCORE", "ELEMENTS", "RECOMMENDATIONS", "RELATION_SENTENCES"}
PHRASE_SLOTS = {"HEAD", "TAIL"}

GENERIC_CATEGORIES = (
    Category.APPROPRIATENESS,
    Category.CLARITY,
    Category.SOUNDNESS,
    Category.POTENTIAL_IMPACT,
    Category.OVERALL_RECOMMENDATION,
)

# Prose glosses for naming an edge element inside a comment; distinct from
# relation_phrases, which render full sentences for the summary.
_RELATION_GLOSS = {
    RelationType.USED_FOR: "used for",
    RelationType.FEATURE_OF: "as a feature of",
    RelationType.EVALUATE_FOR: "evaluated for",
    RelationType.HYPONYM_OF: "as a kind of",
    RelationType.PART_OF: "as part of",
    RelationType.COMPARE: "compared with",
    RelationType.CONJUNCTION: "together with",
}


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


def select_polarity(score: int) -> Polarity:
    """Positive iff the score is above 3."""
    if not 1 <= score <= 5:
        raise ValueError(f"score must be in 1..5, got {score}")
    return Polarity.POSITIVE if score > 3 else Polarity.NEGATIVE


@dataclass(frozen=True)
class CategoryTemplates:
    """Polarity-keyed sentence templates; *_empty are no-evidence variants."""

    positive: tuple[str, ...]
    negative: tuple[str, ...]
    positive_empty: tuple[str, ...] = ()
    negative_empty: tuple[str, ...] = ()

    def pick(self, polarity: Polarity, empty: bool, variant: int) -> str:
        positive = polarity is Polarity.POSITIVE
        pool = self.positive if positive else self.negative
        if empty:
            pool = (self.positive_empty if positive else self.negative_empty) or pool
        return pool[variant % len(pool)]


@dataclass(frozen=True)
class TemplateSet:
    categories: dict[Category, CategoryTemplates]
    relation_phrases: dict[RelationType, str]
    variant: int = 0  # index into each template pool; 0 = first


# the pools of a category's templates, in declaration order
_TEMPLATE_POOLS = tuple(f.name for f in fields(CategoryTemplates))


def _slot_names(template: str, locus: str) -> set[str]:
    """Identifiers used by a ``${SLOT}`` template; malformed markers fail."""
    names = set()
    for match in string.Template.pattern.finditer(template):
        if match.group("invalid") is not None:
            raise ValidationError(f"{locus}: malformed template marker")
        name = match.group("named") or match.group("braced")
        if name:
            names.add(name)
    return names


def _parse_template_block(raw: object, locus: str) -> CategoryTemplates:
    if not isinstance(raw, dict):
        raise ValidationError(f"{locus}: expected an object")
    unknown = set(raw).difference(_TEMPLATE_POOLS)
    if unknown:
        raise ValidationError(f"{locus}: unknown key {sorted(unknown)[0]!r}")
    lists = {}
    for kind in _TEMPLATE_POOLS:  # in order, so the first bad pool is seed-independent
        value = raw.get(kind, [])
        if not isinstance(value, list) or any(
            not isinstance(x, str) for x in value
        ):
            raise ValidationError(f"{locus}.{kind}: expected a list of strings")
        for tpl in value:
            bad = _slot_names(tpl, locus) - TEMPLATE_SLOTS
            if bad:
                raise ValidationError(
                    f"category {locus!r}: unknown slot {sorted(bad)[0]!r}"
                )
        lists[kind] = tuple(value)
    if not lists["positive"] or not lists["negative"]:
        raise ValidationError(
            f"category {locus!r} needs at least one template per polarity"
        )
    return CategoryTemplates(**lists)


def parse_templates(raw: object) -> TemplateSet:
    """Check a template file as it is read; a file with several faults
    names the first in reading order: the top level and ``variant``, each
    category in file order, a missing category in ``Category`` order, each
    phrase in file order, then a missing summary phrase in ``RelationType``
    order."""
    if not isinstance(raw, dict):
        raise ValidationError("template file: expected a top-level object")
    unknown = set(raw) - {"categories", "relation_phrases", "variant"}
    if unknown:
        raise ValidationError(f"template file: unknown key {sorted(unknown)[0]!r}")
    raw_cats = raw.get("categories")
    raw_phrases = raw.get("relation_phrases")
    if not isinstance(raw_cats, dict) or not isinstance(raw_phrases, dict):
        raise ValidationError(
            "template file needs 'categories' and 'relation_phrases' objects"
        )
    variant = raw.get("variant", 0)
    if type(variant) is not int or variant < 0:
        raise ValidationError("variant must be a non-negative integer")
    categories = {}
    for name, block in raw_cats.items():
        if name not in _CATEGORY_BY_VALUE:
            raise ValidationError(f"unknown category {name!r} in templates")
        categories[_CATEGORY_BY_VALUE[name]] = _parse_template_block(block, name)
    for category in Category:
        if category not in categories:
            raise ValidationError(f"templates missing category {category.value!r}")
    phrases = {}
    for name, phrase in raw_phrases.items():
        if name not in _RELATION_BY_VALUE:
            raise ValidationError(f"unknown relation {name!r} in templates")
        if not isinstance(phrase, str):
            raise ValidationError(f"phrase for {name!r} must be a string")
        if _slot_names(phrase, f"phrase {name}") != PHRASE_SLOTS:
            raise ValidationError(
                f"phrase for {name!r} must use exactly HEAD and TAIL"
            )
        phrases[_RELATION_BY_VALUE[name]] = phrase
    for relation in RelationType:  # enum order, so the first missing is fixed
        if relation in SUMMARY_RELATIONS and relation not in phrases:
            raise ValidationError(f"relation_phrases missing {relation.value!r}")
    return TemplateSet(categories=categories, relation_phrases=phrases, variant=variant)


def load_templates(path: str | Path) -> TemplateSet:
    return parse_templates(_load_json(path))


def default_templates() -> TemplateSet:
    """The template set shipped with the package."""
    text = (
        resources.files("reviewgen.data.templates")
        .joinpath("default.json")
        .read_text(encoding="utf-8")
    )
    return parse_templates(json.loads(text))


def _comment(
    templates: TemplateSet, category: Category, score: int, empty: bool, **slots: object
) -> list[str]:
    """The one comment recipe: the score's polarity picks the category's pool
    (its *_empty pool when there is no evidence), the set's variant picks the
    template, and ``slots`` fill it; unset slots render blank."""
    template = templates.categories[category].pick(
        select_polarity(score), empty, templates.variant
    )
    blank = dict.fromkeys(TEMPLATE_SLOTS, "")
    return [string.Template(template).substitute(blank, SCORE=score, **slots)]


def element_text(key: ElementKey, surfaces: Mapping[NormalizedString, str]) -> str:
    """Human-readable name of an element, using original-casing surfaces."""
    head = surfaces.get(key.head, " ".join(key.head))
    if key.relation is None:
        return head
    tail = surfaces.get(key.tail, " ".join(key.tail))
    return f"{head} {_RELATION_GLOSS[key.relation]} {tail}"


def realize_relation(
    edge: ElementKey, graph: KnowledgeGraph, phrases: Mapping[RelationType, str]
) -> str:
    """One sentence for one edge, HEAD/TAIL filled with entity surfaces."""
    if edge.relation not in phrases:
        raise UnsupportedRelationError(
            f"no phrase for relation {edge.relation.value!r}"
        )
    head = graph.entity_by_representative[edge.head].rep_surface
    tail = graph.entity_by_representative[edge.tail].rep_surface
    return string.Template(phrases[edge.relation]).substitute(HEAD=head, TAIL=tail)


def generate_summary(
    summary: KnowledgeGraph, overall_score: int, templates: TemplateSet
) -> list[str]:
    """Summary comment controlled by the overall recommendation score."""
    edges = sorted(summary.edges, key=ElementKey.sort_key)
    realized = [
        realize_relation(e, summary, templates.relation_phrases)
        for e in edges[:MAX_RELATION_SENTENCES]
    ]
    return _comment(templates, Category.SUMMARY, overall_score, not realized,
                    RELATION_SENTENCES=" ".join(realized))


def generate_novelty(
    novelty_new: Sequence[ElementKey],
    score: int,
    templates: TemplateSet,
    surfaces: Mapping[NormalizedString, str],
) -> list[str]:
    """Novelty comment: states the exact new-element count, lists up to 5."""
    count = len(novelty_new)
    shown = [element_text(k, surfaces) for k in novelty_new[:MAX_NOVEL_ELEMENTS]]
    noun = "element" if count == 1 else "elements"
    listing = f"{count} new knowledge {noun}"
    if shown:
        listing += ": " + "; ".join(shown)
    return _comment(templates, Category.NOVELTY, score, not novelty_new,
                    ELEMENTS=listing)


def generate_comparison(
    comparison: Sequence[ComparisonEntry],
    score: int,
    templates: TemplateSet,
    surfaces: Mapping[NormalizedString, str],
) -> list[str]:
    """Comparison comment naming uncited-paper recommendations per element."""
    entries = comparison[:MAX_COMPARISON_ENTRIES]
    clauses = []
    for entry in entries:
        refs = recommend_related(entry)
        listed = ", ".join(f"{ref.paper_id} ({ref.year})" for ref in refs)
        clauses.append(f"for {element_text(entry.element, surfaces)}: {listed}")
    return _comment(templates, Category.MEANINGFUL_COMPARISON, score, not entries,
                    RECOMMENDATIONS="; ".join(clauses))


def generate_generic(
    category: Category, score: int, templates: TemplateSet
) -> list[str]:
    """One polarity-matched sentence with the score filled in."""
    if category not in GENERIC_CATEGORIES:
        raise ValueError(f"{category.value} has its own generator")
    return _comment(templates, category, score, False)


@dataclass(frozen=True)
class ReviewDocument:
    """A complete generated review."""

    paper_id: str
    scores: ScoreReport
    comments: dict[Category, list[str]]


def assemble(
    paper_id: str,
    scores: ScoreReport,
    bundle: EvidenceBundle,
    templates: TemplateSet,
) -> ReviewDocument:
    """Build the full eight-category review document."""
    missing = [c for c in SCOREABLE_CATEGORIES if c not in scores.scores]
    if missing:
        raise ValueError(f"scores missing category {missing[0].value!r}")
    comments: dict[Category, list[str]] = {
        Category.SUMMARY: generate_summary(
            bundle.summary, scores.overall, templates
        ),
        Category.NOVELTY: generate_novelty(
            bundle.novelty_new,
            scores.scores[Category.NOVELTY].score,
            templates,
            bundle.surfaces,
        ),
        Category.MEANINGFUL_COMPARISON: generate_comparison(
            bundle.comparison,
            scores.scores[Category.MEANINGFUL_COMPARISON].score,
            templates,
            bundle.surfaces,
        ),
    }
    for category in GENERIC_CATEGORIES:
        comments[category] = generate_generic(
            category, scores.scores[category].score, templates
        )
    return ReviewDocument(paper_id=paper_id, scores=scores, comments=comments)


def _category_title(category: Category) -> str:
    return category.value.replace("_", " ").title()


def render(doc: ReviewDocument, fmt: str = "markdown") -> str:
    """Canonical JSON or Markdown text."""
    if fmt == "json":
        payload = {
            "paper_id": doc.paper_id,
            "scores": {
                category.value: {
                    "score": cs.score,
                    "confidence": cs.confidence,
                    "probabilities": list(cs.probabilities),
                }
                for category, cs in doc.scores.scores.items()
            },
            "comments": {
                category.value: sentences
                for category, sentences in doc.comments.items()
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "markdown":
        lines = [f"# Review of {doc.paper_id}", ""]
        for category in Category:
            title = _category_title(category)
            cs = doc.scores.scores.get(category)
            if cs is None:
                lines.append(f"## {title}")
            else:
                lines.append(
                    f"## {title} (score: {cs.score}, "
                    f"confidence: {cs.confidence:.6f})"
                )
            lines.append("")
            lines.extend(doc.comments.get(category, []))
            lines.append("")
        return "\n".join(lines)
    raise ValueError(f"unknown render format {fmt!r}")
