"""Data model and file ingestion for annotated papers and review labels.

A paper arrives as a single self-contained JSON document carrying its
sectioned sentences, entity mentions, coreference clusters, and relation
annotations (the output of an upstream IE system, consumed as-is).
Review labels arrive as one JSON document per corpus. Parsing is strict:
unknown fields are rejected so format drift surfaces immediately. A
paper's per-item fields (mentions, relations, cluster members,
citations) are each tested once, inline, and an error's locus string is
built only when the check fails. The per-item records (``Mention``,
``RelationAnnotation``) are ``NamedTuple``s: a paper builds dozens of
them, and a tuple is built several times faster than a frozen dataclass.
They are immutable all the same. A sentence is a plain tuple of tokens,
and its index is its position in the section.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence, Set
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Any, NamedTuple

from reviewgen.errors import ParseError, ValidationError
from reviewgen.parallel import fork_map


# Enum members are singletons and compare by identity, so the three
# annotation enums hash by identity too: ``object.__hash__`` runs in C,
# where ``Enum.__hash__`` is a Python call on every dict and set lookup.
# Never iterate a set of them where order shows; use the enum's order.
class SectionKind(Enum):
    """The four section scopes a paper may provide, declared in reading order."""

    __hash__ = object.__hash__

    ABSTRACT = "abstract"
    CONCLUSION = "conclusion"
    RELATED_WORK = "related_work"
    BODY = "body"


class EntityType(Enum):
    """Entity mention types, ordered by specificity (used for tie-breaking)."""

    __hash__ = object.__hash__

    TASK = "task"
    METHOD = "method"
    EVALUATION_METRIC = "evaluation_metric"
    MATERIAL = "material"
    OTHER_SCIENTIFIC_TERM = "other_scientific_term"
    GENERIC = "generic"


class RelationType(Enum):
    """Relation edge types between entities."""

    __hash__ = object.__hash__

    USED_FOR = "used_for"
    FEATURE_OF = "feature_of"
    EVALUATE_FOR = "evaluate_for"
    HYPONYM_OF = "hyponym_of"
    PART_OF = "part_of"
    COMPARE = "compare"
    CONJUNCTION = "conjunction"


class Category(Enum):
    """Review categories. All but SUMMARY carry a 1-5 score."""

    SUMMARY = "summary"
    APPROPRIATENESS = "appropriateness"
    CLARITY = "clarity"
    NOVELTY = "novelty"
    SOUNDNESS = "soundness"
    MEANINGFUL_COMPARISON = "meaningful_comparison"
    POTENTIAL_IMPACT = "potential_impact"
    OVERALL_RECOMMENDATION = "overall_recommendation"


SCOREABLE_CATEGORIES: tuple[Category, ...] = tuple(
    c for c in Category if c is not Category.SUMMARY
)

_SECTION_BY_VALUE = {k.value: k for k in SectionKind}
_ENTITY_TYPE_BY_VALUE = {t.value: t for t in EntityType}
_RELATION_BY_VALUE = {r.value: r for r in RelationType}
_CATEGORY_BY_VALUE = {c.value: c for c in Category}

Section = tuple[tuple[str, ...], ...]  # its sentences, each a tuple of tokens


# The parser builds these per-item records with ``tuple.__new__(cls,
# fields)``, fields in declaration order: that skips the Python-level
# ``__new__`` of a NamedTuple class, about half of a record's cost.
class Mention(NamedTuple):
    """One entity mention; ``surface`` is the joined tokens of its span."""

    mention_id: int
    section: SectionKind
    sentence_index: int
    span: tuple[int, int]
    surface: str
    entity_type: EntityType


class RelationAnnotation(NamedTuple):
    head_id: int
    tail_id: int
    relation: RelationType
    section: SectionKind
    sentence_index: int


@dataclass(frozen=True)
class IEAnnotations:
    """Mentions, coreference clusters, and relations from the IE system.

    Mentions not covered by any explicit cluster form implicit singleton
    clusters.
    """

    mentions: tuple[Mention, ...]
    clusters: tuple[tuple[int, ...], ...]
    relations: tuple[RelationAnnotation, ...]


@dataclass(frozen=True)
class PaperRecord:
    """One paper: metadata, sectioned sentences, annotations, citations."""

    paper_id: str
    title: str
    year: int
    venue: str
    sections: dict[SectionKind, Section] = field(default_factory=dict)
    citations: tuple[str, ...] = ()
    annotations: IEAnnotations = field(
        default_factory=lambda: IEAnnotations((), (), ())
    )


@dataclass(frozen=True)
class ReviewLabels:
    """All reviews for one paper; each review maps categories to 1-5 scores."""

    paper_id: str
    per_review: tuple[dict[Category, int], ...]


def _check_keys(obj: dict, required: Set[str], optional: Set[str], locus: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{locus}: expected an object, got {type(obj).__name__}")
    if obj.keys() == required:
        return
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ParseError(f"{locus}: missing field(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ParseError(f"{locus}: unknown field(s) {sorted(unknown)}")


def _as_str(value, locus: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{locus}: expected a string")
    return value


def _as_int(value, locus: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{locus}: expected an integer")
    return value


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc


def _load_json(path: str | Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a huge integer, or deep nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


@contextlib.contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise an ``OSError`` as one that names ``path``."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temp file beside ``path``, then rename it over ``path``.

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the 0o600 of ``mkstemp``, which the rename would keep. An
    ``OSError`` names ``path``, never the temp file, which is removed.
    """
    with _naming(path):
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(handle.fileno(), 0o666 & ~umask)
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _parse_sections(raw: dict, locus: str) -> dict[SectionKind, Section]:
    _check_keys(raw, set(), set(_SECTION_BY_VALUE), locus)
    sections: dict[SectionKind, Section] = {}
    for name, sentences_raw in raw.items():
        kind = _SECTION_BY_VALUE[name]
        if not isinstance(sentences_raw, list):
            raise ParseError(f"{locus}.{name}: expected a list of sentences")
        sentences = []
        for i, tokens_raw in enumerate(sentences_raw):
            if not isinstance(tokens_raw, list) or not all(
                map(isinstance, tokens_raw, repeat(str))
            ):
                raise ParseError(f"{locus}.{name}[{i}]: expected a list of token strings")
            if not tokens_raw:
                raise ValidationError(f"{locus}.{name}[{i}]: sentence has no tokens")
            sentences.append(tuple(tokens_raw))
        sections[kind] = tuple(sentences)
    return sections


_MENTION_FIELDS = frozenset({"id", "section", "sentence", "span", "type"})
_RELATION_FIELDS = frozenset({"head_id", "tail_id", "type", "section", "sentence"})


def _parse_mention(raw: dict, sections, where: str, i: int) -> Mention:
    """Mention ``i`` of the list at ``where``; each field is tested once,
    inline, and the locus ``where[i]`` is formatted only to raise."""
    if type(raw) is not dict or raw.keys() != _MENTION_FIELDS:
        _check_keys(raw, _MENTION_FIELDS, set(), f"{where}[{i}]")
    mention_id = raw["id"]
    if type(mention_id) is not int:
        _as_int(mention_id, f"{where}[{i}].id")
    section_name = raw["section"]
    if type(section_name) is not str:
        _as_str(section_name, f"{where}[{i}].section")
    section = _SECTION_BY_VALUE.get(section_name)
    if section is None:
        raise ParseError(f"{where}[{i}].section: unknown section {section_name!r}")
    sentence_index = raw["sentence"]
    if type(sentence_index) is not int:
        _as_int(sentence_index, f"{where}[{i}].sentence")
    type_name = raw["type"]
    if type(type_name) is not str:
        _as_str(type_name, f"{where}[{i}].type")
    entity_type = _ENTITY_TYPE_BY_VALUE.get(type_name)
    if entity_type is None:
        raise ParseError(f"{where}[{i}].type: unknown entity type {type_name!r}")
    span = raw["span"]
    if not isinstance(span, list) or len(span) != 2:
        raise ParseError(f"{where}[{i}].span: expected [start, end]")
    start, end = span
    if type(start) is not int:
        _as_int(start, f"{where}[{i}].span[0]")
    if type(end) is not int:
        _as_int(end, f"{where}[{i}].span[1]")

    sentences = sections.get(section)
    if sentences is None or not 0 <= sentence_index < len(sentences):
        raise ValidationError(
            f"{where}[{i}]: mention {mention_id} points at missing sentence "
            f"{section_name}[{sentence_index}]"
        )
    tokens = sentences[sentence_index]
    if not (0 <= start < end <= len(tokens)):
        raise ValidationError(
            f"{where}[{i}]: mention {mention_id} span [{start},{end}) outside "
            f"sentence of length {len(tokens)}"
        )
    return tuple.__new__(Mention, (
        mention_id, section, sentence_index, (start, end),
        " ".join(tokens[start:end]), entity_type,
    ))


def _parse_relation(
    raw: dict, sections, mention_ids: set[int], where: str, i: int
) -> RelationAnnotation:
    """Relation ``i`` of the list at ``where``, checked like a mention."""
    if type(raw) is not dict or raw.keys() != _RELATION_FIELDS:
        _check_keys(raw, _RELATION_FIELDS, set(), f"{where}[{i}]")
    head_id = raw["head_id"]
    if type(head_id) is not int:
        _as_int(head_id, f"{where}[{i}].head_id")
    tail_id = raw["tail_id"]
    if type(tail_id) is not int:
        _as_int(tail_id, f"{where}[{i}].tail_id")
    for endpoint in (head_id, tail_id):
        if endpoint not in mention_ids:
            raise ValidationError(
                f"{where}[{i}]: relation endpoint out of range (mention {endpoint})"
            )
    type_name = raw["type"]
    if type(type_name) is not str:
        _as_str(type_name, f"{where}[{i}].type")
    relation = _RELATION_BY_VALUE.get(type_name)
    if relation is None:
        raise ParseError(f"{where}[{i}].type: unknown relation type {type_name!r}")
    section_name = raw["section"]
    if type(section_name) is not str:
        _as_str(section_name, f"{where}[{i}].section")
    section = _SECTION_BY_VALUE.get(section_name)
    if section is None:
        raise ParseError(f"{where}[{i}].section: unknown section {section_name!r}")
    sentence_index = raw["sentence"]
    if type(sentence_index) is not int:
        _as_int(sentence_index, f"{where}[{i}].sentence")
    sentences = sections.get(section)
    if sentences is None or not 0 <= sentence_index < len(sentences):
        raise ValidationError(
            f"{where}[{i}]: relation points at missing sentence "
            f"{section_name}[{sentence_index}]"
        )
    return tuple.__new__(
        RelationAnnotation, (head_id, tail_id, relation, section, sentence_index)
    )


def parse_paper(raw, locus: str = "paper") -> PaperRecord:
    """Build a validated PaperRecord from a decoded annotation document."""
    _check_keys(
        raw,
        {"paper_id", "title", "year", "venue", "citations", "sections",
         "mentions", "clusters", "relations"},
        set(),
        locus,
    )
    paper_id = _as_str(raw["paper_id"], f"{locus}.paper_id")
    if not paper_id:
        raise ValidationError(f"{locus}: paper_id must be non-empty")
    title = _as_str(raw["title"], f"{locus}.title")
    year = _as_int(raw["year"], f"{locus}.year")
    if year < 1900:
        raise ValidationError(f"{locus}: year {year} below 1900")
    venue = _as_str(raw["venue"], f"{locus}.venue")

    citations_raw = raw["citations"]
    if not isinstance(citations_raw, list):
        raise ParseError(f"{locus}.citations: expected a list")
    citations = []
    for i, cid in enumerate(citations_raw):
        if type(cid) is not str:
            _as_str(cid, f"{locus}.citations[{i}]")
        if not cid:
            raise ValidationError(f"{locus}.citations[{i}]: empty citation id")
        citations.append(cid)

    sections = _parse_sections(raw["sections"], f"{locus}.sections")

    mentions_raw = raw["mentions"]
    if not isinstance(mentions_raw, list):
        raise ParseError(f"{locus}.mentions: expected a list")
    where = f"{locus}.mentions"
    mentions = tuple(
        _parse_mention(m, sections, where, i) for i, m in enumerate(mentions_raw)
    )
    mention_ids = {m.mention_id for m in mentions}
    if len(mention_ids) != len(mentions):
        raise ValidationError(f"{locus}: duplicate mention ids")

    clusters_raw = raw["clusters"]
    if not isinstance(clusters_raw, list):
        raise ParseError(f"{locus}.clusters: expected a list")
    clusters = []
    seen: set[int] = set()
    for i, cluster_raw in enumerate(clusters_raw):
        if not isinstance(cluster_raw, list):
            raise ParseError(f"{locus}.clusters[{i}]: expected a list of mention ids")
        if not cluster_raw:
            raise ValidationError(f"{locus}.clusters[{i}]: empty cluster")
        members = []
        for mid in cluster_raw:
            if type(mid) is not int:
                _as_int(mid, f"{locus}.clusters[{i}]")
            if mid not in mention_ids:
                raise ValidationError(
                    f"{locus}.clusters[{i}]: unknown mention id {mid}"
                )
            if mid in seen:
                raise ValidationError(
                    f"{locus}.clusters[{i}]: mention {mid} in more than one cluster"
                )
            seen.add(mid)
            members.append(mid)
        clusters.append(tuple(members))

    relations_raw = raw["relations"]
    if not isinstance(relations_raw, list):
        raise ParseError(f"{locus}.relations: expected a list")
    where = f"{locus}.relations"
    relations = tuple(
        _parse_relation(r, sections, mention_ids, where, i)
        for i, r in enumerate(relations_raw)
    )

    return PaperRecord(
        paper_id=paper_id,
        title=title,
        year=year,
        venue=venue,
        sections=sections,
        citations=tuple(citations),
        annotations=IEAnnotations(mentions, tuple(clusters), relations),
    )


def load_paper(path: str | Path) -> PaperRecord:
    """Load and validate one paper annotation file."""
    return parse_paper(_load_json(path), locus=str(path))


def serialize_paper(record: PaperRecord) -> str:
    """Serialize a PaperRecord back to its annotation-document form.

    ``parse_paper(json.loads(serialize_paper(r)))`` equals ``r`` field by
    field; the byte output is canonical (sorted keys, two-space indent).
    """
    doc = {
        "paper_id": record.paper_id,
        "title": record.title,
        "year": record.year,
        "venue": record.venue,
        "citations": list(record.citations),
        "sections": {
            kind.value: [list(s) for s in sentences]
            for kind, sentences in record.sections.items()
        },
        "mentions": [
            {
                "id": m.mention_id,
                "section": m.section.value,
                "sentence": m.sentence_index,
                "span": list(m.span),
                "type": m.entity_type.value,
            }
            for m in record.annotations.mentions
        ],
        "clusters": [list(c) for c in record.annotations.clusters],
        "relations": [
            {
                "head_id": r.head_id,
                "tail_id": r.tail_id,
                "type": r.relation.value,
                "section": r.section.value,
                "sentence": r.sentence_index,
            }
            for r in record.annotations.relations
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def corpus_paths(directory: str | Path) -> list[Path]:
    """The ``*.json`` paper files of a corpus directory, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ParseError(f"{directory}: not a directory")
    return sorted(directory.glob("*.json"))


def _check_unique_ids(paper_ids: Iterable[str]) -> None:
    """Raise on the first paper id that repeats an earlier one."""
    seen: set[str] = set()
    for paper_id in paper_ids:
        if paper_id in seen:
            raise ValidationError(f"duplicate paper_id {paper_id!r} in corpus")
        seen.add(paper_id)


# Below this many papers a corpus is read in process. The fixed cost of
# a parallel fork_map (its imports, forking a worker, piping its results
# back and reaping it) is about 5-7 ms on a 2-CPU Xeon, for 16 trivial
# items in the first call of a process; each paper's result is pickled
# back on top of that.
# On a 2-CPU AMD EPYC box, two workers graphing perfbench/corpusgen.py papers
# beat one core in 5 of 11 paired runs at 200 papers and 7 of 11 at 300.
PARALLEL_MIN_PAPERS = 250


def read_corpus(
    corpus: Sequence[PaperRecord | Path], fn: Callable[[PaperRecord], Any]
) -> list[tuple[str, Any]]:
    """``[(paper_id, fn(paper)), ...]`` over papers, or over paper files in
    the order ``corpus_paths`` gives, each loaded before ``fn`` sees it.
    From ``PARALLEL_MIN_PAPERS`` papers up, it runs on every CPU and only
    these pairs come back. A bad file anywhere, else the first repeated id,
    raises the error ``load_corpus`` would."""

    def entry(item: PaperRecord | Path) -> tuple[str, Any]:
        paper = item if isinstance(item, PaperRecord) else load_paper(item)
        return paper.paper_id, fn(paper)

    spread = fork_map if len(corpus) >= PARALLEL_MIN_PAPERS else map
    entries = list(spread(entry, corpus))
    _check_unique_ids(paper_id for paper_id, _ in entries)
    return entries


def load_corpus(directory: str | Path) -> list[PaperRecord]:
    """Load every ``*.json`` paper file in a directory, sorted by filename."""
    papers = [load_paper(p) for p in corpus_paths(directory)]
    _check_unique_ids(p.paper_id for p in papers)
    return papers


def load_review_labels(path: str | Path) -> list[ReviewLabels]:
    """Load a review label file: at least one entry, one per paper, multiple
    reviews kept."""
    raw = _load_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a top-level list")
    if not raw:
        raise ValidationError(f"labels file {path} contains no entries")
    out = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        locus = f"{path}[{i}]"
        _check_keys(entry, {"paper_id", "reviews"}, set(), locus)
        paper_id = _as_str(entry["paper_id"], f"{locus}.paper_id")
        if not paper_id:
            raise ValidationError(f"{locus}: paper_id must be non-empty")
        if paper_id in seen:
            raise ValidationError(f"{locus}: second entry for paper {paper_id!r}")
        seen.add(paper_id)
        reviews_raw = entry["reviews"]
        if not isinstance(reviews_raw, list):
            raise ParseError(f"{locus}.reviews: expected a list")
        if not reviews_raw:
            raise ValidationError(f"{locus}: no reviews for paper {paper_id!r}")
        reviews = []
        for j, review_raw in enumerate(reviews_raw):
            rlocus = f"{locus}.reviews[{j}]"
            if not isinstance(review_raw, dict):
                raise ParseError(f"{rlocus}: expected an object")
            review: dict[Category, int] = {}
            for name, score in review_raw.items():
                if name not in _CATEGORY_BY_VALUE:
                    raise ParseError(f"{rlocus}: unknown category {name!r}")
                category = _CATEGORY_BY_VALUE[name]
                if category is Category.SUMMARY:
                    raise ValidationError(f"{rlocus}: summary never carries a score")
                score = _as_int(score, f"{rlocus}.{name}")
                if not 1 <= score <= 5:
                    raise ValidationError(
                        f"{rlocus}.{name}: score {score} outside 1-5"
                    )
                review[category] = score
            reviews.append(review)
        out.append(ReviewLabels(paper_id, tuple(reviews)))
    return out


def target_scores(labels: ReviewLabels) -> dict[Category, int]:
    """Per-category target score: the rounded (half-up) average over reviews.

    A category missing from every review is absent from the output. The
    mean is computed in exact integer arithmetic, so 3.5 always rounds
    to 4 regardless of float representation.
    """
    if not labels.per_review:
        raise ValidationError(f"no reviews for paper {labels.paper_id!r}")
    totals: dict[Category, list[int]] = {}
    for review in labels.per_review:
        for category, score in review.items():
            totals.setdefault(category, []).append(score)
    # round-half-up(s/n) == floor((2s + n) / (2n)) for positive s, n
    return {
        category: (2 * sum(scores) + len(scores)) // (2 * len(scores))
        for category, scores in totals.items()
    }
