"""Background knowledge base: who said what, before a cutoff year.

The index maps every knowledge element seen in pre-cutoff papers to the
papers (with years) that contain it, and carries the paper counts needed
for TF-IDF. Matching against the index is fuzzy: two elements match when
their representatives contain one another (lifted to both endpoints for
edges). A token-level hint index accelerates queries; the brute-force
scan lives in the tests as the oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from reviewgen.corpus import (
    PaperRecord,
    RelationType,
    SectionKind,
    _read_text,
    _write_atomic,
)
from reviewgen.errors import (
    CutoffMismatchError,
    FormatVersionError,
    ParseError,
    PreconditionViolation,
    ValidationError,
)
from reviewgen.kg import (
    TARGET_SCOPE,
    ElementKey,
    KnowledgeGraph,
    NormalizedString,
    build_kg,
    coreferential,
    elements,
)

_FORMAT_NAME = "reviewgen-background-index"
_FORMAT_VERSION = 1


class PaperRef(NamedTuple):
    paper_id: str
    year: int


@dataclass
class BackgroundIndex:
    """Element postings over all corpus papers published before the cutoff.

    ``n_papers`` counts every pre-cutoff paper, including papers that
    contribute no elements; ``year_counts`` records how many papers were
    counted per publication year so the index can later be narrowed to an
    earlier cutoff without rescanning the corpus.
    """

    cutoff_year: int
    n_papers: int
    year_counts: dict[int, int]
    postings: dict[ElementKey, tuple[PaperRef, ...]]

    @cached_property
    def _hints(self) -> dict[str, dict[str, list[ElementKey]]]:
        # token -> keys whose head contains the token, split by node/edge
        hints: dict[str, dict[str, list[ElementKey]]] = {"node": {}, "edge": {}}
        for key in self.postings:
            by_token = hints["edge" if key.is_edge else "node"]
            for token in set(key.head):
                by_token.setdefault(token, []).append(key)
        return hints

    def candidate_keys(self, key: ElementKey) -> list[ElementKey]:
        """Posting keys that could match ``key``, superset of true matches."""
        hints = self._hints["edge" if key.is_edge else "node"]
        seen: set[ElementKey] = set()
        out = []
        for token in key.head:
            for candidate in hints.get(token, ()):
                if candidate not in seen:
                    seen.add(candidate)
                    out.append(candidate)
        return out


def _keys_match(query: ElementKey, candidate: ElementKey) -> bool:
    if query.is_edge != candidate.is_edge:
        return False
    if not query.is_edge:
        return coreferential(query.head, candidate.head)
    return (
        query.relation is candidate.relation
        and coreferential(query.head, candidate.head)
        and coreferential(query.tail, candidate.tail)
    )


def build_index(
    corpus: list[PaperRecord],
    cutoff_year: int,
    scope: frozenset[SectionKind] = TARGET_SCOPE,
) -> BackgroundIndex:
    """Index the elements of every corpus paper with year < cutoff_year.

    Per-paper graphs are built over ``scope`` (abstract + conclusion by
    default; indexing whole bodies inflates document frequencies).
    """
    seen_ids: set[str] = set()
    for paper in corpus:
        if paper.paper_id in seen_ids:
            raise ValidationError(f"duplicate paper_id {paper.paper_id!r} in corpus")
        seen_ids.add(paper.paper_id)

    year_counts: dict[int, int] = {}
    postings: dict[ElementKey, list[PaperRef]] = {}
    for paper in corpus:
        if paper.year >= cutoff_year:
            continue
        year_counts[paper.year] = year_counts.get(paper.year, 0) + 1
        ref = PaperRef(paper.paper_id, paper.year)
        for key in elements(build_kg(paper, scope)):
            postings.setdefault(key, []).append(ref)

    return BackgroundIndex(
        cutoff_year=cutoff_year,
        n_papers=sum(year_counts.values()),
        year_counts=year_counts,
        postings={
            key: tuple(sorted(refs)) for key, refs in postings.items()
        },
    )


def restrict(index: BackgroundIndex, cutoff_year: int) -> BackgroundIndex:
    """Narrow an index to an earlier cutoff without rebuilding."""
    if cutoff_year > index.cutoff_year:
        raise CutoffMismatchError(
            f"cannot widen index cutoff {index.cutoff_year} to {cutoff_year}"
        )
    if cutoff_year == index.cutoff_year:
        return index
    year_counts = {y: c for y, c in index.year_counts.items() if y < cutoff_year}
    postings = {}
    for key, refs in index.postings.items():
        kept = tuple(r for r in refs if r.year < cutoff_year)
        if kept:
            postings[key] = kept
    return BackgroundIndex(
        cutoff_year=cutoff_year,
        n_papers=sum(year_counts.values()),
        year_counts=year_counts,
        postings=postings,
    )


def match_element(index: BackgroundIndex, key: ElementKey) -> tuple[PaperRef, ...]:
    """All indexed papers containing an element that matches ``key``.

    Node keys match node postings whose representatives contain one
    another; edge keys additionally require equal relation types and
    matching on both endpoints. Papers come year descending, then by
    paper_id.
    """
    hits: dict[str, int] = {}
    for candidate in index.candidate_keys(key):
        if _keys_match(key, candidate):
            for ref in index.postings[candidate]:
                hits[ref.paper_id] = ref.year
    refs = (PaperRef(p, y) for p, y in hits.items())
    return tuple(sorted(refs, key=lambda r: (-r.year, r.paper_id)))


def _mention_count(kg: KnowledgeGraph, key: ElementKey) -> int:
    by_rep = kg.entity_by_representative
    if not key.is_edge:
        return len(by_rep[key.head].mentions)
    # an edge is supported at most as often as its least-mentioned endpoint
    return min(len(by_rep[key.head].mentions), len(by_rep[key.tail].mentions))


def tfidf(index: BackgroundIndex, key: ElementKey, paper_kg: KnowledgeGraph) -> float:
    """Normalized TF-IDF of one element of ``paper_kg`` in [0, 1].

    tf is the element's mention count over the paper's maximum;
    idf is ln(N/df)/ln(N) with df counted through fuzzy matching, so a
    background "LSTM network" suppresses an "LSTM" query. Elements absent
    from the background (df == 0) take idf 1.
    """
    keys = elements(paper_kg)
    if key not in keys:
        raise PreconditionViolation(f"element not in paper graph: {key}")
    counts = {k: _mention_count(paper_kg, k) for k in keys}
    tf_norm = counts[key] / max(counts.values())
    df_eff = len(match_element(index, key))
    n = index.n_papers
    if df_eff == 0 or n <= 1:
        idf_norm = 1.0
    else:
        idf_norm = math.log(n / df_eff) / math.log(n)
    return min(1.0, max(0.0, tf_norm * idf_norm))


def _key_to_fields(key: ElementKey) -> list:
    if key.is_edge:
        return ["edge", " ".join(key.head), key.relation.value, " ".join(key.tail)]
    return ["node", " ".join(key.head)]


def _key_from_fields(fields: list, locus: str) -> ElementKey:
    def tokens(text: object) -> NormalizedString:
        if not isinstance(text, str):
            raise ParseError(f"{locus}: element text {text!r} is not a string")
        parts = tuple(text.split(" "))
        if not all(parts):
            raise ParseError(f"{locus}: empty token in element key")
        return parts

    if not isinstance(fields, list) or not fields:
        raise ParseError(f"{locus}: expected a non-empty array")
    kind = fields[0]
    if kind == "node" and len(fields) == 2:
        return ElementKey.node(tokens(fields[1]))
    if kind == "edge" and len(fields) == 4:
        try:
            relation = RelationType(fields[2])
        except ValueError as exc:
            raise ParseError(f"{locus}: unknown relation {fields[2]!r}") from exc
        return ElementKey.edge(tokens(fields[1]), relation, tokens(fields[3]))
    raise ParseError(f"{locus}: malformed element key {fields!r}")


def save_index(index: BackgroundIndex, path: str | Path) -> None:
    """Write the index as a line-oriented, diff-friendly text file.

    Line 1 is a JSON header; each following line is one element key with
    its postings, in key order. The write is atomic (temp file + rename)
    and byte-stable for equal indexes.
    """
    path = Path(path)
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "cutoff_year": index.cutoff_year,
        "n_papers": index.n_papers,
        "year_counts": {str(y): c for y, c in sorted(index.year_counts.items())},
        "num_keys": len(index.postings),
    }
    lines = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
    for key in sorted(index.postings, key=ElementKey.sort_key):
        row = _key_to_fields(key) + [
            [[ref.paper_id, ref.year] for ref in index.postings[key]]
        ]
        lines.append(json.dumps(row, ensure_ascii=False))
    _write_atomic(path, "\n".join(lines) + "\n")


def load_index(path: str | Path) -> BackgroundIndex:
    """Read an index file; truncated or malformed files never yield a partial index."""
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines:
        raise FormatVersionError(f"{path}: empty index file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed header: {exc.msg}") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
        raise FormatVersionError(f"{path}: not a background index file")
    if header.get("version") != _FORMAT_VERSION:
        raise FormatVersionError(
            f"{path}: unsupported version {header.get('version')!r}"
        )
    try:
        cutoff_year = int(header["cutoff_year"])
        n_papers = int(header["n_papers"])
        year_counts = {int(y): c for y, c in header["year_counts"].items()}
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed header fields: {exc}") from exc
    for year, count in year_counts.items():
        if type(count) is not int or count < 1 or year >= cutoff_year:
            raise ParseError(f"{path}: bad year count {year}: {count!r}")
    if n_papers != sum(year_counts.values()):
        raise ParseError(f"{path}: n_papers {n_papers} is not the sum of year_counts")
    num_keys = header.get("num_keys")
    if type(num_keys) is not int:
        raise ParseError(f"{path}: num_keys must be an integer, got {num_keys!r}")
    body = lines[1:]
    if len(body) != num_keys:
        raise ParseError(
            f"{path}: expected {num_keys} key lines, found {len(body)} (truncated?)"
        )
    postings: dict[ElementKey, tuple[PaperRef, ...]] = {}
    for lineno, line in enumerate(body, start=2):
        locus = f"{path}:{lineno}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{locus}: malformed row: {exc.msg}") from exc
        if not isinstance(row, list):
            raise ParseError(f"{locus}: row must be an array")
        key = _key_from_fields(row[:-1], locus)
        refs = row[-1]
        if not isinstance(refs, list) or not refs:
            raise ParseError(f"{locus}: postings must be a non-empty array")
        parsed = []
        for ref in refs:
            if (
                not isinstance(ref, list)
                or len(ref) != 2
                or not isinstance(ref[0], str)
                or type(ref[1]) is not int
            ):
                raise ParseError(f"{locus}: malformed posting {ref!r}")
            if ref[1] >= cutoff_year:
                raise ParseError(
                    f"{locus}: posting {ref!r} is not before cutoff {cutoff_year}"
                )
            parsed.append(PaperRef(ref[0], ref[1]))
        if key in postings:
            raise ParseError(f"{locus}: duplicate element key")
        postings[key] = tuple(parsed)
    return BackgroundIndex(
        cutoff_year=cutoff_year,
        n_papers=n_papers,
        year_counts=year_counts,
        postings=postings,
    )
