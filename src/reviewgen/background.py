"""Background knowledge base: who said what, before a cutoff year.

The index maps every knowledge element seen in pre-cutoff papers to the
papers (with years) that contain it, and carries the paper counts needed
for TF-IDF; ``tfidf`` scores every element of one paper graph per call.
Two representatives match when one occurs contiguously inside the other,
and two edges match when their relations are equal and both endpoints
match. Matching is an exact lookup: one pass over the keys records every
indexed text with its node key, maps each proper sub-span of a text to
the longer texts that hold it, and groups the edge keys by relation and
head. The texts that match a query are then the ones that hold it, and
its own sub-spans that are indexed. The brute-force scan lives in the
tests as the oracle.

A saved index is read back one line per row. json's C scanner parses each
line, and any line it does not parse to its end is parsed again by
``json.loads``, so a row loads, or fails with the message, exactly as it
would through ``json.loads`` alone.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from json.encoder import encode_basestring
from json.scanner import make_scanner
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

from reviewgen.corpus import (
    _RELATION_BY_VALUE,
    PaperRecord,
    _check_keys,
    _read_text,
    _write_atomic,
    read_corpus,
)
from reviewgen.errors import (
    CutoffMismatchError,
    FormatVersionError,
    ParseError,
)
from reviewgen.kg import (
    TARGET_SCOPE,
    ElementKey,
    KnowledgeGraph,
    NormalizedString,
    build_kg,
    elements,
)

_FORMAT_NAME = "reviewgen-background-index"
_FORMAT_VERSION = 1
_HEADER_KEYS = frozenset(
    {"format", "version", "cutoff_year", "n_papers", "year_counts", "num_keys"}
)

# json.loads's own value scanner, called on each index row at offset 0
_scan_row = make_scanner(json.JSONDecoder())


class PaperRef(NamedTuple):
    paper_id: str
    year: int


_year = attrgetter("year")


@dataclass
class BackgroundIndex:
    """Element postings over all corpus papers published before the cutoff.

    ``year_counts`` records how many pre-cutoff papers were counted per
    publication year, including papers that contribute no elements, so the
    index can later be narrowed to an earlier cutoff without rescanning the
    corpus; ``n_papers`` is their sum.

    No posting tuple is empty: ``build_index`` never makes one,
    ``restrict`` drops a key whose papers all fall at or after the new
    cutoff, and ``load_index`` rejects a row without postings. Each paper
    has one ``PaperRef``, shared by its postings and returned, not rebuilt,
    by ``match_element``; ``load_index`` rejects a paper dated twice.
    """

    cutoff_year: int
    year_counts: dict[int, int]
    postings: dict[ElementKey, tuple[PaperRef, ...]]

    @property
    def n_papers(self) -> int:
        return sum(self.year_counts.values())

    @cached_property
    def _lookup(self) -> tuple[dict, dict, dict]:
        # each indexed text (node head, edge head or tail) -> its node key,
        # or None; each proper sub-span -> the longer texts holding it (twice
        # if it occurs twice, which does no harm); (relation, head) -> edge keys
        texts, holders, edges = {}, {}, {}
        for key in self.postings:
            head, relation, tail = key
            if relation is None:
                texts[head] = key
            else:
                edges.setdefault((relation, head), []).append(key)
                texts.setdefault(head, None)
                texts.setdefault(tail, None)
        for text in texts:
            n = len(text)
            for size in range(1, n):
                for i in range(n - size + 1):
                    holders.setdefault(text[i : i + size], []).append(text)
        return texts, holders, edges

    def _matching_texts(self, text: NormalizedString) -> set[NormalizedString]:
        """The indexed texts that hold ``text`` or that it holds."""
        texts, holders, _ = self._lookup
        n = len(text)
        spans = (text[i:j] for i in range(n) for j in range(i + 1, n + 1))
        return {*holders.get(text, ()), *(span for span in spans if span in texts)}

    def candidate_keys(self, key: ElementKey) -> list[ElementKey]:
        """The posting keys that match ``key``, each once.

        A node matches the node keys of its matching texts. An edge
        matches, for each text matching its head, the keys of its relation
        with that head whose tail matches its tail.
        """
        texts, _, edges = self._lookup
        heads = self._matching_texts(key.head)
        if not key.is_edge:
            nodes = (texts[h] for h in heads)
            return [k for k in nodes if k is not None]
        tails = self._matching_texts(key.tail)
        groups = (edges.get((key.relation, h), ()) for h in heads)
        return [k for group in groups for k in group if k.tail in tails]


def _corpus_entry(paper: PaperRecord, cutoff_year: int) -> tuple[int, list | None]:
    """(year, element keys) of one corpus paper; the keys are None from the
    cutoff year on. A key travels as a plain tuple: pickle writes and reads
    one several times faster than an ``ElementKey``, a tuple subclass that
    it can only rebuild through ``__reduce_ex__``."""
    if paper.year >= cutoff_year:
        return paper.year, None
    kg = build_kg(paper, TARGET_SCOPE)
    keys = [(e.representative, None, None) for e in kg.entities]
    keys.extend(map(tuple, kg.edges))
    return paper.year, keys


def build_index(
    corpus: Sequence[PaperRecord | Path], cutoff_year: int
) -> BackgroundIndex:
    """Index the elements of every corpus paper with year < cutoff_year.

    The corpus is what ``read_corpus`` takes, and it is read there: a bad
    file or repeated id raises as ``read_corpus`` says, and a large corpus
    is graphed on every CPU, which sends back only the element keys.
    Per-paper graphs are built over the abstract and conclusion
    (``TARGET_SCOPE``); indexing whole bodies inflates document
    frequencies. Each distinct key becomes an ``ElementKey`` once, here;
    the order of the postings shows nowhere, since every reader sorts or
    matches through sets.
    """
    entries = read_corpus(corpus, partial(_corpus_entry, cutoff_year=cutoff_year))
    # in paper_id order, each key's refs come out sorted, since a paper
    # holds a key once and no two papers share an id
    entries.sort(key=itemgetter(0))

    year_counts: dict[int, int] = {}
    postings: dict[ElementKey, list[PaperRef]] = {}
    for paper_id, (year, keys) in entries:
        if keys is None:
            continue
        year_counts[year] = year_counts.get(year, 0) + 1
        ref = PaperRef(paper_id, year)
        for key in keys:
            refs = postings.get(key)
            if refs is None:
                postings[tuple.__new__(ElementKey, key)] = [ref]
            else:
                refs.append(ref)

    return BackgroundIndex(
        cutoff_year=cutoff_year,
        year_counts=year_counts,
        postings={key: tuple(refs) for key, refs in postings.items()},
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
        year_counts=year_counts,
        postings=postings,
    )


def match_element(index: BackgroundIndex, key: ElementKey) -> tuple[PaperRef, ...]:
    """All indexed papers containing an element that matches ``key``.

    Node keys match node postings whose representatives contain one
    another; edge keys additionally require equal relation types and
    matching on both endpoints. Papers come as the index's own refs,
    year descending, then by paper_id.
    """
    refs = sorted({ref for k in index.candidate_keys(key) for ref in index.postings[k]})
    refs.sort(key=_year, reverse=True)  # stable, so paper_id order within a year
    return tuple(refs)


def tfidf(index: BackgroundIndex, paper_kg: KnowledgeGraph) -> dict[ElementKey, float]:
    """Normalized TF-IDF in [0, 1] of every element of ``paper_kg``, in key order.

    tf is the element's mention count over the paper's maximum; an edge
    counts as often as its less-mentioned endpoint. idf is ln(N/df)/ln(N)
    with df counted through containment matching, so a background "LSTM
    network" suppresses an "LSTM" query. Elements absent from the
    background (df == 0) take idf 1.
    """
    by_rep = paper_kg.entity_by_representative
    counts = {}
    for key in elements(paper_kg):
        ends = (key.head, key.tail) if key.is_edge else (key.head,)
        counts[key] = min(len(by_rep[rep].mentions) for rep in ends)
    max_count = max(counts.values(), default=1)
    n = index.n_papers
    scores = {}
    for key, count in counts.items():
        tf_norm = count / max_count
        df_eff = len(match_element(index, key))
        if df_eff == 0 or n <= 1:
            idf_norm = 1.0
        else:
            idf_norm = math.log(n / df_eff) / math.log(n)
        scores[key] = min(1.0, max(0.0, tf_norm * idf_norm))
    return scores


def _tokens(text: object, interned: dict[str, NormalizedString]) -> NormalizedString:
    if not isinstance(text, str):
        raise ParseError(f"element text {text!r} is not a string")
    parts = interned.get(text)
    if parts is None:
        parts = tuple(text.split(" "))
        if not all(parts):
            raise ParseError("empty token in element key")
        interned[text] = parts
    return parts


def save_index(index: BackgroundIndex, path: str | Path) -> None:
    """Write the index as a line-oriented, diff-friendly text file.

    Line 1 is a JSON header; each following line is one element key with
    its postings, in key order. The write is atomic (temp file + rename)
    and byte-stable for equal indexes. Each row is formatted directly,
    with the string encoder and separators of ``json.dumps(row,
    ensure_ascii=False)``, and has the same bytes.
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
    enc = encode_basestring
    for key in sorted(index.postings, key=ElementKey.sort_key):
        head, relation, tail = key
        refs = "], [".join(
            ["%s, %d" % (enc(paper_id), year) for paper_id, year in index.postings[key]]
        )
        if relation is None:
            lines.append(f'["node", {enc(" ".join(head))}, [[{refs}]]]')
        else:
            lines.append(
                f'["edge", {enc(" ".join(head))}, {enc(relation.value)}, '
                f'{enc(" ".join(tail))}, [[{refs}]]]'
            )
    _write_atomic(path, ("\n".join(lines), "\n"))


def load_index(path: str | Path) -> BackgroundIndex:
    """Read an index file; truncated or malformed files never yield a partial index.

    Besides its syntax, a file must keep what ``build_index`` guarantees:
    one year per paper, every posting year in ``year_counts``, each row's
    refs sorted and unique, and no more distinct papers than ``n_papers``.
    The header holds only the keys ``save_index`` writes. Its ``cutoff_year``,
    ``n_papers``, ``num_keys`` and counts are JSON integers, and each
    ``year_counts`` key is an integer written plainly.

    Each key line is parsed by json's C scanner (``json.scanner.make_scanner``)
    from its first character, and the value is taken only when it ends the
    line. Any other line, one with a syntax error or with whitespace or other
    text after the value, is parsed again by ``json.loads``: it loads as
    ``json.loads`` accepts it, or fails with its message.
    """
    path = Path(path)
    # rows end in "\n" alone: U+2028 and the other breaks that
    # str.splitlines() honours may stand unescaped inside a JSON string
    lines = _read_text(path).split("\n")
    if lines[-1] == "":
        del lines[-1]
    if not lines:
        raise FormatVersionError(f"{path}: empty index file")
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:  # bad syntax, huge int, deep nesting
        msg = getattr(exc, "msg", exc)
        raise ParseError(f"{path}: malformed header: {msg}") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
        raise FormatVersionError(f"{path}: not a background index file")
    version = header.get("version")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise FormatVersionError(f"{path}: unsupported version {version!r}")
    _check_keys(header, _HEADER_KEYS, set(), f"{path}: header")
    try:
        cutoff_year, n_papers = header["cutoff_year"], header["n_papers"]
        year_counts = {int(y): c for y, c in header["year_counts"].items()}
    except (TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed header fields: {exc}") from exc
    for name, value in (("cutoff_year", cutoff_year), ("n_papers", n_papers)):
        if type(value) is not int:
            raise ParseError(f"{path}: {name} must be an integer, got {value!r}")
    for key in header["year_counts"]:
        if key != str(int(key)):
            raise ParseError(f"{path}: year_counts key {key!r} is not a plain integer")
    for year, count in year_counts.items():
        if type(count) is not int or count < 1 or year >= cutoff_year:
            raise ParseError(f"{path}: bad year count {year}: {count!r}")
    if n_papers != sum(year_counts.values()):
        raise ParseError(f"{path}: n_papers {n_papers} is not the sum of year_counts")
    num_keys = header["num_keys"]
    if type(num_keys) is not int:
        raise ParseError(f"{path}: num_keys must be an integer, got {num_keys!r}")
    body = lines[1:]
    if len(body) != num_keys:
        raise ParseError(
            f"{path}: expected {num_keys} key lines, found {len(body)} (truncated?)"
        )
    return BackgroundIndex(
        cutoff_year=cutoff_year,
        year_counts=year_counts,
        postings=_load_rows(body, str(path), cutoff_year, year_counts, n_papers),
    )


def _load_rows(
    body: list[str],
    path: str,
    cutoff_year: int,
    year_counts: dict[int, int],
    n_papers: int,
) -> dict[ElementKey, tuple[PaperRef, ...]]:
    """Parse and check the key lines; each JSON row must sit on its own line.

    A row's checks raise their message bare; the locus ``path:line`` is
    put in front only when one fails. Keys are made with ``tuple.__new__``,
    which skips the Python-level ``__new__`` of the ``NamedTuple``.
    """
    postings: dict[ElementKey, tuple[PaperRef, ...]] = {}
    interned: dict[str, NormalizedString] = {}  # element text -> tokens
    paper_refs: dict[str, PaperRef] = {}  # one ref, and so one year, per paper
    try:
        for lineno, line in enumerate(body, start=2):
            # the C scanner, taken only when the value ends the line; any
            # other line goes to json.loads, which words every error
            try:
                row, end = _scan_row(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line):
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:  # as for the header
                    msg = getattr(exc, "msg", exc)
                    raise ParseError(f"malformed row: {msg}") from exc
            if not isinstance(row, list):
                raise ParseError("row must be an array")
            size = len(row)
            if size == 3 and row[0] == "node":
                key = tuple.__new__(ElementKey, (_tokens(row[1], interned), None, None))
            elif size == 5 and row[0] == "edge":
                relation = row[2]
                if type(relation) is not str or relation not in _RELATION_BY_VALUE:
                    raise ParseError(f"unknown relation {relation!r}")
                head = _tokens(row[1], interned)
                tail = _tokens(row[3], interned)
                key = tuple.__new__(ElementKey, (head, _RELATION_BY_VALUE[relation], tail))
            elif size < 2:
                raise ParseError("expected a non-empty array")
            else:
                raise ParseError(f"malformed element key {row[:-1]!r}")
            refs = row[-1]
            if not isinstance(refs, list) or not refs:
                raise ParseError("postings must be a non-empty array")
            parsed = []
            previous = None
            for ref in refs:
                if (
                    not isinstance(ref, list)
                    or len(ref) != 2
                    or not isinstance(ref[0], str)
                    or type(ref[1]) is not int
                ):
                    raise ParseError(f"malformed posting {ref!r}")
                paper_id, year = ref
                # year_counts holds only years before the cutoff
                if year not in year_counts:
                    if year >= cutoff_year:
                        raise ParseError(
                            f"posting {ref!r} is not before cutoff {cutoff_year}"
                        )
                    raise ParseError(f"posting {ref!r} has no year count")
                if previous is not None and ref <= previous:
                    raise ParseError("postings are unsorted or repeated")
                previous = ref
                paper_ref = paper_refs.get(paper_id)
                if paper_ref is None:
                    paper_ref = paper_refs[paper_id] = PaperRef(paper_id, year)
                elif paper_ref.year != year:
                    raise ParseError(
                        f"paper {paper_id!r} is dated {year} here"
                        f" and {paper_ref.year} elsewhere"
                    )
                parsed.append(paper_ref)
            parsed = tuple(parsed)
            if postings.setdefault(key, parsed) is not parsed:
                raise ParseError("duplicate element key")
    except ParseError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if len(paper_refs) > n_papers:
        raise ParseError(
            f"{path}: postings name {len(paper_refs)} papers, more than"
            f" n_papers {n_papers}"
        )
    return postings
