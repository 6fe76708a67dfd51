"""Knowledge-graph construction from paper annotations.

A graph is built over a section scope: mentions are clustered (IE clusters
plus implicit singletons), each cluster gets a representative mention (the
longest informative one), clusters whose representatives contain one
another are merged transitively, and relation annotations are remapped to
the merged entities. Each mention is normalized once per graph, and only
clusters whose representatives share a token are compared for merging.
Equal representatives are coreferential, so the representative names an
entity uniquely within its graph. A graph's edges are ``ElementKey``
values naming their endpoints by it, and graphs compare across papers
through those keys: one per entity node, one per relation edge. An
``Entity``, like an ``ElementKey`` and the records of ``corpus``, is a
``NamedTuple``: every corpus paper builds its graph once, and a tuple is
built several times faster than a frozen dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from operator import attrgetter
from typing import NamedTuple

from reviewgen.corpus import (
    EntityType,
    Mention,
    PaperRecord,
    RelationType,
    SectionKind,
)

NormalizedString = tuple[str, ...]

# G_P-style default scopes: the target-paper graph reads the abstract and
# conclusion; the related-work graph reads the related-work section.
TARGET_SCOPE: frozenset[SectionKind] = frozenset(
    {SectionKind.ABSTRACT, SectionKind.CONCLUSION}
)
RELATED_SCOPE: frozenset[SectionKind] = frozenset({SectionKind.RELATED_WORK})


def normalize(surface: str) -> NormalizedString:
    """Lowercase and whitespace-tokenize; drop punctuation-only tokens.

    Internal hyphens survive ("TF-IDF" -> ("tf-idf",)). A whitespace- or
    punctuation-only surface yields the empty tuple, which callers treat
    as an invalid mention.
    """
    tokens = surface.lower().split()
    if all(map(str.isalnum, tokens)):  # split() yields no empty token
        return tuple(tokens)
    return tuple(t for t in tokens if any(ch.isalnum() for ch in t))


def _rank(norms: dict[int, NormalizedString], mention: Mention) -> tuple:
    """A mention's place in the representative order: informative mentions
    first, then more normalized tokens, the smaller normalized form and the
    lower ``mention_id``; ``norms`` maps ``mention_id`` to its normalized
    surface."""
    norm = norms[mention.mention_id]
    return (
        mention.entity_type is EntityType.GENERIC, -len(norm), norm, mention.mention_id
    )


def _representative(
    cluster: list[Mention], norms: dict[int, NormalizedString]
) -> Mention:
    """The best-ranked mention of a non-empty cluster; the first on a tie."""
    return min(cluster, key=partial(_rank, norms))


def representative_mention(cluster: list[Mention]) -> Mention:
    """Pick the cluster's longest informative mention.

    Informative means entity_type != GENERIC. Among candidates the one
    with the most normalized tokens wins; ties break to the
    lexicographically smallest normalized form, then the lowest
    mention_id. An all-generic cluster is ranked as a whole.
    """
    if not cluster:
        raise ValueError("empty cluster")
    return _representative(
        cluster, {m.mention_id: normalize(m.surface) for m in cluster}
    )


def coreferential(a: NormalizedString, b: NormalizedString) -> bool:
    """True iff one token sequence occurs contiguously inside the other."""
    if not a or not b:
        raise ValueError("coreferential() requires non-empty token tuples")
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    n = len(short)
    if n == len(long):
        return short == long
    if n == 1:
        return short[0] in long
    return any(long[i : i + n] == short for i in range(len(long) - n + 1))


class ElementKey(NamedTuple):
    """A comparable knowledge element: an entity node or a relation edge.

    Node keys carry only ``head``; edge keys carry head, relation, and
    tail representatives. A key is a plain tuple underneath, so it hashes
    and compares as ``(head, relation, tail)``; the background index and
    its loader build tens of thousands of them. ``sort_key`` defines the
    total order used for all deterministic iteration (nodes before edges).
    """

    head: NormalizedString
    relation: RelationType | None = None
    tail: NormalizedString | None = None

    @property
    def is_edge(self) -> bool:
        return self.relation is not None

    def sort_key(self) -> tuple:
        if self.relation is None:
            return (0, self.head, "", ())
        return (1, self.head, self.relation.value, self.tail)

    def __str__(self) -> str:
        if self.relation is None:
            return f"node\t{' '.join(self.head)}"
        return (
            f"edge\t{' '.join(self.head)}\t{self.relation.value}"
            f"\t{' '.join(self.tail)}"
        )


class Entity(NamedTuple):
    """A merged mention cluster with its representative form."""

    mentions: tuple[Mention, ...]
    representative: NormalizedString
    rep_surface: str
    entity_type: EntityType


@dataclass(frozen=True)
class KnowledgeGraph:
    entities: tuple[Entity, ...]
    edges: tuple[ElementKey, ...]  # edge keys, in annotation order

    @cached_property
    def entity_by_representative(self) -> dict[NormalizedString, Entity]:
        return {e.representative: e for e in self.entities}


def _find(parent: list[int], i: int) -> int:
    """The root of ``i`` in the union-find forest ``parent``, halving the
    path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


_ENTITY_TYPES = tuple(EntityType)


def _entity_type_of(mentions: list[Mention]) -> EntityType:
    """Majority type; ties go to the more specific type (enum order)."""
    if len(mentions) == 1:
        return mentions[0].entity_type
    types = [m.entity_type for m in mentions]
    return max(_ENTITY_TYPES, key=types.count)  # the first of equal counts


_mention_id = attrgetter("mention_id")


def build_kg(paper: PaperRecord, scope: set[SectionKind]) -> KnowledgeGraph:
    """Construct the knowledge graph of ``paper`` over the given sections.

    Mentions outside the scope (or normalizing to nothing) are dropped,
    IE clusters are restricted accordingly and completed with singletons,
    and clusters are merged to the representative-containment fixed
    point. Only groups whose representatives share a token are compared,
    since containment implies a shared token. Relations are remapped to
    merged entities, with self-loops dropped; each edge key keeps the
    position of its first relation annotation. Entities and edge keys are
    built with ``tuple.__new__``, as ``corpus`` builds its records.
    """
    if not scope:
        raise ValueError("scope must be non-empty")

    mentions = paper.annotations.mentions
    by_id = {m.mention_id: m for m in mentions}
    # each in-scope mention's normalized surface, computed once per call
    norms: dict[int, NormalizedString] = {
        m.mention_id: norm
        for m in mentions
        if m.section in scope and (norm := normalize(m.surface))
    }

    # each group lists its mentions by mention_id, so an entity made of
    # one group takes the list as it is
    groups: list[list[Mention]] = []
    covered: set[int] = set()
    for cluster in paper.annotations.clusters:
        members = [by_id[i] for i in cluster if i in norms]
        if members:
            members.sort(key=_mention_id)
            groups.append(members)
            covered.update(m.mention_id for m in members)
    groups.extend(
        [m] for m in mentions if m.mention_id in norms and m.mention_id not in covered
    )
    groups.sort(key=lambda ms: ms[0].mention_id)

    # Merge groups whose representatives contain one another. One pairwise
    # pass is sufficient: a merged group's representative is always one of
    # the old representatives, so no merge creates a new containment pair.
    # Two non-empty representatives can only be coreferential if they share
    # a token, so only those pairs are compared. Group j is compared with
    # earlier groups only, so it is its own root until it joins one; the
    # smaller root wins each union, so the order of the unions does not
    # matter. A one-mention group is its own representative.
    rep_mentions = [g[0] if len(g) == 1 else _representative(g, norms) for g in groups]
    reps = [norms[m.mention_id] for m in rep_mentions]
    parent = list(range(len(groups)))
    earlier_with_token: dict[str, list[int]] = {}
    for j, rep in enumerate(reps):
        sharing: set[int] = set()
        for token in set(rep):
            earlier = earlier_with_token.setdefault(token, [])
            sharing.update(earlier)
            earlier.append(j)
        root = j
        for i in sharing:
            other = _find(parent, i)
            if other != root and coreferential(reps[i], rep):
                if other < root:
                    parent[root] = other
                    root = other
                else:
                    parent[other] = root
    members: dict[int, list[int]] = {}
    for i in range(len(groups)):
        members.setdefault(_find(parent, i), []).append(i)

    # The rank puts informative mentions first, so the best of the member
    # groups' representatives is the best mention of the merged group.
    # Equal representatives are merged, so no two entities tie in the sort.
    entities = []
    for parts in members.values():
        if len(parts) == 1:
            rep = rep_mentions[parts[0]]
            group = groups[parts[0]]
        else:
            rep = _representative([rep_mentions[i] for i in parts], norms)
            group = sorted((m for i in parts for m in groups[i]), key=_mention_id)
        entities.append(tuple.__new__(Entity, (
            tuple(group), norms[rep.mention_id], rep.surface, _entity_type_of(group)
        )))
    entities.sort(key=attrgetter("representative"))

    entity_of_mention = {
        m.mention_id: entity.representative
        for entity in entities
        for m in entity.mentions
    }
    edges: dict[ElementKey, None] = {}  # ordered set: first position wins
    for rel in paper.annotations.relations:
        if rel.section not in scope:
            continue
        head = entity_of_mention.get(rel.head_id)
        tail = entity_of_mention.get(rel.tail_id)
        if head is None or tail is None or head == tail:
            continue
        edges[tuple.__new__(ElementKey, (head, rel.relation, tail))] = None

    return KnowledgeGraph(tuple(entities), tuple(edges))


def elements(kg: KnowledgeGraph) -> list[ElementKey]:
    """All knowledge elements of a graph, sorted by the key total order."""
    keys = [ElementKey(e.representative) for e in kg.entities]
    keys.extend(kg.edges)
    keys.sort(key=ElementKey.sort_key)
    return keys
