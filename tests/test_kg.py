"""Knowledge-graph construction: normalization, representatives, merging."""

from __future__ import annotations

import random

import pytest

from reviewgen import kg as kg_module
from reviewgen.corpus import (
    EntityType,
    IEAnnotations,
    Mention,
    PaperRecord,
    RelationAnnotation,
    RelationType,
    SectionKind,
    parse_paper,
)
from reviewgen.kg import (
    RELATED_SCOPE,
    TARGET_SCOPE,
    ElementKey,
    Entity,
    build_kg,
    coreferential,
    elements,
    normalize,
    representative_mention,
)

import synth
from synth import build_random_paper, oracle_partition


class TestNormalize:
    def test_case_and_whitespace_folding(self):
        assert normalize("Gated  Recurrent Unit") == ("gated", "recurrent", "unit")

    def test_internal_hyphen_kept(self):
        assert normalize("TF-IDF") == ("tf-idf",)

    def test_punctuation_only_token_dropped(self):
        assert normalize("...") == ()
        assert normalize("neural , parser") == ("neural", "parser")


def mention(mid: int, surface: str, etype: str = "method"):
    doc = {
        "paper_id": "M1",
        "title": "t",
        "year": 2015,
        "venue": "v",
        "citations": [],
        "sections": {"abstract": [surface.split() + ["."]]},
        "mentions": [
            {"id": mid, "section": "abstract", "sentence": 0,
             "span": [0, len(surface.split())], "type": etype}
        ],
        "clusters": [],
        "relations": [],
    }
    return parse_paper(doc).annotations.mentions[0]


class TestRepresentativeMention:
    def test_longest_wins(self):
        cluster = [
            mention(0, "translation system"),
            mention(1, "neural machine translation system"),
        ]
        assert representative_mention(cluster).mention_id == 1

    def test_generic_skipped_when_informative_exists(self):
        cluster = [mention(0, "it", "generic"), mention(1, "LSTM model")]
        assert representative_mention(cluster).mention_id == 1

    def test_length_tie_breaks_lexicographically(self):
        cluster = [mention(0, "joint model"), mention(1, "graph model")]
        assert representative_mention(cluster).surface == "graph model"

    def test_all_generic_cluster_ranked_as_whole(self):
        cluster = [mention(0, "it", "generic"), mention(1, "this method", "generic")]
        assert representative_mention(cluster).surface == "this method"

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            representative_mention([])


class TestCoreferential:
    def test_contiguous_containment(self):
        assert coreferential(
            ("gated", "recurrent", "unit"),
            ("attentional", "gated", "recurrent", "unit"),
        )

    def test_identity(self):
        assert coreferential(("machine", "translation"), ("machine", "translation"))

    def test_abbreviation_does_not_match(self):
        assert not coreferential(("gru",), ("gated", "recurrent", "unit"))

    def test_non_contiguous_does_not_match(self):
        assert not coreferential(
            ("gated", "unit"), ("gated", "recurrent", "unit")
        )

    def test_symmetric(self):
        a, b = ("parser",), ("neural", "parser")
        assert coreferential(a, b) == coreferential(b, a) is True

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coreferential((), ("x",))


def paper_doc(**overrides) -> dict:
    doc = {
        "paper_id": "K1",
        "title": "t",
        "year": 2015,
        "venue": "v",
        "citations": [],
        "sections": {"abstract": [["a", "b", "."]]},
        "mentions": [],
        "clusters": [],
        "relations": [],
    }
    doc.update(overrides)
    return doc


class TestBuildKg:
    def test_zero_mentions_in_scope(self):
        record = parse_paper(paper_doc())
        kg = build_kg(record, TARGET_SCOPE)
        assert kg.entities == () and kg.edges == ()

    def test_scope_must_be_non_empty(self):
        record = parse_paper(paper_doc())
        with pytest.raises(ValueError):
            build_kg(record, set())

    def test_contained_reps_merge_and_relation_becomes_self_loop(self):
        doc = paper_doc(
            sections={
                "abstract": [
                    ["recurrent", "unit", "beats", "gated", "recurrent", "unit", "."]
                ]
            },
            mentions=[
                {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 2],
                 "type": "method"},
                {"id": 1, "section": "abstract", "sentence": 0, "span": [3, 6],
                 "type": "method"},
            ],
            relations=[
                {"head_id": 0, "tail_id": 1, "type": "compare",
                 "section": "abstract", "sentence": 0}
            ],
        )
        kg = build_kg(parse_paper(doc), TARGET_SCOPE)
        assert len(kg.entities) == 1
        assert kg.entities[0].representative == ("gated", "recurrent", "unit")
        assert kg.edges == ()

    def test_duplicate_triples_keep_first_position(self):
        # relations A, B, A' (a repeat of A) give edges (A, B): graph order,
        # which is neither key order nor the order of last occurrence
        doc = paper_doc(
            sections={
                "abstract": [["cnn", "for", "parsing", "."]],
                "conclusion": [["cnn", "for", "parsing", "."]],
            },
            mentions=[
                {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 1],
                 "type": "method"},
                {"id": 1, "section": "abstract", "sentence": 0, "span": [2, 3],
                 "type": "task"},
                {"id": 2, "section": "conclusion", "sentence": 0, "span": [0, 1],
                 "type": "method"},
                {"id": 3, "section": "conclusion", "sentence": 0, "span": [2, 3],
                 "type": "task"},
            ],
            relations=[
                {"head_id": 0, "tail_id": 1, "type": "used_for",
                 "section": "abstract", "sentence": 0},
                {"head_id": 0, "tail_id": 1, "type": "compare",
                 "section": "abstract", "sentence": 0},
                {"head_id": 2, "tail_id": 3, "type": "used_for",
                 "section": "conclusion", "sentence": 0},
            ],
        )
        kg = build_kg(parse_paper(doc), TARGET_SCOPE)
        assert kg.edges == (
            ElementKey(("cnn",), RelationType.USED_FOR, ("parsing",)),
            ElementKey(("cnn",), RelationType.COMPARE, ("parsing",)),
        )

    def test_out_of_scope_relation_dropped(self):
        doc = paper_doc(
            sections={
                "abstract": [["cnn", "and", "parsing", "."]],
                "related_work": [["x", "."]],
            },
            mentions=[
                {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 1],
                 "type": "method"},
                {"id": 1, "section": "abstract", "sentence": 0, "span": [2, 3],
                 "type": "task"},
            ],
            relations=[
                {"head_id": 0, "tail_id": 1, "type": "used_for",
                 "section": "related_work", "sentence": 0}
            ],
        )
        kg = build_kg(parse_paper(doc), TARGET_SCOPE)
        assert len(kg.entities) == 2 and kg.edges == ()

    def test_singleton_completion(self):
        record = parse_paper(minimal_two_mention_doc())
        kg = build_kg(record, TARGET_SCOPE)
        assert len(kg.entities) == 2

    def test_deterministic(self):
        rng = random.Random(11)
        record = build_random_paper(rng, max_mentions=12)
        assert build_kg(record, TARGET_SCOPE) == build_kg(record, TARGET_SCOPE)

    def test_entity_lookup_survives_subgraphs(self, papers):
        from reviewgen.evidence import extract_summary

        gp = build_kg(papers["P12"], TARGET_SCOPE)
        summary = extract_summary(gp)
        endpoints = {r for e in summary.edges for r in (e.head, e.tail)}
        assert summary.edges
        assert {e.representative for e in summary.entities} == endpoints

    def test_merged_entity_type_majority(self, papers):
        gp = build_kg(papers["P12"], TARGET_SCOPE)
        by_rep = {e.representative: e for e in gp.entities}
        fused = by_rep[("dual", "decoder", "fusion")]
        # two method mentions and one generic mention vote method
        assert fused.entity_type is EntityType.METHOD
        assert len(fused.mentions) == 3


    def test_no_group_is_ranked_twice(self, monkeypatch):
        # a one-mention group is its own representative; a cluster is ranked
        # once, and a merged entity once, over its groups' representatives
        calls = []
        real = kg_module._representative

        def spy(cluster, norms):
            calls.append(tuple(m.mention_id for m in cluster))
            return real(cluster, norms)

        monkeypatch.setattr(kg_module, "_representative", spy)
        doc = paper_doc(
            sections={"abstract": [
                ["it", "is", "a", "convolutional", "network", "."],
                ["parsing", "with", "cnn", "and", "a", "cnn", "model", "."],
            ]},
            mentions=[
                {"id": 0, "section": "abstract", "sentence": 0, "span": [3, 5],
                 "type": "method"},
                {"id": 1, "section": "abstract", "sentence": 0, "span": [0, 1],
                 "type": "generic"},
                {"id": 2, "section": "abstract", "sentence": 1, "span": [0, 1],
                 "type": "task"},
                {"id": 3, "section": "abstract", "sentence": 1, "span": [2, 3],
                 "type": "method"},
                {"id": 4, "section": "abstract", "sentence": 1, "span": [5, 7],
                 "type": "method"},
            ],
            clusters=[[1, 0]],
        )
        kg = build_kg(parse_paper(doc), TARGET_SCOPE)
        assert [e.representative for e in kg.entities] == [
            ("cnn", "model"), ("convolutional", "network"), ("parsing",)
        ]
        assert sorted(calls) == [(0, 1), (3, 4)]

    def test_later_representative_joins_two_earlier_entities(self):
        # "cnn parsing" holds both earlier representatives, which hold
        # neither each other, so all three groups become one entity
        doc = paper_doc(
            sections={"abstract": [["cnn", "and", "parsing", "by", "cnn", "parsing"]]},
            mentions=[
                {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 1],
                 "type": "method"},
                {"id": 1, "section": "abstract", "sentence": 0, "span": [2, 3],
                 "type": "task"},
                {"id": 2, "section": "abstract", "sentence": 0, "span": [4, 6],
                 "type": "method"},
            ],
        )
        kg = build_kg(parse_paper(doc), TARGET_SCOPE)
        assert partition(kg) == {frozenset({0, 1, 2})}
        assert kg.entities[0].representative == ("cnn", "parsing")

    def test_hand_built_record_with_a_mention_in_two_clusters(self):
        # parse_paper rejects this record, but build_kg takes it: mention 2
        # joins both clusters' entities, and the later entity in
        # representative order names it in the relations
        a = SectionKind.ABSTRACT
        mentions = (
            Mention(0, a, 0, (0, 1), "CNN", EntityType.METHOD),
            Mention(1, a, 0, (1, 3), "convolutional network", EntityType.METHOD),
            Mention(2, a, 0, (3, 4), "it", EntityType.GENERIC),
            Mention(3, a, 0, (4, 5), "parsing", EntityType.TASK),
        )
        relations = (
            RelationAnnotation(3, 0, RelationType.USED_FOR, a, 0),
            RelationAnnotation(2, 1, RelationType.COMPARE, a, 0),
        )
        record = PaperRecord(
            "H1", "t", 2015, "v",
            annotations=IEAnnotations(mentions, ((2, 0), (2, 3)), relations),
        )
        kg = build_kg(record, TARGET_SCOPE)
        assert [
            ([m.mention_id for m in e.mentions], e.representative, e.rep_surface,
             e.entity_type)
            for e in kg.entities
        ] == [
            ([0, 2], ("cnn",), "CNN", EntityType.METHOD),
            ([1], ("convolutional", "network"), "convolutional network",
             EntityType.METHOD),
            ([2, 3], ("parsing",), "parsing", EntityType.TASK),
        ]
        assert [str(k) for k in kg.edges] == [
            "edge\tparsing\tused_for\tcnn",
            "edge\tparsing\tcompare\tconvolutional network",
        ]


def minimal_two_mention_doc() -> dict:
    return paper_doc(
        sections={"abstract": [["cnn", "and", "parsing", "."]]},
        mentions=[
            {"id": 0, "section": "abstract", "sentence": 0, "span": [0, 1],
             "type": "method"},
            {"id": 1, "section": "abstract", "sentence": 0, "span": [2, 3],
             "type": "task"},
        ],
    )


def partition(kg) -> set[frozenset[int]]:
    return {frozenset(m.mention_id for m in e.mentions) for e in kg.entities}


class TestMergeClosureOracle:
    def test_partition_matches_random_order_merge_oracle(self):
        rng = random.Random(20260819)
        for max_mentions, max_clusters in ((15, 8), (40, 15)):
            for case in range(100):
                record = build_random_paper(
                    rng, paper_id=f"R{case}", max_mentions=max_mentions,
                    max_clusters=max_clusters,
                )
                kg = build_kg(record, TARGET_SCOPE)
                want = oracle_partition(record, TARGET_SCOPE, rng)
                assert partition(kg) == want, f"case {case} ({max_mentions})"

    def test_merge_compares_only_representatives_sharing_a_token(
        self, corpus, monkeypatch
    ):
        calls = []
        real = kg_module.coreferential

        def spy(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(kg_module, "coreferential", spy)
        rng = random.Random(20261018)
        cases = [(p, scope) for p in corpus for scope in (TARGET_SCOPE, RELATED_SCOPE)]
        cases += [
            (build_random_paper(rng, paper_id=f"R{case}", max_mentions=40,
                                max_clusters=15), TARGET_SCOPE)
            for case in range(100)
        ]
        for record, scope in cases:
            kg = build_kg(record, scope)
            assert partition(kg) == oracle_partition(record, scope, rng)
        assert calls
        assert all(set(a) & set(b) for a, b in calls)

    def test_representative_ranks_all_merged_mentions(self):
        rng = random.Random(20261018)
        for case in range(100):
            record = build_random_paper(
                rng, paper_id=f"R{case}", max_mentions=40, max_clusters=15
            )
            for entity in build_kg(record, TARGET_SCOPE).entities:
                best = representative_mention(list(entity.mentions))
                assert entity.rep_surface == best.surface, f"case {case}"
                assert entity.representative == normalize(best.surface)

    def test_fixed_point_no_coreferential_pair_remains(self):
        rng = random.Random(5)
        out_of_scope = repeats = 0
        for case in range(50):
            record = build_random_paper(rng, max_mentions=15, stray_relations=True)
            kg = build_kg(record, TARGET_SCOPE)
            reps = [e.representative for e in kg.entities]
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert not coreferential(reps[i], reps[j]), (reps[i], reps[j])
            # edges name their endpoints by representative, which is
            # sound only while representatives are unique
            assert len(set(reps)) == len(reps)
            # in-scope relations between two entities, each repeat dropped
            # in favour of its first position
            rep_of = {
                m.mention_id: e.representative for e in kg.entities for m in e.mentions
            }
            expected: list[ElementKey] = []
            for rel in record.annotations.relations:
                head, tail = rep_of.get(rel.head_id), rep_of.get(rel.tail_id)
                key = ElementKey(head, rel.relation, tail)
                out_of_scope += rel.section not in TARGET_SCOPE
                if rel.section in TARGET_SCOPE and head and tail and head != tail:
                    if key in expected:
                        repeats += 1
                    else:
                        expected.append(key)
            assert kg.edges == tuple(expected), f"case {case}"
        # the oracle meets both rules it restates, not only plain edges
        assert out_of_scope and repeats, (out_of_scope, repeats)

    def test_entity_count_bounded_by_cluster_count(self):
        rng = random.Random(6)
        for _ in range(50):
            record = build_random_paper(rng, max_mentions=15)
            in_scope = [
                m
                for m in record.annotations.mentions
                if m.section in TARGET_SCOPE and normalize(m.surface)
            ]
            covered = {
                i for cluster in record.annotations.clusters for i in cluster
            }
            n_groups = sum(
                1
                for cluster in record.annotations.clusters
                if any(
                    m.mention_id in cluster and m.section in TARGET_SCOPE
                    for m in in_scope
                )
            ) + sum(1 for m in in_scope if m.mention_id not in covered)
            kg = build_kg(record, TARGET_SCOPE)
            assert len(kg.entities) <= n_groups
            assert len(kg.edges) <= len(record.annotations.relations)


class TestElements:
    def test_empty_graph(self):
        kg = build_kg(parse_paper(paper_doc()), TARGET_SCOPE)
        assert elements(kg) == []

    def test_two_entities_one_edge(self):
        doc = minimal_two_mention_doc()
        doc["relations"] = [
            {"head_id": 0, "tail_id": 1, "type": "used_for",
             "section": "abstract", "sentence": 0}
        ]
        kg = build_kg(parse_paper(doc), TARGET_SCOPE)
        keys = elements(kg)
        assert len(keys) == 3
        assert [k.is_edge for k in keys] == [False, False, True]

    def test_sorted_by_total_order(self, papers):
        keys = elements(build_kg(papers["P12"], TARGET_SCOPE))
        assert keys == sorted(keys, key=ElementKey.sort_key)

    def test_entities_partition_in_scope_mentions(self):
        rng = random.Random(9)
        for _ in range(50):
            record = build_random_paper(rng, max_mentions=15)
            kg = build_kg(record, TARGET_SCOPE)
            seen: list[int] = []
            for entity in kg.entities:
                seen.extend(m.mention_id for m in entity.mentions)
            expected = sorted(
                m.mention_id
                for m in record.annotations.mentions
                if m.section in TARGET_SCOPE and normalize(m.surface)
            )
            assert sorted(seen) == expected
            assert len(seen) == len(set(seen))

    def test_related_scope_reads_related_work_only(self, papers):
        grel = build_kg(papers["P12"], RELATED_SCOPE)
        reps = {e.representative for e in grel.entities}
        assert reps == {
            ("conditional", "random", "field"),
            ("named", "entity", "recognition"),
            ("recurrent", "neural", "network"),
        }
        assert len(grel.edges) == 1
        assert grel.edges[0].relation is RelationType.USED_FOR


class TestElementKey:
    NODE = ElementKey(("neural", "network"))
    EDGE = ElementKey(("cnn",), RelationType.USED_FOR, ("tagging",))

    def test_constructors_fill_the_fields(self):
        assert self.NODE == ElementKey(("neural", "network"), None, None)
        assert self.NODE.head == ("neural", "network")
        assert not self.NODE.is_edge
        assert self.EDGE.relation is RelationType.USED_FOR
        assert self.EDGE.tail == ("tagging",)
        assert self.EDGE.is_edge

    def test_equal_keys_hash_equal(self):
        twin = ElementKey(("cnn",), RelationType.USED_FOR, ("tagging",))
        assert twin == self.EDGE and hash(twin) == hash(self.EDGE)
        assert len({self.NODE, self.EDGE, twin, ElementKey(("neural", "network"))}) == 2

    @pytest.mark.parametrize(
        "other",
        [
            ElementKey(("neural",)),
            ElementKey(("cnn",), RelationType.COMPARE, ("tagging",)),
            ElementKey(("cnn",), RelationType.USED_FOR, ("parsing",)),
            ElementKey(("tagging",), RelationType.USED_FOR, ("cnn",)),
        ],
    )
    def test_any_field_tells_keys_apart(self, other):
        assert other != self.NODE and other != self.EDGE

    def test_sort_key_puts_nodes_first_then_head_relation_tail(self):
        keys = [
            ElementKey(("a",), RelationType.USED_FOR, ("b",)),
            ElementKey(("a",), RelationType.COMPARE, ("c",)),
            ElementKey(("a",), RelationType.COMPARE, ("b",)),
            ElementKey(("z",)),
            ElementKey(("a", "b")),
            ElementKey(("a",)),
        ]
        ordered = sorted(keys, key=ElementKey.sort_key)
        assert ordered == [keys[5], keys[4], keys[3], keys[2], keys[1], keys[0]]

    def test_str(self):
        assert str(self.NODE) == "node\tneural network"
        assert str(self.EDGE) == "edge\tcnn\tused_for\ttagging"


def test_record_tuples_keep_their_fields():
    # the per-item records are NamedTuples, built and unpacked by position,
    # so a field added, dropped or moved must show here first
    assert Mention._fields == (
        "mention_id", "section", "sentence_index", "span", "surface", "entity_type"
    )
    assert RelationAnnotation._fields == (
        "head_id", "tail_id", "relation", "section", "sentence_index"
    )
    assert Entity._fields == ("mentions", "representative", "rep_surface", "entity_type")


class TestGoldenElements:
    def test_p01_element_list(self, papers):
        from conftest import golden

        kg = build_kg(papers["P01"], TARGET_SCOPE)
        got = "".join(f"{key}\n" for key in elements(kg))
        assert got == golden("p01_elements.txt")
