"""Seeded random test instances and independently coded oracles.

The oracles re-derive library behavior with deliberately different code
shapes (padded-string containment instead of token-window scans, random
sequential merging instead of one union-find pass) so that agreement is
evidence of correctness rather than the same code run twice.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from reviewgen.background import PaperRef, build_index, load_index
from reviewgen.corpus import _RELATION_BY_VALUE, PaperRecord, parse_paper
from reviewgen.errors import ParseError
from reviewgen.evidence import extract_novelty
from reviewgen.kg import (
    TARGET_SCOPE,
    ElementKey,
    NormalizedString,
    build_kg,
    elements,
)

# Containment chains ("parser" in "neural parser" in "fast neural parser")
# and case variants are common on purpose: they force cluster merging.
INFORMATIVE_SURFACES = [
    "parser",
    "neural parser",
    "fast neural parser",
    "Neural Parser",
    "graph",
    "graph model",
    "latent graph model",
    "beam search",
    "adaptive beam search",
    "encoder",
    "span encoder",
    "relation extraction",
    "joint relation extraction",
    "treebank",
    "large treebank",
    "metric",
    "eval metric",
    "decoder stack",
]
GENERIC_SURFACES = ["it", "this method", "the model", "this approach"]
FILLER = ["we", "study", "a", "using", "the", "strong", "new", "on"]
MENTION_TYPES = [
    "task",
    "method",
    "evaluation_metric",
    "material",
    "other_scientific_term",
]
RELATION_TYPES = [
    "used_for",
    "feature_of",
    "hyponym_of",
    "part_of",
    "compare",
    "conjunction",
    "evaluate_for",
]


def build_random_paper(
    rng: random.Random,
    paper_id: str = "R0",
    year: int = 2015,
    max_mentions: int = 15,
    max_clusters: int = 8,
    citations: tuple[str, ...] = (),
    with_related_work: bool = False,
    stray_relations: bool = False,
) -> PaperRecord:
    """One random valid annotated paper, parsed through the real loader.

    With ``stray_relations``, about a third of the relations are filed in
    the body, which no graph scope covers, and about a third repeat the
    mentions and type of an earlier relation.
    """
    n_mentions = rng.randint(1, max_mentions)
    section_pool = ["abstract", "conclusion"]
    if with_related_work:
        section_pool.append("related_work")

    placed: list[tuple[str, str, str]] = []  # (section, surface, type)
    for _ in range(n_mentions):
        section = rng.choice(section_pool)
        if rng.random() < 0.2:
            placed.append((section, rng.choice(GENERIC_SURFACES), "generic"))
        else:
            placed.append(
                (section, rng.choice(INFORMATIVE_SURFACES), rng.choice(MENTION_TYPES))
            )

    sections: dict[str, list[list[str]]] = {"abstract": [["A", "short", "paper", "."]]}
    mentions: list[dict] = []
    by_section: dict[str, list[tuple[str, str]]] = {}
    for section, surface, etype in placed:
        by_section.setdefault(section, []).append((surface, etype))

    for section, items in by_section.items():
        sentences = sections.setdefault(section, [])
        i = 0
        while i < len(items):
            take = min(rng.randint(1, 2), len(items) - i)
            tokens: list[str] = []
            for surface, etype in items[i : i + take]:
                tokens.extend(rng.sample(FILLER, rng.randint(0, 2)))
                words = surface.split()
                start = len(tokens)
                tokens.extend(words)
                mentions.append(
                    {
                        "id": len(mentions),
                        "section": section,
                        "sentence": len(sentences),
                        "span": [start, start + len(words)],
                        "type": etype,
                    }
                )
            tokens.append(".")
            sentences.append(tokens)
            i += take

    ids = list(range(len(mentions)))
    rng.shuffle(ids)
    clusters: list[list[int]] = []
    while ids and len(clusters) < max_clusters and rng.random() < 0.7:
        size = min(rng.randint(2, 3), len(ids))
        if size < 2:
            break
        clusters.append(sorted(ids[:size]))
        ids = ids[size:]

    relations: list[dict] = []
    if len(mentions) >= 2:
        for _ in range(rng.randint(0, 6)):
            head, tail = rng.sample(range(len(mentions)), 2)
            relation = {
                "head_id": head,
                "tail_id": tail,
                "type": rng.choice(RELATION_TYPES),
                "section": mentions[head]["section"],
                "sentence": mentions[head]["sentence"],
            }
            if stray_relations and relations and rng.random() < 0.3:
                earlier = rng.choice(relations)
                relation.update({k: earlier[k] for k in ("head_id", "tail_id", "type")})
            if stray_relations and rng.random() < 0.3:
                relation.update(section="body", sentence=0)
            relations.append(relation)
    if stray_relations:
        sections["body"] = [["Details", "follow", "."]]

    doc = {
        "paper_id": paper_id,
        "title": f"Random paper {paper_id}",
        "year": year,
        "venue": "TEST",
        "citations": list(citations),
        "sections": sections,
        "mentions": mentions,
        "clusters": clusters,
        "relations": relations,
    }
    return parse_paper(doc, locus=paper_id)


def build_random_corpus(
    rng: random.Random,
    n_papers: int,
    years: tuple[int, int] = (2010, 2017),
    max_mentions: int = 10,
) -> list[PaperRecord]:
    return [
        build_random_paper(
            rng,
            paper_id=f"B{i:02d}",
            year=rng.randint(*years),
            max_mentions=max_mentions,
        )
        for i in range(n_papers)
    ]


# ---------------------------------------------------------------- oracles


def oracle_norm(surface: str) -> tuple[str, ...]:
    return tuple(w for w in surface.lower().split() if any(c.isalnum() for c in w))


def oracle_contains(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    """a occurs contiguously in b, via padded-string search."""
    return f" {' '.join(a)} " in f" {' '.join(b)} "


def oracle_coref(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    return oracle_contains(a, b) or oracle_contains(b, a)


def oracle_partition(
    record: PaperRecord, scope, rng: random.Random
) -> set[frozenset[int]]:
    """Entity partition by randomized sequential merging to a fixed point.

    Coreferentiality between merged groups is judged on the original
    cluster representatives (a merged group matches through any of them),
    which makes the repeated pairwise merge confluent: any merge order
    reaches the containment closure.
    """
    in_scope = [
        m
        for m in record.annotations.mentions
        if m.section in scope and oracle_norm(m.surface)
    ]
    by_id = {m.mention_id: m for m in in_scope}
    clusters: list[list] = []
    used: set[int] = set()
    for cluster in record.annotations.clusters:
        members = [by_id[i] for i in cluster if i in by_id]
        if members:
            clusters.append(members)
            used.update(m.mention_id for m in members)
    clusters.extend([m] for m in in_scope if m.mention_id not in used)

    def rep(cluster) -> tuple[str, ...]:
        pool = [m for m in cluster if m.entity_type.value != "generic"] or cluster
        best = sorted(
            pool, key=lambda m: (-len(oracle_norm(m.surface)),
                                 oracle_norm(m.surface), m.mention_id)
        )[0]
        return oracle_norm(best.surface)

    # each group: (set of original reps, list of member mentions)
    groups = [({rep(c)}, list(c)) for c in clusters]

    def passes(a, b) -> bool:
        return any(oracle_coref(ra, rb) for ra in a[0] for rb in b[0])

    while True:
        pairs = [
            (i, j)
            for i in range(len(groups))
            for j in range(i + 1, len(groups))
            if passes(groups[i], groups[j])
        ]
        if not pairs:
            break
        i, j = rng.choice(pairs)
        groups[i] = (groups[i][0] | groups[j][0], groups[i][1] + groups[j][1])
        del groups[j]

    return {frozenset(m.mention_id for m in g) for _, g in groups}


def oracle_key_match(query: ElementKey, candidate: ElementKey) -> bool:
    if query.is_edge != candidate.is_edge:
        return False
    if query.is_edge:
        return (
            query.relation == candidate.relation
            and oracle_coref(query.head, candidate.head)
            and oracle_coref(query.tail, candidate.tail)
        )
    return oracle_coref(query.head, candidate.head)


def oracle_index_row(key: ElementKey, refs: tuple[PaperRef, ...]) -> str:
    """One ``save_index`` body line, built as a list and run through
    ``json.dumps`` (the writer formats the same bytes directly)."""
    if key.is_edge:
        fields = ["edge", " ".join(key.head), key.relation.value, " ".join(key.tail)]
    else:
        fields = ["node", " ".join(key.head)]
    return json.dumps(
        fields + [[[ref.paper_id, ref.year] for ref in refs]], ensure_ascii=False
    )


def _oracle_tokens(
    text: object, locus: str, interned: dict[str, NormalizedString]
) -> NormalizedString:
    if not isinstance(text, str):
        raise ParseError(f"{locus}: element text {text!r} is not a string")
    parts = interned.get(text)
    if parts is None:
        parts = tuple(text.split(" "))
        if not all(parts):
            raise ParseError(f"{locus}: empty token in element key")
        interned[text] = parts
    return parts


def _oracle_key_from_fields(
    fields: list, locus: str, interned: dict[str, NormalizedString]
) -> ElementKey:
    if not fields:
        raise ParseError(f"{locus}: expected a non-empty array")
    kind = fields[0]
    if kind == "node" and len(fields) == 2:
        return ElementKey(_oracle_tokens(fields[1], locus, interned))
    if kind == "edge" and len(fields) == 4:
        relation = fields[2]
        if not isinstance(relation, str) or relation not in _RELATION_BY_VALUE:
            raise ParseError(f"{locus}: unknown relation {relation!r}")
        return ElementKey(
            _oracle_tokens(fields[1], locus, interned),
            _RELATION_BY_VALUE[relation],
            _oracle_tokens(fields[3], locus, interned),
        )
    raise ParseError(f"{locus}: malformed element key {fields!r}")


def oracle_load_rows(
    body: list[str],
    path: str,
    cutoff_year: int,
    year_counts: dict[int, int],
    n_papers: int,
) -> dict[ElementKey, tuple[PaperRef, ...]]:
    """``load_index``'s row pass as it stood before rows were scanned with
    json's C scanner: one ``json.loads`` per line, the locus formatted for
    every row and every key built through the field checks."""
    postings: dict[ElementKey, tuple[PaperRef, ...]] = {}
    interned: dict[str, NormalizedString] = {}  # element text -> tokens
    paper_refs: dict[str, PaperRef] = {}  # one ref, and so one year, per paper
    for lineno, line in enumerate(body, start=2):
        locus = f"{path}:{lineno}"
        try:
            row = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int past int()'s digit limit
            msg = getattr(exc, "msg", exc)
            raise ParseError(f"{locus}: malformed row: {msg}") from exc
        if not isinstance(row, list):
            raise ParseError(f"{locus}: row must be an array")
        key = _oracle_key_from_fields(row[:-1], locus, interned)
        refs = row[-1]
        if not isinstance(refs, list) or not refs:
            raise ParseError(f"{locus}: postings must be a non-empty array")
        parsed = []
        previous = None
        for ref in refs:
            if (
                not isinstance(ref, list)
                or len(ref) != 2
                or not isinstance(ref[0], str)
                or type(ref[1]) is not int
            ):
                raise ParseError(f"{locus}: malformed posting {ref!r}")
            paper_id, year = ref
            if year >= cutoff_year:
                raise ParseError(
                    f"{locus}: posting {ref!r} is not before cutoff {cutoff_year}"
                )
            if year not in year_counts:
                raise ParseError(f"{locus}: posting {ref!r} has no year count")
            if previous is not None and ref <= previous:
                raise ParseError(f"{locus}: postings are unsorted or repeated")
            previous = ref
            paper_ref = paper_refs.get(paper_id)
            if paper_ref is None:
                paper_ref = paper_refs[paper_id] = PaperRef(paper_id, year)
            elif paper_ref.year != year:
                raise ParseError(
                    f"{locus}: paper {paper_id!r} is dated {year} here"
                    f" and {paper_ref.year} elsewhere"
                )
            parsed.append(paper_ref)
        if key in postings:
            raise ParseError(f"{locus}: duplicate element key")
        postings[key] = tuple(parsed)
    if len(paper_refs) > n_papers:
        raise ParseError(
            f"{path}: postings name {len(paper_refs)} papers, more than"
            f" n_papers {n_papers}"
        )
    return postings



def assert_loads_as_oracle(path) -> None:
    """``load_index(path)`` gives the postings ``oracle_load_rows`` gives, in
    the same key order, or both raise a ParseError with the same message.
    The file's header and line count must be valid."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")[:-1]
    header = json.loads(lines[0])
    year_counts = {int(y): c for y, c in header["year_counts"].items()}
    try:
        want = oracle_load_rows(
            lines[1:], str(path), header["cutoff_year"], year_counts, header["n_papers"]
        )
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_index(path)
        assert str(got.value) == str(exc)
    else:
        got = load_index(path).postings
        assert got == want
        assert list(got) == list(want)

def oracle_novelty(
    paper: PaperRecord, background: list[PaperRecord]
) -> list[ElementKey]:
    """Index-free double loop: survive iff no background element matches."""
    gp = build_kg(paper, TARGET_SCOPE)
    generic_reps = {
        e.representative for e in gp.entities if e.entity_type.value == "generic"
    }
    background_keys = [
        key
        for bp in background
        for key in elements(build_kg(bp, TARGET_SCOPE))
    ]
    out = []
    for key in elements(gp):
        if not key.is_edge and key.head in generic_reps:
            continue
        if any(oracle_key_match(key, other) for other in background_keys):
            continue
        out.append(key)
    return out


def oracle_timeline(
    papers: list[PaperRecord], background: list[PaperRecord], years: list[int]
) -> tuple[tuple[int, float], ...]:
    """Per-year rebuild: a fresh index and fresh novelty at every cutoff."""
    graphs = [build_kg(p, TARGET_SCOPE) for p in papers]
    entries = []
    for year in years:
        index = build_index(background, year)
        counts = [len(extract_novelty(g, index)) for g in graphs]
        entries.append((year, sum(counts) / len(counts)))
    return tuple(entries)


def oracle_tfidf(tf_count: int, max_count: int, df: int, n_papers: int) -> float:
    """Scalar normalized TF-IDF recomputed from first principles."""
    t = tf_count / max_count
    if df == 0 or n_papers <= 1:
        i = 1.0
    else:
        i = (math.log(n_papers) - math.log(df)) / math.log(n_papers)
    return min(1.0, max(0.0, t * i))


def make_separable_dataset(seed: int, n: int = 500):
    """Learnability dataset: the target is the bucketed novelty-count total.

    Each example draws a target band t in 0..4, then a total count in
    [5t, 5t+2] (a two-unit gap separates neighboring bands), spreads the
    total multinomially over the 13 new-element count features, and
    scales by 1/5 to keep the evidence layer's tanh out of saturation.
    Token sequences are short uniform noise; only features carry signal.
    """
    import numpy as np

    from reviewgen.scoring.train import TrainingExample

    rng = np.random.default_rng([seed, 7])
    examples = []
    for _ in range(n):
        t = int(rng.integers(0, 5))
        total = int(5 * t + rng.integers(0, 3))
        counts = rng.multinomial(total, np.full(13, 1 / 13))
        features = np.zeros(17)
        features[:13] = counts / 5.0
        tokens = tuple(int(v) for v in rng.integers(0, 30, rng.integers(1, 4)))
        examples.append(TrainingExample(tokens, features, t))
    return examples


def oracle_backward(trace, target: int, params) -> dict:
    """Step-by-step backpropagation through time from a forward trace.

    Every product is formed one timestep at a time, as outer products and
    matrix-vector products accumulated in reverse time order; the library
    instead batches the gate deltas of all steps into matrix products.
    """
    import numpy as np

    from reviewgen.scoring.model import PROB_FLOOR

    grads = params.zeros_like()
    probs = trace.probs
    if probs[target] < PROB_FLOOR:
        return grads

    t_len = len(trace.token_ids)
    d_h = params.d_h
    dlogits = probs.copy()
    dlogits[target] -= 1.0
    concat = np.concatenate([trace.context, trace.ev_hidden])
    grads["w_out"] = np.outer(dlogits, concat)
    grads["b_out"] = dlogits
    dconcat = params.w_out.T @ dlogits
    dcontext = dconcat[:d_h]
    dpre_ev = dconcat[d_h:] * (1.0 - trace.ev_hidden**2)
    grads["w_ev"] = np.outer(dpre_ev, trace.features)
    grads["b_ev"] = dpre_ev

    h_states = trace.h[1:]
    d_hidden = np.zeros((t_len + 1, d_h))
    dalpha = h_states @ dcontext
    d_hidden[1:] += np.outer(trace.alpha, dcontext)
    dscores = trace.alpha * (dalpha - float(trace.alpha @ dalpha))
    grads["v_att"] = trace.att_u.T @ dscores
    dpre_att = np.outer(dscores, params.v_att) * (1.0 - trace.att_u**2)
    grads["w_att"] = dpre_att.T @ h_states
    d_hidden[1:] += dpre_att @ params.w_att

    # each gate's weights, recurrent weights and bias are row slices of the
    # stacked tensors; their gradients accumulate into the same slices
    gate_z, gate_r, gate_h = slice(0, d_h), slice(d_h, 2 * d_h), slice(2 * d_h, None)
    w_z, w_r, w_h = (params.w_in[g] for g in (gate_z, gate_r, gate_h))
    u_z, u_r = params.u_zr[gate_z], params.u_zr[gate_r]
    dw_z, dw_r, dw_h = (grads["w_in"][g] for g in (gate_z, gate_r, gate_h))
    db_z, db_r, db_h = (grads["b_in"][g] for g in (gate_z, gate_r, gate_h))
    du_z, du_r = grads["u_zr"][gate_z], grads["u_zr"][gate_r]
    dx = np.zeros_like(trace.x)
    for s in range(t_len - 1, -1, -1):
        dh_new = d_hidden[s + 1]
        h_prev = trace.h[s]
        z, r, h_tilde = trace.z[s], trace.r[s], trace.h_tilde[s]

        dh_tilde = dh_new * z
        dz = dh_new * (h_tilde - h_prev)
        dh_prev = dh_new * (1.0 - z)

        da_h = dh_tilde * (1.0 - h_tilde**2)
        dw_h += np.outer(da_h, trace.x[s])
        grads["u_h"] += np.outer(da_h, r * h_prev)
        db_h += da_h
        dx[s] += w_h.T @ da_h
        d_rh = params.u_h.T @ da_h
        dr = d_rh * h_prev
        dh_prev += d_rh * r

        da_z = dz * z * (1.0 - z)
        dw_z += np.outer(da_z, trace.x[s])
        du_z += np.outer(da_z, h_prev)
        db_z += da_z
        dx[s] += w_z.T @ da_z
        dh_prev += u_z.T @ da_z

        da_r = dr * r * (1.0 - r)
        dw_r += np.outer(da_r, trace.x[s])
        du_r += np.outer(da_r, h_prev)
        db_r += da_r
        dx[s] += w_r.T @ da_r
        dh_prev += u_r.T @ da_r

        d_hidden[s] += dh_prev

    np.add.at(grads["embed"], np.asarray(trace.token_ids), dx)
    return grads
