"""Seeded synthetic corpus for the benchmark.

Concept phrases draw their tokens from a Zipf-distributed vocabulary of a
few thousand made-up words, so a handful of tokens occur in thousands of
index keys while most are rare: the long tail that real IE output has and
that the fixed 18-surface generator in the test suite lacks. Phrases grow
containment chains ("kalo" < "mira kalo" < "tesu mira kalo") inside a
paper, so coreference merging and fuzzy index matching both have work.
Every paper has abstract, conclusion, related_work and body sections and
cites earlier papers; its related work mentions concepts of the papers it
cites.

The generator uses only ``random.Random(seed)`` and writes canonical JSON,
so the same seed gives the same bytes.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from pathlib import Path

VOCAB_SIZE = 4000
ZIPF_EXPONENT = 1.05
FIRST_YEAR = 2008
HELDOUT_YEAR = 2018

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_FILLER = ["we", "study", "a", "using", "the", "strong", "new", "on", "with",
           "for", "show", "that", "our", "results", "improve", "over"]
_TYPES = ["task", "method", "evaluation_metric", "material",
          "other_scientific_term"]
_GENERIC = ["it", "this method", "the model", "this approach"]
_RELATIONS = ["used_for", "feature_of", "hyponym_of", "part_of", "compare",
              "conjunction", "evaluate_for"]


@dataclass(frozen=True)
class CorpusManifest:
    """What the generator wrote: every paper id, split by year."""

    background: tuple[str, ...]  # papers dated before HELDOUT_YEAR
    heldout: tuple[str, ...]  # papers dated HELDOUT_YEAR


def _word(i: int) -> str:
    # two of 70 syllables: 4900 distinct words
    return _SYLLABLES[i // len(_SYLLABLES)] + _SYLLABLES[i % len(_SYLLABLES)]


class _Sampler:
    def __init__(self, rng: random.Random):
        words = [_word(i) for i in range(VOCAB_SIZE)]
        rng.shuffle(words)  # which word is common depends on the seed
        self.words = words
        total = 0.0
        self.cum = []
        for rank in range(1, VOCAB_SIZE + 1):
            total += rank ** -ZIPF_EXPONENT
            self.cum.append(total)
        self.rng = rng

    def stratified(self, n: int) -> list[str]:
        """n Zipf tokens, one from each of n equally likely rank bands, in
        random order, so every paper gets a similar mix of common and rare
        tokens."""
        total = self.cum[-1]
        picks = []
        for band in range(n):
            u = (band + self.rng.random()) / n * total
            picks.append(self.words[min(bisect.bisect_left(self.cum, u), VOCAB_SIZE - 1)])
        self.rng.shuffle(picks)
        return picks

    def concepts(self, n: int) -> list[list[str]]:
        """n containment chains, shortest first: [core, mod core, mod mod core]."""
        rng = self.rng
        shapes = [(1 if rng.random() < 0.6 else 2, rng.randint(0, 2)) for _ in range(n)]
        tokens = iter(self.stratified(sum(core + mods for core, mods in shapes)))
        out = []
        for core, mods in shapes:
            chain = [[next(tokens) for _ in range(core)]]
            for _ in range(mods):
                chain.append([next(tokens)] + chain[-1])
            out.append([" ".join(c) for c in chain])
        return out


class _PaperDraft:
    """Accumulates the sentences and mentions of one paper."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.sections: dict[str, list[list[str]]] = {}
        self.mentions: list[dict] = []

    def sentence(self, section: str, items: list[tuple[str, str]]) -> list[int]:
        """Add one sentence holding the (surface, type) items; return mention ids."""
        rng = self.rng
        sentences = self.sections.setdefault(section, [])
        tokens: list[str] = []
        ids = []
        for surface, etype in items:
            tokens.extend(rng.sample(_FILLER, rng.randint(0, 3)))
            words = surface.split()
            ids.append(len(self.mentions))
            self.mentions.append({
                "id": len(self.mentions),
                "section": section,
                "sentence": len(sentences),
                "span": [len(tokens), len(tokens) + len(words)],
                "type": etype,
            })
            tokens.extend(words)
        tokens.extend(rng.sample(_FILLER, rng.randint(1, 3)))
        tokens.append(".")
        sentences.append(tokens)
        return ids


def _surface(rng: random.Random, phrase: str) -> str:
    return phrase.title() if rng.random() < 0.1 else phrase


def _paper(
    rng: random.Random,
    sampler: _Sampler,
    paper_id: str,
    year: int,
    cited: list[str],
    concepts_of: dict[str, list[list[str]]],
) -> dict:
    draft = _PaperDraft(rng)
    concepts = sampler.concepts(rng.randint(8, 11))
    # target scope: each concept is mentioned one to three times, using
    # different members of its containment chain, spread over the
    # abstract and the conclusion
    placed: list[tuple[str, str, str, int]] = []  # section, surface, type, concept
    for ci, chain in enumerate(concepts):
        etype = rng.choice(_TYPES)
        for _ in range(rng.randint(1, 3)):
            section = "abstract" if rng.random() < 0.65 else "conclusion"
            placed.append((section, _surface(rng, rng.choice(chain)), etype, ci))
    for _ in range(rng.randint(0, 2)):
        placed.append(("abstract", rng.choice(_GENERIC), "generic", -1))
    rng.shuffle(placed)

    concept_mentions: dict[int, list[int]] = {}
    generic_ids: list[int] = []
    target_ids: list[int] = []
    for section in ("abstract", "conclusion"):
        items = [p for p in placed if p[0] == section]
        i = 0
        while i < len(items):
            take = items[i : i + rng.randint(1, 3)]
            ids = draft.sentence(section, [(s, t) for _, s, t, _ in take])
            for mid, (_, _, _, ci) in zip(ids, take):
                target_ids.append(mid)
                if ci < 0:
                    generic_ids.append(mid)
                else:
                    concept_mentions.setdefault(ci, []).append(mid)
            i += len(take)

    relations = []
    for _ in range(rng.randint(9, 15)):
        head, tail = rng.sample(target_ids, 2)
        m = draft.mentions[head]
        relations.append({
            "head_id": head,
            "tail_id": tail,
            "type": rng.choice(_RELATIONS),
            "section": m["section"],
            "sentence": m["sentence"],
        })

    # related work names concepts of the cited papers, plus a few of its own
    pool = [c for pid in cited for c in concepts_of[pid]] + concepts[:2]
    for _ in range(rng.randint(2, 4)):
        picks = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        draft.sentence(
            "related_work",
            [(_surface(rng, rng.choice(chain)), rng.choice(_TYPES)) for chain in picks],
        )
    for _ in range(rng.randint(2, 4)):
        chain = rng.choice(concepts)
        draft.sentence("body", [(rng.choice(chain), rng.choice(_TYPES))])

    clusters = []
    for mids in concept_mentions.values():
        if len(mids) > 1 and rng.random() < 0.5:
            clusters.append(sorted(mids))
    if generic_ids and concept_mentions:
        # a generic mention refers back to one concept
        first = next(iter(concept_mentions.values()))
        if not any(first[0] in c for c in clusters):
            clusters.append(sorted([first[0], generic_ids[0]]))

    concepts_of[paper_id] = concepts
    return {
        "paper_id": paper_id,
        "title": f"Synthetic paper {paper_id}",
        "year": year,
        "venue": "SYNTH",
        "citations": cited,
        "sections": draft.sections,
        "mentions": draft.mentions,
        "clusters": clusters,
        "relations": relations,
    }


def generate(seed: int, n_background: int, n_heldout: int) -> list[dict]:
    """Paper documents: background papers dated FIRST_YEAR..HELDOUT_YEAR-1,
    then held-out papers dated HELDOUT_YEAR, each citing earlier papers."""
    rng = random.Random(seed)
    sampler = _Sampler(rng)
    years = sorted(rng.randint(FIRST_YEAR, HELDOUT_YEAR - 1) for _ in range(n_background))
    years += [HELDOUT_YEAR] * n_heldout
    concepts_of: dict[str, list[list[str]]] = {}
    papers = []
    earlier: list[str] = []  # ids of papers from strictly earlier years
    year_start = 0
    for i, year in enumerate(years):
        if i and year != years[i - 1]:
            earlier.extend(p["paper_id"] for p in papers[year_start:])
            year_start = i
        cited = sorted(rng.sample(earlier, min(len(earlier), rng.randint(3, 8))))
        prefix = "H" if year == HELDOUT_YEAR else "S"
        papers.append(
            _paper(rng, sampler, f"{prefix}{i:05d}", year, cited, concepts_of)
        )
    return papers


def write_corpus(
    directory: Path, seed: int, n_background: int, n_heldout: int
) -> CorpusManifest:
    """Write every paper to ``directory`` as ``<paper_id>.json``, one
    canonical JSON document each; held-out papers share the directory, so
    an index with cutoff HELDOUT_YEAR must leave them out."""
    directory.mkdir(parents=True)
    background, heldout = [], []
    for doc in generate(seed, n_background, n_heldout):
        (heldout if doc["year"] == HELDOUT_YEAR else background).append(doc["paper_id"])
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        (directory / f"{doc['paper_id']}.json").write_text(text + "\n", encoding="utf-8")
    return CorpusManifest(background=tuple(background), heldout=tuple(heldout))
