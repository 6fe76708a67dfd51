"""Per-layer tracing from outside the program.

The recorder wraps public reviewgen functions in place: every module
attribute bound to a wrapped function, in every loaded ``reviewgen``
module, is replaced for the duration of one traced command and restored
afterwards. Walking ``sys.modules`` rather than importing by dotted name
matters because ``reviewgen.scoring.train`` the attribute is the function,
which shadows the submodule of the same name.

Spans stay in memory and carry a parent and the id of the CLI invocation
that caused them; each invocation is labelled with the workload phase
(inputs, setup, op, check) it belongs to. ``write_jsonl`` writes the spans
out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name): the layer boundaries the benchmark times
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("reviewgen.cli", "main", "cli.main"),
    ("reviewgen.corpus", "load_paper", "corpus.load_paper"),
    ("reviewgen.kg", "build_kg", "kg.build_kg"),
    ("reviewgen.background", "build_index", "background.build_index"),
    ("reviewgen.background", "save_index", "background.save_index"),
    ("reviewgen.background", "load_index", "background.load_index"),
    ("reviewgen.background", "restrict", "background.restrict"),
    ("reviewgen.background", "match_element", "background.match_element"),
    ("reviewgen.background", "tfidf", "background.tfidf"),
    ("reviewgen.evidence", "build_bundle", "evidence.build_bundle"),
    ("reviewgen.evidence", "novelty_timeline", "evidence.novelty_timeline"),
    ("reviewgen.scoring.model", "forward_trace", "scoring.forward_trace"),
    ("reviewgen.scoring.grad", "backward", "scoring.backward"),
    ("reviewgen.scoring.train", "train", "scoring.train"),
    ("reviewgen.scoring.sentences", "category_sentences", "scoring.category_sentences"),
    ("reviewgen.scoring.train", "save_model", "scoring.save_model"),
    ("reviewgen.scoring.train", "load_model", "scoring.load_model"),
    ("reviewgen.review", "assemble", "review.assemble"),
    ("reviewgen.review", "render", "review.render"),
)

BUNDLE = "evidence.build_bundle"
MATCH = "background.match_element"


@dataclass
class Span:
    span_id: int
    parent: int | None
    invocation: int
    name: str
    start: float
    end: float = 0.0


class Recorder:
    """Collects spans and counters over any number of traced commands."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.invocation = 0
        self.phase = ""  # workload phase of the invocations that follow
        self.phases: dict[int, str] = {}  # invocation -> phase
        self._stack: list[Span] = []
        self._bundle_keys: dict[int, set] = {}  # build_bundle span -> (index, key)

    def next_invocation(self) -> None:
        self.invocation += 1
        self.phases[self.invocation] = self.phase

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.invocation, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _enclosing(self, name: str) -> Span | None:
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    def _observe(self, name: str, args: tuple) -> None:
        """Counters that need the call's arguments."""
        if name == MATCH:
            bundle = self._enclosing(BUNDLE)
            if bundle is not None:
                seen = self._bundle_keys.setdefault(bundle.span_id, set())
                query = (id(args[0]), args[1])
                self.count("match_element.in_bundle")
                if query in seen:
                    self.count("match_element.repeats")
                seen.add(query)
        elif name == "scoring.forward_trace":
            self.count("forward_trace.tokens", len(args[0]))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._observe(name, args)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every binding of every layer function; return the undo list."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "reviewgen" or n.startswith("reviewgen."))
        ]
        undo = []
        for module_name, attr, name in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        index_cls = sys.modules["reviewgen.background"].BackgroundIndex
        original_candidates = index_cls.candidate_keys

        def candidate_keys(index, key):
            out = original_candidates(index, key)
            self.count("match_element.candidates", len(out))
            return out

        undo.append((index_cls, "candidate_keys", original_candidates))
        index_cls.candidate_keys = candidate_keys
        return undo

    @staticmethod
    def uninstall(undo: list[tuple[object, str, object]]) -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "invocation": s.invocation,
                    "phase": self.phases.get(s.invocation), "name": s.name,
                    "start": s.start, "end": s.end,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts only spans with no ancestor of the same name, so a
    layer that re-enters itself is not counted twice.
    """
    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += own[s.span_id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            t["s"] += s.end - s.start
    return totals
