"""Self-tests of the benchmark: span arithmetic, the tail rule, the corpus
generator, and a tiny run of every workload in both modes."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import corpusgen
import run
import spans
import reviewgen.cli  # noqa: F401  (patched through sys.modules below)
from reviewgen import load_corpus

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(span_id, parent, name, start, end):
    return spans.Span(span_id, parent, 1, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 6.0),  # overlaps a: covered is [1, 6], not 6 s
        _span(3, 1, "c", 2.0, 3.0),
    ]
    assert spans.self_times(tree) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_busy_time_does_not_count_a_reentered_layer_twice():
    tree = [
        _span(0, None, "x", 0.0, 10.0),
        _span(1, 0, "y", 1.0, 9.0),
        _span(2, 1, "x", 2.0, 5.0),
    ]
    totals = spans.layer_totals(tree)
    assert totals["x"] == {"calls": 2, "s": 10.0, "self_s": 2.0 + 3.0}
    assert totals["y"] == {"calls": 1, "s": 8.0, "self_s": 5.0}


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (11, (100 / 11, 0)), (20, (50.0, 9)), (100, (90.0, 89))],
)
def test_tail_is_the_highest_percentile_with_ten_samples_above(n, expected):
    samples = list(range(n))
    random.Random(n).shuffle(samples)
    assert run.tail_percentile(samples) == expected
    if expected is not None:
        assert sum(s > expected[1] for s in samples) == 10


def test_generator_is_deterministic_and_loads(tmp_path):
    a = corpusgen.write_corpus(tmp_path / "a", seed=5, n_background=40, n_heldout=3)
    b = corpusgen.write_corpus(tmp_path / "b", seed=5, n_background=40, n_heldout=3)
    c = corpusgen.write_corpus(tmp_path / "c", seed=6, n_background=40, n_heldout=3)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files
    )
    assert any(
        (tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes() for f in files
    )
    assert a == b and len(a.background) == 40 and len(a.heldout) == 3

    papers = {p.paper_id: p for p in load_corpus(tmp_path / "a")}
    assert {p.year for p in papers.values() if p.paper_id in a.heldout} == {2018}
    for paper in papers.values():
        assert {s.value for s in paper.sections} == {
            "abstract", "conclusion", "related_work", "body"}
        assert paper.annotations.relations
        assert all(papers[c].year < paper.year for c in paper.citations)
    assert any(len(p.citations) >= 3 for p in papers.values())


def _names(section: str) -> set[str]:
    return {m["name"] for m in BENCHMARK[section]}


def _tiny(name: str, work: Path):
    if name == "toy-roundtrip":
        return run.ToyRoundtrip(work, seed=3)
    if name == "synth-review":
        return run.SynthReview(work, seed=3, n_papers=60, n_heldout=3, epochs=1)
    return run.SynthIndex(work, seed=3, n_papers=60, epochs=1, years="2015..2018")


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run_untraced(_tiny(name, tmp_path), seconds=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer(tmp_path):
    trace = tmp_path / "trace.jsonl"
    result = run.run_traced(_tiny("synth-index", tmp_path / "work"), trace)
    assert result["correct"], result
    assert set(result["metrics"]) == _names("per_layer")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    phases = {json.loads(line)["phase"] for line in trace.read_text().splitlines()}
    assert phases == {"setup", "op"}  # its inputs are generated, not made by the CLI


def test_traced_run_fails_when_traced_output_differs(tmp_path, monkeypatch):
    original = spans.Recorder.install

    def install_and_break_render(self):
        undo = original(self)
        cli = sys.modules["reviewgen.cli"]
        render = cli.render
        undo.append((cli, "render", render))
        cli.render = lambda doc, fmt="markdown": render(doc, fmt) + " "
        return undo

    monkeypatch.setattr(spans.Recorder, "install", install_and_break_render)
    workload = _tiny("synth-review", tmp_path)
    with pytest.raises(run.CheckFailed, match="traced output differs"):
        runner = run.TracedRunner(spans.Recorder())
        workload.inputs(runner.cli)
        workload.setup(runner.cli)
        workload.op(runner.cli, 0)
