"""Command-line behavior: exit codes, reproducibility, output formats."""

from __future__ import annotations

import base64
import gc
import json
import math
import os
import shutil
import stat
import struct
import subprocess
import sys
import weakref

import pytest

from conftest import TOY_DIR, corrupted_backward, golden, run_bounded, run_cli
from reviewgen import cli, corpus
from reviewgen.background import load_index, save_index
from reviewgen.cli import main
from reviewgen.corpus import load_review_labels
from reviewgen.errors import ReviewgenError
from reviewgen.scoring import grad, load_model, save_model

PAPERS = TOY_DIR / "papers"
LABELS = TOY_DIR / "labels.json"
TEMPLATES = TOY_DIR.parent / "templates" / "default.json"

# review on two CPUs, where the worker kills itself as it loads the index;
# the caller's half waits until the worker has exited, so the worker, never
# the caller, takes the index half, and writes the dead worker's pid to the
# file named by the first argument
_KILLED_INDEX_WORKER_CLI = """
import os, signal, sys
from pathlib import Path
from reviewgen import cli, parallel
parallel.cpu_count = lambda: 2
caller = os.getpid()
load_index, load_models = cli.load_index, cli._load_models

def kill_in_worker(path):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return load_index(path)

def after_the_worker_exits(path):
    dead = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
    Path(sys.argv[1]).write_text(str(dead.si_pid))
    return load_models(path)

cli.load_index, cli._load_models = kill_in_worker, after_the_worker_exits
sys.exit(cli.main(sys.argv[2:]))
"""


class TestBuildBackground:
    def test_matches_golden(self, tmp_path):
        result = run_cli(
            "build-background", "--corpus", PAPERS, "--cutoff", 2017,
            "--index", tmp_path / "bg.json",
        )
        assert result.returncode == 0
        assert result.stdout == golden("build_background.txt")

    def test_cutoff_before_corpus_gives_empty_index(self, tmp_path):
        result = run_cli(
            "build-background", "--corpus", PAPERS, "--cutoff", 1900,
            "--index", tmp_path / "bg.json",
        )
        assert result.returncode == 0
        assert result.stdout == "papers 0 elements 0\n"
        assert (tmp_path / "bg.json").exists()

    def test_missing_corpus_dir(self, tmp_path):
        result = run_cli(
            "build-background", "--corpus", tmp_path / "nothing",
            "--cutoff", 2017, "--index", tmp_path / "bg.json",
        )
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_corrupt_paper_file(self, tmp_path):
        corpus = tmp_path / "papers"
        corpus.mkdir()
        (corpus / "bad.json").write_text("{not json", encoding="utf-8")
        result = run_cli(
            "build-background", "--corpus", corpus, "--cutoff", 2017,
            "--index", tmp_path / "bg.json",
        )
        assert result.returncode == 2


class TestNoveltyTimeline:
    def test_matches_golden(self):
        result = run_cli(
            "novelty-timeline", PAPERS / "P12.json", "--corpus", PAPERS,
            "--years", "2012..2018",
        )
        assert result.returncode == 0
        assert result.stdout == golden("timeline.txt")

    def test_bad_year_range(self):
        for years in ("2018..2012", "abc", "2012..", "2012"):
            result = run_cli(
                "novelty-timeline", PAPERS / "P12.json", "--corpus", PAPERS,
                "--years", years,
            )
            assert result.returncode == 2, years


class TestHashSeedIndependence:
    @pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
    def test_outputs_match_goldens(self, hash_seed, trained, tmp_path):
        """Indexes, reviews and timelines are byte-identical under any
        PYTHONHASHSEED: each command's output equals its golden."""
        env = {"PYTHONHASHSEED": hash_seed}
        index = tmp_path / "bg.json"
        cutoff = trained["recipe"]["cutoff"]
        result = run_cli("build-background", "--corpus", PAPERS, "--cutoff", cutoff,
                         "--index", index, env=env)
        assert result.returncode == 0, result.stderr
        assert index.read_bytes() == trained["index"].read_bytes()
        result = run_cli("build-background", "--corpus", PAPERS, "--cutoff", 2017,
                         "--index", tmp_path / "bg2017.json", env=env)
        assert result.stdout == golden("build_background.txt")
        for fmt, name in (("markdown", "p12_review.md"), ("json", "p12_review.json")):
            result = run_cli("review", PAPERS / "P12.json", "--index", index,
                             "--models", trained["models"], "--format", fmt, env=env)
            assert result.returncode == 0, result.stderr
            assert result.stdout == golden(name)
        result = run_cli("novelty-timeline", PAPERS / "P12.json", "--corpus", PAPERS,
                         "--years", "2012..2018", env=env)
        assert result.stdout == golden("timeline.txt")


class TestGradCheck:
    def test_passes(self):
        result = run_cli("grad-check", "--seed", 3)
        assert result.returncode == 0
        assert result.stdout.startswith("max relative error")

    def test_injected_bug_detected(self, monkeypatch, capsys):
        monkeypatch.setattr(grad, "backward", corrupted_backward("w_out"))
        assert main(["grad-check", "--seed", "3"]) == 1
        assert "gradient check failed" in capsys.readouterr().err


class TestTrain:
    def test_writes_seven_models_deterministically(self, trained, tmp_path):
        models = trained["models"]
        files = sorted(p.name for p in models.glob("*.json"))
        assert len(files) == 7
        rerun = tmp_path / "models2"
        result = run_cli(
            "train", LABELS, "--corpus", PAPERS,
            "--index", trained["index"], "--models", rerun,
            "--epochs", trained["recipe"]["epochs"],
            "--seed", trained["recipe"]["seed"],
        )
        assert result.returncode == 0
        for name in files:
            assert (rerun / name).read_bytes() == (models / name).read_bytes()

    @pytest.mark.parametrize(
        "document", ['{"reviews": []}', "[]"], ids=["object", "empty list"]
    )
    def test_empty_labels_rejected(self, trained, tmp_path, document):
        empty = tmp_path / "labels.json"
        empty.write_text(document, encoding="utf-8")
        result = run_cli(
            "train", empty, "--corpus", PAPERS,
            "--index", trained["index"], "--models", tmp_path / "m",
        )
        assert result.returncode == 2
        if document == "[]":
            assert f"labels file {empty} contains no entries" in result.stderr

    def test_index_restricted_once_per_cutoff(
        self, trained, tmp_path, monkeypatch, papers, labels
    ):
        cutoffs = []
        real = cli.restrict

        def restrict(index, cutoff_year):
            cutoffs.append(cutoff_year)
            return real(index, cutoff_year)

        monkeypatch.setattr(cli, "restrict", restrict)
        argv = ["train", LABELS, "--corpus", PAPERS, "--index", trained["index"],
                "--models", tmp_path / "m", "--epochs", "1"]
        assert main([str(a) for a in argv]) == 0
        index_cutoff = trained["recipe"]["cutoff"]
        expected = {min(index_cutoff, papers[p].year) for p in labels}
        assert len(expected) > 1
        assert sorted(cutoffs) == sorted(expected)

    def test_missing_index_is_artifact_error(self, tmp_path):
        result = run_cli(
            "train", LABELS, "--corpus", PAPERS,
            "--index", tmp_path / "no-index.json", "--models", tmp_path / "m",
        )
        assert result.returncode == 3


class TestEvaluate:
    def test_matches_golden(self, trained):
        result = run_cli(
            "evaluate", LABELS, "--corpus", PAPERS,
            "--index", trained["index"], "--models", trained["models"],
        )
        assert result.returncode == 0
        assert result.stdout == golden("eval.txt")

    def test_missing_models_dir(self, trained, tmp_path):
        result = run_cli(
            "evaluate", LABELS, "--corpus", PAPERS,
            "--index", trained["index"], "--models", tmp_path / "missing",
        )
        assert result.returncode == 3

    def test_unlabelled_records_freed_before_bundles(self, trained, monkeypatch):
        """The corpus pass keeps no record of an unlabelled paper: P12's is
        gone before the first bundle is built."""
        records = {}
        bundled = []
        real_load, real_bundle = corpus.load_paper, cli.build_bundle

        def load_paper(path):
            record = real_load(path)
            records[record.paper_id] = weakref.ref(record)
            return record

        def build_bundle(paper, index):
            bundled.append(paper.paper_id)
            assert records["P12"]() is None
            return real_bundle(paper, index)

        monkeypatch.setattr(corpus, "load_paper", load_paper)
        monkeypatch.setattr(cli, "build_bundle", build_bundle)
        argv = ["evaluate", LABELS, "--corpus", PAPERS, "--index", trained["index"],
                "--models", trained["models"]]
        assert main([str(a) for a in argv]) == 0
        assert "P12" not in bundled and len(bundled) == 11

    def test_category_without_labels_named(self, trained, tmp_path):
        result = run_cli(
            "evaluate", _write(tmp_path / "l.json", NO_CLARITY_LABELS),
            "--corpus", PAPERS, "--index", trained["index"],
            "--models", trained["models"],
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == "error: no labeled examples for category clarity\n"


class TestReview:
    def test_markdown_matches_golden(self, trained):
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", trained["index"],
            "--models", trained["models"],
        )
        assert result.returncode == 0
        assert result.stdout == golden("p12_review.md")

    def test_json_matches_golden(self, trained):
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", trained["index"],
            "--models", trained["models"], "--format", "json",
        )
        assert result.returncode == 0
        assert result.stdout == golden("p12_review.json")

    def test_byte_identical_across_runs(self, trained):
        args = ("review", PAPERS / "P12.json", "--index", trained["index"],
                "--models", trained["models"], "--format", "json")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_json_scores_well_formed(self, trained):
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", trained["index"],
            "--models", trained["models"], "--format", "json",
        )
        payload = json.loads(result.stdout)
        assert len(payload["scores"]) == 7
        for block in payload["scores"].values():
            assert block["score"] in (1, 2, 3, 4, 5)
            assert 0.0 < block["confidence"] <= 1.0
        assert len(payload["comments"]) == 8

    def test_saturated_models_print_no_warning(self, trained, tmp_path):
        # at this rate one epoch leaves finite models whose forward passes
        # overflow on the way to finite probabilities
        models = tmp_path / "models"
        result = run_cli(
            "train", LABELS, "--corpus", PAPERS, "--index", trained["index"],
            "--models", models, "--epochs", 1, "--lr", "1e154",
        )
        assert (result.returncode, result.stderr) == (0, "")
        review = run_cli(
            "review", PAPERS / "P12.json", "--index", trained["index"],
            "--models", models, "--format", "json",
        )
        assert (review.returncode, review.stderr) == (0, "")
        for block in json.loads(review.stdout)["scores"].values():
            assert all(math.isfinite(p) for p in block["probabilities"])
        evaluation = run_cli(
            "evaluate", LABELS, "--corpus", PAPERS,
            "--index", trained["index"], "--models", models,
        )
        assert (evaluation.returncode, evaluation.stderr) == (0, "")
        assert len(evaluation.stdout.splitlines()) == 7

    def test_paper_without_related_work(self, trained):
        result = run_cli(
            "review", PAPERS / "P07.json", "--index", trained["index"],
            "--models", trained["models"],
        )
        assert result.returncode == 0
        assert result.stdout.startswith("# Review of P07")

    def test_missing_model_file(self, trained, tmp_path):
        partial = tmp_path / "models"
        partial.mkdir()
        source = next(iter(trained["models"].glob("*.json")))
        (partial / source.name).write_bytes(source.read_bytes())
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", trained["index"],
            "--models", partial,
        )
        assert result.returncode == 3

    def test_missing_index(self, trained, tmp_path):
        result = run_cli(
            "review", PAPERS / "P12.json",
            "--index", tmp_path / "no.json", "--models", trained["models"],
        )
        assert result.returncode == 3

    def test_bad_index_named_before_bad_models(self, trained, tmp_path):
        # on one CPU the models are read before the index, on two beside it;
        # either way the index's error is the one named
        index = _write(tmp_path / "bg.json", "{not json\n")
        with pytest.raises(cli._ArtifactError) as exc:
            cli._load_artifact(load_index, index)
        results = [
            run_cli("review", PAPERS / "P12.json", "--index", index,
                    "--models", tmp_path / "none", cpus=count)
            for count in (1, 2)
        ]
        for result in results:
            assert (result.returncode, result.stdout) == (3, "")
            assert result.stderr == f"error: {exc.value}\n"

    @pytest.mark.parametrize("count", [1, 2])
    def test_bad_models_named_before_bad_templates(self, trained, tmp_path, count):
        models = tmp_path / "none"
        with pytest.raises(cli._ArtifactError) as exc:
            cli._load_models(models)
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", trained["index"],
            "--models", models,
            "--templates", _write(tmp_path / "tpl.json", "{not json"), cpus=count,
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == f"error: {exc.value}\n"

    def test_killed_index_worker(self, trained, tmp_path):
        # one error line naming the worker and its signal, and no output
        pid_file = tmp_path / "pid"
        result = run_bounded(
            _KILLED_INDEX_WORKER_CLI, pid_file, "review", PAPERS / "P12.json",
            "--index", trained["index"], "--models", trained["models"], seconds=60,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            f"internal check failed: worker {pid_file.read_text()} "
            "was killed by signal 9 (Killed)\n"
        )

    @pytest.mark.parametrize("mutation", ["non-array row", "future posting"])
    def test_bad_index_row_is_artifact_error(self, trained, tmp_path, mutation):
        lines = trained["index"].read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        if mutation == "non-array row":
            row = {"a": 1}
        else:
            row[-1][-1][1] = 2030
        lines[1] = json.dumps(row) + "\n"
        index = tmp_path / "bg.json"
        index.write_text("".join(lines), encoding="utf-8")
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", index,
            "--models", trained["models"],
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr

    def test_rows_straddling_lines_are_artifact_error(self, trained, tmp_path):
        # rows 1 and 2 share a line and row 3 is split at its first comma:
        # the line count is kept and the lines joined by commas still read
        # as the original rows, but each line must hold exactly one row
        header, *body = trained["index"].read_text(encoding="utf-8").splitlines()
        first, rest = body[2].split(",", 1)
        lines = [body[0] + "," + body[1], first, rest, *body[3:]]
        assert len(lines) == len(body)
        assert json.loads("[" + ",".join(lines) + "]") == [json.loads(r) for r in body]
        index = tmp_path / "bg.json"
        index.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", index,
            "--models", trained["models"],
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "mutation",
        [
            "string year count",
            "n_papers too high",
            "unknown key",
            "true version",
            "float version",
        ],
    )
    def test_bad_index_header_is_artifact_error(self, trained, tmp_path, mutation):
        lines = trained["index"].read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        if mutation == "string year count":
            header["year_counts"] = {y: str(c) for y, c in header["year_counts"].items()}
        elif mutation == "unknown key":
            header["scope"] = "target"
        elif mutation == "true version":  # the index format is version 1
            header["version"] = True
        elif mutation == "float version":
            header["version"] = 1.0
        else:
            header["n_papers"] += 100
        lines[0] = json.dumps(header) + "\n"
        index = tmp_path / "bg.json"
        index.write_text("".join(lines), encoding="utf-8")
        # P05 (2014) is older than the cutoff, so its review restricts the index
        result = run_cli(
            "review", PAPERS / "P05.json", "--index", index,
            "--models", trained["models"],
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr and result.stdout == ""

    @pytest.mark.parametrize(
        "mutation",
        [
            "max_seq_len 0",
            "NaN tensor",
            "duplicate vocab word",
            "non-string vocab word",
            "vocab longer than embed",
            "flat embed",
            "seven classes",
            "string shape entry",
            "float shape entry",
            "string shape",
            "unknown key",
            "unknown tensor",
            "unknown tensor field",
            "float version",
        ],
    )
    def test_bad_model_is_artifact_error(self, trained, tmp_path, mutation):
        models = tmp_path / "models"
        shutil.copytree(trained["models"], models)
        path = models / "novelty.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        if mutation == "max_seq_len 0":
            payload["max_seq_len"] = 0
        elif mutation == "duplicate vocab word":
            payload["vocab"][-1] = payload["vocab"][3]
        elif mutation == "non-string vocab word":
            payload["vocab"][-1] = 7
        elif mutation == "vocab longer than embed":
            payload["vocab"].append("zzz-unseen-word")
        elif mutation == "flat embed":
            shape = payload["params"]["embed"]["shape"]
            payload["params"]["embed"]["shape"] = [shape[0] * shape[1]]
        elif mutation == "string shape entry":  # b_out has shape [5]
            payload["params"]["b_out"]["shape"] = ["5"]
        elif mutation == "float shape entry":
            payload["params"]["b_out"]["shape"] = [5.7]
        elif mutation == "string shape":
            payload["params"]["b_out"]["shape"] = "5"
        elif mutation == "unknown key":
            payload["min_count"] = 1
        elif mutation == "unknown tensor":
            payload["params"]["w_z"] = payload["params"]["b_out"]
        elif mutation == "unknown tensor field":
            payload["params"]["b_out"]["dtype"] = "<f8"
        elif mutation == "float version":  # the model format is version 2
            payload["version"] = 2.0
        elif mutation == "seven classes":
            for name in ("w_out", "b_out"):  # repeat the first two class rows
                tensor = payload["params"][name]
                raw = base64.b64decode(tensor["data"])
                raw += raw[: len(raw) // 5 * 2]
                tensor["data"] = base64.b64encode(raw).decode("ascii")
                tensor["shape"][0] += 2
        else:
            tensor = payload["params"]["b_out"]
            raw = bytearray(base64.b64decode(tensor["data"]))
            raw[:8] = struct.pack("<d", float("nan"))
            tensor["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", trained["index"],
            "--models", models, "--format", "json",
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr and result.stdout == ""

    def test_corrupt_paper_arg(self, trained, tmp_path):
        bad = tmp_path / "paper.json"
        bad.write_text("[]", encoding="utf-8")
        result = run_cli(
            "review", bad, "--index", trained["index"],
            "--models", trained["models"],
        )
        assert result.returncode == 2


# 100,000 nested arrays, far past Python's recursion limit
DEEP = "[" * 100_000


class TestDeepNesting:
    @pytest.mark.parametrize("document", ["paper", "labels", "templates"])
    def test_bad_input(self, trained, tmp_path, document):
        deep = _write(tmp_path / "deep.json", DEEP)
        if document == "labels":
            args = ["evaluate", deep, "--corpus", PAPERS]
        else:
            paper = deep if document == "paper" else PAPERS / "P12.json"
            args = ["review", paper]
            if document == "templates":
                args += ["--templates", deep]
        result = run_cli(
            *args, "--index", trained["index"], "--models", trained["models"]
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""

    @pytest.mark.parametrize("artifact", ["index header", "index row", "model"])
    def test_bad_artifact(self, trained, tmp_path, artifact):
        index, models = trained["index"], tmp_path / "models"
        shutil.copytree(trained["models"], models)
        if artifact == "model":
            _write(models / "novelty.json", DEEP)
        else:
            lines = index.read_text(encoding="utf-8").splitlines()
            lines[0 if artifact == "index header" else 1] = DEEP
            index = _write(tmp_path / "bg.json", "\n".join(lines) + "\n")
        result = run_cli(
            "review", PAPERS / "P12.json", "--index", index, "--models", models
        )
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""


class TestUsage:
    def test_no_subcommand(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_subcommand(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


NO_MATCH_LABELS = '[{"paper_id": "Z9", "reviews": [{"novelty": 3}]}]'
EMPTY_REVIEW_LABELS = '[{"paper_id": "P01", "reviews": [{}]}]'
# the toy labels with a second entry for P01, which would replace the first
TWICE_LABELS = json.dumps(
    json.loads(LABELS.read_text(encoding="utf-8"))
    + [{"paper_id": "P01", "reviews": [{"novelty": 1}]}]
)
# the toy labels with P01 misspelled as P1, which names no corpus paper
UNKNOWN_PAPER_LABELS = LABELS.read_text(encoding="utf-8").replace(
    '"paper_id": "P01"', '"paper_id": "P1"'
)
# the toy labels with every clarity score dropped
NO_CLARITY_LABELS = json.dumps([
    {**entry, "reviews": [
        {k: v for k, v in review.items() if k != "clarity"}
        for review in entry["reviews"]
    ]}
    for entry in json.loads(LABELS.read_text(encoding="utf-8"))
])
VARIANT_TRUE_TEMPLATES = json.dumps(
    {**json.loads(TEMPLATES.read_text(encoding="utf-8")), "variant": True}
)

# Failure paths no other test covers, each with its documented exit code;
# the argv is built from the trained artifacts and a scratch directory.
EXIT_CASES = {
    "missing template file": (2, lambda t, d: [
        "review", PAPERS / "P12.json", "--index", t["index"], "--models",
        t["models"], "--templates", d / "none.json"]),
    "malformed template file": (2, lambda t, d: [
        "review", PAPERS / "P12.json", "--index", t["index"], "--models",
        t["models"], "--templates", _write(d / "tpl.json", "{not json")]),
    "template variant true": (2, lambda t, d: [
        "review", PAPERS / "P12.json", "--index", t["index"], "--models",
        t["models"], "--templates", _write(d / "tpl.json", VARIANT_TRUE_TEMPLATES)]),
    "train labels name a paper twice": (2, lambda t, d: [
        "train", _write(d / "l.json", TWICE_LABELS), "--corpus", PAPERS,
        "--index", t["index"], "--models", d / "m", "--epochs", "1"]),
    "train labels name an unknown paper": (2, lambda t, d: [
        "train", _write(d / "l.json", UNKNOWN_PAPER_LABELS), "--corpus", PAPERS,
        "--index", t["index"], "--models", d / "m", "--epochs", "1"]),
    "evaluate labels name an unknown paper": (2, lambda t, d: [
        "evaluate", _write(d / "l.json", UNKNOWN_PAPER_LABELS),
        "--corpus", PAPERS, "--index", t["index"], "--models", t["models"]]),
    "train zero epochs": (2, lambda t, d: [
        "train", LABELS, "--corpus", PAPERS, "--index", t["index"],
        "--models", d / "m", "--epochs", "0"]),
    "train labels match no paper": (2, lambda t, d: [
        "train", _write(d / "l.json", NO_MATCH_LABELS),
        "--corpus", PAPERS, "--index", t["index"], "--models", d / "m"]),
    "evaluate labels match no paper": (2, lambda t, d: [
        "evaluate", _write(d / "l.json", NO_MATCH_LABELS),
        "--corpus", PAPERS, "--index", t["index"], "--models", t["models"]]),
    "train only an empty review": (2, lambda t, d: [
        "train", _write(d / "l.json", EMPTY_REVIEW_LABELS),
        "--corpus", PAPERS, "--index", t["index"], "--models", d / "m"]),
    "evaluate only an empty review": (2, lambda t, d: [
        "evaluate", _write(d / "l.json", EMPTY_REVIEW_LABELS),
        "--corpus", PAPERS, "--index", t["index"], "--models", t["models"]]),
    "evaluate labels lack a category": (2, lambda t, d: [
        "evaluate", _write(d / "l.json", NO_CLARITY_LABELS),
        "--corpus", PAPERS, "--index", t["index"], "--models", t["models"]]),
    "train learning rate nan": (2, lambda t, d: [
        "train", LABELS, "--corpus", PAPERS, "--index", t["index"],
        "--models", d / "m", "--lr", "nan", "--epochs", "1"]),
    "train negative learning rate": (2, lambda t, d: [
        "train", LABELS, "--corpus", PAPERS, "--index", t["index"],
        "--models", d / "m", "--lr", "-1", "--epochs", "1"]),
    "train diverges": (2, lambda t, d: [
        "train", LABELS, "--corpus", PAPERS, "--index", t["index"],
        "--models", d / "m", "--lr", "1e308", "--epochs", "1"]),
    "train negative seed": (2, lambda t, d: [
        "train", LABELS, "--corpus", PAPERS, "--index", t["index"],
        "--models", d / "m", "--seed", "-1", "--epochs", "1"]),
    "grad-check two dims": (2, lambda t, d: ["grad-check", "--dims", "1,2"]),
    "grad-check negative seed": (2, lambda t, d: ["grad-check", "--seed", "-1"]),
    "index output in a missing directory": (2, lambda t, d: [
        "build-background", "--corpus", PAPERS, "--cutoff", "2017",
        "--index", d / "no" / "bg.json"]),
    "corpus is a file": (2, lambda t, d: [
        "build-background", "--corpus", LABELS, "--cutoff", "2017",
        "--index", d / "bg.json"]),
    "timeline of a malformed paper": (2, lambda t, d: [
        "novelty-timeline", _write(d / "p.json", '{"paper_id": 1}'),
        "--corpus", PAPERS, "--years", "2012..2013"]),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code(trained, tmp_path, capsys, case):
    _check_exit_code(trained, tmp_path, capsys, case)


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code_on_one_cpu(trained, tmp_path, capsys, cpus, case):
    # on one CPU review reads its models before its index, not beside it
    cpus(1)
    _check_exit_code(trained, tmp_path, capsys, case)


def _check_exit_code(trained, tmp_path, capsys, case):
    code, argv = EXIT_CASES[case]
    assert main([str(a) for a in argv(trained, tmp_path)]) == code
    out, err = capsys.readouterr()
    assert "error" in err and "Traceback" not in err and out == ""
    # a failed train writes no models directory
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("target", ["missing directory", "existing directory"])
def test_failed_index_write_names_given_path(tmp_path, capsys, target):
    """The error names the --index path, and no temp file is left behind."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    index = out_dir / "no" / "bg.json" if target == "missing directory" else out_dir
    argv = ["build-background", "--corpus", str(PAPERS), "--cutoff", "2017",
            "--index", str(index)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"'{index}'" in err and ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp"))


def test_artifacts_get_the_umask_mode(trained, tmp_path):
    index = load_index(trained["index"])
    model = load_model(trained["models"] / "novelty.json")
    old = os.umask(0o022)
    try:
        save_index(index, tmp_path / "bg.json")
        save_model(model, tmp_path / "novelty.json")
    finally:
        os.umask(old)
    for name, original in (("bg.json", trained["index"]),
                           ("novelty.json", trained["models"] / "novelty.json")):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
        assert (tmp_path / name).read_bytes() == original.read_bytes()


def test_unknown_label_ids_named_in_sorted_order(trained, tmp_path, capsys):
    labels = json.loads(UNKNOWN_PAPER_LABELS) + [
        {"paper_id": "Z9", "reviews": [{"novelty": 3}]},
        {"paper_id": "A0", "reviews": [{"novelty": 3}]},
    ]
    argv = ["evaluate", _write(tmp_path / "l.json", json.dumps(labels)),
            "--corpus", PAPERS, "--index", trained["index"],
            "--models", trained["models"]]
    assert main([str(a) for a in argv]) == 2
    assert "not in the corpus: A0, P1, Z9\n" in capsys.readouterr().err


def test_labels_error_named_before_corpus_error(trained, tmp_path, capsys):
    """train reads the labels before the corpus, so a bad labels file is
    named even when a corpus paper is malformed too."""
    papers = tmp_path / "papers"
    shutil.copytree(PAPERS, papers)
    _write(papers / "P03.json", "{not json")
    labels = _write(tmp_path / "l.json", TWICE_LABELS)
    with pytest.raises(ReviewgenError) as exc:
        load_review_labels(labels)
    argv = ["train", labels, "--corpus", papers, "--index", trained["index"],
            "--models", tmp_path / "m", "--epochs", "1"]
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")
    assert "second entry for paper 'P01'" in str(exc.value)
    assert not (tmp_path / "m").exists()


class TestCollector:
    """``main`` pauses the cyclic collector and restores the caller's state."""

    def test_paused_while_a_command_runs(self, monkeypatch, tmp_path):
        seen = []
        real = cli.build_index

        def build_index(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(cli, "build_index", build_index)
        assert gc.isenabled()
        argv = ["build-background", "--corpus", str(PAPERS), "--cutoff", "2017",
                "--index", str(tmp_path / "bg.json")]
        assert main(argv) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_caller_state_restored(self, tmp_path):
        runs = {
            0: ["build-background", "--corpus", PAPERS, "--cutoff", "2017",
                "--index", tmp_path / "bg.json"],
            2: ["grad-check", "--dims", "1,2"],
            3: ["review", PAPERS / "P12.json", "--index", tmp_path / "none.json",
                "--models", tmp_path],
        }
        try:
            for collecting in (True, False):
                if collecting:
                    gc.enable()
                else:
                    gc.disable()
                for code, argv in runs.items():
                    assert main([str(a) for a in argv]) == code
                    assert gc.isenabled() == collecting, (collecting, code)
        finally:
            gc.enable()


# runs each argv of a JSON list through main in one fresh interpreter and
# prints, after each, whether any numpy submodule has been imported
_NUMPY_LOADED_AFTER = """
import json, sys
from reviewgen.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(any(m.startswith("numpy.") for m in sys.modules))
print(json.dumps(loaded))
"""


def test_graph_commands_never_load_numpy(trained, tmp_path):
    """build-background and novelty-timeline run without numpy's import;
    review, which runs the network, loads it."""
    commands = [
        ["build-background", "--corpus", PAPERS, "--cutoff", 2017,
         "--index", tmp_path / "bg.json"],
        ["novelty-timeline", PAPERS / "P12.json", "--corpus", PAPERS,
         "--years", "2012..2018"],
        ["review", PAPERS / "P12.json", "--index", trained["index"],
         "--models", trained["models"]],
    ]
    argvs = json.dumps([[str(a) for a in argv] for argv in commands])
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_LOADED_AFTER, argvs],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [False, False, True]
