"""Command-line behavior: exit codes, reproducibility, output formats."""

from __future__ import annotations

import base64
import json
import shutil
import struct

import pytest

from conftest import TOY_DIR, golden, run_cli

PAPERS = TOY_DIR / "papers"
LABELS = TOY_DIR / "labels.json"


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


class TestGradCheck:
    def test_passes(self):
        result = run_cli("grad-check", "--seed", 3)
        assert result.returncode == 0
        assert result.stdout.startswith("max relative error")

    def test_injected_bug_detected(self):
        result = run_cli("grad-check", "--seed", 3, "--inject-bug", "w_out")
        assert result.returncode == 1
        assert "check failed" in result.stderr or "error" in result.stderr


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

    def test_empty_labels_rejected(self, trained, tmp_path):
        empty = tmp_path / "labels.json"
        empty.write_text('{"reviews": []}', encoding="utf-8")
        result = run_cli(
            "train", empty, "--corpus", PAPERS,
            "--index", trained["index"], "--models", tmp_path / "m",
        )
        assert result.returncode == 2

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

    @pytest.mark.parametrize("mutation", ["string year count", "n_papers too high"])
    def test_bad_index_header_is_artifact_error(self, trained, tmp_path, mutation):
        lines = trained["index"].read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        if mutation == "string year count":
            header["year_counts"] = {y: str(c) for y, c in header["year_counts"].items()}
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
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("mutation", ["max_seq_len 0", "NaN tensor"])
    def test_bad_model_is_artifact_error(self, trained, tmp_path, mutation):
        models = tmp_path / "models"
        shutil.copytree(trained["models"], models)
        path = models / "novelty.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        if mutation == "max_seq_len 0":
            payload["max_seq_len"] = 0
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


class TestUsage:
    def test_no_subcommand(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_subcommand(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2
