"""The corpus pass on a corpus large enough to be spread over forked
workers: build-background, novelty-timeline, train and evaluate give the
same index bytes, timelines, models, evaluate lines and errors as in
process. Every test here spreads the pass over two processes, on any
number of CPUs."""

from __future__ import annotations

import json
import random

import pytest

from conftest import run_cli
import reviewgen.corpus as corpus_module
from reviewgen.background import build_index, save_index
from reviewgen.cli import main
from reviewgen.corpus import (
    SCOREABLE_CATEGORIES,
    corpus_paths,
    load_corpus,
    load_paper,
    serialize_paper,
)
from reviewgen.errors import ReviewgenError
from reviewgen.evidence import format_timeline, novelty_timeline

from synth import build_random_corpus, build_random_paper

N_PAPERS = corpus_module.PARALLEL_MIN_PAPERS + 30
CUTOFF = 2016
YEARS = "2011..2017"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    rng = random.Random(12)
    for paper in build_random_corpus(rng, N_PAPERS):
        (directory / f"{paper.paper_id}.json").write_text(
            serialize_paper(paper), encoding="utf-8"
        )
    tracked = tmp_path_factory.mktemp("tracked") / "T.json"
    paper = build_random_paper(rng, paper_id="T", year=2018, max_mentions=12)
    tracked.write_text(serialize_paper(paper), encoding="utf-8")
    return directory, tracked


@pytest.fixture(autouse=True)
def two_cpus(cpus):
    cpus(2)


@pytest.fixture
def in_process(monkeypatch):
    """Read every corpus in process for the rest of the test."""
    monkeypatch.setattr(corpus_module, "PARALLEL_MIN_PAPERS", 10**9)


def _copy(corpus_dir, tmp_path):
    copy = tmp_path / "corpus"
    copy.mkdir()
    for path in corpus_paths(corpus_dir):
        (copy / path.name).write_bytes(path.read_bytes())
    return copy


class TestSameResult:
    def test_workers_index_papers_and_paths_alike(self, corpus_dir, monkeypatch):
        directory, _ = corpus_dir
        records = load_corpus(directory)
        from_records = build_index(records, CUTOFF)
        from_paths = build_index(corpus_paths(directory), CUTOFF)
        monkeypatch.setattr(corpus_module, "PARALLEL_MIN_PAPERS", 10**9)
        expected = build_index(records, CUTOFF)
        assert from_records == expected
        assert from_paths == expected
        assert list(from_paths.postings) == list(expected.postings)

    @pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
    def test_cli_bytes_match_in_process(
        self, corpus_dir, tmp_path, in_process, hash_seed
    ):
        directory, tracked = corpus_dir
        env = {"PYTHONHASHSEED": hash_seed}
        expected = tmp_path / "expected.json"
        save_index(build_index(load_corpus(directory), CUTOFF), expected)
        index = tmp_path / "bg.json"
        result = run_cli("build-background", "--corpus", directory,
                         "--cutoff", CUTOFF, "--index", index, env=env, cpus=2)
        assert result.returncode == 0, result.stderr
        assert index.read_bytes() == expected.read_bytes()

        years = list(range(2011, 2018))
        timeline = novelty_timeline([load_paper(tracked)], load_corpus(directory), years)
        result = run_cli("novelty-timeline", tracked, "--corpus", directory,
                         "--years", YEARS, env=env, cpus=2)
        assert result.returncode == 0, result.stderr
        assert result.stdout == format_timeline(timeline)

    def test_labelled_records_sent_back_as_read_in_process(
        self, corpus_dir, labelled, trained, tmp_path, monkeypatch, capsys
    ):
        """train writes the same models, and evaluate with the toy models
        prints the same lines, whether the workers read the corpus or not."""
        directory, _ = corpus_dir
        labels, index = labelled
        common = [str(labels), "--corpus", str(directory), "--index", str(index)]

        def run(models):
            argv = ["train", *common, "--models", str(models), "--epochs", "1",
                    "--seed", "0"]
            assert main(argv) == 0
            train_log = capsys.readouterr().out
            assert main(["evaluate", *common, "--models", str(trained["models"])]) == 0
            files = {path.name: path.read_bytes() for path in models.iterdir()}
            return train_log, capsys.readouterr().out, files

        forked = run(tmp_path / "forked")
        monkeypatch.setattr(corpus_module, "PARALLEL_MIN_PAPERS", 10**9)
        assert run(tmp_path / "in_process") == forked
        assert len(forked[2]) == len(SCOREABLE_CATEGORIES)


@pytest.fixture(scope="module")
def labelled(corpus_dir, tmp_path_factory):
    """A labels file for every tenth corpus paper, scored in every
    category, and the corpus's index."""
    directory, _ = corpus_dir
    out = tmp_path_factory.mktemp("labelled")
    entries = [
        {"paper_id": path.stem,
         "reviews": [{c.value: 1 + (i + k) % 5
                      for k, c in enumerate(SCOREABLE_CATEGORIES)}]}
        for i, path in enumerate(corpus_paths(directory)[::10])
    ]
    labels = out / "labels.json"
    labels.write_text(json.dumps(entries), encoding="utf-8")
    index = out / "bg.json"
    save_index(build_index(corpus_paths(directory), CUTOFF), index)
    return labels, index


def _argv(command, corpus, tracked, out, labelled):
    if command == "build-background":
        return ["build-background", "--corpus", str(corpus),
                "--cutoff", str(CUTOFF), "--index", str(out / "bg.json")]
    if command == "novelty-timeline":
        return ["novelty-timeline", str(tracked), "--corpus", str(corpus),
                "--years", YEARS]
    labels, index = labelled
    return [command, str(labels), "--corpus", str(corpus), "--index", str(index),
            "--models", str(out / "models")]


def _load_corpus_error(corpus) -> str:
    with pytest.raises(ReviewgenError) as exc:
        load_corpus(corpus)
    return str(exc.value)


@pytest.mark.parametrize(
    "command", ["build-background", "novelty-timeline", "train", "evaluate"]
)
class TestSameErrors:
    """A bad corpus exits 2 with the message ``load_corpus`` raises, and
    no index or model file is left behind. evaluate's models directory
    does not exist, so reading it before the corpus would exit 3."""

    def _check(self, command, corpus, tracked, labelled, tmp_path, capsys, message):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(_argv(command, corpus, tracked, out_dir, labelled)) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")
        assert not list(out_dir.iterdir())
        assert not list(tmp_path.rglob("*.tmp"))

    def test_first_malformed_file_named(
        self, command, corpus_dir, labelled, tmp_path, capsys
    ):
        directory, tracked = corpus_dir
        corpus = _copy(directory, tmp_path)
        paths = corpus_paths(corpus)
        paths[3].write_text("{not json", encoding="utf-8")
        paths[-2].write_text(paths[-2].read_text().replace('"year": ', '"year": -'))
        message = _load_corpus_error(corpus)
        assert message.startswith(f"{paths[3]}: invalid JSON")
        self._check(command, corpus, tracked, labelled, tmp_path, capsys, message)

    def test_duplicate_id_named(
        self, command, corpus_dir, labelled, tmp_path, capsys
    ):
        directory, tracked = corpus_dir
        corpus = _copy(directory, tmp_path)
        paths = corpus_paths(corpus)
        (corpus / "ZZ.json").write_bytes(paths[-5].read_bytes())
        message = _load_corpus_error(corpus)
        assert message == f"duplicate paper_id {paths[-5].stem!r} in corpus"
        self._check(command, corpus, tracked, labelled, tmp_path, capsys, message)

    def test_parse_error_wins_over_earlier_duplicate(
        self, command, corpus_dir, labelled, tmp_path, capsys
    ):
        directory, tracked = corpus_dir
        corpus = _copy(directory, tmp_path)
        paths = corpus_paths(corpus)
        (corpus / "A.json").write_bytes(paths[0].read_bytes())
        paths[-1].write_text("[]", encoding="utf-8")
        message = _load_corpus_error(corpus)
        assert message.startswith(f"{paths[-1]}: expected an object")
        self._check(command, corpus, tracked, labelled, tmp_path, capsys, message)
