"""`train` spread over two processes: the same stdout, model bytes and
errors as on one. Every test runs the two-process path on any number of
CPUs, because the CPU count is set, not read."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys

import pytest

from conftest import TOY_DIR, golden, run_cli
from reviewgen.background import build_index, save_index
from reviewgen.cli import main
from reviewgen.corpus import SCOREABLE_CATEGORIES, load_corpus

PAPERS = TOY_DIR / "papers"
LABELS = TOY_DIR / "labels.json"
RECIPE = json.loads(golden("recipe.json"))
MODEL_NAMES = [f"{c.value}.json" for c in SCOREABLE_CATEGORIES]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    path = tmp_path_factory.mktemp("index") / "background.json"
    save_index(build_index(load_corpus(PAPERS), RECIPE["cutoff"]), path)
    return path


def _argv(labels, index, models) -> list[str]:
    return [str(a) for a in (
        "train", labels, "--corpus", PAPERS, "--index", index, "--models", models,
        "--epochs", RECIPE["epochs"], "--seed", RECIPE["seed"],
    )]


def _models(directory) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes() for p in sorted(directory.glob("*.json")) if p.is_file()
    }


def _lines_of(stdout: str, category: str) -> str:
    return "".join(
        line for line in stdout.splitlines(keepends=True)
        if line.startswith(f"[{category}] ")
    )


@pytest.fixture(scope="module")
def one_process(index, tmp_path_factory):
    """stdout and model files of the toy recipe trained in one process."""
    models = tmp_path_factory.mktemp("one") / "models"
    result = run_cli(*_argv(LABELS, index, models), cpus=1)
    assert result.returncode == 0, result.stderr
    return result.stdout, _models(models)


class TestSameResult:
    @pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
    def test_two_processes_match_one(self, index, one_process, tmp_path, hash_seed):
        models = tmp_path / "models"
        result = run_cli(*_argv(LABELS, index, models),
                         env={"PYTHONHASHSEED": hash_seed}, cpus=2)
        assert result.returncode == 0, result.stderr
        assert (result.stdout, _models(models)) == one_process
        assert list(_models(models)) == sorted(MODEL_NAMES)

    def test_threaded_blas_matches(self, index, one_process, tmp_path):
        # reviewgen runs BLAS on one thread unless asked for more
        env = {"OPENBLAS_NUM_THREADS": "2"}
        for cpus in (1, 2):
            models = tmp_path / f"models{cpus}"
            result = run_cli(*_argv(LABELS, index, models), env=env, cpus=cpus)
            assert result.returncode == 0, result.stderr
            assert (result.stdout, _models(models)) == one_process

    def test_stdout_in_category_order(self, one_process):
        stdout, _ = one_process
        assert stdout == "".join(
            _lines_of(stdout, c.value) for c in SCOREABLE_CATEGORIES
        )
        for category in SCOREABLE_CATEGORIES:
            assert _lines_of(stdout, category.value).endswith(
                f"[{category.value}] saved (11 examples)\n"
            )


class TestBlasThreads:
    """``import reviewgen`` asks BLAS for one thread unless the user set a
    count; checked in a fresh interpreter, before anything loads numpy."""

    def _env_after_import(self, **user) -> dict[str, str | None]:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
        code = (
            "import json, os, sys, reviewgen; "
            "print(json.dumps({k: os.environ.get(k) for k in sys.argv[1:]}))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, *BLAS_THREADS],
            capture_output=True, text=True, env={**env, **user},
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_unset_variables_become_one(self):
        assert self._env_after_import() == dict.fromkeys(BLAS_THREADS, "1")

    @pytest.mark.parametrize("name", BLAS_THREADS)
    def test_user_value_is_kept(self, name):
        assert self._env_after_import(**{name: "3"}) == {
            **dict.fromkeys(BLAS_THREADS, "1"), name: "3"
        }


@pytest.mark.parametrize("cpus_used", [1, 2])
class TestSameErrors:
    def test_unscored_category_trains_none(
        self, index, tmp_path, capsys, cpus, cpus_used
    ):
        # every category is checked before any is trained, so a reused
        # models directory is never left half old and half new
        cpus(cpus_used)
        missing = SCOREABLE_CATEGORIES[3].value
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([
            {**entry, "reviews": [
                {k: v for k, v in review.items() if k != missing}
                for review in entry["reviews"]
            ]}
            for entry in json.loads(LABELS.read_text(encoding="utf-8"))
        ]), encoding="utf-8")
        models = tmp_path / "models"
        assert main(_argv(labels, index, models)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: no labeled examples for category {missing}\n"
        assert not models.exists()

    @pytest.mark.filterwarnings(
        "ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning"
    )
    def test_diverged_training_writes_no_model(
        self, index, tmp_path, capsys, cpus, cpus_used
    ):
        # at this rate the first step moves every parameter by about 1e308,
        # so the second step's loss is nan in every category
        cpus(cpus_used)
        models = tmp_path / "models"
        argv = _argv(LABELS, index, models)
        argv[argv.index("--epochs") + 1] = "1"
        assert main([*argv, "--lr", "1e308"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: [appropriateness] training diverged in epoch 1: loss nan\n"
        assert _models(models) == {}

    def test_unwritable_model_path(
        self, index, one_process, tmp_path, capsys, cpus, cpus_used
    ):
        cpus(cpus_used)
        stdout, files = one_process
        models = tmp_path / "models"
        blocked = models / "clarity.json"
        blocked.mkdir(parents=True)
        assert main(_argv(LABELS, index, models)) == 2
        out, err = capsys.readouterr()
        assert out == _lines_of(stdout, "appropriateness")
        assert err == f"error: [Errno {errno.EISDIR}] Is a directory: '{blocked}'\n"
        written = _models(models)
        assert written["appropriateness.json"] == files["appropriateness.json"]
        # each process finishes its share, so on two the categories after
        # clarity are saved as well
        later = set(written) - {"appropriateness.json"}
        if cpus_used == 1:
            assert later == set()
        else:
            assert later == set(MODEL_NAMES) - {"appropriateness.json", "clarity.json"}
        assert all(written[name] == files[name] for name in later)
        assert not list(models.glob("*.tmp"))
