"""`train` spread over two processes: the same stdout, model bytes and
errors as on one. Every test runs the two-process path on any number of
CPUs, because the CPU count is set, not read."""

from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import TOY_DIR, golden, run_bounded, run_cli
from reviewgen.background import build_index, save_index
from reviewgen import cli
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

    @pytest.mark.parametrize("cpus_used", [1, 2])
    def test_only_the_models_are_left(
        self, index, one_process, tmp_path, capsys, monkeypatch, cpus, cpus_used
    ):
        # one staging directory per run, inside the models directory, and
        # nothing of it is left
        cpus(cpus_used)
        staged = []
        real = cli.tempfile.mkdtemp

        def mkdtemp(dir, prefix):
            staged.append(real(dir=dir, prefix=prefix))
            return staged[-1]

        monkeypatch.setattr(cli.tempfile, "mkdtemp", mkdtemp)
        models = tmp_path / "models"
        assert main(_argv(LABELS, index, models)) == 0
        assert (capsys.readouterr().out, _models(models)) == one_process
        assert [os.path.dirname(path) for path in staged] == [str(models)]
        assert sorted(p.name for p in models.iterdir()) == sorted(MODEL_NAMES)

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
        assert not models.exists()

    def test_diverged_training_prints_one_line(self, index, tmp_path, cpus_used):
        # numpy's overflow warnings, from any process, stay off stderr
        models = tmp_path / "models"
        argv = _argv(LABELS, index, models)
        argv[argv.index("--epochs") + 1] = "1"
        result = run_cli(*argv, "--lr", "1e308", cpus=cpus_used)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: [appropriateness] training diverged in epoch 1: loss nan\n"
        )
        assert not models.exists()

    def test_unwritable_model_path(
        self, index, one_process, tmp_path, capsys, cpus, cpus_used
    ):
        # every model is trained and written to the staging directory; the
        # renames into place run in category order, and the directory blocking
        # clarity's name fails the second, after appropriateness.json is in place
        cpus(cpus_used)
        _, files = one_process
        models = tmp_path / "models"
        blocked = models / "clarity.json"
        blocked.mkdir(parents=True)
        assert main(_argv(LABELS, index, models)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: [Errno {errno.EISDIR}] Is a directory: '{blocked}'\n"
        assert _models(models) == {"appropriateness.json": files["appropriateness.json"]}
        assert sorted(p.name for p in models.iterdir()) == [
            "appropriateness.json", "clarity.json"
        ]

    def test_failed_write_creates_or_replaces_no_model(
        self, index, tmp_path, capsys, monkeypatch, cpus, cpus_used
    ):
        # novelty's model fails to be written; the models before and after it
        # are trained and written to the staging directory, which is removed,
        # and a reused directory keeps its old models
        cpus(cpus_used)
        real = cli.save_model

        def save_model(model, path):
            if os.path.basename(path).startswith("novelty.json"):
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            real(model, path)

        monkeypatch.setattr(cli, "save_model", save_model)
        models = tmp_path / "models"
        models.mkdir()
        old = ["appropriateness.json", "overall_recommendation.json"]
        for name in old:
            (models / name).write_text("old", encoding="utf-8")
        assert main(_argv(LABELS, index, models)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: [Errno {errno.ENOSPC}] No space left on device")
        assert sorted(p.name for p in models.iterdir()) == old
        assert all((models / name).read_text(encoding="utf-8") == "old" for name in old)


# the CLI on two CPUs, where the worker kills itself when it calls the
# function named by the first argument: ``train``, or ``fchmod``, which
# ``save_model`` calls once its temp file exists
_KILLED_WORKER_CLI = """
import os, signal, sys
from reviewgen import cli, parallel
parallel.cpu_count = lambda: 2
caller = os.getpid()
name = sys.argv[1]
module = {"train": cli, "fchmod": os}[name]
real = getattr(module, name)

def kill_in_worker(*args, **kwargs):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args, **kwargs)

setattr(module, name, kill_in_worker)
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("kill_in", ["train", "fchmod"])
def test_killed_worker_creates_or_replaces_no_model(index, tmp_path, kill_in):
    # the command ends at once with exit 1 and one line, the caller's
    # models stay in the staging directory, which is removed, and a reused
    # directory keeps its old models; killed in fchmod, the worker leaves
    # its half-written model there too, and that goes with the rest
    models = tmp_path / "models"
    models.mkdir()
    old = ["appropriateness.json", "overall_recommendation.json"]
    for name in old:
        (models / name).write_text("old", encoding="utf-8")
    result = run_bounded(
        _KILLED_WORKER_CLI, kill_in, *_argv(LABELS, index, models), seconds=60
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert re.fullmatch(
        r"internal check failed: worker \d+ was killed by signal 9 \(Killed\)\n",
        result.stderr,
    )
    assert sorted(p.name for p in models.iterdir()) == old
    assert all((models / name).read_text(encoding="utf-8") == "old" for name in old)


def test_unmakeable_staging_directory(index, tmp_path, capsys, monkeypatch):
    # the error names the models directory, not the staging directory, and
    # the directories this run created are removed again
    def mkdtemp(dir, prefix):
        raise OSError(errno.ENOSPC, "No space left on device", f"{dir}/{prefix}x")

    monkeypatch.setattr(cli.tempfile, "mkdtemp", mkdtemp)
    models = tmp_path / "new" / "models"
    assert main(_argv(LABELS, index, models)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno {errno.ENOSPC}] No space left on device: '{models}'\n"
    assert list(tmp_path.iterdir()) == []
