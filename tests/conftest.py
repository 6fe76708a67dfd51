"""Shared fixtures: the bundled toy corpus and a session-trained model set."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import reviewgen
from reviewgen import (
    build_bundle,
    build_index,
    load_corpus,
    load_review_labels,
    parallel,
)
from reviewgen.scoring import grad

TOY_DIR = Path(reviewgen.__file__).parent / "data" / "toy"
GOLDEN_DIR = Path(__file__).parent / "golden"


# the CLI with the CPU count fork_map sees fixed by the first argument
_CLI_ON_CPUS = (
    "import sys; from reviewgen import parallel; "
    "parallel.cpu_count = lambda: int(sys.argv[1]); "
    "from reviewgen.cli import main; sys.exit(main(sys.argv[2:]))"
)


def run_cli(
    *args: object,
    cwd: str | None = None,
    env: dict[str, str] | None = None,
    cpus: int | None = None,
) -> subprocess.CompletedProcess:
    """Run the installed CLI in a fresh interpreter; ``env`` adds variables,
    and ``cpus`` sets the number of CPUs it spreads work over."""
    if cpus is None:
        command = [sys.executable, "-m", "reviewgen.cli"]
    else:
        command = [sys.executable, "-c", _CLI_ON_CPUS, str(cpus)]
    return subprocess.run(
        [*command, *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=None if env is None else {**os.environ, **env},
    )


def run_bounded(code: str, *args: object, seconds: float = 30) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` in a session of its own. It fails the
    test, rather than hang it, if it runs longer than ``seconds``, and it
    fails it if any process of the session outlives the run."""
    process = subprocess.Popen(
        [sys.executable, "-c", code, *map(str, args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=seconds)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail(f"still running after {seconds} s")
    try:
        os.killpg(process.pid, 0)
    except ProcessLookupError:
        pass
    else:
        os.killpg(process.pid, signal.SIGKILL)
        pytest.fail("a process of the run outlived it")
    return subprocess.CompletedProcess(process.args, process.returncode, stdout, stderr)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs in-process work is spread over: ``cpus(2)``.
    Two processes work on one CPU too, only more slowly."""

    def use(count: int) -> None:
        monkeypatch.setattr(parallel, "cpu_count", lambda: count)

    return use


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def corrupted_backward(block, rows=slice(None)):
    """``backward`` with 0.01 added to the gradient of one parameter block,
    or to ``rows`` of it."""
    exact = grad.backward

    def corrupted(*args, **kwargs):
        grads = exact(*args, **kwargs)
        grads[block] = grads[block].copy()
        grads[block][rows] += 0.01
        return grads

    return corrupted


@pytest.fixture(scope="session")
def toy_dir() -> Path:
    return TOY_DIR


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(TOY_DIR / "papers")


@pytest.fixture(scope="session")
def papers(corpus):
    return {p.paper_id: p for p in corpus}


@pytest.fixture(scope="session")
def labels():
    return {l.paper_id: l for l in load_review_labels(TOY_DIR / "labels.json")}


@pytest.fixture(scope="session")
def index2018(corpus):
    return build_index(corpus, 2018)


@pytest.fixture(scope="session")
def p12_bundle(papers, index2018):
    return build_bundle(papers["P12"], index2018)


@pytest.fixture(scope="session")
def trained(tmp_path_factory, toy_dir):
    """Background index and the seven models, trained once per session.

    The recipe (cutoff/epochs/seed) is read from the golden directory so
    golden regeneration and the tests can never drift apart.
    """
    recipe = json.loads(golden("recipe.json"))
    root = tmp_path_factory.mktemp("trained")
    index = root / "background.json"
    models = root / "models"
    result = run_cli(
        "build-background",
        "--corpus", toy_dir / "papers",
        "--cutoff", recipe["cutoff"],
        "--index", index,
    )
    assert result.returncode == 0, result.stderr
    result = run_cli(
        "train", toy_dir / "labels.json",
        "--corpus", toy_dir / "papers",
        "--index", index,
        "--models", models,
        "--epochs", recipe["epochs"],
        "--seed", recipe["seed"],
    )
    assert result.returncode == 0, result.stderr
    return {"index": index, "models": models, "recipe": recipe}
