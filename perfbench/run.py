"""Benchmark of the reviewgen command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload toy-roundtrip --seed 1 --seconds 12 --trace 0

With ``--trace 0`` it drives ``python -m reviewgen.cli`` as a user does: a
closed loop with one client and one child process at a time, timing each
command with tracing off. With ``--trace 1`` it runs one pass of the same
commands through ``reviewgen.cli.main`` in process, first plain and then
with spans around each layer (see ``spans.py``), checks that both passes
print the same bytes and reports per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object; standard
error carries machine facts, a per-command breakdown and the trace summary.

Workloads (one "operation" each, repeated until --seconds have passed):

- toy-roundtrip: the README round trip on the bundled 12-paper corpus with
  the golden training recipe. One operation is build-background, train,
  evaluate, review of P12 in markdown and json, and novelty-timeline of
  P12, each checked byte for byte against tests/golden. Training dominates
  it, so network changes show here and graph/index changes should not.
- synth-review: a seeded 3000-paper synthetic background with a long-tailed
  vocabulary, indexed with cutoff 2018 during set-up and used with the
  seven toy-recipe models. One operation is one `review --format json` of
  a held-out 2018 paper. Index load and match_element dominate it.
- synth-index: the write side of the same layers. One operation is
  build-background over a fresh 3000-paper synthetic corpus, one review of
  a held-out paper against the new index, and novelty-timeline of three
  held-out papers over 2014..2018. Paper loading, graph building and index
  building dominate it; read-path wins that move work into index build or
  load show up here.

End-to-end metrics, reported by every workload:

- op_best_s: wall time of the fastest operation in the measured window.
  Other tenants of a small shared machine slow whole stretches of a run
  by a third or more; the fastest operation is the statistic that stays
  put (the minimum is the robust estimator under one-sided interference,
  Chen & Revels, "Robust benchmarking in noisy environments", 2016). The
  median, the tail percentile with its sample count, throughput and
  per-command medians go to standard error.
- peak_rss_mb: the largest peak RSS of any child during the window.
- setup_s: median over SETUP_REPEATS runs of the workload's set-up.

A failed command or wrong output counts as a failed operation; the error
rate is failed / attempted in the result line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpusgen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
TOY = SRC / "reviewgen" / "data" / "toy"
WORK = ROOT / ".perfbench-work"
TRACE = ROOT / ".perfbench-trace.jsonl"

SETUP_REPEATS = 3
SYNTH_PAPERS = 3000
REVIEW_HELDOUT = 16
TIMELINE_PAPERS = 3
TIMELINE_YEARS = "2014..2018"

# Children get one BLAS thread and a fixed hash seed on every commit, so
# runs do not compete for the two cores or vary with set ordering.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class CheckFailed(Exception):
    """A command exited non-zero or printed a wrong result."""


# ---------------------------------------------------------------- runners


class SubprocessRunner:
    """Runs each command as `python -m reviewgen.cli` and records it."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(CHILD_ENV, PYTHONPATH=str(SRC))
        self.calls: list[tuple[str, float, float]] = []  # command, s, peak RSS MB

    def cli(self, *args: object) -> str:
        argv = [sys.executable, "-m", "reviewgen.cli", *map(str, args)]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.calls.append((str(args[0]), elapsed, usage.ru_maxrss / 1024))
        if proc.returncode != 0:
            raise CheckFailed(
                f"{args[0]} exited {proc.returncode}: "
                f"{err_path.read_text(encoding='utf-8', errors='replace')[-500:]}"
            )
        return out_path.read_text(encoding="utf-8")


class TracedRunner:
    """Runs each command in process twice, plain then traced, and compares."""

    def __init__(self, recorder: spans.Recorder):
        self.recorder = recorder
        self.plain_s = 0.0
        self.traced_s = 0.0

    @staticmethod
    def _main(argv: list[str]) -> tuple[str, float]:
        out, err = io.StringIO(), io.StringIO()
        main = sys.modules["reviewgen.cli"].main
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited {code}: {err.getvalue()[-500:]}")
        return out.getvalue(), elapsed

    def cli(self, *args: object) -> str:
        argv = [str(a) for a in args]
        plain, plain_s = self._main(argv)
        self.recorder.next_invocation()
        undo = self.recorder.install()
        try:
            traced, traced_s = self._main(argv)
        finally:
            self.recorder.uninstall(undo)
        self.plain_s += plain_s
        self.traced_s += traced_s
        if traced != plain:
            raise CheckFailed(f"{argv[0]}: traced output differs from untraced output")
        return traced


# ---------------------------------------------------------------- checks


def expect_equal(what: str, actual: str, expected: str) -> None:
    if actual != expected:
        raise CheckFailed(f"{what}: output differs from the expected bytes")


def check_review_json(text: str, paper: Path, cutoff: int) -> None:
    """Scores 1..5 with normalized probabilities; recommendations are
    earlier, uncited papers."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"review of {paper.name} is not JSON: {exc}") from exc
    scores = doc.get("scores", {})
    if len(scores) != 7:
        raise CheckFailed(f"review of {paper.name} has {len(scores)} scores, not 7")
    for name, entry in scores.items():
        if entry["score"] not in range(1, 6):
            raise CheckFailed(f"{paper.name} {name}: score {entry['score']} outside 1..5")
        if abs(sum(entry["probabilities"]) - 1.0) > 1e-9:
            raise CheckFailed(f"{paper.name} {name}: probabilities do not sum to 1")
    cited = set(json.loads(paper.read_text(encoding="utf-8"))["citations"])
    for sentence in doc["comments"]["meaningful_comparison"]:
        for paper_id, year in re.findall(r"([A-Za-z0-9_-]+) \((\d{4})\)", sentence):
            if int(year) >= cutoff or paper_id in cited:
                raise CheckFailed(
                    f"{paper.name} recommends {paper_id} ({year}): cited or not before {cutoff}"
                )


def novelty_count(review: dict) -> int:
    """The exact new-element count the novelty comment states."""
    text = " ".join(review["comments"]["novelty"])
    if "no new knowledge elements" in text:
        return 0
    found = re.search(r"(\d+) new knowledge element", text)
    if found is None:
        raise CheckFailed("novelty comment states no element count")
    return int(found.group(1))


def check_timeline(text: str, years: str) -> None:
    """One line per year of the range, and the mean never increases."""
    first, last = map(int, years.split(".."))
    rows = [line.split("\t") for line in text.splitlines()]
    if [int(y) for y, _ in rows] != list(range(first, last + 1)):
        raise CheckFailed(f"timeline years {[y for y, _ in rows]} are not {years}")
    means = [float(m) for _, m in rows]
    if any(b > a for a, b in zip(means, means[1:])):
        raise CheckFailed(f"timeline increases: {means}")


# ---------------------------------------------------------------- workloads


class Workload:
    """Inputs made once per run, a repeatable set-up, an operation.

    Inputs are what a user brings: papers, labels and, for synth-review,
    the seven toy-recipe models. Set-up is the program work that must
    happen before the first operation and that a change to the program
    could make cheaper or dearer.
    """

    trace_ops = 1  # operations in the traced pass

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.recipe = json.loads((GOLDEN / "recipe.json").read_text(encoding="utf-8"))
        self.toy = work / "toy"
        self.first: dict[str, str] = {}

    def same_as_first(self, what: str, text: str) -> None:
        expect_equal(f"repeated {what}", text, self.first.setdefault(what, text))

    def inputs(self, cli) -> None:
        shutil.copytree(TOY, self.toy)

    def setup(self, cli) -> None:
        raise NotImplementedError

    def op(self, cli, i: int) -> None:
        raise NotImplementedError

    def check(self, cli) -> None:
        """Checks made once after the measured loop."""

    def train_toy_models(self, cli, models: Path, epochs: int | None = None) -> None:
        index = self.work / "toy-index.json"
        cli("build-background", "--corpus", self.toy / "papers",
            "--cutoff", self.recipe["cutoff"], "--index", index)
        cli("train", self.toy / "labels.json", "--corpus", self.toy / "papers",
            "--index", index, "--models", models,
            "--epochs", epochs or self.recipe["epochs"], "--seed", self.recipe["seed"])


class ToyRoundtrip(Workload):
    name = "toy-roundtrip"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.golden = {p.name: p.read_text(encoding="utf-8") for p in GOLDEN.iterdir()}

    def setup(self, cli) -> None:
        expect_equal("build-background --cutoff 2017", cli(
            "build-background", "--corpus", self.toy / "papers", "--cutoff", 2017,
            "--index", self.work / "bg2017.json"), self.golden["build_background.txt"])

    def op(self, cli, i: int) -> None:
        papers, labels = self.toy / "papers", self.toy / "labels.json"
        p12 = papers / "P12.json"
        index, models = self.work / "background.json", self.work / "models"
        self.same_as_first("build-background", cli(
            "build-background", "--corpus", papers, "--cutoff", self.recipe["cutoff"],
            "--index", index))
        self.same_as_first("train", cli(
            "train", labels, "--corpus", papers, "--index", index, "--models", models,
            "--epochs", self.recipe["epochs"], "--seed", self.recipe["seed"]))
        expect_equal("evaluate", cli(
            "evaluate", labels, "--corpus", papers, "--index", index, "--models", models),
            self.golden["eval.txt"])
        for fmt, golden in (("markdown", "p12_review.md"), ("json", "p12_review.json")):
            expect_equal(f"review --format {fmt}", cli(
                "review", p12, "--index", index, "--models", models, "--format", fmt),
                self.golden[golden])
        expect_equal("novelty-timeline", cli(
            "novelty-timeline", p12, "--corpus", papers, "--years", "2012..2018"),
            self.golden["timeline.txt"])


class SynthWorkload(Workload):
    """A generated corpus of background papers plus held-out 2018 papers,
    reviewed with the seven toy-recipe models."""

    def __init__(self, work: Path, seed: int, n_papers: int, n_heldout: int,
                 epochs: int | None):
        super().__init__(work, seed)
        self.n_papers, self.n_heldout, self.epochs = n_papers, n_heldout, epochs
        self.corpus = work / "corpus"
        self.index, self.models = work / "background.json", work / "models"
        self.reviewed: dict[str, str] = {}  # paper id -> first review

    def inputs(self, cli) -> None:
        super().inputs(cli)
        self.manifest = corpusgen.write_corpus(
            self.corpus, self.seed, self.n_papers, self.n_heldout)

    def build_background(self, cli) -> str:
        out = cli("build-background", "--corpus", self.corpus,
                  "--cutoff", corpusgen.HELDOUT_YEAR, "--index", self.index)
        if not out.startswith(f"papers {len(self.manifest.background)} "):
            raise CheckFailed(f"build-background: {out.strip()!r}, expected "
                              f"{len(self.manifest.background)} papers")
        return out

    def review(self, cli, paper_id: str) -> str:
        paper = self.corpus / f"{paper_id}.json"
        text = cli("review", paper, "--index", self.index, "--models", self.models,
                   "--format", "json")
        check_review_json(text, paper, corpusgen.HELDOUT_YEAR)
        expect_equal(f"repeated review of {paper_id}", text,
                     self.reviewed.setdefault(paper_id, text))
        return text


class SynthReview(SynthWorkload):
    name = "synth-review"
    trace_ops = 3

    def __init__(self, work: Path, seed: int, n_papers: int = SYNTH_PAPERS,
                 n_heldout: int = REVIEW_HELDOUT, epochs: int | None = None):
        super().__init__(work, seed, n_papers, n_heldout, epochs)

    def inputs(self, cli) -> None:
        super().inputs(cli)
        self.train_toy_models(cli, self.models, self.epochs)

    def setup(self, cli) -> None:
        self.build_background(cli)

    def op(self, cli, i: int) -> None:
        self.review(cli, self.manifest.heldout[i % len(self.manifest.heldout)])

    def check(self, cli) -> None:
        # a repeat review gives the same bytes
        self.review(cli, self.manifest.heldout[0])
        # novelty-timeline rebuilds the index from the corpus; at the
        # cutoff year its mean must equal the counts the reviews stated
        # against the saved and reloaded index
        reviewed = list(self.reviewed)[:TIMELINE_PAPERS]
        counts = [novelty_count(json.loads(self.reviewed[p])) for p in reviewed]
        year = corpusgen.HELDOUT_YEAR
        expect_equal("novelty-timeline at the cutoff", cli(
            "novelty-timeline", *(self.corpus / f"{p}.json" for p in reviewed),
            "--corpus", self.corpus, "--years", f"{year}..{year}"),
            f"{year}\t{sum(counts) / len(counts):.6f}\n")


class SynthIndex(SynthWorkload):
    name = "synth-index"

    def __init__(self, work: Path, seed: int, n_papers: int = SYNTH_PAPERS,
                 epochs: int | None = None, years: str = TIMELINE_YEARS):
        super().__init__(work, seed, n_papers, TIMELINE_PAPERS, epochs)
        self.years = years

    def setup(self, cli) -> None:
        # the models the operation's review reads; the index is the operation
        self.train_toy_models(cli, self.models, self.epochs)

    def op(self, cli, i: int) -> None:
        self.same_as_first("build-background", self.build_background(cli))
        self.review(cli, self.manifest.heldout[0])
        heldout = (self.corpus / f"{p}.json" for p in self.manifest.heldout)
        timeline = cli("novelty-timeline", *heldout, "--corpus", self.corpus,
                       "--years", self.years)
        check_timeline(timeline, self.years)
        self.same_as_first("novelty-timeline", timeline)


WORKLOADS = {w.name: w for w in (ToyRoundtrip, SynthReview, SynthIndex)}


# ---------------------------------------------------------------- statistics


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as
    (percentile, value); None when there are ten samples or fewer.

    With n sorted samples, the value at rank r (1-based) has n - r samples
    above it, so the highest such rank is n - 10 and the percentile is
    100 * (n - 10) / n.
    """
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "child_env": CHILD_ENV,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def log(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), file=sys.stderr, flush=True)


# ---------------------------------------------------------------- modes


def run_untraced(workload: Workload, seconds: float) -> dict:
    runner = SubprocessRunner(workload.work)
    workload.inputs(runner.cli)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(runner.cli)
        setup_times.append(time.perf_counter() - start)

    op_times, failed = [], 0
    first_call = len(runner.calls)
    start = time.perf_counter()
    while not op_times and not failed or time.perf_counter() - start < seconds:
        before = len(runner.calls)
        try:
            workload.op(runner.cli, len(op_times) + failed)
        except CheckFailed as exc:
            failed += 1
            log({"failed": str(exc)})
            continue
        op_times.append(sum(s for _, s, _ in runner.calls[before:]))
    measured = time.perf_counter() - start
    op_calls = runner.calls[first_call:]
    try:
        workload.check(runner.cli)
        checks_ok = True
    except CheckFailed as exc:
        log({"failed": str(exc)})
        checks_ok = False

    attempted = len(op_times) + failed
    by_command: dict[str, list[float]] = {}
    for command, s, _ in op_calls:
        by_command.setdefault(command, []).append(s)
    tail = tail_percentile(op_times)
    log({
        "workload": workload.name,
        "ops": len(op_times),
        "error_rate": failed / attempted,
        "setup_runs_s": setup_times,
        "op_s": op_times,
        "op_p50_s": statistics.median(op_times) if op_times else None,
        "op_tail": None if tail is None else {"percentile": tail[0], "s": tail[1],
                                              "samples": len(op_times)},
        "ops_per_s": len(op_times) / measured,
        "command_p50_s": {c: statistics.median(v) for c, v in by_command.items()},
        "command_calls": {c: len(v) for c, v in by_command.items()},
    })
    if not op_times:
        raise SystemExit(f"{workload.name}: every operation failed")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_best_s": (min(op_times), "s"),
        "peak_rss_mb": (max(rss for _, _, rss in op_calls), "MB"),
    }
    return {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def startup_seconds(repeats: int = 3) -> float:
    """Median wall time of a child that only imports reviewgen.cli."""
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import reviewgen.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(recorder: spans.Recorder, startup_s: float) -> dict:
    totals = spans.layer_totals(recorder.spans)
    counters = recorder.counters

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    metrics = {"cli.startup_s": (startup_s, "s"), "cli.self_s": (get("cli.main", "self_s"), "s")}
    wanted = {
        "background.match_element": ("calls", "s"),
        "background.tfidf": ("calls", "self_s"),
        "evidence.build_bundle": ("calls", "self_s"),
        "background.load_index": ("s",),
        "scoring.load_model": ("s",),
        "corpus.load_paper": ("calls", "s"),
        "kg.build_kg": ("calls", "s"),
        "background.build_index": ("s",),
        "background.save_index": ("s",),
        "background.restrict": ("s",),
        "evidence.novelty_timeline": ("s",),
        "scoring.forward_trace": ("calls", "s"),
        "scoring.backward": ("calls", "s"),
        "scoring.train": ("self_s",),
        "scoring.category_sentences": ("s",),
        "scoring.save_model": ("s",),
        "review.assemble": ("s",),
        "review.render": ("s",),
    }
    for name, fields in wanted.items():
        for field in fields:
            metrics[f"{name}.{field}"] = (get(name, field), "count" if field == "calls" else "s")
    in_bundle = counters.get("match_element.in_bundle", 0)
    metrics["background.match_element.candidates"] = (
        counters.get("match_element.candidates", 0), "count")
    metrics["background.match_element.repeat_ratio"] = (
        counters.get("match_element.repeats", 0) / in_bundle if in_bundle else 0.0, "ratio")
    metrics["scoring.forward_trace.tokens"] = (counters.get("forward_trace.tokens", 0), "count")
    return metrics


def run_traced(workload: Workload, trace_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import reviewgen.cli  # noqa: F401  (the runner calls it through sys.modules)

    recorder = spans.Recorder()
    runner = TracedRunner(recorder)
    failures = []
    attempted = 0
    try:
        recorder.phase = "inputs"
        workload.inputs(runner.cli)
        recorder.phase = "setup"
        workload.setup(runner.cli)
        recorder.phase = "op"
        for i in range(workload.trace_ops):
            attempted += 1
            try:
                workload.op(runner.cli, i)
            except CheckFailed as exc:
                failures.append(str(exc))
        recorder.phase = "check"
        workload.check(runner.cli)
    except CheckFailed as exc:
        failures.append(str(exc))
    recorder.write_jsonl(trace_path)

    metrics = layer_metrics(recorder, startup_seconds())
    totals = spans.layer_totals(recorder.spans)
    silent = [name for _, _, name in spans.LAYERS if name not in totals]
    if silent:
        failures.append(f"spans with no calls: {silent}")
    for failure in failures:
        log({"failed": failure})
    # the layers with the most self time in each phase: the op phase shows
    # which layer dominates the measured operation
    top_self_s = {}
    for phase in dict.fromkeys(recorder.phases.values()):
        phase_totals = spans.layer_totals(
            [s for s in recorder.spans if recorder.phases[s.invocation] == phase])
        ranked = sorted(((t["self_s"], n) for n, t in phase_totals.items()), reverse=True)
        top_self_s[phase] = {n: s for s, n in ranked[:4]}
    log({
        "workload": workload.name,
        "tracing_overhead": runner.traced_s / runner.plain_s - 1,
        "plain_in_process_s": runner.plain_s,
        "traced_in_process_s": runner.traced_s,
        "spans": len(recorder.spans),
        "spans_file": str(trace_path),
        "top_self_s": top_self_s,
    })
    return {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": min(len(failures), max(attempted, 1)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reviewgen" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"no reviewgen source checkout under {ROOT}", file=sys.stderr)
        return 2
    os.environ.update(CHILD_ENV)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        log({"machine": machine_facts(), "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace})
        workload = WORKLOADS[args.workload](WORK, args.seed)
        if args.trace:
            result = run_traced(workload, TRACE)
        else:
            result = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
