"""Command-line pipeline: build the background index, train and evaluate
score models, generate reviews, plot novelty over time, verify gradients.

Exit codes: 0 success, 2 bad input or usage, 3 missing or unreadable
artifact (index or model files), 1 failed internal check or dead worker
process. Results go to standard output; diagnostics go to standard error.
Every command produces byte-identical output given identical inputs;
train and grad-check take the --seed that fixes their randomness.
Commands run with Python's cyclic garbage collector paused, because their
data holds no reference cycles. build-background, novelty-timeline,
train and evaluate read a large corpus, train fits the seven category
models, and review loads the index beside the models, on every CPU in the
process's affinity mask: this process and workers forked with os.fork,
which inherit the paused collector, each take the next paper, category
or half whenever they are free, and the workers send their results back
through pipes. A failure in any process stops every process before its
next item. A worker that dies, killed by a signal or exiting non-zero,
ends the command with exit 1 once this process has finished its current
item, never with a hang, and no worker outlives the command. Each train
process writes the models of its own categories into one staging
directory inside the models directory; all seven are renamed into place
only once every one has been trained, and the staging directory is
removed, with anything a failed run left in it.
``taskset -c 0`` keeps a command on one CPU; the output is the same.
train and evaluate read the labels, every corpus file (keeping only the
labelled papers), the index, then evaluate's models; the first bad input
names the error. review reads its paper, then runs two halves: this
process loads numpy, the models and the templates, and a worker loads the
index and builds the paper's evidence, of which only the bundle comes
back, so the index never enters this process. On one CPU this process runs
both, the models first. On any number of CPUs the first bad input of
paper, index, models and templates, in that order, names the error.
build-background and novelty-timeline never load numpy, review loads it
beside the index, and the other commands load it before they read their
inputs.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
from pathlib import Path

from reviewgen import np
from reviewgen.background import (
    BackgroundIndex,
    build_index,
    load_index,
    restrict,
    save_index,
)
from reviewgen.corpus import (
    Category,
    PaperRecord,
    SCOREABLE_CATEGORIES,
    _naming,
    corpus_paths,
    load_paper,
    load_review_labels,
    read_corpus,
    target_scores,
)
from reviewgen.errors import (
    EmptyDatasetError,
    ParseError,
    ReviewgenError,
    ValidationError,
)
from reviewgen.evidence import (
    EvidenceBundle,
    build_bundle,
    format_timeline,
    novelty_timeline,
)
from reviewgen.parallel import fork_map
from reviewgen.review import (
    assemble,
    default_templates,
    load_templates,
    render,
)
from reviewgen.scoring import (
    NUM_SCORE_CLASSES,
    ScoreModel,
    TrainConfig,
    TrainingExample,
    Vocab,
    category_sentences,
    evaluate,
    gradient_check,
    load_model,
    predict_scores,
    save_model,
    train,
)

GRAD_TOLERANCE = 1e-4


class _ArtifactError(Exception):
    """An index or model file is missing or unreadable (exit code 3)."""


def _load_artifact(loader, path):
    """Call ``loader(path)``, reporting any failure as a bad artifact.

    Callers pass the loader by name at call time, so a loader rebound on
    this module (for tracing) is the one that runs.
    """
    try:
        return loader(path)
    except ReviewgenError as exc:
        raise _ArtifactError(f"cannot load {path}: {exc}") from exc


def _load_models(model_dir: str) -> dict[Category, ScoreModel]:
    return {
        category: _load_artifact(load_model, Path(model_dir) / f"{category.value}.json")
        for category in SCOREABLE_CATEGORIES
    }


def cmd_build_background(args: argparse.Namespace) -> int:
    index = build_index(corpus_paths(args.corpus), args.cutoff)
    save_index(index, args.index)
    print(f"papers {index.n_papers} elements {len(index.postings)}")
    return 0


def _bundles(
    papers: list[PaperRecord], index: BackgroundIndex, cutoff: int | None
) -> dict[str, EvidenceBundle]:
    """Bundles keyed by paper id, each against the work before its cutoff:
    --cutoff, or else the paper's year, and never past the index's."""
    by_cutoff: dict[int, list[PaperRecord]] = {}
    for paper in papers:
        effective = min(index.cutoff_year, paper.year if cutoff is None else cutoff)
        by_cutoff.setdefault(effective, []).append(paper)
    bundles = {}
    for effective in sorted(by_cutoff):
        # one restricted index, with the lookup it builds, is alive at a time
        restricted = restrict(index, effective)
        for paper in by_cutoff[effective]:
            bundles[paper.paper_id] = build_bundle(paper, restricted)
        del restricted
    return bundles


def cmd_review(args: argparse.Namespace) -> int:
    paper = load_paper(args.paper)

    def half(item: int):
        """Item 0, which this process runs, loads numpy, the models and the
        templates; item 1, which a worker runs when there is a second CPU,
        loads the index and returns only the paper's bundle. Each returns
        the error that main reports, so that a bad index is named before a
        bad model on any number of CPUs."""
        try:
            if item == 1:
                index = _load_artifact(load_index, args.index)
                return _bundles([paper], index, args.cutoff)[paper.paper_id]
            models = _load_models(args.models)
            if args.templates is None:
                return models, default_templates()
            return models, load_templates(args.templates)
        except (_ArtifactError, ReviewgenError, ValueError, OSError) as exc:
            return exc

    read, bundle = fork_map(half, (0, 1))
    for outcome in (bundle, read):
        if isinstance(outcome, Exception):
            raise outcome
    models, templates = read
    report = predict_scores(paper, bundle, models)
    doc = assemble(paper.paper_id, report, bundle, templates)
    sys.stdout.write(render(doc, args.format))
    return 0


def _labelled(
    args: argparse.Namespace,
) -> tuple[list[PaperRecord], dict[str, EvidenceBundle], dict[str, dict[Category, int]]]:
    """The labelled papers of train and evaluate, in corpus order, with
    their bundles and target scores. Reads the labels, then every corpus
    file, then the index; only the labelled papers' records are kept."""
    by_id = {lab.paper_id: lab for lab in load_review_labels(args.labels)}
    entries = read_corpus(
        corpus_paths(args.corpus), lambda p: p if p.paper_id in by_id else None
    )
    index = _load_artifact(load_index, args.index)
    unknown = sorted(by_id.keys() - {paper_id for paper_id, _ in entries})
    if unknown:
        raise ValidationError(
            f"labels name papers not in the corpus: {', '.join(unknown)}"
        )
    papers = [paper for _, paper in entries if paper is not None]
    targets = {p.paper_id: target_scores(by_id[p.paper_id]) for p in papers}
    return papers, _bundles(papers, index, args.cutoff), targets


def cmd_train(args: argparse.Namespace) -> int:
    config = TrainConfig(seed=args.seed, epochs=args.epochs, learning_rate=args.lr)
    papers, bundles, targets = _labelled(args)

    jobs = []
    for category in SCOREABLE_CATEGORIES:
        # the vocab counts every labelled paper, scored in this category or not
        sequences = {
            p.paper_id: category_sentences(
                p, bundles[p.paper_id], category, config.max_seq_len
            )
            for p in papers
        }
        vocab = Vocab.build(sequences.values())
        dataset = [
            TrainingExample(
                token_ids=vocab.encode(tokens),
                features=bundles[paper_id].features,
                target=targets[paper_id][category] - 1,
            )
            for paper_id, tokens in sequences.items()
            if category in targets[paper_id]
        ]
        if not dataset:
            raise ValidationError(f"no labeled examples for category {category.value}")
        jobs.append((category, vocab, dataset))

    # training reads only the jobs; freeing the rest lowers every trainer's peak
    del papers, bundles, targets, sequences

    model_dir = Path(args.models)
    created = [d for d in (model_dir, *model_dir.parents) if not d.exists()]
    model_dir.mkdir(parents=True, exist_ok=True)

    def fit(job: tuple[Category, Vocab, list[TrainingExample]]) -> list[str]:
        """Train one category's model and save it to the staging directory;
        return its log lines."""
        category, vocab, dataset = job
        lines: list[str] = []
        try:
            params = train(
                dataset,
                len(vocab),
                config,
                num_classes=NUM_SCORE_CLASSES,
                log=lambda line: lines.append(f"[{category.value}] {line}"),
            )
        except ValidationError as exc:
            raise ValidationError(f"[{category.value}] {exc}") from exc
        model = ScoreModel(params=params, vocab=vocab, max_seq_len=config.max_seq_len)
        save_model(model, staging / f"{category.value}.json")
        lines.append(f"[{category.value}] saved ({len(dataset)} examples)")
        return lines

    # Each process saves the models it trains into one staging directory
    # inside the models directory and sends back only log lines; sending
    # the parameters back would raise the peak memory. The models are
    # renamed into place, in category order, only once every one has been
    # trained, so a failed train creates or replaces none of them. The
    # staging directory is removed either way, with whatever a failed or
    # killed process left half-written in it.
    try:
        with _naming(model_dir):
            staging = Path(tempfile.mkdtemp(dir=model_dir, prefix=".train-"))
        try:
            logs = fork_map(fit, jobs)
            for category, _, _ in jobs:
                name = f"{category.value}.json"
                with _naming(model_dir / name):
                    os.replace(staging / name, model_dir / name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    except BaseException:
        for directory in created:  # deepest first; only if still empty
            try:
                directory.rmdir()
            except OSError:
                break
        raise
    for lines in logs:
        print("\n".join(lines))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    papers, bundles, targets = _labelled(args)
    models = _load_models(args.models)
    reports = [predict_scores(p, bundles[p.paper_id], models) for p in papers]
    metrics = evaluate(reports, targets)
    for category in SCOREABLE_CATEGORIES:
        m = metrics[category]
        print(f"{category.value} accuracy {m.accuracy:.4f} mse {m.mse:.4f}")
    return 0


def _parse_years(text: str) -> list[int]:
    first, sep, last = text.partition("..")
    try:
        start, end = int(first), int(last)
    except ValueError:
        raise ValidationError(f"--years must look like 2010..2018, got {text!r}")
    if not sep or start > end:
        raise ValidationError(f"invalid year range {text!r}")
    return list(range(start, end + 1))


def cmd_novelty_timeline(args: argparse.Namespace) -> int:
    years = _parse_years(args.years)
    papers = [load_paper(p) for p in args.papers]
    timeline = novelty_timeline(papers, corpus_paths(args.corpus), years)
    sys.stdout.write(format_timeline(timeline))
    return 0


def cmd_grad_check(args: argparse.Namespace) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise ValidationError(f"--dims must be four integers, got {args.dims!r}")
    if len(dims) != 4 or any(d < 1 for d in dims):
        raise ValidationError(
            f"--dims must be four positive integers, got {args.dims!r}"
        )
    error = gradient_check(args.seed, dims=dims)
    print(f"max relative error {error:.3e}")
    if error >= GRAD_TOLERANCE:
        print(
            f"gradient check failed: {error:.3e} >= {GRAD_TOLERANCE:.0e}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reviewgen",
        description="Draft peer reviews from paper knowledge graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-background", help="build and save a background index")
    p.add_argument("--corpus", required=True, help="directory of paper JSON files")
    p.add_argument("--cutoff", type=int, required=True, help="strict year cutoff")
    p.add_argument("--index", required=True, help="output index path")
    p.set_defaults(func=cmd_build_background)

    p = sub.add_parser("review", help="generate a review for one paper")
    p.add_argument("paper", help="paper JSON file")
    p.add_argument("--index", required=True, help="background index path")
    p.add_argument("--models", required=True, help="directory of trained models")
    p.add_argument("--templates", help="template JSON (default: built-in)")
    p.add_argument("--format", choices=("json", "markdown"), default="markdown")
    p.add_argument(
        "--cutoff",
        type=int,
        help="background cutoff year (default: the paper's own year)",
    )
    p.set_defaults(func=cmd_review)

    p = sub.add_parser("train", help="train the seven category score models")
    p.add_argument("labels", help="review labels JSON file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--models", required=True, help="output model directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--cutoff", type=int, help="override per-paper cutoff year")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score models against labeled papers")
    p.add_argument("labels", help="review labels JSON file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--cutoff", type=int, help="override per-paper cutoff year")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "novelty-timeline", help="mean new-element count per cutoff year"
    )
    p.add_argument("papers", nargs="+", help="paper JSON files to track")
    p.add_argument("--corpus", required=True, help="background corpus directory")
    p.add_argument("--years", required=True, help="inclusive range, e.g. 2010..2018")
    p.set_defaults(func=cmd_novelty_timeline)

    p = sub.add_parser("grad-check", help="verify analytic gradients numerically")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="4,4,4,4", help="d_w,d_h,d_a,d_e")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func not in (cmd_build_background, cmd_novelty_timeline, cmd_review):
        # numpy first loaded in the middle of building bundles raises
        # train's peak memory; the first attribute read loads it (review
        # loads it with its models, beside the index)
        np.ndarray  # noqa: B018
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError, EmptyDatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReviewgenError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
