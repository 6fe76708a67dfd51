"""Command-line pipeline: build the background index, train and evaluate
score models, generate reviews, plot novelty over time, verify gradients.

Exit codes: 0 success, 2 bad input or usage, 3 missing or unreadable
artifact (index or model files), 1 failed internal check. Results go to
standard output; diagnostics go to standard error. Every command produces
byte-identical output given identical inputs; train and grad-check take
the --seed that fixes their randomness. Commands run with Python's cyclic
garbage collector paused, because their data holds no reference cycles.
build-background and novelty-timeline graph a large corpus, and train
fits the seven category models, on every CPU in the process's affinity
mask: this process takes a share, and forked workers, which inherit the
paused collector, take the rest. Each train process writes the model files
of its own categories. ``taskset -c 0`` keeps a command on one CPU; the
output is the same. build-background and novelty-timeline never load
numpy; the other commands load it before they read their inputs.
"""

from __future__ import annotations

import argparse
import gc
import sys
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
    ReviewLabels,
    SCOREABLE_CATEGORIES,
    corpus_paths,
    load_corpus,
    load_paper,
    load_review_labels,
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


def _load_labels(path: str) -> list[ReviewLabels]:
    labels = load_review_labels(path)
    if not labels:
        raise ValidationError(f"labels file {path} contains no entries")
    return labels


def _load_models(model_dir: str) -> dict[Category, ScoreModel]:
    return {
        category: _load_artifact(load_model, Path(model_dir) / f"{category.value}.json")
        for category in SCOREABLE_CATEGORIES
    }


def _effective_cutoff(
    index: BackgroundIndex, paper: PaperRecord, cutoff: int | None
) -> int:
    """The cutoff before which work counts for the paper: its year or --cutoff."""
    return min(index.cutoff_year, cutoff if cutoff is not None else paper.year)


def cmd_build_background(args: argparse.Namespace) -> int:
    index = build_index(corpus_paths(args.corpus), args.cutoff)
    save_index(index, args.index)
    print(f"papers {index.n_papers} elements {len(index.postings)}")
    return 0


def cmd_review(args: argparse.Namespace) -> int:
    paper = load_paper(args.paper)
    index = _load_artifact(load_index, args.index)
    index = restrict(index, _effective_cutoff(index, paper, args.cutoff))
    models = _load_models(args.models)
    if args.templates is None:
        templates = default_templates()
    else:
        templates = load_templates(args.templates)
    bundle = build_bundle(paper, index)
    report = predict_scores(paper, bundle, models)
    doc = assemble(paper.paper_id, report, bundle, templates)
    sys.stdout.write(render(doc, args.format))
    return 0


def _prepare_labeled(
    corpus: list[PaperRecord],
    labels: list[ReviewLabels],
    index: BackgroundIndex,
    cutoff: int | None,
) -> tuple[list[PaperRecord], dict[str, EvidenceBundle], dict[str, dict[Category, int]]]:
    by_id = {lab.paper_id: lab for lab in labels}
    unknown = sorted(by_id.keys() - {p.paper_id for p in corpus})
    if unknown:
        raise ValidationError(
            f"labels name papers not in the corpus: {', '.join(unknown)}"
        )
    papers = [p for p in corpus if p.paper_id in by_id]
    restricted: dict[int, BackgroundIndex] = {}  # one index per effective cutoff
    bundles = {}
    targets = {}
    for paper in papers:
        effective = _effective_cutoff(index, paper, cutoff)
        if effective not in restricted:
            restricted[effective] = restrict(index, effective)
        bundles[paper.paper_id] = build_bundle(paper, restricted[effective])
        targets[paper.paper_id] = target_scores(by_id[paper.paper_id])
    return papers, bundles, targets


def cmd_train(args: argparse.Namespace) -> int:
    config = TrainConfig(seed=args.seed, epochs=args.epochs, learning_rate=args.lr)
    corpus = load_corpus(args.corpus)
    labels = _load_labels(args.labels)
    index = _load_artifact(load_index, args.index)
    papers, bundles, targets = _prepare_labeled(corpus, labels, index, args.cutoff)

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

    model_dir = Path(args.models)
    model_dir.mkdir(parents=True, exist_ok=True)

    def fit(job: tuple[Category, Vocab, list[TrainingExample]]) -> list[str]:
        """Train and save one category's model; return its log lines."""
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
        save_model(model, model_dir / f"{category.value}.json")
        lines.append(f"[{category.value}] saved ({len(dataset)} examples)")
        return lines

    # each process saves the models it trains and sends back only log
    # lines; sending the parameters back would raise the peak memory
    for lines in fork_map(fit, jobs):
        print("\n".join(lines))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    labels = _load_labels(args.labels)
    index = _load_artifact(load_index, args.index)
    models = _load_models(args.models)
    papers, bundles, targets = _prepare_labeled(corpus, labels, index, args.cutoff)

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
    if args.func not in (cmd_build_background, cmd_novelty_timeline):
        # numpy first loaded in the middle of building bundles raises
        # train's peak memory; the first attribute read loads it
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
