"""Training loop, score prediction, evaluation, and model persistence.

Training is per-example adaptive-moment descent with global-norm gradient
clipping. The dataset is put into a canonical order before the seeded
shuffle, so the result depends only on (seed, dataset contents), never on
input order. Besides the gradients ``backward`` returns, a step allocates
nothing the size of a parameter block: the moments and the parameters are
updated in place, and every intermediate of the clipping and the update is
written into one of two scratch arrays the size of the largest block,
allocated once per ``train`` call and viewed in each block's shape. Model
files are JSON with base64-packed little-endian float64 tensors; save/load
round-trips bitwise and writes atomically.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping, Sequence

from reviewgen import np
from reviewgen.corpus import (
    Category,
    PaperRecord,
    SCOREABLE_CATEGORIES,
    _check_keys,
    _load_json,
    _write_atomic,
)
from reviewgen.errors import (
    EmptyDatasetError,
    FormatVersionError,
    MissingModelError,
    ParseError,
    ValidationError,
)
from reviewgen.evidence import EvidenceBundle
from reviewgen.scoring.grad import backward
from reviewgen.scoring.model import (
    ModelParams,
    TrainConfig,
    forward_trace,
    loss,
    init_params,
)
from reviewgen.scoring.sentences import category_sentences
from reviewgen.scoring.vocab import Vocab

NUM_SCORE_CLASSES = 5

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 5.0  # global gradient-norm ceiling per step

MODEL_FORMAT = "reviewgen-score-model"
MODEL_VERSION = 2
_MODEL_KEYS = frozenset({"format", "version", "max_seq_len", "vocab", "params"})
_PARAM_NAMES = frozenset(f.name for f in fields(ModelParams))


@dataclass(frozen=True, eq=False)
class TrainingExample:
    token_ids: tuple[int, ...]
    features: np.ndarray
    target: int  # 0-based class index


@dataclass
class ScoreModel:
    """Trained parameters plus the vocabulary that encodes their inputs."""

    params: ModelParams
    vocab: Vocab
    max_seq_len: int


@dataclass(frozen=True)
class CategoryScore:
    score: int  # 1..5
    confidence: float
    probabilities: tuple[float, ...]


@dataclass(frozen=True)
class ScoreReport:
    paper_id: str
    scores: dict[Category, CategoryScore]

    @property
    def overall(self) -> int:
        return self.scores[Category.OVERALL_RECOMMENDATION].score


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    mse: float


def _canonical_order(dataset: Sequence[TrainingExample]) -> list[TrainingExample]:
    return sorted(
        dataset, key=lambda ex: (ex.token_ids, ex.features.tobytes(), ex.target)
    )


def _view(scratch: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return scratch[: math.prod(shape)].reshape(shape)


def _clip_global_norm(grads: dict[str, np.ndarray], scratch: np.ndarray) -> None:
    """Scale the gradients in place to a global norm of at most CLIP_NORM;
    each block is squared into ``scratch``."""
    total = sum(
        float(np.sum(np.multiply(g, g, out=_view(scratch, g.shape))))
        for g in grads.values()
    )
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        for g in grads.values():
            g *= scale


def _adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    step: int,
    learning_rate: float,
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """Clip ``grads`` and apply Adam step ``step`` to ``params``, ``m`` and
    ``v`` in place. Each float operation takes the operands, in the order,
    of m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps)."""
    _clip_global_norm(grads, scratch[0])
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for name, g in grads.items():
        mb, vb, p = m[name], v[name], getattr(params, name)
        a, b = (_view(s, g.shape) for s in scratch)
        np.multiply(ADAM_BETA1, mb, out=mb)
        np.multiply(1.0 - ADAM_BETA1, g, out=a)
        np.add(mb, a, out=mb)
        np.multiply(ADAM_BETA2, vb, out=vb)
        np.multiply(1.0 - ADAM_BETA2, g, out=a)
        np.multiply(a, g, out=a)
        np.add(vb, a, out=vb)
        np.divide(vb, bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, ADAM_EPS, out=a)  # the denominator
        np.divide(mb, bc1, out=b)
        np.multiply(learning_rate, b, out=b)
        np.divide(b, a, out=b)
        np.subtract(p, b, out=p)


def train(
    dataset: Sequence[TrainingExample],
    vocab_size: int,
    config: TrainConfig,
    num_classes: int = NUM_SCORE_CLASSES,
    log: Callable[[str], None] | None = None,
) -> ModelParams:
    """Fit a classifier; deterministic given (config.seed, dataset contents).

    Raises ValidationError when a step's loss or, checked once per epoch,
    any parameter is not finite; numpy's floating-point warnings are
    silenced while it trains.
    """
    if not dataset:
        raise EmptyDatasetError("cannot train on an empty dataset")
    for ex in dataset:
        if not 0 <= ex.target < num_classes:
            raise ValueError(f"target {ex.target} outside [0, {num_classes})")
        if not ex.token_ids:
            raise ValueError("training example with empty token sequence")

    data = _canonical_order(dataset)
    params = init_params(vocab_size, config, num_classes)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    m = params.zeros_like()
    v = params.zeros_like()
    largest = max(arr.size for _, arr in params.items())
    scratch = (np.empty(largest), np.empty(largest))
    step = 0
    n = len(data)

    # a diverging step overflows long before its loss reads nan; the loss
    # and parameter checks report that as one error, so numpy's warnings
    # are silenced here
    with np.errstate(all="ignore"):
        for epoch in range(1, config.epochs + 1):
            total_loss = 0.0
            correct = 0
            for i in shuffle_rng.permutation(n):
                ex = data[i]
                ids = ex.token_ids[: config.max_seq_len]
                trace = forward_trace(ids, ex.features, params)
                step_loss = loss(trace.probs, ex.target)
                if not math.isfinite(step_loss):
                    raise ValidationError(
                        f"training diverged in epoch {epoch}: loss {step_loss}"
                    )
                total_loss += step_loss
                correct += int(np.argmax(trace.probs)) == ex.target
                step += 1
                grads = backward(trace, ex.target, params)
                _adam_step(params, grads, m, v, step, config.learning_rate, scratch)
                # neither this step's trace nor its gradients outlive it, so
                # the next step does not allocate its own beside them
                del trace, grads
            for name, arr in params.items():
                if not np.isfinite(arr).all():
                    raise ValidationError(
                        f"training diverged in epoch {epoch}: {name} is not finite"
                    )
            if log is not None:
                log(
                    f"epoch {epoch}/{config.epochs} "
                    f"loss {total_loss / n:.6f} acc {correct / n:.4f}"
                )
    return params


def _category_probs(
    paper: PaperRecord,
    bundle: EvidenceBundle,
    category: Category,
    model: ScoreModel,
) -> np.ndarray:
    tokens = category_sentences(paper, bundle, category, model.max_seq_len)
    token_ids = model.vocab.encode(tokens)
    return forward_trace(token_ids, bundle.features, model.params).probs


def predict_scores(
    paper: PaperRecord,
    bundle: EvidenceBundle,
    models: Mapping[Category, ScoreModel],
) -> ScoreReport:
    """Per-category 1-5 scores with confidences; needs all seven models.

    A finite model whose gates saturate overflows on the way to finite
    probabilities, so numpy's overflow warnings are silenced here; its
    invalid-value and divide warnings are not.
    """
    scores: dict[Category, CategoryScore] = {}
    with np.errstate(over="ignore"):
        for category in SCOREABLE_CATEGORIES:
            model = models.get(category)
            if model is None:
                raise MissingModelError(category.value)
            probs = _category_probs(paper, bundle, category, model)
            best = int(np.argmax(probs))  # argmax takes the lowest index on ties
            scores[category] = CategoryScore(
                score=best + 1,
                confidence=float(probs[best]),
                probabilities=tuple(float(p) for p in probs),
            )
    return ScoreReport(paper_id=paper.paper_id, scores=scores)


def evaluate(
    reports: Sequence[ScoreReport],
    targets: Mapping[str, Mapping[Category, int]],
) -> dict[Category, EvalMetrics]:
    """Exact-match accuracy and squared error of the reports' 1-5 scores
    against ``targets[paper_id]``, per category, over the papers scored in it."""
    metrics: dict[Category, EvalMetrics] = {}
    for category in SCOREABLE_CATEGORIES:
        pairs = [
            (report.scores[category].score, targets[report.paper_id][category])
            for report in reports
            if category in targets[report.paper_id]
        ]
        if not pairs:
            raise EmptyDatasetError(
                f"no labeled examples for category {category.value}"
            )
        n = len(pairs)
        metrics[category] = EvalMetrics(
            accuracy=sum(p == t for p, t in pairs) / n,
            mse=sum((p - t) ** 2 for p, t in pairs) / n,
        )
    return metrics


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict, name: str) -> np.ndarray:
    _check_keys(obj, {"shape", "data"}, set(), f"model tensor {name!r}")
    shape = obj["shape"]
    if type(shape) is not list or not all(type(s) is int and s >= 0 for s in shape):
        raise ParseError(
            f"model tensor {name!r}: shape must be a list of non-negative "
            f"integers, got {shape!r}"
        )
    try:
        raw = base64.b64decode(obj["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"model tensor {name!r} is malformed: {exc}") from exc
    expected = math.prod(shape) * 8
    if len(raw) != expected:
        raise ParseError(
            f"model tensor {name!r}: {len(raw)} bytes, expected {expected}"
        )
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise ParseError(f"model tensor {name!r} has non-finite values")
    return arr


def save_model(model: ScoreModel, path: str | Path) -> None:
    """Atomically write a model file; identical models produce identical bytes."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "max_seq_len": model.max_seq_len,
        "vocab": model.vocab.to_list(),
        "params": {name: _encode_array(arr) for name, arr in model.params.items()},
    }
    # streamed, not joined: a freed model-sized string would raise glibc's
    # mmap threshold, and training's arrays would then grow the heap
    text = json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    _write_atomic(Path(path), chain(text, ["\n"]))


def load_model(path: str | Path) -> ScoreModel:
    """Inverse of save_model; rejects truncated or foreign files."""
    path = Path(path)
    if not path.exists():
        raise MissingModelError(path.stem)
    payload = _load_json(path)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise FormatVersionError(f"{path} is not a score-model file")
    version = payload.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise FormatVersionError(f"unsupported model version {version!r}")
    _check_keys(payload, _MODEL_KEYS, set(), f"model file {path}")
    raw_params = payload["params"]
    _check_keys(raw_params, _PARAM_NAMES, set(), f"model file {path}: params")
    try:
        max_seq_len = payload["max_seq_len"]
        vocab = Vocab.from_list(payload["vocab"])
        arrays = {
            f.name: _decode_array(raw_params[f.name], f.name)
            for f in fields(ModelParams)
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"model file {path} is malformed: {exc}") from exc
    if type(max_seq_len) is not int:
        raise ParseError(
            f"model file {path}: max_seq_len must be an integer, got {max_seq_len!r}"
        )
    if max_seq_len < 1:
        raise ParseError(f"model file {path}: max_seq_len {max_seq_len} is below 1")
    params = ModelParams(**arrays)
    params.check_shapes()
    if params.num_classes != NUM_SCORE_CLASSES:
        raise ParseError(
            f"model file {path}: {params.num_classes} classes, "
            f"expected {NUM_SCORE_CLASSES}"
        )
    if len(vocab) != params.vocab_size:
        raise ParseError(
            f"model file {path}: {len(vocab)} vocab words for "
            f"{params.vocab_size} embedding rows"
        )
    return ScoreModel(params=params, vocab=vocab, max_seq_len=max_seq_len)
