"""Training loop, prediction, evaluation, vocabulary, model persistence."""

from __future__ import annotations

import json
import sys
import tracemalloc

import numpy as np
import numpy.random  # loaded before any allocation is traced
import pytest

from synth import make_separable_dataset, oracle_train
from reviewgen.corpus import SCOREABLE_CATEGORIES, Category
from reviewgen.errors import (
    EmptyDatasetError,
    FormatVersionError,
    MissingModelError,
    ParseError,
    ValidationError,
)
from reviewgen.evidence import build_bundle
from reviewgen.scoring.model import TrainConfig, forward_trace, init_params
from reviewgen.scoring.train import (
    NUM_SCORE_CLASSES,
    CategoryScore,
    EvalMetrics,
    ScoreModel,
    ScoreReport,
    TrainingExample,
    evaluate,
    load_model,
    predict_scores,
    save_model,
    train,
)
from reviewgen.scoring.vocab import PAD_TOKEN, SEP_TOKEN, UNK_TOKEN, Vocab

TINY = TrainConfig(d_w=6, d_h=8, d_a=6, d_e=4, epochs=10, seed=0,
                   learning_rate=0.01)


def example(token_ids, target, feature_fill=0.0):
    return TrainingExample(
        token_ids=tuple(token_ids),
        features=np.full(17, feature_fill),
        target=target,
    )


def zero_model(num_classes=NUM_SCORE_CLASSES, vocab_words=()) -> ScoreModel:
    vocab = Vocab.build([list(vocab_words)] if vocab_words else [])
    params = init_params(len(vocab), TINY, num_classes)
    for _, arr in params.items():
        arr[...] = 0.0
    return ScoreModel(params=params, vocab=vocab, max_seq_len=32)


class TestVocab:
    def test_specials_come_first(self):
        vocab = Vocab.build([["zebra", "apple"]])
        tokens = vocab.to_list()
        assert tokens[:3] == [UNK_TOKEN, PAD_TOKEN, SEP_TOKEN]
        assert tokens[3:] == ["apple", "zebra"]

    def test_unknown_words_map_to_unk(self):
        vocab = Vocab.build([["apple"]])
        assert vocab.encode(["apple", "mystery"]) == (3, 0)

    def test_round_trip_through_list(self):
        vocab = Vocab.build([["b", "a", "c"]])
        assert Vocab.from_list(vocab.to_list()) == vocab


class TestTrain:
    def dataset(self):
        return [
            example([3, 4], 0),
            example([4, 5], 1),
            example([5, 3], 2),
        ]

    def test_deterministic(self):
        a = train(self.dataset(), 6, TINY, num_classes=3)
        b = train(self.dataset(), 6, TINY, num_classes=3)
        for (_, x), (_, y) in zip(a.items(), b.items()):
            np.testing.assert_array_equal(x, y)

    def test_input_order_irrelevant(self):
        data = self.dataset()
        a = train(data, 6, TINY, num_classes=3)
        b = train(list(reversed(data)), 6, TINY, num_classes=3)
        for (_, x), (_, y) in zip(a.items(), b.items()):
            np.testing.assert_array_equal(x, y)

    def test_memorizes_single_example(self):
        config = TrainConfig(d_w=6, d_h=8, d_a=6, d_e=4, epochs=40,
                             learning_rate=0.02, seed=1)
        params = train([example([3, 4, 5], 3)], 6, config)
        probs = forward_trace([3, 4, 5], np.zeros(17), params).probs
        assert int(np.argmax(probs)) == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            train([], 6, TINY)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            train([example([3], 5)], 6, TINY, num_classes=5)
        with pytest.raises(ValueError):
            train([example([3], -1)], 6, TINY)

    def test_empty_token_sequence_rejected(self):
        with pytest.raises(ValueError):
            train([example([], 0)], 6, TINY)

    def test_sequences_truncated_to_max_len(self):
        config = TrainConfig(d_w=4, d_h=4, d_a=4, d_e=4, epochs=1,
                             max_seq_len=2, seed=0)
        short = train([example([3, 4], 0)], 6, config)
        long = train([example([3, 4, 5, 3, 4], 0)], 6, config)
        # beyond-limit tokens never touch the forward pass, but they do
        # change the canonical sort key, which is irrelevant with one example
        np.testing.assert_array_equal(short.w_out, long.w_out)

    @pytest.mark.filterwarnings(
        "ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning"
    )
    def test_non_finite_loss_stops_training(self):
        config = TrainConfig(d_w=6, d_h=8, d_a=6, d_e=4, epochs=2,
                             learning_rate=1e308, seed=0)
        with pytest.raises(ValidationError) as info:
            train(self.dataset(), 6, config, num_classes=3)
        assert str(info.value) == "training diverged in epoch 1: loss nan"

    @pytest.mark.filterwarnings(
        "ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning"
    )
    def test_non_finite_parameter_stops_training(self, monkeypatch):
        # one example is one step an epoch, whose loss is computed before
        # the update: only the check after the epoch sees the nan it leaves
        module = sys.modules["reviewgen.scoring.train"]
        exact = module.backward

        def infinite(*args, **kwargs):
            grads = exact(*args, **kwargs)
            grads["b_out"][0] = np.inf  # clipping turns it into nan
            return grads

        monkeypatch.setattr(module, "backward", infinite)
        with pytest.raises(ValidationError) as info:
            train([example([3, 4], 0)], 6, TINY)
        assert str(info.value) == "training diverged in epoch 1: b_out is not finite"

    def test_training_log(self):
        lines = []
        train(self.dataset(), 6, TINY, num_classes=3, log=lines.append)
        assert len(lines) == TINY.epochs
        assert lines[0].startswith("epoch 1/")

    def test_learns_keyword_split(self):
        positive = [["novel", "attention", "gain"],
                    ["novel", "gain"],
                    ["attention", "novel"]]
        negative = [["baseline", "known", "prior"],
                    ["known", "prior"],
                    ["prior", "baseline"]]
        vocab = Vocab.build(positive + negative)
        dataset = [example(vocab.encode(tokens), 1) for tokens in positive]
        dataset += [example(vocab.encode(tokens), 0) for tokens in negative]
        config = TrainConfig(d_w=8, d_h=12, d_a=8, d_e=4, epochs=25,
                             learning_rate=0.01, seed=0)
        params = train(dataset, len(vocab), config, num_classes=2)
        probes = [(["novel", "attention"], 1),
                  (["novel", "gain"], 1),
                  (["known", "baseline"], 0),
                  (["prior", "known"], 0)]
        hits = sum(
            int(np.argmax(
                forward_trace(vocab.encode(tokens), np.zeros(17), params).probs
            ))
            == want
            for tokens, want in probes
        )
        assert hits / len(probes) >= 0.95


class TestOracleTrain:
    """The in-place Adam update against the allocating one in tests/synth.py."""

    # seed, (d_w, d_h, d_a, d_e), feature scale, learning rate; the large
    # features saturate the evidence layer, and its gradients are clipped
    CASES = [
        (0, (4, 6, 4, 4), 1.0, 0.01),
        (1, (8, 5, 3, 32), 20.0, 0.05),
        (2, (3, 9, 5, 2), 1.0, 0.1),
        (3, (6, 3, 2, 7), 1.0, 0.001),
    ]

    @pytest.mark.parametrize("seed,dims,scale,learning_rate", CASES)
    def test_bitwise_equal(self, seed, dims, scale, learning_rate):
        d_w, d_h, d_a, d_e = dims
        config = TrainConfig(d_w=d_w, d_h=d_h, d_a=d_a, d_e=d_e, epochs=3,
                             seed=seed, learning_rate=learning_rate, max_seq_len=2)
        dataset = [
            TrainingExample(ex.token_ids, ex.features * scale, ex.target)
            for ex in make_separable_dataset(seed, 12)
        ]
        params = train(dataset, 30, config)
        expected, clipped = oracle_train(dataset, 30, config)
        for name, arr in params.items():
            assert np.array_equal(arr, getattr(expected, name)), name
        assert (clipped > 0) == (scale > 1.0)


def test_step_allocates_nothing_parameter_sized():
    # the embedding table is the largest block by far; the traced peak
    # holds the parameters, both moments, one set of gradients and the two
    # scratch arrays, plus what one short sequence needs (about 30 KB)
    vocab_size = 2000
    config = TrainConfig(d_w=8, d_h=4, d_a=4, d_e=4, epochs=2, seed=0,
                         learning_rate=0.01)
    rng = np.random.default_rng(3)
    dataset = [
        TrainingExample(
            tuple(int(t) for t in rng.integers(0, vocab_size, rng.integers(1, 7))),
            rng.normal(size=17),
            int(rng.integers(0, NUM_SCORE_CLASSES)),
        )
        for _ in range(6)
    ]
    params = init_params(vocab_size, config, NUM_SCORE_CLASSES)
    blocks = [arr.nbytes for _, arr in params.items()]
    tracemalloc.start()
    try:
        train(dataset, vocab_size, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * sum(blocks) + 2 * max(blocks) + 64 * 1024


class TestPredictScores:
    def models_for_all(self, model):
        from reviewgen.corpus import SCOREABLE_CATEGORIES

        return {category: model for category in SCOREABLE_CATEGORIES}

    def test_uniform_model_scores_one(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        report = predict_scores(
            papers["P12"], bundle, self.models_for_all(zero_model())
        )
        assert len(report.scores) == 7
        for cs in report.scores.values():
            assert cs.score == 1  # argmax tie resolves to the lowest class
            assert cs.confidence == pytest.approx(0.2, abs=1e-15)
            assert len(cs.probabilities) == 5
        assert report.overall == 1
        assert report.paper_id == "P12"

    def test_missing_model_named(self, papers, index2018):
        bundle = build_bundle(papers["P12"], index2018)
        models = self.models_for_all(zero_model())
        del models[Category.NOVELTY]
        with pytest.raises(MissingModelError, match="novelty"):
            predict_scores(papers["P12"], bundle, models)


def report(paper_id, score):
    """A hand-built report that gives ``score`` in every category."""
    probs = tuple(float(c == score - 1) for c in range(NUM_SCORE_CLASSES))
    return ScoreReport(paper_id, {
        category: CategoryScore(score, 1.0, probs)
        for category in SCOREABLE_CATEGORIES
    })


def every_category(score):
    return {category: score for category in SCOREABLE_CATEGORIES}


class TestEvaluate:
    def test_exact_match(self):
        # B has no novelty target, so novelty is scored over A alone
        targets = {"A": every_category(3), "B": every_category(5)}
        del targets["B"][Category.NOVELTY]
        metrics = evaluate([report("A", 3), report("B", 5)], targets)
        assert list(metrics) == list(SCOREABLE_CATEGORIES)
        assert set(metrics.values()) == {EvalMetrics(accuracy=1.0, mse=0.0)}

    def test_off_by_one(self):
        metrics = evaluate([report("A", 2)], {"A": every_category(3)})
        assert set(metrics.values()) == {EvalMetrics(accuracy=0.0, mse=1.0)}

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            evaluate([], {})

    def test_category_without_target_named(self):
        targets = {"A": every_category(3)}
        del targets["A"][Category.CLARITY]
        with pytest.raises(EmptyDatasetError, match="category clarity"):
            evaluate([report("A", 3)], targets)


class TestPersistence:
    def trained_model(self):
        vocab = Vocab.build([["alpha", "beta", "gamma"]])
        data = [example(vocab.encode(["alpha", "beta"]), 2),
                example(vocab.encode(["gamma"]), 4)]
        params = train(data, len(vocab), TINY)
        return ScoreModel(params=params, vocab=vocab, max_seq_len=32)

    def test_round_trip_bitwise(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab == model.vocab
        assert loaded.max_seq_len == model.max_seq_len
        for (_, a), (_, b) in zip(model.params.items(), loaded.params.items()):
            np.testing.assert_array_equal(a, b)

    def test_saves_byte_identical(self, tmp_path):
        model = self.trained_model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingModelError):
            load_model(tmp_path / "absent.json")

    def test_truncated_rejected(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError):
            load_model(path)

    def test_truncated_tensor_rejected(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        blob = payload["params"]["w_out"]["data"]
        payload["params"]["w_out"]["data"] = blob[: len(blob) // 2 // 4 * 4]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError):
            load_model(path)

    @pytest.mark.parametrize("max_seq_len", [0, -1])
    def test_max_seq_len_below_one_rejected(self, tmp_path, max_seq_len):
        path = tmp_path / "m.json"
        save_model(self.trained_model(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["max_seq_len"] = max_seq_len
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match="max_seq_len"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("max_seq_len", 40.7), ("max_seq_len", "40")],
    )
    def test_integer_fields_must_be_exact(self, tmp_path, field, value):
        path = tmp_path / "m.json"
        save_model(self.trained_model(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match=f"{field} must be an integer"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        model = self.trained_model()
        model.params.w_out[0, 0] = value
        path = tmp_path / "m.json"
        save_model(model, path)
        with pytest.raises(ParseError, match="non-finite"):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "other", "version": 1}', encoding="utf-8")
        with pytest.raises(FormatVersionError):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        # a tensor this version never writes: the version is still reported
        payload["params"]["w_z"] = payload["params"]["b_out"]
        for version in (99, 1):  # 1: the per-gate tensors before stacking
            payload["version"] = version
            path.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(
                FormatVersionError, match=f"unsupported model version {version}$"
            ):
                load_model(path)
