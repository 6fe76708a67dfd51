"""Forward-pass math: gate equations, attention, softmax head, loss."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from reviewgen.errors import EmptySequenceError, ShapeMismatchError
from reviewgen.scoring.model import (
    ModelParams,
    TrainConfig,
    forward_trace,
    init_params,
    loss,
    sigmoid,
    softmax,
)

SMALL = TrainConfig(d_w=3, d_h=4, d_a=3, d_e=2)


def small_params(num_classes=5, seed=0, vocab=6) -> ModelParams:
    return init_params(vocab, dataclasses.replace(SMALL, seed=seed), num_classes)


def zero_params(num_classes=5) -> ModelParams:
    params = small_params(num_classes)
    for _, arr in params.items():
        arr[...] = 0.0
    return params


# ---------------------------------------------------------------------------
# scalar reimplementation: index loops and math.* only, no numpy linear algebra


def s_sigmoid(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    ev = math.exp(v)
    return ev / (1.0 + ev)


def s_matvec(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def s_softmax(scores):
    top = max(scores)
    ex = [math.exp(v - top) for v in scores]
    total = sum(ex)
    return [v / total for v in ex]


def s_gru_step(x, h_prev, p: ModelParams):
    # each gate's block is a row slice of the stacked tensors
    w_in, b_in, u_zr = p.w_in.tolist(), p.b_in.tolist(), p.u_zr.tolist()
    d_h = p.d_h
    wz, wr, wh = w_in[:d_h], w_in[d_h : 2 * d_h], w_in[2 * d_h :]
    uz, ur, uh = u_zr[:d_h], u_zr[d_h:], p.u_h.tolist()
    bz, br, bh = b_in[:d_h], b_in[d_h : 2 * d_h], b_in[2 * d_h :]
    z = [s_sigmoid(s_matvec(wz, x)[i] + s_matvec(uz, h_prev)[i] + bz[i])
         for i in range(d_h)]
    r = [s_sigmoid(s_matvec(wr, x)[i] + s_matvec(ur, h_prev)[i] + br[i])
         for i in range(d_h)]
    gated = [r[i] * h_prev[i] for i in range(d_h)]
    h_tilde = [math.tanh(s_matvec(wh, x)[i] + s_matvec(uh, gated)[i] + bh[i])
               for i in range(d_h)]
    return [(1.0 - z[i]) * h_prev[i] + z[i] * h_tilde[i] for i in range(d_h)]


def s_attend(hidden, p: ModelParams):
    w_att, v_att = p.w_att.tolist(), p.v_att.tolist()
    scores = []
    for h in hidden:
        u = [math.tanh(v) for v in s_matvec(w_att, h)]
        scores.append(sum(v_att[a] * u[a] for a in range(len(u))))
    alpha = s_softmax(scores)
    d_h = len(hidden[0])
    context = [sum(alpha[t] * hidden[t][i] for t in range(len(hidden)))
               for i in range(d_h)]
    return context, alpha


def s_forward(token_ids, features, p: ModelParams):
    embed = p.embed.tolist()
    h = [0.0] * p.d_h
    hidden = []
    for tok in token_ids:
        h = s_gru_step(embed[tok], h, p)
        hidden.append(h)
    context, _ = s_attend(hidden, p)
    ev_pre = s_matvec(p.w_ev.tolist(), list(features))
    ev_hidden = [math.tanh(ev_pre[i] + p.b_ev[i]) for i in range(p.d_e)]
    combined = context + ev_hidden
    logits = [s_matvec(p.w_out.tolist(), combined)[c] + p.b_out[c]
              for c in range(p.num_classes)]
    return s_softmax(logits)


def random_trace(rng, p: ModelParams, max_len=6):
    t_len = int(rng.integers(1, max_len + 1))
    token_ids = [int(v) for v in rng.integers(0, p.vocab_size, t_len)]
    return forward_trace(token_ids, rng.normal(size=17), p)


class TestScalarOracle:
    def test_gru_step(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            p = small_params(seed=seed)
            trace = random_trace(rng, p)
            for t in range(len(trace.token_ids)):
                want = s_gru_step(trace.x[t].tolist(), trace.h[t].tolist(), p)
                np.testing.assert_allclose(trace.h[t + 1], want, rtol=0, atol=1e-12)

    def test_attend(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            p = small_params(seed=seed)
            trace = random_trace(rng, p)
            want_c, want_a = s_attend([h.tolist() for h in trace.h[1:]], p)
            np.testing.assert_allclose(trace.context, want_c, rtol=0, atol=1e-12)
            np.testing.assert_allclose(trace.alpha, want_a, rtol=0, atol=1e-12)

    def test_forward(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            p = small_params(num_classes=int(rng.integers(2, 6)), seed=seed)
            t_len = int(rng.integers(1, 7))
            token_ids = [int(v) for v in rng.integers(0, p.vocab_size, t_len)]
            features = rng.normal(size=17)
            got = forward_trace(token_ids, features, p).probs
            want = s_forward(token_ids, features, p)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestGruStep:
    """The recurrence as forward_trace runs it, one step per token."""

    def test_zero_params_halve_state(self):
        p = zero_params()
        p.embed[1] = [1.0, -2.0, 0.5]
        p.w_in[2 * p.d_h :] = small_params().w_in[2 * p.d_h :]  # W_h
        # token 1 moves the state off zero; token 0 embeds to the zero input
        trace = forward_trace([1, 0, 0], np.zeros(17), p)
        assert np.any(trace.h[1] != 0.0)
        np.testing.assert_array_equal(trace.h[2], 0.5 * trace.h[1])
        np.testing.assert_array_equal(trace.h[3], 0.5 * trace.h[2])

    def test_zero_params_zero_state_stay_zero(self):
        trace = forward_trace([0, 1, 2], np.zeros(17), zero_params())
        np.testing.assert_array_equal(trace.h, np.zeros((4, 4)))

    def test_state_is_convex_mix(self):
        """h_t is elementwise between h_{t-1} and h~_t."""
        rng = np.random.default_rng(3)
        p = small_params()
        for _ in range(20):
            trace = random_trace(rng, p, max_len=8)
            for t in range(len(trace.token_ids)):
                lo = np.minimum(trace.h[t], trace.h_tilde[t])
                hi = np.maximum(trace.h[t], trace.h_tilde[t])
                out = trace.h[t + 1]
                assert np.all(out >= lo - 1e-15) and np.all(out <= hi + 1e-15)


class TestAttend:
    """Attention pooling over the hidden states of forward_trace."""

    def test_single_state_gets_full_weight(self):
        trace = forward_trace([2], np.ones(17), small_params())
        np.testing.assert_array_equal(trace.alpha, [1.0])
        np.testing.assert_array_equal(trace.context, trace.h[1])

    def test_identical_states_share_weight(self):
        p = small_params()
        # a saturated update gate and no recurrent candidate term make
        # h_t depend on the current token alone
        p.b_in[: p.d_h] = 1000.0  # b_z
        p.u_h[...] = 0.0
        trace = forward_trace([3, 3], np.ones(17), p)
        np.testing.assert_array_equal(trace.h[1], trace.h[2])
        np.testing.assert_allclose(trace.alpha, [0.5, 0.5], rtol=0, atol=1e-15)
        np.testing.assert_allclose(trace.context, trace.h[1], rtol=0, atol=1e-15)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        trace = forward_trace([0, 3, 5, 1, 2], rng.normal(size=17), small_params())
        assert trace.alpha.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(trace.alpha > 0)


class TestForward:
    def test_zero_params_uniform(self):
        p = zero_params(num_classes=5)
        probs = forward_trace([0, 1, 2], np.zeros(17), p).probs
        np.testing.assert_array_equal(probs, np.full(5, 0.2))

    def test_zero_output_head_uniform(self):
        p = small_params(num_classes=5)
        p.w_out[...] = 0.0
        p.b_out[...] = 0.0
        probs = forward_trace([0, 1], np.ones(17), p).probs
        np.testing.assert_allclose(probs, np.full(5, 0.2), rtol=0, atol=1e-15)

    def test_distribution(self):
        rng = np.random.default_rng(9)
        p = small_params()
        for _ in range(10):
            probs = forward_trace([0, 3, 5, 1], rng.normal(size=17), p).probs
            assert probs.shape == (5,)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            forward_trace([], np.zeros(17), small_params())

    def test_feature_dim_validated(self):
        with pytest.raises(ShapeMismatchError):
            forward_trace([0], np.zeros(16), small_params())

    def test_token_range_validated(self):
        p = small_params(vocab=6)
        with pytest.raises(ShapeMismatchError):
            forward_trace([6], np.zeros(17), p)
        with pytest.raises(ShapeMismatchError):
            forward_trace([-1], np.zeros(17), p)

    def test_trace_internals(self):
        p = small_params()
        trace = forward_trace([1, 2, 3], np.ones(17), p)
        np.testing.assert_array_equal(trace.h[0], np.zeros(4))
        assert trace.alpha.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            trace.context, trace.alpha @ trace.h[1:], rtol=0, atol=1e-15
        )
        np.testing.assert_array_equal(trace.x, p.embed[[1, 2, 3]])


class TestLoss:
    def test_certain_prediction_zero_loss(self):
        assert loss(np.array([1.0, 0.0, 0.0]), 0) == 0.0

    def test_uniform_five_way(self):
        assert loss(np.full(5, 0.2), 2) == pytest.approx(math.log(5), abs=1e-15)

    def test_clamped_below(self):
        probs = np.array([1.0, 1e-300, 0.0])
        assert loss(probs, 1) == pytest.approx(-math.log(1e-12), abs=1e-9)
        assert loss(probs, 2) == pytest.approx(-math.log(1e-12), abs=1e-9)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            loss(np.full(5, 0.2), 5)
        with pytest.raises(ValueError):
            loss(np.full(5, 0.2), -1)


class TestNumericalStability:
    def test_sigmoid_extremes(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([1000.0, -1000.0, 0.0]))
        assert out[0] == 1.0
        assert out[1] == pytest.approx(0.0, abs=1e-300)
        assert out[2] == 0.5

    def test_sigmoid_bitwise_equals_masked_form(self):
        """The branch-free form gives the bits of the per-sign masked form."""

        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        rng = np.random.default_rng(6)
        x = np.concatenate([
            [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf],
            rng.standard_normal(5000) * 10.0,
            rng.uniform(-800.0, 800.0, 5000),
        ])
        with np.errstate(over="raise"):
            got = sigmoid(x)
        assert got.tobytes() == masked(x).tobytes()

    def test_softmax_large_logits(self):
        with np.errstate(over="raise"):
            probs = softmax(np.array([1000.0, 999.0, -1000.0]))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[0] > probs[1] > probs[2]


class TestInit:
    def test_deterministic(self):
        a = small_params(seed=42)
        b = small_params(seed=42)
        for (_, x), (_, y) in zip(a.items(), b.items()):
            np.testing.assert_array_equal(x, y)

    def test_seed_changes_weights(self):
        a, b = small_params(seed=0), small_params(seed=1)
        assert not np.array_equal(a.embed, b.embed)

    def test_biases_start_at_zero(self):
        p = small_params()
        for name in ("b_in", "b_ev", "b_out"):
            np.testing.assert_array_equal(getattr(p, name), 0.0)

    def test_check_shapes(self):
        p = small_params()
        p.check_shapes()
        p.u_h = np.zeros((4, 5))
        with pytest.raises(ShapeMismatchError):
            p.check_shapes()

    def test_config_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            TrainConfig(d_h=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)
