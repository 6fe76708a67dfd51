"""Analytic gradients against central finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import corrupted_backward
from synth import oracle_backward
from reviewgen.scoring import grad
from reviewgen.scoring.grad import (
    backward,
    finite_difference_grads,
    gradient_check,
    max_relative_error,
)
from reviewgen.scoring.model import (
    ModelParams,
    TrainConfig,
    forward_trace,
    init_params,
)

BLOCK_NAMES = [f.name for f in __import__("dataclasses").fields(ModelParams)]
# (stacked tensor, gate index) of each GRU gate's rows
GATE_ROWS = {
    "w_z": ("w_in", 0), "w_r": ("w_in", 1), "w_h": ("w_in", 2),
    "u_z": ("u_zr", 0), "u_r": ("u_zr", 1),
    "b_z": ("b_in", 0), "b_r": ("b_in", 1), "b_h": ("b_in", 2),
}
# every unstacked block, and each gate's rows of the stacked ones
CORRUPTIBLE = [
    *GATE_ROWS, *(name for name in BLOCK_NAMES if name not in ("w_in", "u_zr", "b_in"))
]


def _numeric_error(seed, dims, seq_len, num_classes):
    """gradient_check's comparison on an example of ``seq_len`` tokens
    and a head of ``num_classes``."""
    d_w, d_h, d_a, d_e = dims
    config = TrainConfig(d_w=d_w, d_h=d_h, d_a=d_a, d_e=d_e, seed=seed)
    params = init_params(12, config, num_classes)
    rng = np.random.default_rng(seed + 1)
    token_ids = rng.integers(0, 12, size=seq_len).tolist()
    features = rng.normal(size=params.w_ev.shape[1])
    target = int(rng.integers(0, num_classes))
    analytic = backward(forward_trace(token_ids, features, params), target, params)
    numeric = finite_difference_grads(token_ids, features, target, params)
    return max_relative_error(analytic, numeric)


class TestGradientCheck:
    def test_small_dims_across_seeds(self):
        for seed in range(8):
            assert gradient_check(seed) < 1e-4

    def test_two_class_head(self):
        assert _numeric_error(3, (4, 4, 4, 4), seq_len=6, num_classes=2) < 1e-4

    def test_longer_sequence(self):
        assert _numeric_error(5, (3, 5, 3, 2), seq_len=10, num_classes=5) < 1e-4

    @pytest.mark.parametrize("block", CORRUPTIBLE)
    def test_detects_corruption_in_every_block(self, block, monkeypatch):
        """Adding 0.01 to any single block, or to one gate's rows, must trip
        the check."""
        name, gate = GATE_ROWS.get(block, (block, None))
        d_h = 4  # gradient_check's default dims
        rows = slice(None) if gate is None else slice(gate * d_h, (gate + 1) * d_h)
        monkeypatch.setattr(grad, "backward", corrupted_backward(name, rows))
        assert gradient_check(0) > 1e-2

    def test_deterministic(self):
        assert gradient_check(7) == gradient_check(7)


class TestBackward:
    def params(self, seed=0):
        config = TrainConfig(d_w=3, d_h=4, d_a=3, d_e=2, seed=seed)
        return init_params(6, config, 5)

    def test_covers_every_block(self):
        params = self.params()
        grads = backward(forward_trace([0, 1], np.ones(17), params), 2, params)
        assert sorted(grads) == sorted(BLOCK_NAMES)
        for name, arr in params.items():
            assert grads[name].shape == arr.shape

    def test_clamped_loss_has_zero_gradient(self):
        """Below the probability floor the loss is constant, so grads vanish."""
        params = self.params()
        params.b_out[...] = 0.0
        params.b_out[0] = 80.0  # class 0 takes virtually all mass
        trace = forward_trace([0], np.zeros(17), params)
        assert trace.probs[3] < 1e-12
        grads = backward(trace, 3, params)
        for arr in grads.values():
            np.testing.assert_array_equal(arr, 0.0)

    def test_untouched_embedding_rows_have_zero_grad(self):
        params = self.params()
        grads = backward(forward_trace([1, 1, 4], np.ones(17), params), 0, params)
        used = {1, 4}
        for row in range(params.vocab_size):
            if row not in used:
                np.testing.assert_array_equal(grads["embed"][row], 0.0)
            else:
                assert np.any(grads["embed"][row] != 0.0)

    def test_repeated_token_grads_accumulate(self):
        """Row gradient for a repeated token is the sum over its positions."""
        params = self.params()
        features = np.ones(17)
        trace = forward_trace([1, 1], features, params)
        base = backward(trace, 0, params)["embed"][1]
        # finite differences see the same accumulation
        numeric = finite_difference_grads([1, 1], features, 0, params)
        np.testing.assert_allclose(
            base, numeric["embed"][1], rtol=0, atol=1e-7
        )


def _random_dims(seed: int) -> tuple[int, int, int, int, int]:
    """(d_w, d_h, d_a, d_e, seq_len) drawn from the seed."""
    rng = np.random.default_rng([seed, 12])
    d_w, d_h, d_a, d_e = (int(v) for v in rng.integers(1, 10, size=4))
    return d_w, d_h, d_a, d_e, int(rng.integers(1, 25))


# (d_w, d_h, d_a, d_e, seq_len, seed)
ORACLE_CASES = [
    (3, 4, 3, 2, 1, 0),  # T=1, d_w < d_h
    (5, 2, 3, 4, 1, 1),  # T=1, d_w > d_h
    *((*_random_dims(seed), seed) for seed in range(2, 8)),
    (64, 128, 64, 32, 128, 8),  # default dimensions at the default max_seq_len
]


class TestOracleBackward:
    """Batched gradients against the step-by-step BPTT in tests/synth.py."""

    @pytest.mark.parametrize("d_w,d_h,d_a,d_e,seq_len,seed", ORACLE_CASES)
    def test_matches_step_by_step(self, d_w, d_h, d_a, d_e, seq_len, seed):
        config = TrainConfig(d_w=d_w, d_h=d_h, d_a=d_a, d_e=d_e, seed=seed)
        rng = np.random.default_rng([seed, 11])
        vocab_size = int(rng.integers(seq_len // 2 + 1, seq_len + 3))
        params = init_params(vocab_size, config, 5)
        for name in ("b_in", "b_ev", "b_out"):
            arr = getattr(params, name)
            arr[...] = rng.normal(scale=0.5, size=arr.shape)
        token_ids = rng.integers(0, vocab_size, size=seq_len).tolist()
        features = rng.normal(size=17)
        target = int(rng.integers(0, 5))
        trace = forward_trace(token_ids, features, params)

        batched = backward(trace, target, params)
        expected = oracle_backward(trace, target, params)
        assert sorted(batched) == sorted(expected)
        for name in BLOCK_NAMES:
            assert batched[name].shape == expected[name].shape, name
            np.testing.assert_allclose(
                batched[name], expected[name], rtol=0, atol=1e-12, err_msg=name
            )
        assert np.any(batched["w_in"] != 0.0) and np.any(batched["embed"] != 0.0)


class TestMaxRelativeError:
    def test_identical_grads_zero_error(self):
        grads = {"a": np.array([1.0, -2.0]), "b": np.zeros((2, 2))}
        assert max_relative_error(grads, grads) == 0.0

    def test_floored_denominator(self):
        a = {"a": np.array([0.0])}
        n = {"a": np.array([1e-9])}
        # denominator floors at 1e-4, so the tiny difference stays tiny
        assert max_relative_error(a, n) == pytest.approx(1e-5, rel=1e-6)

    def test_reports_worst_block(self):
        a = {"a": np.array([1.0]), "b": np.array([1.0])}
        n = {"a": np.array([1.0]), "b": np.array([3.0])}
        assert max_relative_error(a, n) == pytest.approx(0.5)
