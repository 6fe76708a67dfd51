"""Exact analytic gradients for the classifier, with a finite-difference check.

The backward pass runs forward_trace in reverse: softmax/cross-entropy
head, the evidence tanh layer, attention pooling, then backpropagation
through time over the GRU unroll and into the embedding rows. Only the
recurrent products with U_h^T and [U_z; U_r]^T stay inside the time loop,
which records every step's gate deltas in one T x 3d_h array. The stacked
GRU weight and bias gradients and the input gradient dx = da [W_z; W_r; W_h]
are then matrix products over all timesteps at once. The finite-difference
harness perturbs every scalar parameter centrally and is the independent
oracle for all of it; tests/synth.py keeps a step-by-step reference.
"""

from __future__ import annotations

from typing import Sequence

from reviewgen import np
from reviewgen.scoring.model import (
    ForwardTrace,
    ModelParams,
    PROB_FLOOR,
    TrainConfig,
    forward_trace,
    init_params,
    loss,
)

Gradients = dict[str, "np.ndarray"]  # a string, so numpy is not loaded here


def backward(
    token_ids: Sequence[int],
    features: np.ndarray,
    target: int,
    params: ModelParams,
    trace: ForwardTrace | None = None,
) -> Gradients:
    """Gradients of the cross-entropy loss w.r.t. every parameter block."""
    if trace is None:
        trace = forward_trace(token_ids, features, params)
    probs = trace.probs
    if probs[target] < PROB_FLOOR:
        return params.zeros_like()  # loss is clamped flat here
    grads: Gradients = {}

    t_len = len(trace.token_ids)
    d_h = params.d_h

    dlogits = probs.copy()
    dlogits[target] -= 1.0

    concat = np.concatenate([trace.context, trace.ev_hidden])
    grads["w_out"] = np.outer(dlogits, concat)
    grads["b_out"] = dlogits
    dconcat = params.w_out.T @ dlogits
    dcontext = dconcat[:d_h]
    dev_hidden = dconcat[d_h:]

    dpre_ev = dev_hidden * (1.0 - trace.ev_hidden**2)
    grads["w_ev"] = np.outer(dpre_ev, trace.features)
    grads["b_ev"] = dpre_ev

    # attention: context = sum_i alpha_i h_i, alpha = softmax(att_u @ v)
    h_states = trace.h[1:]  # T x d_h
    d_hidden = np.zeros((t_len + 1, d_h))
    dalpha = h_states @ dcontext
    d_hidden[1:] += np.outer(trace.alpha, dcontext)
    dscores = trace.alpha * (dalpha - float(trace.alpha @ dalpha))
    grads["v_att"] = trace.att_u.T @ dscores
    datt_u = np.outer(dscores, params.v_att)
    dpre_att = datt_u * (1.0 - trace.att_u**2)
    grads["w_att"] = dpre_att.T @ h_states
    d_hidden[1:] += dpre_att @ params.w_att

    # GRU backpropagation through time. The loop carries only the state
    # gradient dh_t and records each step's gate deltas; the weight, bias
    # and input gradients are matrix products over all steps after it.
    h_prev = trace.h[:-1]
    z, r, h_tilde = trace.z, trace.r, trace.h_tilde
    # da_h = dh_t * dh_gain, da_z = dh_t * dz_gain, da_r = (U_h^T da_h) * dr_gain
    dh_gain = z * (1.0 - h_tilde**2)
    dz_gain = (h_tilde - h_prev) * z * (1.0 - z)
    dr_gain = h_prev * r * (1.0 - r)
    carry = 1.0 - z
    da = np.empty((t_len, 3 * d_h))  # [da_z | da_r | da_h] per step
    da_zr, da_h = da[:, : 2 * d_h], da[:, 2 * d_h :]
    for s in range(t_len - 1, -1, -1):
        dh = d_hidden[s + 1]
        da_h[s] = dh * dh_gain[s]
        d_rh = params.u_h.T @ da_h[s]
        da_zr[s, :d_h] = dh * dz_gain[s]
        da_zr[s, d_h:] = d_rh * dr_gain[s]
        d_hidden[s] += dh * carry[s] + d_rh * r[s] + params.u_zr.T @ da_zr[s]

    grads["w_in"] = da.T @ trace.x
    grads["b_in"] = da.sum(axis=0)
    grads["u_zr"] = da_zr.T @ h_prev
    grads["u_h"] = da_h.T @ (r * h_prev)
    grads["embed"] = np.zeros_like(params.embed)
    np.add.at(grads["embed"], np.asarray(trace.token_ids), da @ params.w_in)
    return {name: grads[name] for name, _ in params.items()}  # canonical order


def finite_difference_grads(
    token_ids: Sequence[int],
    features: np.ndarray,
    target: int,
    params: ModelParams,
    epsilon: float = 1e-5,
) -> Gradients:
    """Central finite differences over every scalar parameter."""
    grads = params.zeros_like()
    for name, arr in params.items():
        grad = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + epsilon
            up = loss(forward_trace(token_ids, features, params).probs, target)
            arr[idx] = original - epsilon
            down = loss(forward_trace(token_ids, features, params).probs, target)
            arr[idx] = original
            grad[idx] = (up - down) / (2.0 * epsilon)
    return grads


def max_relative_error(analytic: Gradients, numeric: Gradients) -> float:
    """Worst elementwise relative error across all blocks.

    The denominator is floored at 1e-4 so near-zero gradients are
    compared on an absolute scale instead of amplifying rounding noise.
    """
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-4)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def gradient_check(
    seed: int,
    dims: tuple[int, int, int, int] = (4, 4, 4, 4),
    max_seq_len: int = 6,
    num_classes: int = 5,
    vocab_size: int = 12,
    epsilon: float = 1e-5,
) -> float:
    """Run one seeded analytic-vs-numeric comparison; returns the max error."""
    d_w, d_h, d_a, d_e = dims
    config = TrainConfig(d_w=d_w, d_h=d_h, d_a=d_a, d_e=d_e, seed=seed)
    params = init_params(vocab_size, config, num_classes)
    rng = np.random.default_rng(seed + 1)
    seq_len = int(rng.integers(1, max_seq_len + 1))
    token_ids = rng.integers(0, vocab_size, size=seq_len).tolist()
    features = rng.normal(size=params.w_ev.shape[1])
    target = int(rng.integers(0, num_classes))

    analytic = backward(token_ids, features, target, params)
    numeric = finite_difference_grads(token_ids, features, target, params, epsilon)
    return max_relative_error(analytic, numeric)
