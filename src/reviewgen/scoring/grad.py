"""Exact analytic gradients for the classifier, with a finite-difference check.

The backward pass mirrors forward_trace step by step: softmax/cross-entropy
head, the evidence tanh layer, attention pooling, then backpropagation
through time over the GRU unroll and into the embedding rows. The
finite-difference harness perturbs every scalar parameter centrally and is
the independent oracle for all of it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from reviewgen.scoring.model import (
    ForwardTrace,
    ModelParams,
    PROB_FLOOR,
    TrainConfig,
    forward_trace,
    init_params,
    loss,
)

Gradients = dict[str, np.ndarray]


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
    grads = params.zeros_like()
    probs = trace.probs

    if probs[target] < PROB_FLOOR:
        return grads  # loss is clamped flat here

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

    # GRU backpropagation through time
    dx = np.zeros_like(trace.x)
    for s in range(t_len - 1, -1, -1):
        dh_new = d_hidden[s + 1]
        h_prev = trace.h[s]
        z, r, h_tilde = trace.z[s], trace.r[s], trace.h_tilde[s]

        dh_tilde = dh_new * z
        dz = dh_new * (h_tilde - h_prev)
        dh_prev = dh_new * (1.0 - z)

        da_h = dh_tilde * (1.0 - h_tilde**2)
        grads["w_h"] += np.outer(da_h, trace.x[s])
        grads["u_h"] += np.outer(da_h, r * h_prev)
        grads["b_h"] += da_h
        dx[s] += params.w_h.T @ da_h
        d_rh = params.u_h.T @ da_h
        dr = d_rh * h_prev
        dh_prev += d_rh * r

        da_z = dz * z * (1.0 - z)
        grads["w_z"] += np.outer(da_z, trace.x[s])
        grads["u_z"] += np.outer(da_z, h_prev)
        grads["b_z"] += da_z
        dx[s] += params.w_z.T @ da_z
        dh_prev += params.u_z.T @ da_z

        da_r = dr * r * (1.0 - r)
        grads["w_r"] += np.outer(da_r, trace.x[s])
        grads["u_r"] += np.outer(da_r, h_prev)
        grads["b_r"] += da_r
        dx[s] += params.w_r.T @ da_r
        dh_prev += params.u_r.T @ da_r

        d_hidden[s] += dh_prev

    np.add.at(grads["embed"], np.asarray(trace.token_ids), dx)
    return grads


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
