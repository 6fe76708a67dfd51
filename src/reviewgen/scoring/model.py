"""The score-classifier network: GRU encoder, attention, evidence head.

Token embeddings run through a single-layer GRU; attention pools the
hidden states into a context vector; the evidence feature vector maps
through a tanh layer; the concatenation feeds a linear softmax head with
C classes (5 for score prediction). Everything is float64 numpy, and all
randomness is seeded.

Gate equations (update z, reset r, candidate h~):
    z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)
    r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)
    h~_t = tanh(W_h x_t + U_h (r_t * h_{t-1}) + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * h~_t

The parameters are stored stacked, as the network computes with them:
w_in = [W_z; W_r; W_h], b_in = [b_z; b_r; b_h] and u_zr = [U_z; U_r], with
U_h kept alone. The input terms W x_t + b of all three gates do not depend
on the state, so forward_trace computes them for every timestep in one
matrix product with w_in before the time loop. Each step then does only the
recurrent work: one product with u_zr, one sigmoid over both gates, and
U_h (r_t * h_{t-1}) (Appleyard et al., arXiv:1604.01946).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

from reviewgen import np
from reviewgen.errors import EmptySequenceError, ShapeMismatchError
from reviewgen.evidence import FEATURE_DIM

PROB_FLOOR = 1e-12


@dataclass
class TrainConfig:
    """Dimensions and optimization knobs; the seed fixes all randomness."""

    d_w: int = 64
    d_h: int = 128
    d_a: int = 64
    d_e: int = 32
    learning_rate: float = 1e-3
    epochs: int = 20
    seed: int = 0
    max_seq_len: int = 128

    def __post_init__(self):
        for name in ("d_w", "d_h", "d_a", "d_e", "epochs", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )


@dataclass
class ModelParams:
    """All trainable tensors. Field order is the canonical parameter order."""

    embed: np.ndarray  # |V| x d_w
    w_in: np.ndarray  # 3d_h x d_w, [W_z; W_r; W_h]
    u_zr: np.ndarray  # 2d_h x d_h, [U_z; U_r]
    u_h: np.ndarray  # d_h x d_h
    b_in: np.ndarray  # 3d_h, [b_z; b_r; b_h]
    w_att: np.ndarray  # d_a x d_h
    v_att: np.ndarray  # d_a
    w_ev: np.ndarray  # d_e x FEATURE_DIM
    b_ev: np.ndarray  # d_e
    w_out: np.ndarray  # C x (d_h + d_e)
    b_out: np.ndarray  # C

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[0]

    @property
    def d_w(self) -> int:
        return self.embed.shape[1]

    @property
    def d_h(self) -> int:
        return self.u_h.shape[0]

    @property
    def d_a(self) -> int:
        return self.w_att.shape[0]

    @property
    def d_e(self) -> int:
        return self.w_ev.shape[0]

    @property
    def num_classes(self) -> int:
        return self.w_out.shape[0]

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.items()}

    def check_shapes(self) -> None:
        for name in ("embed", "u_h", "w_att", "w_ev", "w_out"):  # dims come from these
            if getattr(self, name).ndim != 2:
                raise ShapeMismatchError(
                    f"{name}: expected a matrix, got shape {getattr(self, name).shape}"
                )
        v, d_w, d_h = self.vocab_size, self.d_w, self.d_h
        d_a, d_e, c = self.d_a, self.d_e, self.num_classes
        expected = {
            "embed": (v, d_w),
            "w_in": (3 * d_h, d_w), "u_zr": (2 * d_h, d_h), "u_h": (d_h, d_h),
            "b_in": (3 * d_h,),
            "w_att": (d_a, d_h), "v_att": (d_a,),
            "w_ev": (d_e, FEATURE_DIM), "b_ev": (d_e,),
            "w_out": (c, d_h + d_e), "b_out": (c,),
        }
        for name, arr in self.items():
            if arr.shape != expected[name]:
                raise ShapeMismatchError(
                    f"{name}: expected shape {expected[name]}, got {arr.shape}"
                )


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_out, fan_in = shape if len(shape) == 2 else (shape[0], shape[0])
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(vocab_size: int, config: TrainConfig, num_classes: int) -> ModelParams:
    """Fan-balanced uniform init for matrices, zeros for biases."""
    rng = np.random.default_rng(config.seed)
    d_w, d_h, d_a, d_e = config.d_w, config.d_h, config.d_a, config.d_e
    # each gate's block is drawn on its own, in gate order, then stacked
    return ModelParams(
        embed=_glorot(rng, (vocab_size, d_w)),
        w_in=np.concatenate([_glorot(rng, (d_h, d_w)) for _ in range(3)]),
        u_zr=np.concatenate([_glorot(rng, (d_h, d_h)) for _ in range(2)]),
        u_h=_glorot(rng, (d_h, d_h)),
        b_in=np.zeros(3 * d_h),
        w_att=_glorot(rng, (d_a, d_h)),
        v_att=rng.uniform(-np.sqrt(6.0 / (d_a + 1)), np.sqrt(6.0 / (d_a + 1)), d_a),
        w_ev=_glorot(rng, (d_e, FEATURE_DIM)),
        b_ev=np.zeros(d_e),
        w_out=_glorot(rng, (num_classes, d_h + d_e)),
        b_out=np.zeros(num_classes),
    )


def sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows; it is exp(-x) where x >= 0 and exp(x)
    # elsewhere, so the numerator is 1 where x >= 0 and e elsewhere
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    ex = np.exp(shifted)
    return ex / ex.sum()


@dataclass
class ForwardTrace:
    """Intermediates cached by the forward pass for exact backprop."""

    token_ids: tuple[int, ...]
    features: np.ndarray
    x: np.ndarray  # T x d_w embedded inputs
    h: np.ndarray  # (T+1) x d_h, h[0] is the zero initial state
    z: np.ndarray  # T x d_h
    r: np.ndarray
    h_tilde: np.ndarray
    att_u: np.ndarray  # T x d_a, tanh(W_a h_i)
    alpha: np.ndarray  # T
    context: np.ndarray  # d_h
    ev_hidden: np.ndarray  # d_e, tanh(W_e f + b_e)
    probs: np.ndarray  # C


def forward_trace(
    token_ids: Sequence[int], features: np.ndarray, params: ModelParams
) -> ForwardTrace:
    """The forward pass for one example, with the intermediates backward
    needs; ``probs`` is the class probability vector (sums to 1, strictly
    positive)."""
    if len(token_ids) == 0:
        raise EmptySequenceError("forward_trace() requires a non-empty token sequence")
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (FEATURE_DIM,):
        raise ShapeMismatchError(
            f"features: expected shape ({FEATURE_DIM},), got {features.shape}"
        )
    if max(token_ids) >= params.vocab_size or min(token_ids) < 0:
        raise ShapeMismatchError("token id outside embedding table")

    t_len = len(token_ids)
    d_h = params.d_h
    x = params.embed[np.asarray(token_ids)]
    # T x 3d_h: W x_t + b for [z | r | h~]
    x_proj = x @ params.w_in.T + params.b_in
    x_zr, x_h = x_proj[:, : 2 * d_h], x_proj[:, 2 * d_h :]
    h = np.zeros((t_len + 1, d_h))
    zr = np.zeros((t_len, 2 * d_h))
    z, r = zr[:, :d_h], zr[:, d_h:]
    h_tilde = np.zeros((t_len, d_h))
    for t in range(t_len):
        zr[t] = sigmoid(x_zr[t] + params.u_zr @ h[t])
        h_tilde[t] = np.tanh(x_h[t] + params.u_h @ (r[t] * h[t]))
        h[t + 1] = (1.0 - z[t]) * h[t] + z[t] * h_tilde[t]

    att_u = np.tanh(h[1:] @ params.w_att.T)  # T x d_a
    scores = att_u @ params.v_att
    alpha = softmax(scores)
    context = alpha @ h[1:]

    ev_hidden = np.tanh(params.w_ev @ features + params.b_ev)
    logits = params.w_out @ np.concatenate([context, ev_hidden]) + params.b_out
    probs = softmax(logits)
    return ForwardTrace(
        token_ids=tuple(token_ids),
        features=features,
        x=x,
        h=h,
        z=z,
        r=r,
        h_tilde=h_tilde,
        att_u=att_u,
        alpha=alpha,
        context=context,
        ev_hidden=ev_hidden,
        probs=probs,
    )


def loss(probs: np.ndarray, target: int) -> float:
    """Cross-entropy -ln p[target], clamped at p >= 1e-12."""
    if not 0 <= target < len(probs):
        raise ValueError(f"target {target} outside class range {len(probs)}")
    return float(-np.log(max(float(probs[target]), PROB_FLOOR)))
