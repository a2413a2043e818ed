"""Fully connected ReLU network surrogate trained with Adam on MSE.

Networks store per-coordinate normalization (shift/scale) for both inputs and
outputs; training happens in normalized space and `forward` maps raw inputs to
raw outputs.  Trained networks are treated as immutable: `fit` returns a new
network and never mutates its argument.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

SCALE_FLOOR = 1e-8


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class Dataset:
    """Paired sample arrays: x is (n, d), y is (n, m)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x has {self.x.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.x.shape[0] == 0:
            raise ValueError("dataset is empty")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("dataset contains non-finite values")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class MlpSurrogate:
    """Weights, biases and normalization of a ReLU network.

    layer_sizes is (d, h1, ..., hk, m); weights[i] has shape
    (layer_sizes[i+1], layer_sizes[i]).  ReLU is applied after every layer
    except the last.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_shift: np.ndarray
    input_scale: np.ndarray
    output_shift: np.ndarray
    output_scale: np.ndarray

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpSurrogate":
        return MlpSurrogate(
            self.layer_sizes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.input_shift.copy(),
            self.input_scale.copy(),
            self.output_shift.copy(),
            self.output_scale.copy(),
        )


def init_network(layer_sizes: Sequence[int], seed: int = 0) -> MlpSurrogate:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpSurrogate(
        sizes,
        weights,
        biases,
        input_shift=np.zeros(sizes[0]),
        input_scale=np.ones(sizes[0]),
        output_shift=np.zeros(sizes[-1]),
        output_scale=np.ones(sizes[-1]),
    )


def normalize_inputs(net: MlpSurrogate, x: np.ndarray) -> np.ndarray:
    return (x - net.input_shift) / net.input_scale


def denormalize_outputs(net: MlpSurrogate, yn: np.ndarray) -> np.ndarray:
    return yn * net.output_scale + net.output_shift


def _forward_normalized(net: MlpSurrogate, xn: np.ndarray) -> np.ndarray:
    a = xn
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a


def forward(net: MlpSurrogate, x: np.ndarray) -> np.ndarray:
    """Raw-space prediction; accepts a single vector or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xn = normalize_inputs(net, np.atleast_2d(x))
    y = denormalize_outputs(net, _forward_normalized(net, xn))
    return y[0] if single else y


def training_loss(net: MlpSurrogate, x: np.ndarray, y: np.ndarray) -> float:
    """MSE in normalized output space, the quantity `fit` minimizes."""
    xn = normalize_inputs(net, np.atleast_2d(np.asarray(x, dtype=float)))
    yn = (np.atleast_2d(np.asarray(y, dtype=float)) - net.output_shift) / net.output_scale
    pred = _forward_normalized(net, xn)
    return float(np.mean((pred - yn) ** 2))


def loss_gradient(
    net: MlpSurrogate, x: np.ndarray, y: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradient of training_loss wrt every weight and bias."""
    xn = normalize_inputs(net, np.atleast_2d(np.asarray(x, dtype=float)))
    yn = (np.atleast_2d(np.asarray(y, dtype=float)) - net.output_shift) / net.output_scale
    return _loss_gradient_normalized(net, xn, yn)


def fit(
    net: MlpSurrogate,
    data: Dataset,
    epochs: int = 3000,
    step_size: float = 1e-3,
    batch_size: int = 256,
    seed: int = 0,
) -> tuple[MlpSurrogate, float]:
    """Train a copy of `net` on `data`; returns (trained copy, final loss).

    Normalization is recomputed from the dataset (shift = mean, scale =
    max(std, 1e-8) per coordinate).  Full-batch Adam when the dataset fits in
    one batch, otherwise seeded shuffled minibatches.
    """
    if data.x.shape[1] != net.n_inputs or data.y.shape[1] != net.n_outputs:
        raise ValueError(
            f"dataset shape ({data.x.shape[1]} -> {data.y.shape[1]}) does not "
            f"match network ({net.n_inputs} -> {net.n_outputs})"
        )
    out = net.copy()
    out.input_shift = data.x.mean(axis=0)
    out.input_scale = np.maximum(data.x.std(axis=0), SCALE_FLOOR)
    out.output_shift = data.y.mean(axis=0)
    out.output_scale = np.maximum(data.y.std(axis=0), SCALE_FLOOR)

    xn = (data.x - out.input_shift) / out.input_scale
    yn = (data.y - out.output_shift) / out.output_scale
    n = len(data)
    batch = min(int(batch_size), n)
    rng = np.random.default_rng(seed)

    params = out.weights + out.biases
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0

    def adam_step(grads: list[np.ndarray]):
        nonlocal t
        t += 1
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for p, g, ms, vs in zip(params, grads, m_state, v_state):
            ms *= beta1
            ms += (1.0 - beta1) * g
            vs *= beta2
            vs += (1.0 - beta2) * g * g
            p -= step_size * (ms / c1) / (np.sqrt(vs / c2) + eps)

    def grads_on(xb: np.ndarray, yb: np.ndarray) -> list[np.ndarray]:
        gw, gb = _loss_gradient_normalized(out, xb, yb)
        return gw + gb

    for epoch in range(int(epochs)):
        if batch >= n:
            adam_step(grads_on(xn, yn))
        else:
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                adam_step(grads_on(xn[idx], yn[idx]))

    final = float(np.mean((_forward_normalized(out, xn) - yn) ** 2))
    if not np.isfinite(final):
        raise TrainingDivergedError(
            f"non-finite training loss after {epochs} epochs "
            f"(n={n}, layers={out.layer_sizes}, step={step_size})"
        )
    return out, final


def _loss_gradient_normalized(
    net: MlpSurrogate, xn: np.ndarray, yn: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    # same as loss_gradient but on already-normalized batches (training path)
    n, m = yn.shape
    activations = [xn]
    a = xn
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if i < last else z
        activations.append(a)
    delta = 2.0 * (activations[-1] - yn) / (n * m)
    grads_w: list[np.ndarray] = [None] * len(net.weights)
    grads_b: list[np.ndarray] = [None] * len(net.biases)
    for i in range(last, -1, -1):
        grads_w[i] = delta.T @ activations[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i]) * (activations[i] > 0.0)
    return grads_w, grads_b
