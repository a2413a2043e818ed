"""Fully connected ReLU network surrogate trained with Adam on MSE.

Networks store per-coordinate normalization (shift/scale) for both inputs and
outputs; training happens in normalized space and `forward` maps raw inputs to
raw outputs.  Trained networks are treated as immutable: `fit` returns a new
network and never mutates its argument.

`fit` copies the argument's weights and biases into one flat float64 vector,
and the trained network's arrays are reshaped views of it.  The gradient and
the two Adam moments are flat vectors of the same layout.  One Adam step is
built once per batch shape as a list of in-place numpy calls over
preallocated buffers (forward, delta, backward, then the moment updates);
every step runs that list and then the bias-corrected update.  Each element
still sees the same operations in the same order as the per-array,
allocating loop in `tests/reference_adam.py`, so neither the layout nor the
buffers change a single bit of the result.  There is one gradient function,
`_gradient_calls`: `fit` builds its list once over views of the flat
gradient, and `loss_gradient` runs it once on fresh arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from numbers import Integral
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
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise ValueError(
                f"x and y must be 2-D, got shapes {self.x.shape} and {self.y.shape}"
            )
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
    grads_w = [np.empty(w.shape) for w in net.weights]
    grads_b = [np.empty(b.shape) for b in net.biases]
    for call in _gradient_calls(net, xn, yn, grads_w, grads_b):
        call()
    return grads_w, grads_b


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
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if not isinstance(value, Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if step_size <= 0:  # a NaN step goes on, to fail as TrainingDivergedError
        raise ValueError(f"step_size must be positive, got {step_size!r}")
    if data.x.shape[1] != net.n_inputs or data.y.shape[1] != net.n_outputs:
        raise ValueError(
            f"dataset shape ({data.x.shape[1]} -> {data.y.shape[1]}) does not "
            f"match network ({net.n_inputs} -> {net.n_outputs})"
        )
    params = np.concatenate([p.ravel() for p in net.weights + net.biases])
    grads = np.empty_like(params)
    weights, biases = _views(params, net)
    grads_w, grads_b = _views(grads, net)
    out = MlpSurrogate(
        net.layer_sizes,
        weights,
        biases,
        input_shift=data.x.mean(axis=0),
        input_scale=np.maximum(data.x.std(axis=0), SCALE_FLOOR),
        output_shift=data.y.mean(axis=0),
        output_scale=np.maximum(data.y.std(axis=0), SCALE_FLOOR),
    )

    xn = (data.x - out.input_shift) / out.input_scale
    yn = (data.y - out.output_shift) / out.output_scale
    n = len(data)
    batch = min(batch_size, n)
    rng = np.random.default_rng(seed)

    m_state = np.zeros_like(params)
    v_state = np.zeros_like(params)
    tmp = np.empty_like(params)
    den = np.empty_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # Elementwise the same operations, in the same order, as
    #   m = m*b1 + (1-b1)*g;  v = v*b2 + (1-b2)*g*g
    #   p -= step * (m/c1) / (sqrt(v/c2) + eps)
    # so the trained bits do not depend on the flat layout.
    b1, one_b1, b2, one_b2 = map(np.array, (beta1, 1.0 - beta1, beta2, 1.0 - beta2))
    moments = [
        partial(np.multiply, m_state, b1, m_state),
        partial(np.multiply, grads, one_b1, tmp),
        partial(np.add, m_state, tmp, m_state),
        partial(np.multiply, v_state, b2, v_state),
        partial(np.multiply, grads, one_b2, tmp),
        partial(np.multiply, tmp, grads, tmp),
        partial(np.add, v_state, tmp, v_state),
    ]
    t = 0

    def adam_step(calls: list):
        nonlocal t
        for call in calls:
            call()
        t += 1
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        np.divide(m_state, c1, tmp)
        np.multiply(tmp, step_size, tmp)
        np.divide(v_state, c2, den)
        np.sqrt(den, den)
        np.add(den, eps, den)
        np.divide(tmp, den, tmp)
        np.subtract(params, tmp, params)

    def step_calls(xb: np.ndarray, yb: np.ndarray) -> list:
        return _gradient_calls(out, xb, yb, grads_w, grads_b) + moments

    if batch >= n:
        calls = step_calls(xn, yn)
        for _ in range(epochs):
            adam_step(calls)
    else:
        shapes = {}  # rows in a batch -> (x buffer, y buffer, that shape's calls)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                if len(idx) not in shapes:
                    xb = np.empty((len(idx), xn.shape[1]))
                    yb = np.empty((len(idx), yn.shape[1]))
                    shapes[len(idx)] = xb, yb, step_calls(xb, yb)
                xb, yb, calls = shapes[len(idx)]
                np.take(xn, idx, axis=0, out=xb)
                np.take(yn, idx, axis=0, out=yb)
                adam_step(calls)

    final = training_loss(out, data.x, data.y)
    if not np.isfinite(final):
        raise TrainingDivergedError(
            f"non-finite training loss after {epochs} epochs "
            f"(n={n}, layers={out.layer_sizes}, step={step_size})"
        )
    return out, final


def _views(
    flat: np.ndarray, net: MlpSurrogate
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Consecutive views of `flat` shaped like net's weights, then its biases."""
    arrays = net.weights + net.biases
    ends = np.cumsum([p.size for p in arrays])[:-1]
    views = [part.reshape(p.shape) for part, p in zip(np.split(flat, ends), arrays)]
    k = len(net.weights)
    return views[:k], views[k:]


def _gradient_calls(
    net: MlpSurrogate,
    xb: np.ndarray,
    yb: np.ndarray,
    grads_w: list[np.ndarray],
    grads_b: list[np.ndarray],
) -> list:
    """In-place numpy calls that write the MSE gradient at (xb, yb) into grads_w, grads_b.

    The calls read net's weights and biases and the batch arrays as they are
    when run, so one list serves every step over the same arrays.  The
    forward, delta and ReLU-mask buffers are allocated here, once per list.
    Run in order, the calls do elementwise the same operations in the same
    order as the allocating expressions in the comments, which keeps every
    bit.  Outputs are passed positionally (`np.maximum` alone deprecates
    that) and scalar operands as 0-d arrays: both are the same arithmetic,
    with less work per call than a keyword `out` or a Python float.
    """
    n, m = yb.shape
    last = len(net.weights) - 1
    zero = np.array(0.0)
    calls = []
    activations = [xb]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        # a = a @ w.T + b, then max(a, 0.0) on hidden layers
        a = np.empty((n, w.shape[0]))
        calls.append(partial(np.matmul, activations[-1], w.T, a))
        calls.append(partial(np.add, a, b, a))
        if i < last:
            calls.append(partial(np.maximum, a, zero, out=a))
        activations.append(a)
    # delta = 2.0 * (a - yb) / (n * m); not r / (n*m/2), which stays finite
    # where 2.0 * r overflows
    delta = np.empty((n, m))
    calls.append(partial(np.subtract, activations[-1], yb, delta))
    calls.append(partial(np.multiply, np.array(2.0), delta, delta))
    calls.append(partial(np.divide, delta, np.array(float(n * m)), delta))
    for i in range(last, -1, -1):
        # grad_w = delta.T @ activation;  grad_b = delta.sum(axis=0)
        calls.append(partial(np.matmul, delta.T, activations[i], grads_w[i]))
        calls.append(partial(np.add.reduce, delta, 0, None, grads_b[i]))
        if i > 0:
            # delta = (delta @ w) * (a > 0.0), with the mask held as 0.0/1.0,
            # which multiplies exactly as the bool mask cast to float does
            back = np.empty((n, net.weights[i].shape[1]))
            mask = np.empty_like(back)
            calls.append(partial(np.matmul, delta, net.weights[i], back))
            calls.append(partial(np.greater, activations[i], zero, mask))
            calls.append(partial(np.multiply, back, mask, back))
            delta = back
    return calls
