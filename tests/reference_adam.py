"""Frozen per-array Adam training loop: the reference for `cnma.mlp.fit`.

This is the loop `cnma.mlp.fit` ran before its weights, biases, gradients
and Adam moments were laid out in one flat vector.  It keeps one moment pair
per weight or bias array and updates each array with its own numpy calls.
The arithmetic of the two is meant to be the same operation for operation,
so `test_mlp.py` requires both to return the same weight, bias and loss
bytes.  Do not edit this file to follow later changes to `fit`: it is the
fixed point those changes are compared against.
"""
from __future__ import annotations

import copy

import numpy as np

from cnma.mlp import SCALE_FLOOR, Dataset, MlpSurrogate


def _forward_normalized(net: MlpSurrogate, xn: np.ndarray) -> np.ndarray:
    a = xn
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w.T + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a


def _loss_gradient_normalized(
    net: MlpSurrogate, xn: np.ndarray, yn: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
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


def fit(
    net: MlpSurrogate,
    data: Dataset,
    epochs: int = 3000,
    step_size: float = 1e-3,
    batch_size: int = 256,
    seed: int = 0,
) -> tuple[MlpSurrogate, float]:
    out = copy.deepcopy(net)
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
    return out, final
