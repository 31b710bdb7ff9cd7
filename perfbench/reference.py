"""A plain, per-time-step numpy forward pass of the default disaggregator.

Written from the model description alone (conv + ReLU, max pool, two
BiLSTMs with gate order [i, f, g, o] whose second direction reads the
sequence reversed, additive attention, dense head), so the benchmark can
check the toolkit's estimates without trusting its layers.  Parameters are a
flat dict keyed like the checkpoint blocks.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def conv_relu(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x (B, W) single-channel windows -> (B, W - K + 1, F), stride 1."""
    n_f, _, k = kernels.shape
    t_out = x.shape[1] - k + 1
    out = np.empty((x.shape[0], t_out, n_f))
    for t in range(t_out):
        out[:, t, :] = x[:, t:t + k] @ kernels[:, 0, :].T + bias
    return np.maximum(out, 0.0)


def maxpool(x: np.ndarray, pool: int) -> np.ndarray:
    t_out = x.shape[1] // pool
    return np.stack([x[:, t * pool:(t + 1) * pool].max(axis=1) for t in range(t_out)], axis=1)


def lstm(x: np.ndarray, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One direction over x (B, T, D) from zero state -> hidden states (B, T, H)."""
    hid = w_h.shape[1]
    h = np.zeros((x.shape[0], hid))
    c = np.zeros((x.shape[0], hid))
    out = []
    for t in range(x.shape[1]):
        a = x[:, t] @ w_x.T + h @ w_h.T + b
        i = _sigmoid(a[:, :hid])
        f = _sigmoid(a[:, hid:2 * hid])
        g = np.tanh(a[:, 2 * hid:3 * hid])
        o = _sigmoid(a[:, 3 * hid:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.stack(out, axis=1)


def bilstm(x: np.ndarray, params: dict, name: str) -> np.ndarray:
    fwd = lstm(x, *(params[f"{name}.fwd.{k}"] for k in ("w_x", "w_h", "b")))
    bwd = lstm(x[:, ::-1], *(params[f"{name}.bwd.{k}"] for k in ("w_x", "w_h", "b")))
    return np.concatenate([fwd, bwd[:, ::-1]], axis=2)


def attention(h: np.ndarray, w_h: np.ndarray, b_h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Additive attention over time: softmax(v . tanh(W h_t + b)) weighted sum of h_t."""
    energies = np.stack([np.tanh(h[:, t] @ w_h.T + b_h) @ v for t in range(h.shape[1])], axis=1)
    weights = np.exp(energies - energies.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return np.einsum("bt,btk->bk", weights, h)


def forward(windows: np.ndarray, params: dict, pool: int = 2) -> np.ndarray:
    """Normalized windows (B, W) -> normalized predictions (B, appliances)."""
    h = conv_relu(windows, params["conv.kernels"], params["conv.bias"])
    h = maxpool(h, pool)
    h = bilstm(h, params, "bilstm1")
    h = bilstm(h, params, "bilstm2")
    context = attention(h, params["attention.w_h"], params["attention.b_h"], params["attention.v"])
    return context @ params["dense.w"].T + params["dense.b"]


def param_shapes(filters=16, kernel=5, hidden=64, attention_width=128,
                 appliances=3) -> dict[str, tuple]:
    """Block shapes of the model with these sizes, in checkpoint order."""
    shapes = {"conv.kernels": (filters, 1, kernel), "conv.bias": (filters,)}
    for name, d_in in (("bilstm1", filters), ("bilstm2", 2 * hidden)):
        for direction in ("fwd", "bwd"):
            shapes[f"{name}.{direction}.w_x"] = (4 * hidden, d_in)
            shapes[f"{name}.{direction}.w_h"] = (4 * hidden, hidden)
            shapes[f"{name}.{direction}.b"] = (4 * hidden,)
    shapes.update({"attention.w_h": (attention_width, 2 * hidden),
                   "attention.b_h": (attention_width,), "attention.v": (attention_width,),
                   "dense.w": (appliances, 2 * hidden), "dense.b": (appliances,)})
    return shapes


def random_params(seed: int, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Seeded weights in a regime that makes every gate and direction matter.

    Weights are uniform in +-1/sqrt(fan_in), doubled for the LSTMs; biases
    are small, the forget gates start at +1 as in a fresh model, and the
    dense bias is 0.5 so that nearly every estimate lands inside (0, 1).
    """
    rng = np.random.default_rng([seed, 11])
    params = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            params[name] = rng.uniform(-0.1, 0.1, shape)
            continue
        fan_in = int(np.prod(shape[1:]))
        scale = 2.0 if name.startswith("bilstm") else 1.0
        params[name] = rng.uniform(-scale, scale, shape) / np.sqrt(fan_in)
    for name in params:
        if name.startswith("bilstm") and name.endswith(".b"):
            hid = shapes[name][0] // 4
            params[name][hid:2 * hid] += 1.0
    params["dense.b"] = np.full(shapes["dense.b"], 0.5)
    return params
