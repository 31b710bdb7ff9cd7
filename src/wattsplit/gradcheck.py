"""Finite-difference verification of every analytic backward pass.

Central differences with step 1e-5; relative error
|g_a - g_n| / max(1e-7, |g_a| + |g_n|) must stay below 1e-4.  The denominator
floor keeps near-zero gradient elements from amplifying finite-difference
rounding noise (~1e-12 absolute) into spurious relative errors; for such
elements the check still demands absolute agreement within 1e-11.  The same
battery backs both the test suite and the `gradcheck` CLI subcommand.
"""

from __future__ import annotations

import numpy as np

from . import layers, model
from .rng import SeededRng

STEP = 1e-5
TOLERANCE = 1e-4


def rel_err_max(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1e-7, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def numerical_grad(loss_fn, arr: np.ndarray, eps: float = STEP) -> np.ndarray:
    """Central-difference gradient of a scalar loss w.r.t. `arr`, in place."""
    grad = np.empty_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss_fn()
        flat[i] = orig - eps
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * eps)
    return grad


def _check(loss_fn, pairs) -> float:
    """Worst relative error over (array, analytic_grad) pairs."""
    worst = 0.0
    for arr, analytic in pairs:
        numeric = numerical_grad(loss_fn, arr)
        worst = max(worst, rel_err_max(analytic, numeric))
    return worst


def _rand(rng, shape, scale=1.0):
    return rng.uniform(shape, -scale, scale)


def check_conv(seed: int) -> float:
    rng = SeededRng(seed)
    x = _rand(rng, (2, 7, 2))
    p = layers.ConvParams(_rand(rng, (3, 2, 3)), _rand(rng, (3,)))
    stride = 1 + seed % 2
    out0, _ = layers.conv1d_forward_batch(x, p, stride)
    proj = _rand(rng, out0.shape)

    def loss():
        out, _ = layers.conv1d_forward_batch(x, p, stride)
        return float(np.sum(out * proj))

    _, cache = layers.conv1d_forward_batch(x, p, stride)
    dx, (dk, db) = layers.conv1d_backward_batch(cache, proj)
    return _check(loss, [(x, dx), (p.kernels, dk), (p.bias, db)])


def check_maxpool(seed: int) -> float:
    rng = SeededRng(seed)
    x = _rand(rng, (2, 7, 3))
    proj = _rand(rng, (2, 3, 3))

    def loss():
        out, _ = layers.maxpool1d_forward_batch(x, 2)
        return float(np.sum(out * proj))

    _, cache = layers.maxpool1d_forward_batch(x, 2)
    dx = layers.maxpool1d_backward_batch(cache, proj)
    return _check(loss, [(x, dx)])


def check_lstm(seed: int) -> float:
    """The unidirectional LSTM: the 1-direction call of the recurrence kernel."""
    rng = SeededRng(seed)
    xs = _rand(rng, (1, 5, 2, 3))
    p = layers.LstmParams(_rand(rng, (16, 3)), _rand(rng, (16, 4)), _rand(rng, (16,)))
    proj = _rand(rng, (1, 5, 2, 4))

    def loss():
        hs, _ = layers.lstm_forward(xs, [p])
        return float(np.sum(hs * proj))

    _, cache = layers.lstm_forward(xs, [p])
    dxs, [(dwx, dwh, db)] = layers.lstm_backward(cache, proj)
    return _check(loss, [(xs, dxs), (p.w_x, dwx), (p.w_h, dwh), (p.b, db)])


def check_bilstm(seed: int) -> float:
    rng = SeededRng(seed)
    x = _rand(rng, (2, 4, 3))
    p = layers.BiLstmParams(
        layers.LstmParams(_rand(rng, (8, 3)), _rand(rng, (8, 2)), _rand(rng, (8,))),
        layers.LstmParams(_rand(rng, (8, 3)), _rand(rng, (8, 2)), _rand(rng, (8,))))
    proj = _rand(rng, (2, 4, 4))

    def loss():
        out, _ = layers.bilstm_forward_batch(x, p)
        return float(np.sum(out * proj))

    _, cache = layers.bilstm_forward_batch(x, p)
    dx, ((dwxf, dwhf, dbf), (dwxb, dwhb, dbb)) = layers.bilstm_backward_batch(cache, proj)
    return _check(loss, [(x, dx), (p.fwd.w_x, dwxf), (p.fwd.w_h, dwhf), (p.fwd.b, dbf),
                         (p.bwd.w_x, dwxb), (p.bwd.w_h, dwhb), (p.bwd.b, dbb)])


def check_attention(seed: int) -> float:
    rng = SeededRng(seed)
    h = _rand(rng, (2, 5, 4))
    p = layers.AttentionParams(_rand(rng, (3, 4)), _rand(rng, (3,)), _rand(rng, (3,)))
    proj_c = _rand(rng, (2, 4))
    proj_a = _rand(rng, (2, 5))

    def loss():
        context, alpha, _ = layers.attention_forward_batch(h, p)
        return float(np.sum(context * proj_c) + np.sum(alpha * proj_a))

    _, _, cache = layers.attention_forward_batch(h, p)
    dh, (dwh, dbh, dv) = layers.attention_backward_batch(cache, proj_c, proj_a)
    return _check(loss, [(h, dh), (p.w_h, dwh), (p.b_h, dbh), (p.v, dv)])


def check_dense(seed: int) -> float:
    rng = SeededRng(seed)
    x = _rand(rng, (3, 4))
    p = layers.DenseParams(_rand(rng, (2, 4)), _rand(rng, (2,)))
    proj = _rand(rng, (3, 2))

    def loss():
        y, _ = layers.dense_forward_batch(x, p)
        return float(np.sum(y * proj))

    _, cache = layers.dense_forward_batch(x, p)
    dx, (dw, db) = layers.dense_backward_batch(cache, proj)
    return _check(loss, [(x, dx), (p.w, dw), (p.b, db)])


def check_dropout(seed: int) -> float:
    """Dropout with a frozen mask behaves as a fixed linear map."""
    rng = SeededRng(seed)
    x = _rand(rng, (3, 5))
    spec = layers.DropoutSpec(0.4, training=True)
    _, mask = layers.dropout_forward(x, spec, SeededRng(seed + 1))
    proj = _rand(rng, (3, 5))
    scale = 1.0 / (1.0 - spec.rate)

    def loss():
        return float(np.sum(x * mask * scale * proj))

    dx = layers.dropout_backward(mask, spec, proj)
    return _check(loss, [(x, dx)])


def check_model(seed: int) -> float:
    """End-to-end gradient of the full tiny model, dropout disabled."""
    config = model.ModelConfig(n_appliances=2, window_len=12, conv_filters=2,
                               conv_kernel=3, pool=2, hidden=3, dropout_rate=0.0,
                               seed=seed)
    rng = SeededRng(seed)
    params = model.init_model_params(config, rng)
    x = rng.uniform((1, 12, 1))
    proj = _rand(rng, (1, 2))

    def loss():
        y, _, _ = model.model_forward_batch(x, params, config, train=False)
        return float(np.sum(y * proj))

    _, _, cache = model.model_forward_batch(x, params, config, train=False)
    grads = model.model_backward_batch(cache, proj)
    pdict = model.params_to_dict(params)
    return _check(loss, [(pdict[name], grads[name]) for name in pdict])


BATTERY = {
    "conv1d": check_conv,
    "maxpool1d": check_maxpool,
    "lstm": check_lstm,
    "bilstm": check_bilstm,
    "attention": check_attention,
    "dense": check_dense,
    "dropout": check_dropout,
    "model": check_model,
}


def run_battery(seeds=range(10)) -> dict[str, float]:
    """Max relative error per op across the given seeds."""
    return {name: max(fn(seed) for seed in seeds) for name, fn in BATTERY.items()}
