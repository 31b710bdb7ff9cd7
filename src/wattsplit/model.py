"""Hybrid disaggregation model: conv -> pool -> BiLSTM x2 (dropout after each)
-> additive attention -> dense head, trained with MSE + Adam.

The model is sequence-to-point: each input window of aggregate power yields
one prediction per appliance, the normalized power at the window's midpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import layers
from .errors import DivergenceError, DomainError, ShapeError, TrainingError
from .numeric import as_tensor
from .rng import SeededRng


@dataclass
class ModelConfig:
    n_appliances: int
    window_len: int = 64
    conv_filters: int = 16
    conv_kernel: int = 5
    conv_stride: int = 1
    pool: int = 2
    hidden: int = 64
    bilstm_layers: int = 2
    attention_width: int = 0  # 0 means "use 2*hidden"
    dropout_rate: float = 0.25
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 64
    seed: int = 42
    on_threshold: float = 0.05

    def __post_init__(self):
        self.validate()

    def validate(self):
        positive = {
            "n_appliances": self.n_appliances,
            "window_len": self.window_len,
            "conv_filters": self.conv_filters,
            "conv_kernel": self.conv_kernel,
            "conv_stride": self.conv_stride,
            "pool": self.pool,
            "hidden": self.hidden,
            "batch_size": self.batch_size,
        }
        for name, value in positive.items():
            if value < 1:
                raise DomainError(f"{name} must be positive, got {value}")
        if self.epochs < 1:
            raise DomainError(f"epochs must be >= 1, got {self.epochs}")
        if self.bilstm_layers != 2:
            raise DomainError(f"only 2 BiLSTM layers are supported, got {self.bilstm_layers}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DomainError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0.0 < self.on_threshold < 1.0:
            raise DomainError(f"on_threshold must be in (0, 1), got {self.on_threshold}")
        if self.learning_rate <= 0:
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.attention_width < 0:
            raise DomainError(f"attention_width must be >= 0, got {self.attention_width}")
        if self.window_len < self.conv_kernel:
            raise ShapeError(
                f"window_len {self.window_len} is shorter than conv_kernel {self.conv_kernel}")
        if self.seq_len_after_pool() < 1:
            raise ShapeError(
                f"config yields an empty sequence after conv/pool "
                f"(window_len={self.window_len}, kernel={self.conv_kernel}, "
                f"stride={self.conv_stride}, pool={self.pool})")

    def effective_attention_width(self) -> int:
        return self.attention_width if self.attention_width > 0 else 2 * self.hidden

    def seq_len_after_conv(self) -> int:
        return (self.window_len - self.conv_kernel) // self.conv_stride + 1

    def seq_len_after_pool(self) -> int:
        return self.seq_len_after_conv() // self.pool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ModelParams:
    """Ordered, named blocks of every trainable array."""

    conv: layers.ConvParams
    bilstm1: layers.BiLstmParams
    bilstm2: layers.BiLstmParams
    attention: layers.AttentionParams
    dense: layers.DenseParams


def init_model_params(config: ModelConfig, rng: SeededRng) -> ModelParams:
    two_h = 2 * config.hidden
    return ModelParams(
        conv=layers.init_conv(rng, config.conv_filters, 1, config.conv_kernel),
        bilstm1=layers.init_bilstm(rng, config.conv_filters, config.hidden),
        bilstm2=layers.init_bilstm(rng, two_h, config.hidden),
        attention=layers.init_attention(rng, two_h, config.effective_attention_width()),
        dense=layers.init_dense(rng, two_h, config.n_appliances),
    )


def params_to_dict(params: ModelParams) -> dict[str, np.ndarray]:
    """Flat ordered name -> array view of all trainable blocks."""
    out = {
        "conv.kernels": params.conv.kernels,
        "conv.bias": params.conv.bias,
    }
    for name, block in (("bilstm1", params.bilstm1), ("bilstm2", params.bilstm2)):
        for direction in ("fwd", "bwd"):
            cell = getattr(block, direction)
            out[f"{name}.{direction}.w_x"] = cell.w_x
            out[f"{name}.{direction}.w_h"] = cell.w_h
            out[f"{name}.{direction}.b"] = cell.b
    out["attention.w_h"] = params.attention.w_h
    out["attention.b_h"] = params.attention.b_h
    out["attention.v"] = params.attention.v
    out["dense.w"] = params.dense.w
    out["dense.b"] = params.dense.b
    return out


def params_from_dict(arrays: dict[str, np.ndarray]) -> ModelParams:
    def lstm(prefix):
        return layers.LstmParams(arrays[f"{prefix}.w_x"], arrays[f"{prefix}.w_h"], arrays[f"{prefix}.b"])

    return ModelParams(
        conv=layers.ConvParams(arrays["conv.kernels"], arrays["conv.bias"]),
        bilstm1=layers.BiLstmParams(lstm("bilstm1.fwd"), lstm("bilstm1.bwd")),
        bilstm2=layers.BiLstmParams(lstm("bilstm2.fwd"), lstm("bilstm2.bwd")),
        attention=layers.AttentionParams(arrays["attention.w_h"], arrays["attention.b_h"],
                                         arrays["attention.v"]),
        dense=layers.DenseParams(arrays["dense.w"], arrays["dense.b"]),
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def model_forward_batch(x: np.ndarray, params: ModelParams, config: ModelConfig,
                        train: bool, rng: SeededRng | None = None):
    """x: (B, W, 1) -> (predictions (B, N), attention weights (B, T'), cache)."""
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[1] != config.window_len or x.shape[2] != 1:
        raise ShapeError(
            f"expected input of shape (batch, {config.window_len}, 1), got {x.shape}")
    spec = layers.DropoutSpec(config.dropout_rate, train)

    conv_out, conv_cache = layers.conv1d_forward_batch(x, params.conv, config.conv_stride)
    pool_out, pool_cache = layers.maxpool1d_forward_batch(conv_out, config.pool)
    h1, bi1_cache = layers.bilstm_forward_batch(pool_out, params.bilstm1)
    h1d, mask1 = layers.dropout_forward(h1, spec, rng)
    h2, bi2_cache = layers.bilstm_forward_batch(h1d, params.bilstm2)
    h2d, mask2 = layers.dropout_forward(h2, spec, rng)
    context, alpha, attn_cache = layers.attention_forward_batch(h2d, params.attention)
    y, dense_cache = layers.dense_forward_batch(context, params.dense)

    cache = (conv_cache, pool_cache, bi1_cache, mask1, bi2_cache, mask2,
             attn_cache, dense_cache, spec)
    return y, alpha, cache


def model_backward_batch(cache, dy) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter, given d loss / d y."""
    (conv_cache, pool_cache, bi1_cache, mask1, bi2_cache, mask2,
     attn_cache, dense_cache, spec) = cache

    dcontext, (dw_dense, db_dense) = layers.dense_backward_batch(dense_cache, dy)
    dh2d, (dwh_a, dbh_a, dv_a) = layers.attention_backward_batch(attn_cache, dcontext)
    dh2 = layers.dropout_backward(mask2, spec, dh2d)
    dh1d, (g2f, g2b) = layers.bilstm_backward_batch(bi2_cache, dh2)
    dh1 = layers.dropout_backward(mask1, spec, dh1d)
    dpool, (g1f, g1b) = layers.bilstm_backward_batch(bi1_cache, dh1)
    dconv = layers.maxpool1d_backward_batch(pool_cache, dpool)
    _, (dk, db) = layers.conv1d_backward_batch(conv_cache, dconv)

    grads = {"conv.kernels": dk, "conv.bias": db}
    for name, (gf, gb) in (("bilstm1", (g1f, g1b)), ("bilstm2", (g2f, g2b))):
        for direction, (dwx, dwh, dbias) in (("fwd", gf), ("bwd", gb)):
            grads[f"{name}.{direction}.w_x"] = dwx
            grads[f"{name}.{direction}.w_h"] = dwh
            grads[f"{name}.{direction}.b"] = dbias
    grads["attention.w_h"] = dwh_a
    grads["attention.b_h"] = dbh_a
    grads["attention.v"] = dv_a
    grads["dense.w"] = dw_dense
    grads["dense.b"] = db_dense
    return grads


def predict_batches(x: np.ndarray, params: ModelParams, config: ModelConfig,
                    chunk: int = 256) -> np.ndarray:
    """Inference over many windows, chunked; deterministic (no dropout)."""
    outs = []
    for start in range(0, len(x), chunk):
        y, _, _ = model_forward_batch(x[start:start + chunk], params, config, train=False)
        outs.append(y)
    return np.concatenate(outs, axis=0)


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------

def mse_loss(y_hat: np.ndarray, y: np.ndarray) -> float:
    y_hat = as_tensor(y_hat)
    y = as_tensor(y)
    if y_hat.shape != y.shape:
        raise ShapeError(f"loss operands differ in shape: {y_hat.shape} vs {y.shape}")
    diff = y_hat - y
    return float(np.mean(diff * diff))


def mse_loss_grad(y_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d mse / d y_hat."""
    return 2.0 * (y_hat - y) / y_hat.size


@dataclass
class AdamState:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(param_dict: dict[str, np.ndarray], learning_rate: float) -> AdamState:
    state = AdamState(learning_rate)
    for name, arr in param_dict.items():
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(param_dict: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, np.ndarray], AdamState]:
    """Bias-corrected Adam update, applied in place; returns (params, state)."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, theta in param_dict.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in parameter block '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        theta -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return param_dict, state


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    """Per-epoch losses and timing of a fit() run."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    train_ms_per_step: float = 0.0
    infer_ms_per_window: float = 0.0


def fit(train, val, config: ModelConfig):
    """Train for exactly config.epochs epochs; returns (ModelParams, TrainReport).

    `train` and `val` are WindowBatch instances (inputs (B, W, 1), targets
    (B, N)).  The run is a pure function of config.seed and the data.
    """
    n_train = len(train.inputs)
    n_val = len(val.inputs)
    if n_train == 0 or n_val == 0:
        raise DomainError("training and validation sets must be non-empty")
    if train.inputs.shape[1] != config.window_len:
        raise ShapeError(
            f"window length {train.inputs.shape[1]} does not match config {config.window_len}")
    if train.targets.shape[1] != config.n_appliances:
        raise ShapeError(
            f"target width {train.targets.shape[1]} does not match "
            f"n_appliances {config.n_appliances}")

    rng = SeededRng(config.seed)
    params = init_model_params(config, rng)
    pdict = params_to_dict(params)
    adam = init_adam(pdict, config.learning_rate)
    report = TrainReport()

    total_steps = 0
    total_step_seconds = 0.0
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        perm = rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            idx = perm[start:start + config.batch_size]
            xb = train.inputs[idx]
            yb = train.targets[idx]
            step_start = time.perf_counter()
            y_hat, _, cache = model_forward_batch(xb, params, config, train=True, rng=rng)
            loss = mse_loss(y_hat, yb)
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            grads = model_backward_batch(cache, mse_loss_grad(y_hat, yb))
            adam_step(pdict, grads, adam)
            total_step_seconds += time.perf_counter() - step_start
            total_steps += 1
            loss_sum += loss * len(idx)

        val_start = time.perf_counter()
        val_pred = predict_batches(val.inputs, params, config, chunk=config.batch_size)
        val_seconds = time.perf_counter() - val_start
        val_loss = mse_loss(val_pred, val.targets)
        if not np.isfinite(val_loss):
            raise DivergenceError(epoch)

        report.train_loss.append(loss_sum / n_train)
        report.val_loss.append(val_loss)
        report.epoch_seconds.append(time.perf_counter() - epoch_start)
        report.infer_ms_per_window = 1000.0 * val_seconds / n_val

    report.train_ms_per_step = 1000.0 * total_step_seconds / max(total_steps, 1)
    return params, report
