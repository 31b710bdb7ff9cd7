"""Network building blocks: 1-D convolution, max-pooling, LSTM/BiLSTM,
additive attention, dense head, and inverted dropout.

Every block has a forward evaluation and a matching backward (vector-Jacobian)
evaluation over arrays with a leading batch axis, laid out as (batch, time,
channels).  The recurrence is one LSTM kernel over a leading direction axis
of size 1 or 2, with time-major input (directions, time, batch, features);
a unidirectional LSTM is its 1-direction call, and the BiLSTM stacks the
forward and the time-reversed sequence as its 2 directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .numeric import as_tensor, softmax, tanh
from .rng import SeededRng


# Chunk length (elements) for applying tanh to arrays too big for L2 cache.
_TANH_BLOCK = 65536


def _tanh_large(x: np.ndarray) -> np.ndarray:
    """Blocked elementwise tanh for large contiguous arrays."""
    x = np.ascontiguousarray(x)
    out = np.empty_like(x)
    xf = x.reshape(-1)
    of = out.reshape(-1)
    for i in range(0, xf.size, _TANH_BLOCK):
        sl = slice(i, i + _TANH_BLOCK)
        tanh(xf[sl], out=of[sl])
    return out


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass
class ConvParams:
    """1-D convolution bank: kernels (filters, in_channels, kernel_len), bias (filters,)."""

    kernels: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.kernels = as_tensor(self.kernels)
        self.bias = as_tensor(self.bias)
        if self.kernels.ndim != 3:
            raise ShapeError(f"conv kernels must be 3-D, got shape {self.kernels.shape}")
        if self.bias.shape != (self.kernels.shape[0],):
            raise ShapeError(
                f"conv bias shape {self.bias.shape} does not match {self.kernels.shape[0]} filters")

    @property
    def n_filters(self):
        return self.kernels.shape[0]

    @property
    def kernel_len(self):
        return self.kernels.shape[2]


@dataclass
class LstmParams:
    """LSTM cell weights with gate blocks stacked as [input, forget, candidate, output].

    w_x: (4H, D) input weights, w_h: (4H, H) recurrent weights, b: (4H,).
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w_x = as_tensor(self.w_x)
        self.w_h = as_tensor(self.w_h)
        self.b = as_tensor(self.b)
        rows = self.w_x.shape[0]
        if rows % 4 != 0 or rows == 0:
            raise ShapeError(f"LSTM weight rows must be a positive multiple of 4, got {rows}")
        h = rows // 4
        if self.w_h.shape != (rows, h):
            raise ShapeError(f"recurrent weights must be {(rows, h)}, got {self.w_h.shape}")
        if self.b.shape != (rows,):
            raise ShapeError(f"LSTM bias must be ({rows},), got {self.b.shape}")

    @property
    def hidden_size(self):
        return self.w_x.shape[0] // 4

    @property
    def input_size(self):
        return self.w_x.shape[1]


@dataclass
class BiLstmParams:
    """Independent forward and backward LSTM parameter sets of equal width."""

    fwd: LstmParams
    bwd: LstmParams

    def __post_init__(self):
        if self.fwd.hidden_size != self.bwd.hidden_size:
            raise ShapeError(
                f"forward/backward hidden sizes differ: {self.fwd.hidden_size} vs {self.bwd.hidden_size}")

    @property
    def hidden_size(self):
        return self.fwd.hidden_size


@dataclass
class AttentionParams:
    """Additive attention: w_h (A, K), b_h (A,), v (A,) with K the hidden width."""

    w_h: np.ndarray
    b_h: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.w_h = as_tensor(self.w_h)
        self.b_h = as_tensor(self.b_h)
        self.v = as_tensor(self.v)
        a = self.w_h.shape[0]
        if self.b_h.shape != (a,) or self.v.shape != (a,):
            raise ShapeError(
                f"attention widths disagree: w_h {self.w_h.shape}, b_h {self.b_h.shape}, v {self.v.shape}")


@dataclass
class DenseParams:
    """Affine output head: w (O, I), b (O,)."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = as_tensor(self.w)
        self.b = as_tensor(self.b)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ShapeError(f"dense shapes disagree: w {self.w.shape}, b {self.b.shape}")


@dataclass
class DropoutSpec:
    """Inverted dropout: keep probability 1-rate, kept values scaled by 1/(1-rate)."""

    rate: float
    training: bool

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise DomainError(f"dropout rate must be in [0, 1), got {self.rate!r}")


# ---------------------------------------------------------------------------
# Initialization (uniform +-1/sqrt(fan_in); biases zero, LSTM forget bias 1)
# ---------------------------------------------------------------------------

def _uniform_fan_in(rng: SeededRng, shape, fan_in: int) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(shape, -limit, limit)


def init_conv(rng: SeededRng, n_filters: int, in_channels: int, kernel_len: int) -> ConvParams:
    kernels = _uniform_fan_in(rng, (n_filters, in_channels, kernel_len), in_channels * kernel_len)
    return ConvParams(kernels, np.zeros(n_filters))


def init_lstm(rng: SeededRng, input_size: int, hidden: int) -> LstmParams:
    w_x = _uniform_fan_in(rng, (4 * hidden, input_size), input_size)
    w_h = _uniform_fan_in(rng, (4 * hidden, hidden), hidden)
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0  # forget-gate bias
    return LstmParams(w_x, w_h, b)


def init_bilstm(rng: SeededRng, input_size: int, hidden: int) -> BiLstmParams:
    return BiLstmParams(init_lstm(rng, input_size, hidden), init_lstm(rng, input_size, hidden))


def init_attention(rng: SeededRng, hidden_width: int, attn_width: int) -> AttentionParams:
    w_h = _uniform_fan_in(rng, (attn_width, hidden_width), hidden_width)
    v = _uniform_fan_in(rng, (attn_width,), attn_width)
    return AttentionParams(w_h, np.zeros(attn_width), v)


def init_dense(rng: SeededRng, input_size: int, output_size: int) -> DenseParams:
    w = _uniform_fan_in(rng, (output_size, input_size), input_size)
    return DenseParams(w, np.zeros(output_size))


# ---------------------------------------------------------------------------
# Convolution + relu
# ---------------------------------------------------------------------------

def conv1d_forward_batch(x: np.ndarray, p: ConvParams, stride: int = 1):
    """x: (B, T, C) -> (relu output (B, T', F), cache).

    Accumulation order is bias first, then channel-major/tap-minor, matching
    the literal triple-loop definition exactly (bitwise).
    """
    x = as_tensor(x)
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    batch, t_in, c_in = x.shape
    n_f, c_k, l_k = p.kernels.shape
    if c_in != c_k:
        raise ShapeError(f"input has {c_in} channels but kernels expect {c_k}")
    if t_in < l_k:
        raise ShapeError(f"window of length {t_in} is shorter than kernel of length {l_k}")
    t_out = (t_in - l_k) // stride + 1
    z = np.empty((batch, t_out, n_f))
    z[:] = p.bias
    last = (t_out - 1) * stride + 1
    for c in range(c_in):
        for n in range(l_k):
            xs = x[:, n:n + last:stride, c]
            z += xs[:, :, None] * p.kernels[None, None, :, c, n]
    out = np.maximum(z, 0.0)
    cache = (x, p, stride, z)
    return out, cache


def conv1d_backward_batch(cache, dout):
    x, p, stride, z = cache
    batch, t_in, c_in = x.shape
    n_f, _, l_k = p.kernels.shape
    t_out = z.shape[1]
    dz = dout * (z > 0.0)
    db = dz.sum(axis=(0, 1))
    dk = np.empty_like(p.kernels)
    dx = np.zeros_like(x)
    last = (t_out - 1) * stride + 1
    for c in range(c_in):
        for n in range(l_k):
            xs = x[:, n:n + last:stride, c]
            dk[:, c, n] = np.tensordot(dz, xs, axes=([0, 1], [0, 1]))
            dx[:, n:n + last:stride, c] += dz @ p.kernels[:, c, n]
    return dx, (dk, db)


# ---------------------------------------------------------------------------
# Max pooling (non-overlapping windows, remainder dropped)
# ---------------------------------------------------------------------------

def maxpool1d_forward_batch(x: np.ndarray, pool: int):
    """x: (B, T, F) -> (output (B, T//pool, F), cache)."""
    x = as_tensor(x)
    if pool <= 0:
        raise DomainError(f"pool size must be positive, got {pool}")
    batch, t_in, n_f = x.shape
    if t_in < pool:
        raise ShapeError(f"sequence of length {t_in} is shorter than pool window {pool}")
    t_out = t_in // pool
    xr = x[:, :t_out * pool].reshape(batch, t_out, pool, n_f)
    idx = np.argmax(xr, axis=2)  # first occurrence on ties
    out = np.take_along_axis(xr, idx[:, :, None, :], axis=2)[:, :, 0, :]
    cache = (x.shape, pool, idx)
    return out, cache


def maxpool1d_backward_batch(cache, dout):
    (batch, t_in, n_f), pool, idx = cache
    t_out = t_in // pool
    dxr = np.zeros((batch, t_out, pool, n_f))
    np.put_along_axis(dxr, idx[:, :, None, :], dout[:, :, None, :], axis=2)
    dx = np.zeros((batch, t_in, n_f))
    dx[:, :t_out * pool] = dxr.reshape(batch, t_out * pool, n_f)
    return dx


# ---------------------------------------------------------------------------
# LSTM (one kernel over a leading direction axis)
# ---------------------------------------------------------------------------

def lstm_forward(xs: np.ndarray, ps: list[LstmParams]):
    """Run D independent LSTMs from zero state, one per leading slice of `xs`.

    xs: time-major input (D, T, B, I) with one LstmParams per direction in
    `ps`; D is 1 for a plain LSTM and 2 for a BiLSTM.  Returns (hidden
    (D, T, B, H), cache).  The directions share each time step's batched
    matmul; reversing a direction in time is up to the caller.
    """
    xs = as_tensor(xs)
    n_dir, t_len, batch, d_in = xs.shape
    if n_dir != len(ps):
        raise ShapeError(f"input has {n_dir} directions but {len(ps)} LSTM parameter sets")
    if t_len == 0:
        raise DomainError("LSTM input sequence is empty")
    for p in ps:
        if d_in != p.input_size:
            raise ShapeError(f"input width {d_in} does not match LSTM input size {p.input_size}")
    hid = ps[0].hidden_size
    g_lo, g_hi = 2 * hid, 3 * hid

    w_x = np.stack([p.w_x.T for p in ps])             # (D, I, 4H)
    w_h = np.stack([p.w_h.T for p in ps])             # (D, H, 4H)
    bias = np.stack([p.b for p in ps])                # (D, 4H)
    xp = np.matmul(xs.reshape(n_dir, t_len * batch, d_in), w_x)
    xp += bias[:, None, :]
    xp = np.ascontiguousarray(xp.reshape(n_dir, t_len, batch, 4 * hid).transpose(1, 0, 2, 3))

    gates = np.empty((t_len, n_dir, batch, 4 * hid))  # activated; candidate block holds tanh
    cs = np.empty((t_len, n_dir, batch, hid))
    tanh_c = np.empty_like(cs)
    hs = np.empty_like(cs)
    h = np.zeros((n_dir, batch, hid))
    c = np.zeros((n_dir, batch, hid))
    for t in range(t_len):
        a = gates[t]
        np.matmul(h, w_h, out=a)
        a += xp[t]
        np.clip(a, -60.0, 60.0, out=a)
        g_raw = a[:, :, g_lo:g_hi].copy()
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.reciprocal(a, out=a)
        gg = tanh(g_raw)
        a[:, :, g_lo:g_hi] = gg
        np.multiply(a[:, :, hid:g_lo], c, out=cs[t])
        cs[t] += a[:, :, :hid] * gg
        c = cs[t]
        tanh(c, out=tanh_c[t])
        np.multiply(a[:, :, g_hi:], tanh_c[t], out=hs[t])
        h = hs[t]

    cache = (xs, ps, w_h, gates, cs, tanh_c, hs)
    return hs.transpose(1, 0, 2, 3), cache


def lstm_backward(cache, dhs: np.ndarray):
    """Backward of lstm_forward.  dhs: gradient w.r.t. every hidden output
    (D, T, B, H); it is not modified.

    Returns (dxs (D, T, B, I), [(dw_x, dw_h, db) per direction]).
    """
    xs, ps, w_h, gates, cs, tanh_c, hs = cache
    n_dir, t_len, batch, d_in = xs.shape
    hid = ps[0].hidden_size
    g_lo, g_hi = 2 * hid, 3 * hid

    # Direction-major so each direction flattens without a copy afterwards.
    da_all = np.empty((n_dir, t_len, batch, 4 * hid))
    dh_next = np.zeros((n_dir, batch, hid))
    dc_next = np.zeros((n_dir, batch, hid))
    w_h_t = np.ascontiguousarray(w_h.transpose(0, 2, 1))  # (D, 4H, H)
    # scratch buffers reused every step to avoid per-iteration allocation
    dh = np.empty((n_dir, batch, hid))
    dc = np.empty_like(dh)
    dho = np.empty_like(dh)
    u = np.empty_like(dh)
    for t in range(t_len - 1, -1, -1):
        g = gates[t]
        gi, gf, gg, go = g[:, :, :hid], g[:, :, hid:g_lo], g[:, :, g_lo:g_hi], g[:, :, g_hi:]
        tc = tanh_c[t]
        np.add(dhs[:, t], dh_next, out=dh)
        np.multiply(dh, go, out=dho)                      # dh * o-gate
        np.multiply(tc, tc, out=u)
        np.subtract(1.0, u, out=u)                        # 1 - tanh(c)^2
        u *= dho
        np.add(dc_next, u, out=dc)
        da = da_all[:, t]
        di, df, dg, do = (da[:, :, :hid], da[:, :, hid:g_lo],
                          da[:, :, g_lo:g_hi], da[:, :, g_hi:])
        np.multiply(dc, gg, out=di)
        np.subtract(1.0, gi, out=u)
        u *= gi
        di *= u
        if t > 0:
            np.multiply(dc, cs[t - 1], out=df)
        else:
            df[...] = 0.0
        np.subtract(1.0, gf, out=u)
        u *= gf
        df *= u
        np.multiply(dc, gi, out=dg)
        np.multiply(gg, gg, out=u)
        np.subtract(1.0, u, out=u)
        dg *= u
        np.multiply(dho, tc, out=do)
        np.subtract(1.0, go, out=u)
        do *= u
        np.multiply(dc, gf, out=dc_next)
        np.matmul(da, w_h_t, out=dh_next)

    grads = []
    dxs = np.empty((n_dir, t_len * batch, d_in))
    for d, p in enumerate(ps):
        da_flat = da_all[d].reshape(t_len * batch, 4 * hid)
        h_prev = np.empty((t_len, batch, hid))
        h_prev[0] = 0.0
        h_prev[1:] = hs[:-1, d]
        dwx = da_flat.T @ xs[d].reshape(t_len * batch, d_in)
        dwh = da_flat.T @ h_prev.reshape(t_len * batch, hid)
        db = da_flat.sum(axis=0)
        grads.append((dwx, dwh, db))
        np.matmul(da_flat, p.w_x, out=dxs[d])
    return dxs.reshape(n_dir, t_len, batch, d_in), grads


# ---------------------------------------------------------------------------
# BiLSTM
# ---------------------------------------------------------------------------

def bilstm_forward_batch(x: np.ndarray, p: BiLstmParams):
    """x: (B, T, D) -> (concatenated hidden (B, T, 2H), cache); zero initial states.

    The sequence and its time reversal are the two directions of one
    lstm_forward call, so each time step costs a single batched matmul.
    """
    x = as_tensor(x)
    batch, t_len, _ = x.shape
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))  # (T, B, D)
    hs, cache = lstm_forward(np.stack([x_tm, x_tm[::-1]]), [p.fwd, p.bwd])
    hid = p.hidden_size
    out = np.empty((batch, t_len, 2 * hid))
    out[:, :, :hid] = hs[0].transpose(1, 0, 2)
    out[:, :, hid:] = hs[1, ::-1].transpose(1, 0, 2)
    return out, cache


def bilstm_backward_batch(cache, dout):
    batch, t_len, two_h = dout.shape
    hid = two_h // 2
    dhs = np.empty((2, t_len, batch, hid))
    dhs[0] = dout[:, :, :hid].transpose(1, 0, 2)
    dhs[1] = dout[:, ::-1, hid:].transpose(1, 0, 2)
    dxs, (g_fwd, g_bwd) = lstm_backward(cache, dhs)
    dx_tm = dxs[0]
    dx_tm += dxs[1, ::-1]
    return np.ascontiguousarray(dx_tm.transpose(1, 0, 2)), (g_fwd, g_bwd)


# ---------------------------------------------------------------------------
# Additive attention
# ---------------------------------------------------------------------------

def attention_forward_batch(h: np.ndarray, p: AttentionParams):
    """h: (B, T, K) -> (context (B, K), weights (B, T), cache).

    Energies e_t = v . tanh(w_h h_t + b_h); weights are the stabilized
    softmax over time; context is the weight-averaged hidden state.
    """
    h = as_tensor(h)
    batch, t_len, k = h.shape
    if t_len == 0:
        raise DomainError("attention over an empty sequence is undefined")
    if p.w_h.shape[1] != k:
        raise ShapeError(f"hidden width {k} does not match attention weights {p.w_h.shape}")
    z = h.reshape(batch * t_len, k) @ p.w_h.T
    z += p.b_h
    u = _tanh_large(z).reshape(batch, t_len, -1)  # (B, T, A)
    alpha = softmax(u @ p.v, axis=1)              # (B, T)
    context = np.einsum("bt,btk->bk", alpha, h)
    return context, alpha, (h, p, u, alpha)


def attention_backward_batch(cache, dcontext, dalpha: np.ndarray | None = None):
    h, p, u, alpha = cache
    dalpha_total = np.einsum("bk,btk->bt", dcontext, h)
    if dalpha is not None:
        dalpha_total = dalpha_total + dalpha
    dh = alpha[:, :, None] * dcontext[:, None, :]
    de = alpha * (dalpha_total - np.sum(alpha * dalpha_total, axis=1, keepdims=True))
    dv = np.tensordot(de, u, axes=([0, 1], [0, 1]))
    du = de[:, :, None] * p.v
    dz = du * (1.0 - u * u)
    dz2 = dz.reshape(-1, dz.shape[2])
    h2 = h.reshape(-1, h.shape[2])
    dwh = dz2.T @ h2
    dbh = dz2.sum(axis=0)
    dh += (dz2 @ p.w_h).reshape(dh.shape)
    return dh, (dwh, dbh, dv)


# ---------------------------------------------------------------------------
# Dense head
# ---------------------------------------------------------------------------

def dense_forward_batch(x: np.ndarray, p: DenseParams):
    """x: (B, I) -> (y (B, O), cache); affine map, no nonlinearity."""
    x = as_tensor(x)
    if x.shape[1] != p.w.shape[1]:
        raise ShapeError(f"input width {x.shape[1]} does not match dense weights {p.w.shape}")
    return x @ p.w.T + p.b, (x, p)


def dense_backward_batch(cache, dy):
    x, p = cache
    dw = dy.T @ x
    db = dy.sum(axis=0)
    dx = dy @ p.w
    return dx, (dw, db)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

def dropout_forward(x: np.ndarray, spec: DropoutSpec, rng: SeededRng | None = None):
    """Inverted dropout. Training mode draws a keep mask from `rng`;
    inference mode is the identity.  Returns (output, mask)."""
    x = as_tensor(x)
    if not spec.training or spec.rate == 0.0:
        return x, np.ones_like(x)
    if rng is None:
        raise DomainError("training-mode dropout requires an rng")
    keep = rng.keep_mask(x.shape, spec.rate)
    scale = 1.0 / (1.0 - spec.rate)
    return x * keep * scale, keep


def dropout_backward(mask: np.ndarray, spec: DropoutSpec, dout: np.ndarray) -> np.ndarray:
    if not spec.training or spec.rate == 0.0:
        return dout
    return dout * mask * (1.0 / (1.0 - spec.rate))
