"""Tests for the network building blocks against naive reference
implementations written out longhand."""

import numpy as np
import pytest

from wattsplit import layers
from wattsplit.errors import DomainError, ShapeError
from wattsplit.rng import SeededRng


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv_reference(x, kernels, bias, stride):
    """Literal triple-loop 1-D convolution over (B, T, C) input."""
    batch, t_in, c_in = x.shape
    n_f, _, l_k = kernels.shape
    t_out = (t_in - l_k) // stride + 1
    z = np.empty((batch, t_out, n_f))
    for b in range(batch):
        for t in range(t_out):
            for f in range(n_f):
                acc = bias[f]
                for c in range(c_in):
                    for n in range(l_k):
                        acc += x[b, t * stride + n, c] * kernels[f, c, n]
                z[b, t, f] = acc
    return np.maximum(z, 0.0)


def test_conv_simple_moving_sum():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    p = layers.ConvParams(np.array([[[1.0, 1.0]]]), np.zeros(1))
    out, _ = layers.conv1d_forward_batch(x, p, 1)
    assert np.array_equal(out[:, :, 0], [[3.0, 5.0, 7.0]])


def test_conv_matches_triple_loop_bitwise():
    for seed in range(10):
        rng = SeededRng(seed)
        stride = 1 + seed % 3
        x = rng.uniform((3, 11, 2), -1.0, 1.0)
        p = layers.ConvParams(rng.uniform((4, 2, 3), -1.0, 1.0),
                              rng.uniform(4, -1.0, 1.0))
        out, _ = layers.conv1d_forward_batch(x, p, stride)
        assert np.array_equal(out, conv_reference(x, p.kernels, p.bias, stride))


def test_conv_applies_relu():
    x = np.ones((1, 3, 1))
    p = layers.ConvParams(np.array([[[-1.0]]]), np.zeros(1))
    out, _ = layers.conv1d_forward_batch(x, p, 1)
    assert np.all(out == 0.0)


def test_conv_output_length_formula():
    for t_in, l_k, stride in [(10, 3, 1), (10, 3, 2), (7, 7, 1), (9, 2, 4)]:
        x = np.zeros((1, t_in, 1))
        p = layers.ConvParams(np.zeros((2, 1, l_k)), np.zeros(2))
        out, _ = layers.conv1d_forward_batch(x, p, stride)
        assert out.shape[1] == (t_in - l_k) // stride + 1


def test_conv_validation():
    p = layers.ConvParams(np.zeros((2, 1, 5)), np.zeros(2))
    with pytest.raises(ShapeError):
        layers.conv1d_forward_batch(np.zeros((1, 3, 1)), p, 1)  # window < kernel
    with pytest.raises(ShapeError):
        layers.conv1d_forward_batch(np.zeros((1, 8, 2)), p, 1)  # channel mismatch
    with pytest.raises(DomainError):
        layers.conv1d_forward_batch(np.zeros((1, 8, 1)), p, 0)
    with pytest.raises(ShapeError):
        layers.ConvParams(np.zeros((2, 1, 5)), np.zeros(3))


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------

def test_maxpool_block_max_and_remainder():
    x = np.array([7.0, 1.0, 1.0]).reshape(1, 3, 1)
    out, _ = layers.maxpool1d_forward_batch(x, 2)
    assert np.array_equal(out, [[[7.0]]])


def test_maxpool_matches_reference():
    for seed in range(10):
        x = SeededRng(seed).uniform((2, 11, 3), -1.0, 1.0)
        out, _ = layers.maxpool1d_forward_batch(x, 2)
        for b in range(2):
            for t in range(5):
                for f in range(3):
                    assert out[b, t, f] == max(x[b, 2 * t, f], x[b, 2 * t + 1, f])


def test_maxpool_backward_routes_to_first_tie():
    x = np.array([2.0, 2.0, 1.0, 5.0]).reshape(1, 4, 1)
    out, cache = layers.maxpool1d_forward_batch(x, 2)
    dx = layers.maxpool1d_backward_batch(cache, np.array([[[1.0], [1.0]]]))
    assert np.array_equal(dx[0, :, 0], [1.0, 0.0, 0.0, 1.0])


def test_maxpool_backward_zeroes_dropped_remainder():
    x = np.arange(5.0).reshape(1, 5, 1)
    _, cache = layers.maxpool1d_forward_batch(x, 2)
    dx = layers.maxpool1d_backward_batch(cache, np.ones((1, 2, 1)))
    assert dx[0, 4, 0] == 0.0


def test_maxpool_validation():
    with pytest.raises(DomainError):
        layers.maxpool1d_forward_batch(np.zeros((1, 4, 1)), 0)
    with pytest.raises(ShapeError):
        layers.maxpool1d_forward_batch(np.zeros((1, 1, 1)), 2)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def lstm_reference(x, p, h0=None, c0=None):
    """Step-by-step cell evaluation with gate blocks [input, forget, candidate, output]."""
    batch, t_len, _ = x.shape
    hid = p.hidden_size
    h = np.zeros((batch, hid)) if h0 is None else h0.copy()
    c = np.zeros((batch, hid)) if c0 is None else c0.copy()
    hs = np.empty((batch, t_len, hid))
    for t in range(t_len):
        a = x[:, t] @ p.w_x.T + h @ p.w_h.T + p.b
        a = np.clip(a, -60.0, 60.0)
        i = _sigmoid(a[:, 0 * hid:1 * hid])
        f = _sigmoid(a[:, 1 * hid:2 * hid])
        g = np.tanh(a[:, 2 * hid:3 * hid])
        o = _sigmoid(a[:, 3 * hid:4 * hid])
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t] = h
    return hs, h, c


def _lstm_params(seed, d_in=3, hid=4):
    rng = SeededRng(seed)
    return layers.LstmParams(rng.uniform((4 * hid, d_in), -0.5, 0.5),
                             rng.uniform((4 * hid, hid), -0.5, 0.5),
                             rng.uniform(4 * hid, -0.5, 0.5))


def _lstm(x, p):
    """The unidirectional LSTM, the 1-direction kernel call: (B, T, D) -> (B, T, H)."""
    hs, _ = layers.lstm_forward(x.transpose(1, 0, 2)[None], [p])
    return hs[0].transpose(1, 0, 2)


def test_lstm_seq_matches_reference():
    for seed in range(10):
        p = _lstm_params(seed)
        x = SeededRng(seed + 100).uniform((2, 6, 3), -1.0, 1.0)
        hs = _lstm(x, p)
        ref, _, _ = lstm_reference(x, p)
        assert np.allclose(hs, ref, atol=1e-12)


def test_lstm_forget_gate_controls_memory():
    """One input step loads the cell from zero state; with the forget gate
    saturated open the cell then holds that value, and shut it forgets."""
    hid = 2
    w_x = np.zeros((4 * hid, 1))
    w_x[0 * hid:1 * hid] = 120.0          # input gate opens only on input 1
    w_x[2 * hid:3 * hid, 0] = [0.5, -0.3]  # candidate tanh(0.5), tanh(-0.3) on input 1
    b = np.zeros(4 * hid)
    b[0 * hid:1 * hid] = -60.0  # input gate closed on input 0
    b[3 * hid:4 * hid] = 60.0   # output gate open, so h = tanh(c)
    x = np.zeros((1, 6, 1))
    x[0, 0, 0] = 1.0
    loaded = np.tanh(np.tanh([0.5, -0.3]))

    b[1 * hid:2 * hid] = 60.0   # forget gate open
    hs = _lstm(x, layers.LstmParams(w_x, np.zeros((4 * hid, hid)), b))
    assert np.allclose(hs[0], loaded, atol=1e-12)

    b[1 * hid:2 * hid] = -60.0  # forget gate shut
    hs = _lstm(x, layers.LstmParams(w_x, np.zeros((4 * hid, hid)), b))
    assert np.allclose(hs[0, 0], loaded, atol=1e-12)
    assert np.allclose(hs[0, 1:], 0.0, atol=1e-12)


def test_lstm_validation():
    p = _lstm_params(0)
    with pytest.raises(ShapeError):
        layers.lstm_forward(np.zeros((1, 3, 1, 5)), [p])  # wrong input width
    with pytest.raises(ShapeError):
        layers.lstm_forward(np.zeros((2, 3, 1, 3)), [p])  # 2 directions, 1 parameter set
    with pytest.raises(DomainError):
        layers.lstm_forward(np.zeros((1, 0, 1, 3)), [p])
    with pytest.raises(ShapeError):
        layers.LstmParams(np.zeros((6, 2)), np.zeros((6, 1)), np.zeros(6))  # rows % 4 != 0


# ---------------------------------------------------------------------------
# BiLSTM
# ---------------------------------------------------------------------------

def _bilstm_params(seed, d_in=3, hid=4):
    return layers.BiLstmParams(_lstm_params(seed, d_in, hid),
                               _lstm_params(seed + 1000, d_in, hid))


def test_bilstm_concatenates_both_directions():
    for seed in range(10):
        p = _bilstm_params(seed)
        x = SeededRng(seed + 2000).uniform((2, 5, 3), -1.0, 1.0)
        out, _ = layers.bilstm_forward_batch(x, p)
        fwd_ref, _, _ = lstm_reference(x, p.fwd)
        bwd_ref, _, _ = lstm_reference(x[:, ::-1], p.bwd)
        assert out.shape == (2, 5, 8)
        assert np.allclose(out[:, :, :4], fwd_ref, atol=1e-12)
        assert np.allclose(out[:, :, 4:], bwd_ref[:, ::-1], atol=1e-12)


def test_bilstm_validation():
    p = _bilstm_params(0)
    with pytest.raises(DomainError):
        layers.bilstm_forward_batch(np.zeros((1, 0, 3)), p)
    with pytest.raises(ShapeError):
        layers.bilstm_forward_batch(np.zeros((1, 4, 2)), p)
    with pytest.raises(ShapeError):
        layers.BiLstmParams(_lstm_params(0, 3, 4), _lstm_params(1, 3, 5))


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def attention_reference(h, p):
    batch, t_len, _ = h.shape
    contexts, alphas = [], []
    for b in range(batch):
        u = np.tanh(h[b] @ p.w_h.T + p.b_h)
        e = u @ p.v
        exp = np.exp(e - e.max())
        alpha = exp / exp.sum()
        contexts.append((alpha[:, None] * h[b]).sum(axis=0))
        alphas.append(alpha)
    return np.stack(contexts), np.stack(alphas)


def test_attention_matches_reference():
    for seed in range(10):
        rng = SeededRng(seed)
        h = rng.uniform((3, 6, 4), -2.0, 2.0)
        p = layers.AttentionParams(rng.uniform((5, 4), -1.0, 1.0),
                                   rng.uniform(5, -1.0, 1.0),
                                   rng.uniform(5, -1.0, 1.0))
        context, alpha, _ = layers.attention_forward_batch(h, p)
        ref_c, ref_a = attention_reference(h, p)
        assert np.allclose(context, ref_c, atol=1e-12)
        assert np.allclose(alpha, ref_a, atol=1e-12)


def test_attention_weights_sum_to_one():
    for seed in range(10):
        rng = SeededRng(seed)
        h = rng.uniform((4, 7, 3), -30.0, 30.0)
        p = layers.AttentionParams(rng.uniform((3, 3), -1.0, 1.0),
                                   rng.uniform(3, -1.0, 1.0),
                                   rng.uniform(3, -1.0, 1.0))
        _, alpha, _ = layers.attention_forward_batch(h, p)
        assert np.all(alpha > 0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_attention_context_is_convex_combination():
    rng = SeededRng(8)
    h = np.ones((1, 5, 2)) * np.arange(5)[None, :, None]
    p = layers.AttentionParams(rng.uniform((2, 2)), rng.uniform(2), rng.uniform(2))
    context, alpha, _ = layers.attention_forward_batch(h, p)
    assert np.all(context >= h.min()) and np.all(context <= h.max())
    assert np.allclose(context[0], (alpha[0] * np.arange(5)).sum(), atol=1e-12)


def test_attention_validation():
    p = layers.AttentionParams(np.zeros((3, 4)), np.zeros(3), np.zeros(3))
    with pytest.raises(DomainError):
        layers.attention_forward_batch(np.zeros((1, 0, 4)), p)
    with pytest.raises(ShapeError):
        layers.attention_forward_batch(np.zeros((1, 5, 2)), p)
    with pytest.raises(ShapeError):
        layers.AttentionParams(np.zeros((3, 4)), np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------

def test_dense_is_affine():
    rng = SeededRng(4)
    x = rng.uniform((5, 3), -1.0, 1.0)
    p = layers.DenseParams(rng.uniform((2, 3), -1.0, 1.0), rng.uniform(2, -1.0, 1.0))
    y, _ = layers.dense_forward_batch(x, p)
    assert np.allclose(y, x @ p.w.T + p.b, atol=1e-15)
    # no nonlinearity: doubling the centered input doubles the centered output
    y2, _ = layers.dense_forward_batch(2.0 * x, p)
    assert np.allclose(y2 - p.b, 2.0 * (y - p.b), atol=1e-12)


def test_dense_validation():
    p = layers.DenseParams(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        layers.dense_forward_batch(np.zeros((1, 4)), p)
    with pytest.raises(ShapeError):
        layers.DenseParams(np.zeros((2, 3)), np.zeros(3))


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

def test_dropout_inference_is_identity():
    x = SeededRng(1).uniform((4, 6))
    out, mask = layers.dropout_forward(x, layers.DropoutSpec(0.5, training=False))
    assert np.array_equal(out, x)
    assert np.all(mask == 1.0)


def test_dropout_training_masks_and_rescales():
    x = np.ones((100, 100))
    spec = layers.DropoutSpec(0.25, training=True)
    out, mask = layers.dropout_forward(x, spec, SeededRng(7))
    scale = 1.0 / 0.75
    assert set(np.unique(out)) <= {0.0, scale}
    assert np.array_equal(out, x * mask * scale)
    assert abs(float(mask.mean()) - 0.75) < 0.01
    # expectation is preserved
    assert float(out.mean()) == pytest.approx(1.0, abs=0.02)


def test_dropout_zero_rate_is_identity_even_in_training():
    x = SeededRng(2).uniform((3, 3))
    out, _ = layers.dropout_forward(x, layers.DropoutSpec(0.0, training=True), SeededRng(0))
    assert np.array_equal(out, x)


def test_dropout_training_requires_rng():
    with pytest.raises(DomainError):
        layers.dropout_forward(np.ones((2, 2)), layers.DropoutSpec(0.5, training=True))


def test_dropout_backward_uses_same_mask():
    spec = layers.DropoutSpec(0.4, training=True)
    x = np.ones((10, 10))
    _, mask = layers.dropout_forward(x, spec, SeededRng(3))
    dout = np.ones_like(x)
    dx = layers.dropout_backward(mask, spec, dout)
    assert np.array_equal(dx, mask / 0.6)


def test_dropout_rate_validation():
    with pytest.raises(DomainError):
        layers.DropoutSpec(1.0, training=True)
    with pytest.raises(DomainError):
        layers.DropoutSpec(-0.1, training=False)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def test_init_conv_bounds():
    p = layers.init_conv(SeededRng(0), 8, 2, 5)
    limit = 1.0 / np.sqrt(2 * 5)
    assert p.kernels.shape == (8, 2, 5)
    assert np.all(np.abs(p.kernels) <= limit)
    assert np.all(p.bias == 0.0)


def test_init_lstm_forget_bias_is_one():
    hid = 6
    p = layers.init_lstm(SeededRng(1), 3, hid)
    assert np.all(p.b[hid:2 * hid] == 1.0)
    assert np.all(p.b[:hid] == 0.0)
    assert np.all(p.b[2 * hid:] == 0.0)
    assert np.all(np.abs(p.w_x) <= 1.0 / np.sqrt(3))
    assert np.all(np.abs(p.w_h) <= 1.0 / np.sqrt(hid))


def test_init_bilstm_directions_are_independent():
    p = layers.init_bilstm(SeededRng(2), 3, 4)
    assert not np.array_equal(p.fwd.w_x, p.bwd.w_x)


def test_init_attention_and_dense_shapes():
    a = layers.init_attention(SeededRng(3), 8, 16)
    assert a.w_h.shape == (16, 8)
    assert np.all(a.b_h == 0.0)
    d = layers.init_dense(SeededRng(4), 8, 3)
    assert d.w.shape == (3, 8)
    assert np.all(np.abs(d.w) <= 1.0 / np.sqrt(8))


def test_init_deterministic():
    a = layers.init_lstm(SeededRng(9), 4, 4)
    b = layers.init_lstm(SeededRng(9), 4, 4)
    assert np.array_equal(a.w_x, b.w_x)
    assert np.array_equal(a.w_h, b.w_h)
