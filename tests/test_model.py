"""Tests for the assembled model, optimizer, training loop, and checkpoints."""

import json
import struct

import numpy as np
import pytest

from wattsplit import model
from wattsplit.checkpoint import MAGIC, checkpoint_load, checkpoint_save
from wattsplit.data import WindowBatch
from wattsplit.errors import (CheckpointFormatError, CheckpointTruncatedError,
                              CheckpointVersionError, DivergenceError,
                              DomainError, ShapeError, TrainingError)
from wattsplit.rng import SeededRng

TINY = dict(n_appliances=2, window_len=16, conv_filters=4, conv_kernel=3,
            pool=2, hidden=5, dropout_rate=0.25, seed=0)


def tiny_config(**overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return model.ModelConfig(**kwargs)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_defaults_follow_the_design_table():
    cfg = model.ModelConfig(n_appliances=3)
    assert cfg.epochs == 20
    assert cfg.bilstm_layers == 2
    assert cfg.dropout_rate == 0.25
    assert cfg.batch_size == 64
    assert cfg.learning_rate == 1e-3
    assert cfg.window_len == 64
    assert cfg.hidden == 64
    assert cfg.effective_attention_width() == 128


def test_config_sequence_lengths():
    cfg = model.ModelConfig(n_appliances=1)
    assert cfg.seq_len_after_conv() == 60
    assert cfg.seq_len_after_pool() == 30


def test_config_validation():
    with pytest.raises(DomainError):
        model.ModelConfig(n_appliances=0)
    with pytest.raises(DomainError):
        model.ModelConfig(n_appliances=1, epochs=0)
    with pytest.raises(DomainError):
        model.ModelConfig(n_appliances=1, bilstm_layers=3)
    with pytest.raises(DomainError):
        model.ModelConfig(n_appliances=1, dropout_rate=1.0)
    with pytest.raises(DomainError):
        model.ModelConfig(n_appliances=1, on_threshold=0.0)
    with pytest.raises(DomainError):
        model.ModelConfig(n_appliances=1, learning_rate=0.0)
    with pytest.raises(ShapeError):
        model.ModelConfig(n_appliances=1, window_len=4, conv_kernel=5)
    with pytest.raises(ShapeError):
        model.ModelConfig(n_appliances=1, window_len=5, conv_kernel=5, pool=2)


def test_config_round_trips_through_dict():
    cfg = tiny_config()
    assert model.ModelConfig(**cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def test_init_is_deterministic():
    cfg = tiny_config()
    p1 = model.init_model_params(cfg, SeededRng(5))
    p2 = model.init_model_params(cfg, SeededRng(5))
    d1, d2 = model.params_to_dict(p1), model.params_to_dict(p2)
    assert set(d1) == set(d2)
    for name in d1:
        assert np.array_equal(d1[name], d2[name]), name


def test_params_dict_round_trip_preserves_arrays():
    cfg = tiny_config()
    params = model.init_model_params(cfg, SeededRng(1))
    rebuilt = model.params_from_dict(model.params_to_dict(params))
    for name, arr in model.params_to_dict(rebuilt).items():
        assert np.array_equal(arr, model.params_to_dict(params)[name])


def test_params_dict_block_names():
    names = set(model.params_to_dict(model.init_model_params(tiny_config(), SeededRng(0))))
    assert "conv.kernels" in names
    assert "bilstm1.fwd.w_x" in names
    assert "bilstm2.bwd.b" in names
    assert "attention.v" in names
    assert "dense.w" in names
    assert len(names) == 19


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_shapes_and_attention_weights():
    cfg = tiny_config()
    params = model.init_model_params(cfg, SeededRng(2))
    x = SeededRng(3).uniform((7, cfg.window_len, 1))
    y, alpha, _ = model.model_forward_batch(x, params, cfg, train=False)
    assert y.shape == (7, cfg.n_appliances)
    assert alpha.shape == (7, cfg.seq_len_after_pool())
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_forward_rejects_wrong_window():
    cfg = tiny_config()
    params = model.init_model_params(cfg, SeededRng(0))
    with pytest.raises(ShapeError):
        model.model_forward_batch(np.zeros((2, 8, 1)), params, cfg, train=False)


def test_inference_is_deterministic_despite_dropout_config():
    cfg = tiny_config(dropout_rate=0.5)
    params = model.init_model_params(cfg, SeededRng(6))
    x = SeededRng(7).uniform((3, cfg.window_len, 1))
    y1, _, _ = model.model_forward_batch(x, params, cfg, train=False)
    y2, _, _ = model.model_forward_batch(x, params, cfg, train=False)
    assert np.array_equal(y1, y2)


def test_predict_batches_chunking_is_invisible():
    cfg = tiny_config()
    params = model.init_model_params(cfg, SeededRng(8))
    x = SeededRng(9).uniform((23, cfg.window_len, 1))
    full = model.predict_batches(x, params, cfg, chunk=23)
    small = model.predict_batches(x, params, cfg, chunk=5)
    # different chunk sizes may reorder the BLAS accumulations slightly,
    # but repeating the same chunk size must be bitwise identical
    assert np.allclose(full, small, atol=1e-12)
    again = model.predict_batches(x, params, cfg, chunk=5)
    assert np.array_equal(small, again)


# ---------------------------------------------------------------------------
# Loss and Adam
# ---------------------------------------------------------------------------

def test_mse_loss_oracle():
    y_hat = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[1.0, 0.0], [0.0, 4.0]])
    assert model.mse_loss(y_hat, y) == pytest.approx((4.0 + 9.0) / 4.0)
    with pytest.raises(ShapeError):
        model.mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_mse_loss_grad_matches_finite_difference():
    rng = SeededRng(0)
    y_hat = rng.uniform((3, 2))
    y = rng.uniform((3, 2))
    grad = model.mse_loss_grad(y_hat, y)
    eps = 1e-6
    for i in range(3):
        for j in range(2):
            bumped = y_hat.copy()
            bumped[i, j] += eps
            numeric = (model.mse_loss(bumped, y) - model.mse_loss(y_hat, y)) / eps
            assert grad[i, j] == pytest.approx(numeric, abs=1e-5)


def test_adam_first_step_is_almost_lr():
    """First bias-corrected step has magnitude ~lr regardless of gradient scale."""
    for g in (0.5, 50.0, 5e-4):
        params = {"w": np.array([1.0])}
        state = model.init_adam(params, learning_rate=1e-3)
        model.adam_step(params, {"w": np.array([g])}, state)
        assert params["w"][0] == pytest.approx(1.0 - 1e-3, abs=1e-7)


def test_adam_matches_hand_computed_two_steps():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    theta, m, v = 2.0, 0.0, 0.0
    params = {"w": np.array([2.0])}
    state = model.init_adam(params, lr)
    for t, g in [(1, 0.3), (2, -0.2)]:
        model.adam_step(params, {"w": np.array([g])}, state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert params["w"][0] == pytest.approx(theta, abs=1e-15)
    assert state.t == 2


def test_adam_rejects_non_finite_gradients():
    params = {"w": np.array([1.0])}
    state = model.init_adam(params, 1e-3)
    with pytest.raises(TrainingError) as exc:
        model.adam_step(params, {"w": np.array([np.nan])}, state)
    assert "w" in str(exc.value)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def _toy_batches(cfg, n_train=48, n_val=16, seed=0, target="signal"):
    rng = SeededRng(seed)
    w = cfg.window_len

    def build(n, offset):
        inputs = rng.uniform((n, w, 1))
        if target == "zero":
            targets = np.zeros((n, cfg.n_appliances))
        else:
            mid = inputs[:, w // 2, 0]
            targets = np.stack([mid, 1.0 - mid], axis=1)[:, :cfg.n_appliances]
        stamps = offset + np.arange(n, dtype=np.int64)
        return WindowBatch(inputs, targets, stamps)

    return build(n_train, 0), build(n_val, 10_000)


def test_fit_learns_the_zero_map():
    cfg = tiny_config(epochs=5, batch_size=16)
    train, val = _toy_batches(cfg, target="zero")
    _, report = model.fit(train, val, cfg)
    assert report.val_loss[-1] <= 1e-4


def test_fit_runs_exactly_the_requested_epochs():
    cfg = tiny_config(epochs=3, batch_size=16)
    train, val = _toy_batches(cfg)
    _, report = model.fit(train, val, cfg)
    assert len(report.train_loss) == 3
    assert len(report.val_loss) == 3
    assert len(report.epoch_seconds) == 3
    assert report.train_ms_per_step > 0.0


def test_fit_descends_on_a_learnable_problem():
    wins = 0
    for seed in range(10):
        cfg = tiny_config(epochs=2, batch_size=16, seed=seed)
        train, val = _toy_batches(cfg, seed=seed)
        _, report = model.fit(train, val, cfg)
        wins += report.train_loss[-1] < report.train_loss[0]
    assert wins >= 6


def test_fit_is_deterministic():
    cfg = tiny_config(epochs=2, batch_size=16, seed=11)
    train, val = _toy_batches(cfg)
    p1, r1 = model.fit(train, val, cfg)
    p2, r2 = model.fit(train, val, cfg)
    assert r1.train_loss == r2.train_loss
    assert r1.val_loss == r2.val_loss
    d1, d2 = model.params_to_dict(p1), model.params_to_dict(p2)
    for name in d1:
        assert np.array_equal(d1[name], d2[name]), name


def test_fit_flags_divergence_with_epoch():
    cfg = tiny_config(epochs=2, batch_size=16)
    train, val = _toy_batches(cfg)
    train.inputs[0, 0, 0] = np.nan
    with pytest.raises(DivergenceError) as exc:
        model.fit(train, val, cfg)
    assert exc.value.epoch == 0


def test_fit_validates_inputs():
    cfg = tiny_config()
    train, val = _toy_batches(cfg)
    empty = WindowBatch(np.zeros((0, cfg.window_len, 1)), np.zeros((0, 2)),
                        np.zeros(0, dtype=np.int64))
    with pytest.raises(DomainError):
        model.fit(empty, val, cfg)
    bad_targets = WindowBatch(train.inputs, train.targets[:, :1], train.midpoints)
    with pytest.raises(ShapeError):
        model.fit(bad_targets, val, cfg)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _saved(tmp_path, cfg=None):
    cfg = cfg or tiny_config()
    params = model.init_model_params(cfg, SeededRng(3))
    path = tmp_path / "ckpt.bin"
    checkpoint_save(params, cfg, path)
    return params, cfg, path


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    params, cfg, path = _saved(tmp_path)
    loaded_params, loaded_cfg = checkpoint_load(path)
    assert loaded_cfg == cfg
    orig = model.params_to_dict(params)
    for name, arr in model.params_to_dict(loaded_params).items():
        assert np.array_equal(arr, orig[name]), name


def test_checkpoint_starts_with_magic(tmp_path):
    _, _, path = _saved(tmp_path)
    assert path.read_bytes()[:4] == MAGIC == b"WSPL"


def test_checkpoint_rejects_bad_magic(tmp_path):
    _, _, path = _saved(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    _, _, path = _saved(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        checkpoint_load(path)


def test_checkpoint_detects_truncation_everywhere(tmp_path):
    _, _, path = _saved(tmp_path)
    blob = path.read_bytes()
    for cut in (6, 12, 40, len(blob) // 2, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointTruncatedError):
            checkpoint_load(path)


def test_checkpoint_detects_shape_mismatch(tmp_path):
    """A config whose shapes disagree with the stored arrays is rejected."""
    _, cfg, path = _saved(tmp_path)
    blob = path.read_bytes()
    old_cfg = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    new_cfg = json.dumps(tiny_config(hidden=6).to_dict(), sort_keys=True).encode()
    (length,) = struct.unpack("<I", blob[8:12])
    assert blob[12:12 + length] == old_cfg
    doctored = blob[:8] + struct.pack("<I", len(new_cfg)) + new_cfg + blob[12 + length:]
    path.write_bytes(doctored)
    with pytest.raises(ShapeError) as exc:
        checkpoint_load(path)
    assert "bilstm1" in str(exc.value)


def test_checkpoint_rejects_unknown_block(tmp_path):
    _, _, path = _saved(tmp_path)
    name = b"mystery.block"
    extra = struct.pack("<I", len(name)) + name + struct.pack("<I", 1) + \
        struct.pack("<Q", 1) + struct.pack("<d", 0.0)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(path)


def test_checkpoint_rejects_missing_blocks(tmp_path):
    """Dropping a whole trailing block is reported as truncation."""
    _, cfg, path = _saved(tmp_path)
    blob = path.read_bytes()
    dense_b = 4 + len(b"dense.b") + 4 + 8 + 8 * cfg.n_appliances
    path.write_bytes(blob[:len(blob) - dense_b])
    with pytest.raises(CheckpointTruncatedError) as exc:
        checkpoint_load(path)
    assert "dense.b" in str(exc.value)


def test_checkpoint_rejects_invalid_embedded_config(tmp_path):
    _, _, path = _saved(tmp_path)
    blob = path.read_bytes()
    bad = b'{"bogus": 1}'
    (length,) = struct.unpack("<I", blob[8:12])
    path.write_bytes(blob[:8] + struct.pack("<I", len(bad)) + bad + blob[12 + length:])
    with pytest.raises(CheckpointFormatError):
        checkpoint_load(path)
