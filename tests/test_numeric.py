"""Tests for the float64 array primitives: coercion, tanh and softmax."""

import numpy as np
import pytest

from wattsplit import numeric
from wattsplit.errors import DomainError
from wattsplit.rng import SeededRng


def test_as_tensor_dtype_and_layout():
    out = numeric.as_tensor([[1, 2], [3, 4]])
    assert out.dtype == np.float64
    assert out.flags["C_CONTIGUOUS"]
    strided = np.arange(12.0).reshape(3, 4)[:, ::2]
    assert numeric.as_tensor(strided).flags["C_CONTIGUOUS"]


@pytest.mark.filterwarnings("error")
def test_tanh_matches_definition():
    x = SeededRng(2).uniform(100, -5.0, 5.0)
    expected = (np.exp(x) - np.exp(-x)) / (np.exp(x) + np.exp(-x))
    assert np.allclose(numeric.tanh(x), expected, atol=1e-12)
    # absolute accuracy holds near 0, where the exp form loses relative accuracy
    near_zero = np.concatenate([SeededRng(3).uniform(200, -1e-3, 1e-3),
                                [1e-8, -1e-8, 1e-17, 5e-324, 0.0]])
    wide = SeededRng(4).uniform(1000, -30.0, 30.0)
    for x in (near_zero, wide):
        assert np.max(np.abs(numeric.tanh(x) - np.tanh(x))) <= 4e-16
    # saturating tails are exactly +/-1, with no overflow warning
    assert np.array_equal(numeric.tanh(np.array([355.0, 1e3, -355.0, -1e3])),
                          [1.0, 1.0, -1.0, -1.0])
    out = np.empty(2)
    assert numeric.tanh(np.array([0.5, -0.5]), out=out) is out
    assert np.allclose(out, np.tanh([0.5, -0.5]), atol=4e-16)


def test_softmax_rows_sum_to_one():
    for seed in range(10):
        e = SeededRng(seed).uniform((8, 13), -40.0, 40.0)
        s = numeric.softmax(e)
        assert np.all(s > 0)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_known_value():
    s = numeric.softmax(np.array([10.0, 0.0, 0.0]))
    expected = np.exp([0.0, -10.0, -10.0])
    expected /= expected.sum()
    assert np.allclose(s, expected, atol=1e-15)


def test_softmax_shift_invariance():
    e = SeededRng(3).uniform(20, -5.0, 5.0)
    assert np.allclose(numeric.softmax(e), numeric.softmax(e + 123.456), atol=1e-12)


def test_softmax_extreme_inputs_stay_finite():
    s = numeric.softmax(np.array([1e4, -1e4, 0.0]))
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(1.0)


def test_softmax_axis_argument():
    e = SeededRng(4).uniform((3, 5), -2.0, 2.0)
    assert np.allclose(numeric.softmax(e, axis=0).sum(axis=0), 1.0, atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(DomainError):
        numeric.softmax(np.empty((0,)))
    with pytest.raises(DomainError):
        numeric.softmax(np.empty((3, 0)))
