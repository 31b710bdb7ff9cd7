"""Tests for the seeded deterministic random number generator."""

import numpy as np
import pytest

from wattsplit.errors import DomainError
from wattsplit.rng import SeededRng


def test_same_seed_same_stream():
    for seed in range(10):
        a = SeededRng(seed).next_u64(1000)
        b = SeededRng(seed).next_u64(1000)
        assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = SeededRng(0).next_u64(1000)
    b = SeededRng(1).next_u64(1000)
    assert not np.array_equal(a, b)


def test_stream_is_contiguous_across_calls():
    """Splitting one request into several must not change the stream."""
    whole = SeededRng(7).next_u64(1000)
    r = SeededRng(7)
    parts = np.concatenate([r.next_u64(1), r.next_u64(499), r.next_u64(500)])
    assert np.array_equal(whole, parts)


def test_requests_larger_than_internal_buffer():
    r = SeededRng(3)
    out = r.next_u64(100_000)
    assert out.shape == (100_000,)
    assert out.dtype == np.uint64


def test_negative_draw_count_rejected():
    with pytest.raises(DomainError):
        SeededRng(0).next_u64(-1)


def test_uniform_range_and_shape():
    r = SeededRng(11)
    u = r.uniform((50, 3), -2.0, 5.0)
    assert u.shape == (50, 3)
    assert u.dtype == np.float64
    assert np.all(u >= -2.0) and np.all(u < 5.0)
    # scalar shape argument
    assert r.uniform(7).shape == (7,)


def test_uniform_mean_and_variance():
    u = SeededRng(42).uniform(200_000)
    assert abs(float(u.mean()) - 0.5) < 5e-3
    assert abs(float(u.var()) - 1.0 / 12.0) < 5e-3


def test_uniform_empty_range_rejected():
    with pytest.raises(DomainError):
        SeededRng(0).uniform(10, 1.0, 1.0)
    with pytest.raises(DomainError):
        SeededRng(0).uniform(10, 2.0, -2.0)


def test_normal_moments():
    z = SeededRng(13).normal(200_000, mean=3.0, std=2.0)
    assert abs(float(z.mean()) - 3.0) < 0.02
    assert abs(float(z.std()) - 2.0) < 0.02


def test_normal_negative_std_rejected():
    with pytest.raises(DomainError):
        SeededRng(0).normal(10, 0.0, -1.0)


def test_normal_finite_and_deterministic():
    for seed in range(5):
        z1 = SeededRng(seed).normal((100,))
        z2 = SeededRng(seed).normal((100,))
        assert np.all(np.isfinite(z1))
        assert np.array_equal(z1, z2)


def test_keep_mask_values_and_rate():
    mask = SeededRng(21).keep_mask((1000, 100), 0.25)
    assert mask.dtype == np.float64
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert abs(float(mask.mean()) - 0.75) < 5e-3


def test_keep_mask_zero_rate_keeps_everything():
    mask = SeededRng(2).keep_mask((64, 64), 0.0)
    assert np.all(mask == 1.0)


def test_keep_mask_rate_bounds():
    with pytest.raises(DomainError):
        SeededRng(0).keep_mask(10, 1.0)
    with pytest.raises(DomainError):
        SeededRng(0).keep_mask(10, -0.1)


def test_keep_mask_matches_uniform_threshold():
    """The mask must agree with thresholding the equivalent uniform draws."""
    for seed in range(5):
        rate = 0.4
        mask = SeededRng(seed).keep_mask(5000, rate)
        u = SeededRng(seed).uniform(5000)
        assert np.array_equal(mask, (u >= rate).astype(np.float64))


def test_permutation_is_a_permutation():
    for seed in range(10):
        p = SeededRng(seed).permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))


def test_permutation_deterministic_and_varied():
    a = SeededRng(9).permutation(100)
    b = SeededRng(9).permutation(100)
    c = SeededRng(10).permutation(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_permutation_edge_cases():
    assert SeededRng(0).permutation(0).shape == (0,)
    assert np.array_equal(SeededRng(0).permutation(1), [0])
    with pytest.raises(DomainError):
        SeededRng(0).permutation(-1)


def test_seed_wraps_to_64_bits():
    big = SeededRng(2**64 + 5)
    small = SeededRng(5)
    assert np.array_equal(big.next_u64(100), small.next_u64(100))
