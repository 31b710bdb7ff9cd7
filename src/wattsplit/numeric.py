"""Float64 array primitives shared by the layers: tensor coercion, tanh and
the stable softmax.

All arrays are row-major 64-bit floats (numpy ndarrays).  Every function is
pure: identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(x, dtype=np.float64)


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """tanh computed as 1 - 2/(1 + e^{2x}), into `out` when given.

    The exp-based form is markedly faster than np.tanh on cache-resident
    arrays.  It is accurate in absolute, not relative, terms: it differs from
    np.tanh by at most 3.4e-16, but near 0 the relative error grows like
    2e-16/|x|, and inputs smaller than about 1e-17 in magnitude give 0.
    Both overflow tails saturate to exactly +/-1, without a warning.
    """
    with np.errstate(over="ignore", under="ignore"):
        t = np.multiply(x, 2.0, out=out) if out is not None else x * 2.0
        np.exp(t, out=t)
        t += 1.0
        np.reciprocal(t, out=t)
    t *= -2.0
    t += 1.0
    return t


def softmax(e: np.ndarray, axis: int = -1) -> np.ndarray:
    """Normalized exponentials along `axis`, stabilized by max subtraction."""
    e = as_tensor(e)
    if e.size == 0 or e.shape[axis] == 0:
        raise DomainError("softmax of an empty input is undefined")
    shifted = e - np.max(e, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)
