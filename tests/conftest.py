import numpy as np
import pytest
from hypothesis import strategies as st

from crossview.clustering import NOISE, PseudoLabels


def finite_difference(f, x0, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for j in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        grad[j] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def rel_error(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


@st.composite
def labelings(draw):
    """Shuffled pseudo-labels: 1 to 8 clusters of 1 to 10 rows each, plus 0
    to 5 noise rows."""
    sizes = draw(st.lists(st.integers(1, 10), min_size=1, max_size=8))
    raw = np.repeat(np.arange(len(sizes)), sizes).tolist() + [NOISE] * draw(st.integers(0, 5))
    return PseudoLabels(labels=np.array(draw(st.permutations(raw))), num_clusters=len(sizes))
