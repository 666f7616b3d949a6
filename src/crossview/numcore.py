"""Dense numeric primitives every other module builds on.

All arithmetic is 64-bit; matrices are row-major contiguous float64
ndarrays. Summation order is fixed (single-threaded numpy reductions) so
repeated runs are bit-identical.
"""

import numpy as np

from .errors import DegenerateInputError, NumericError

__all__ = [
    "Rng",
    "as_matrix",
    "ensure_finite",
    "row_norms",
    "l2_normalize_rows",
    "pairwise_sim",
    "top_k_indices",
    "sigmoid",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D contiguous float64 array, rejecting non-finite entries."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    ensure_finite(out, name)
    return out


def ensure_finite(a, what: str = "array") -> None:
    if not np.isfinite(a).all():
        raise NumericError(f"{what} contains non-finite values")


def row_norms(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", A, A))


def l2_normalize_rows(A) -> np.ndarray:
    """Scale every row to unit Euclidean norm. Zero rows are an error."""
    A = as_matrix(A)
    norms = row_norms(A)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateInputError(f"row {bad} has zero norm")
    return A / norms[:, None]


def pairwise_sim(A, B) -> np.ndarray:
    """All-pairs cosine similarity; out[i, j] compares A row i with B row j."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    na = row_norms(A)
    nb = row_norms(B)
    for name, norms in (("A", na), ("B", nb)):
        if np.any(norms == 0.0):
            bad = int(np.flatnonzero(norms == 0.0)[0])
            raise DegenerateInputError(f"{name} row {bad} has zero norm")
    return (A / na[:, None]) @ (B / nb[:, None]).T


def top_k_indices(v, k: int) -> np.ndarray:
    """Indices of the k largest entries, descending value, ties by lower index."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if not 1 <= k <= v.size:
        raise ValueError(f"k={k} out of range for length {v.size}")
    order = np.argsort(-v, kind="stable")
    return order[:k].astype(np.int64)


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


class Rng:
    """Deterministic random source.

    Thin wrapper over numpy's PCG64 bit generator: a fixed, documented
    algorithm whose stream is bit-identical for a given seed on every
    platform. ``derive`` produces an independent child stream from the
    parent seed plus an integer key path, so sub-streams are stable no
    matter how much of the parent stream was consumed.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._key = tuple(int(k) & 0xFFFFFFFFFFFFFFFF for k in _key)
        seq = np.random.SeedSequence((self.seed,) + self._key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def derive(self, *key: int) -> "Rng":
        return Rng(self.seed, _key=self._key + tuple(key))

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc=0.0, scale=scale, size=size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
