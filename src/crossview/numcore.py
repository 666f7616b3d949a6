"""Dense numeric primitives every other module builds on.

All arithmetic is 64-bit; matrices are row-major contiguous float64
ndarrays. Summation order is fixed (single-threaded numpy reductions) so
repeated runs are bit-identical.
"""

import numpy as np

from .errors import DegenerateInputError, NumericError

__all__ = [
    "Rng",
    "as_int_ids",
    "as_matrix",
    "row_norms",
    "l2_normalize_rows",
    "pairwise_sim",
    "top_k_indices",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D contiguous float64 array, rejecting non-finite entries."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise NumericError(f"{name} contains non-finite values")
    return out


def as_int_ids(a, message: str, rows=None, bound=None) -> np.ndarray:
    """Cast to int64 ids; an int64 array comes back itself, not a copy. A
    ValueError carrying ``message``, formatted with ``count`` (the number of
    ids given), ``rows`` and ``bound``, rejects a value the cast would change
    (a fraction, NaN, a float beyond int64) and, where they are given,
    anything but one id per query row or an id outside [0, bound)."""
    raw = ids = np.asarray(a)
    if raw.dtype != np.int64:
        with np.errstate(invalid="ignore"):
            ids = raw.astype(np.int64)
    changed = ids is not raw and not np.array_equal(ids, raw)
    # as uint64 a negative id reads as 2**63 or more: one max covers both ends
    if changed or (rows is not None and ids.shape != (rows,)) or (
        bound is not None and ids.size and ids.view(np.uint64).max() >= bound
    ):
        raise ValueError(message.format(count=ids.size, rows=rows, bound=bound))
    return ids


def row_norms(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", A, A))


def l2_normalize_rows(A) -> np.ndarray:
    """Scale every row to unit Euclidean norm. A zero norm, or one that
    overflows to inf, is an error naming the first such row."""
    A = as_matrix(A)
    norms = row_norms(A)
    # an overflowed norm would divide its row to zeros
    if not np.isfinite(norms).all():
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise NumericError(f"row {bad} has a non-finite norm")
    if not norms.all():
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateInputError(f"row {bad} has zero norm")
    return A / norms[:, None]


def pairwise_sim(A, B) -> np.ndarray:
    """All-pairs cosine similarity; out[i, j] compares A row i with B row j."""
    A = l2_normalize_rows(A)
    B = l2_normalize_rows(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    return A @ B.T


def top_k_indices(v, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis (of each row on
    its own, for a matrix), descending value, ties by lower index. -inf
    ranks below every number; a NaN entry is a ValueError."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    n = v.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for length {n}")
    rows = v.reshape(-1, n)
    # partition orders NaN above every number, so a row's NaN lands in its top k
    part = np.partition(rows, n - k, axis=1)
    if np.isnan(part[:, n - k :]).any():
        raise ValueError("cannot rank an entry that is NaN")
    cut = part[:, n - k, None]
    picked = rows >= cut
    if np.count_nonzero(picked) > picked.shape[0] * k:
        # more entries tie at the cut than fit: keep the lowest-indexed ones
        tied = rows == cut
        room = k - np.count_nonzero(rows > cut, axis=1)
        picked &= ~tied | (np.cumsum(tied, axis=1) <= room[:, None])
    flat = np.flatnonzero(picked).reshape(-1, k)
    order = np.argsort(-rows.reshape(-1)[flat], axis=1, kind="stable")
    return (np.take_along_axis(flat, order, axis=1) % n).reshape(v.shape[:-1] + (k,))


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

    def choice(self, n: int, size: int, replace: bool) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def integers(self, low, high, size) -> np.ndarray:
        """int64 draws in [low, high); the bounds broadcast against size."""
        return self._gen.integers(low, high, size=size)
