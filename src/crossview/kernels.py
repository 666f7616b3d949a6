"""Hot inner-loop kernels with interchangeable numba/numpy backends.

The two inner loops kept out of BLAS are the density cluster expansion
(queue-based flood fill over an epsilon graph) and the sequential
per-query memory blends. In training, expansion runs once per view and
epoch over that view's own rows, and the blends once per minibatch. Both
are written once in plain numpy-compatible Python; at import time they are
optionally compiled with numba. Selection is controlled by the
``CROSSVIEW_BACKEND`` environment variable:

* ``auto`` (default): use numba when importable, else fall back silently.
* ``numpy``: always use the pure-Python/numpy fallback.
* ``numba``: require the jitted path, raising if numba is unavailable.

``benchmarks/bench_kernels.py`` times both paths on realistic shapes.
"""

import os

import numpy as np

from .errors import ConfigError, DegenerateInputError

_BACKEND_REQUEST = os.environ.get("CROSSVIEW_BACKEND", "auto").strip().lower()
if _BACKEND_REQUEST not in ("auto", "numba", "numpy"):
    raise ConfigError(
        f"CROSSVIEW_BACKEND must be auto, numba, or numpy, got {_BACKEND_REQUEST!r}"
    )


def _expand_clusters_impl(indptr, indices, core):
    # indptr/indices: CSR adjacency of the symmetric eps-neighborhood graph,
    # neighbor lists sorted ascending. Cluster ids are assigned in order of
    # the first core point encountered; border points take the cluster of
    # their lowest-indexed core neighbor. Everything else stays -1 (noise).
    n = core.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] >= 0:
            continue
        labels[i] = cluster
        queue[0] = i
        head = 0
        tail = 1
        while head < tail:
            p = queue[head]
            head += 1
            for j in range(indptr[p], indptr[p + 1]):
                nb = indices[j]
                if core[nb] and labels[nb] < 0:
                    labels[nb] = cluster
                    queue[tail] = nb
                    tail += 1
        cluster += 1
    for i in range(n):
        if core[i]:
            continue
        for j in range(indptr[i], indptr[i + 1]):
            nb = indices[j]
            if core[nb]:
                labels[i] = labels[nb]
                break
    return labels


def _blend_chain_impl(bank, ids, queries, w_old, w_new, renorm):
    # In-place sequential update: bank[id] <- w_old*bank[id] + w_new*query,
    # optionally renormalized. Returns the position of the first query that
    # collapsed a row to zero norm, or -1 on success.
    for t in range(ids.shape[0]):
        k = ids[t]
        row = w_old * bank[k] + w_new * queries[t]
        if renorm:
            nrm = np.sqrt(row @ row)
            if nrm == 0.0:
                return t
            row = row / nrm
        bank[k] = row
    return -1


NUMBA_ENABLED = False
_expand_clusters = _expand_clusters_impl
_blend_chain = _blend_chain_impl

if _BACKEND_REQUEST in ("auto", "numba"):
    try:
        from numba import njit
    except ImportError:
        if _BACKEND_REQUEST == "numba":
            raise
    else:
        _expand_clusters = njit(cache=True)(_expand_clusters_impl)
        _blend_chain = njit(cache=True)(_blend_chain_impl)
        NUMBA_ENABLED = True


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


def expand_clusters(indptr, indices, core) -> np.ndarray:
    """Label connected components of core points; attach borders; -1 noise."""
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    core = np.ascontiguousarray(core, dtype=np.bool_)
    return _expand_clusters(indptr, indices, core)


def blend_chain(bank, ids, queries, w_old: float, w_new: float, renorm: bool) -> None:
    """Apply the sequential blend updates to ``bank`` in place."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    bad = _blend_chain(bank, ids, queries, float(w_old), float(w_new), bool(renorm))
    if bad >= 0:
        raise DegenerateInputError(
            f"memory row {int(ids[bad])} collapsed to zero norm at batch position {bad}"
        )
