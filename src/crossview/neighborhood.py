"""Instance-level neighborhood losses over per-epoch feature snapshots.

Three objectives per query and direction, all against frozen instance
memories:

* alignment: softmax cross-entropy over the threshold-filtered set
  (similarity strictly above ratio * max similarity), logits divided by
  the temperature;
* consistency: KL divergence to uniform of the softmax over the expanded
  top-k set, raw similarities, always >= 0;
* mutual information: negative KL to uniform over the strict top-k set,
  raw similarities, always in [-ln k, 0].

For intra-view directions the query's own memory row is excluded from
every candidate pool before selection; otherwise it would dominate them
with similarity 1. Refined pseudo-labels enter as one boolean mask
(``forced_s``) of drone rows force-included into the satellite queries'
cross-view threshold sets; no other set is ever forced.

Training calls ``neighborhood_total``, which scores a whole minibatch per
direction: one batch x memory similarity product, then the three sets as
flat (query, row) pairs and the softmaxes on those few pairs only. The
top-k sets come from ``numcore.top_k_indices``, ties to the lower index.
``tests/reference.py`` computes the same sets and losses one query at a
time; it is the reference the batch path is tested against.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .numcore import as_int_ids, as_matrix, row_norms, top_k_indices

__all__ = [
    "build_instance_memory",
    "neighborhood_total",
]

_UNIT_TOL = 1e-9


def build_instance_memory(embeddings) -> np.ndarray:
    """Frozen per-instance embedding bank, a copy of the unit rows given;
    row i is instance i all epoch."""
    embeddings = as_matrix(embeddings, "embeddings").copy()
    if embeddings.shape[0] == 0:
        raise ValueError("cannot build an empty instance memory")
    if np.any(np.abs(row_norms(embeddings) - 1.0) > _UNIT_TOL):
        raise ValueError("instance memory rows must be unit-norm")
    return embeddings


def _pair_log_softmax(rows, z, b):
    """Log-probabilities and probabilities of each row's softmax over its
    pairs, plus the pair count per row; rows must come sorted, and a row
    with no pairs contributes nothing."""
    counts = np.bincount(rows, minlength=b)
    live = counts > 0
    top = np.zeros(b)
    top[live] = np.maximum.reduceat(z, (np.cumsum(counts) - counts)[live])
    shift = z - top[rows]
    # a non-empty row sums to at least exp(0) = 1; an empty one to 0
    lse = np.log(np.maximum(np.bincount(rows, np.exp(shift), minlength=b), 1.0))
    logp = shift - lse[rows]
    return logp, np.exp(logp), counts


def _direction_batch(queries, mem: np.ndarray, config: TrainConfig, own, forced):
    """Alignment + mutual-information + consistency losses of one direction,
    for every query of a batch at once.

    own[i] >= 0 excludes memory row own[i] from query i's candidate pools;
    forced, when given, is a batch x memory boolean mask whose true entries
    join the threshold sets. Only the cross-view direction gets a mask, and
    there own is all -1, so forcing never re-admits an excluded row.
    Returns per-query loss values and query gradients; the selections and
    formulas are those of the per-query functions in ``tests/reference.py``.

    After the one batch x memory similarity product, only the selected
    (query, row) pairs are scored: a query's first k_expanded and k_strict
    picks from ``numcore.top_k_indices`` are its expanded and strict sets.
    The softmax terms run on flat pairs with per-query sums, and their
    gradient goes through one batch x memory matrix to the memory rows.
    """
    b, n = queries.shape[0], mem.shape[0]
    norms = row_norms(queries)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm query")
    q_hat = queries / norms[:, None]
    sims = q_hat @ mem.T
    selves = np.flatnonzero(own >= 0)
    # no set below ever picks an excluded entry, so sims carries the exclusion
    sims[selves, own[selves]] = -np.inf

    omega = sims > config.neighbor_threshold * sims.max(axis=1, keepdims=True)
    if forced is not None:
        omega |= forced

    k_expanded = config.k_expanded
    pool = n - (own >= 0)
    if pool.min() < 1:
        raise ValueError("a query has no candidate row: its memory holds only its own row")
    if k_expanded > pool.min():
        warnings.warn(
            f"expanded neighborhood clamped from {k_expanded} to {int(pool.min())} available rows",
            stacklevel=2,
        )
    k2 = np.minimum(k_expanded, pool)
    k1 = np.minimum(config.k_strict, k2)
    # picks as flat b x n indices, best first; a row clamped one shorter loses its -inf self
    top = top_k_indices(sims, int(k2.max())) + np.arange(0, b * n, n)[:, None]
    pick = np.arange(top.shape[1])
    wide = np.sort(top[pick < k2[:, None]])  # in ascending pair order
    strict = top[pick < k1[:, None]]
    flat = sims.reshape(-1)
    thresh = np.flatnonzero(omega)

    # alignment: sum over omega of -log p of the tempered softmax
    t = config.temperature
    rows, s = thresh // n, flat[thresh]
    logp, p, size = _pair_log_softmax(rows, s / t, b)
    # bincount over no pairs at all gives integers, so start from float zeros
    value = np.zeros(b)
    value -= np.bincount(rows, logp, minlength=b)
    g = (size[rows] * p - 1.0) / t
    grad_s = np.zeros(b * n)
    grad_s[thresh] = g
    along = np.zeros(b)
    along += np.bincount(rows, g * s, minlength=b)
    for pairs, weight in ((strict, -config.mutual_weight), (wide, config.consistency_weight)):
        rows, s = pairs // n, flat[pairs]
        logp, p, size = _pair_log_softmax(rows, s, b)
        entropy = np.bincount(rows, p * logp, minlength=b)
        value += weight * (entropy + np.log(size))
        g = weight * p * (logp - entropy[rows])
        grad_s[pairs] += g
        along += np.bincount(rows, g * s, minlength=b)
    # d cos(q, f_u) / dq = (f_u - cos * q_hat) / |q|, summed over every picked u
    grads = (grad_s.reshape(b, n) @ mem - along[:, None] * q_hat) / norms[:, None]
    return value, grads


@dataclass
class NeighborhoodLoss:
    value: float
    grads: list[np.ndarray]  # per view, drone then satellite


def neighborhood_total(
    drone_queries,
    drone_indices,
    sat_queries,
    sat_indices,
    mem_d: np.ndarray,
    mem_s: np.ndarray,
    config: TrainConfig,
    forced_s=None,
) -> NeighborhoodLoss:
    """Sum of the four directional losses, each batch-averaged.

    drone_indices / sat_indices are each query's own row in its view's
    instance memory (used for intra-view self-exclusion); a negative index
    marks a query that is not a memory row, so nothing is excluded.
    forced_s, when given, is a (satellite queries x drone memory rows)
    boolean mask: a true entry [i, u] force-includes drone row u into
    satellite query i's cross-view threshold set, which is how refined
    pseudo-labels feed back into training.
    """
    total = 0.0
    grads = []
    for view, queries, own, intra, cross, forced in (
        ("drone", drone_queries, drone_indices, mem_d, mem_s, None),
        ("satellite", sat_queries, sat_indices, mem_s, mem_d, forced_s),
    ):
        queries = as_matrix(queries, f"{view} queries")
        b = queries.shape[0]
        own = as_int_ids(own, "{count} memory indices: need one integer each for {rows} query rows", b)
        if b == 0:
            grads.append(np.zeros_like(queries))
            continue
        if own.max() >= intra.shape[0]:
            raise ValueError(f"{view} memory index {own.max()} out of range for {intra.shape[0]} rows")
        v_intra, g_intra = _direction_batch(queries, intra, config, own, None)
        v_cross, g_cross = _direction_batch(queries, cross, config, np.full(b, -1), forced)
        total += float((v_intra + v_cross).sum()) / b
        grads.append((g_intra + g_cross) / b)
    return NeighborhoodLoss(value=float(total), grads=grads)
