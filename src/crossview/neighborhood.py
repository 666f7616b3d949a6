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
with similarity 1.

Training calls ``neighborhood_total``, which scores a whole minibatch per
direction: one batch x memory similarity product, then the three sets as
flat (query, row) pairs and the softmaxes on those few pairs only. Top-k
ties go to the lower index: a query's expanded set is every row above its
k-th largest similarity (found by partition) plus, up to k, the rows equal
to it in index order. ``tests/reference.py`` computes the same sets and
losses one query at a time; it is the reference the batch path is tested
against.
"""

import warnings
from dataclasses import dataclass

import numpy as np

# top_k_indices is unused here but stays importable from this module:
# perfbench/tracer.py wraps it by name.
from .numcore import as_matrix, top_k_indices  # noqa: F401

__all__ = [
    "InstanceMemory",
    "NeighborWeights",
    "build_instance_memory",
    "neighborhood_total",
]

_UNIT_TOL = 1e-9


@dataclass
class InstanceMemory:
    """Frozen per-instance embedding bank; row i is instance i all epoch."""

    features: np.ndarray
    view: str

    @property
    def size(self) -> int:
        return self.features.shape[0]


def build_instance_memory(embeddings, view: str) -> InstanceMemory:
    embeddings = as_matrix(embeddings, "embeddings").copy()
    if embeddings.shape[0] == 0:
        raise ValueError("cannot build an empty instance memory")
    norms = np.sqrt(np.einsum("ij,ij->i", embeddings, embeddings))
    if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
        raise ValueError("instance memory rows must be unit-norm")
    return InstanceMemory(features=embeddings, view=view)


def _check_ks(k_strict, k_expanded, pool) -> None:
    if not 1 <= k_strict <= k_expanded <= pool:
        raise ValueError(
            f"need 1 <= k_strict <= k_expanded <= {pool}, got {k_strict}, {k_expanded}"
        )


@dataclass
class NeighborWeights:
    threshold_ratio: float = 0.8
    k_strict: int = 5
    k_expanded: int = 20
    mutual_weight: float = 1.0
    consistency_weight: float = 1.0
    temperature: float = 0.05

    def validate(self) -> None:
        if not 0.0 < self.threshold_ratio < 1.0:
            raise ValueError("threshold_ratio must be in (0, 1)")
        if not 1 <= self.k_strict <= self.k_expanded:
            raise ValueError("need 1 <= k_strict <= k_expanded")
        if self.mutual_weight < 0.0 or self.consistency_weight < 0.0:
            raise ValueError("loss weights must be non-negative")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")


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


def _direction_batch(queries, mem: InstanceMemory, weights: NeighborWeights, own, extra):
    """Alignment + mutual-information + consistency losses of one direction,
    for every query of a batch at once.

    own[i] >= 0 excludes memory row own[i] from query i's candidate pools;
    extra[i], when given, lists memory rows force-included into query i's
    threshold set. Returns per-query loss values and query gradients; the
    selections and formulas are those of the per-query functions in
    ``tests/reference.py``.

    After the one batch x memory similarity product, only the selected
    (query, row) pairs are scored. A query's expanded set is every row above
    its k-th largest similarity, taken from one partition, plus the rows
    equal to that value in index order up to k, so a tie at the cut goes to
    the lower index. Its strict set is the first k_strict of those by
    similarity descending, then index ascending. The softmax terms run on
    flat pairs with per-query sums; their gradient is scattered into one
    batch x memory matrix for the chain through the memory rows.
    """
    b, n = queries.shape[0], mem.size
    norms = np.sqrt(np.einsum("ij,ij->i", queries, queries))
    if np.any(norms == 0.0):
        raise ValueError("zero-norm query")
    q_hat = queries / norms[:, None]
    sims = q_hat @ mem.features.T
    selves = np.flatnonzero(own >= 0)
    # no set below ever picks an excluded entry, so sims carries the exclusion
    sims[selves, own[selves]] = -np.inf

    omega = sims > weights.threshold_ratio * sims.max(axis=1, keepdims=True)
    if extra is not None:
        sizes = [0 if forced is None else len(forced) for forced in extra]
        if sum(sizes):
            forced = np.concatenate([f for f, size in zip(extra, sizes) if size])
            omega[np.repeat(np.arange(b), sizes), forced] = True
        omega[selves, own[selves]] = False

    k_expanded = weights.k_expanded
    pool = n - (own >= 0)
    if k_expanded > pool.min():
        warnings.warn(
            f"expanded neighborhood clamped from {k_expanded} to {int(pool.min())} available rows",
            stacklevel=2,
        )
    k2 = np.minimum(k_expanded, pool)
    k1 = np.minimum(weights.k_strict, k2)
    _check_ks(int(k1.min()), int(k2.min()), int(pool.min()))
    # each row's k2-th largest similarity; k2 differs per row when the clamp bites
    cut = np.partition(sims, np.unique(n - k2), axis=1)[np.arange(b), n - k2][:, None]
    expanded = sims >= cut
    wide = np.flatnonzero(expanded)
    if wide.size > k2.sum():
        # more rows tie at the cut than fit: keep the lowest-indexed ones
        tied = sims == cut
        room = k2 - np.count_nonzero(sims > cut, axis=1)
        expanded &= ~tied | (np.cumsum(tied, axis=1) <= room[:, None])
        wide = np.flatnonzero(expanded)

    # each set as flat indices into the b x n matrix, grouped by row
    flat = sims.reshape(-1)
    wide_rows = wide // n
    # each row's block best first, ties in index order; its first k1 are the strict set
    order = np.lexsort((-flat[wide], wide_rows))
    rank = np.arange(wide.size) - (np.cumsum(k2) - k2)[wide_rows]
    strict = wide[order[rank < k1[wide_rows]]]
    thresh = np.flatnonzero(omega)

    # alignment: sum over omega of -log p of the tempered softmax
    t = weights.temperature
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
    for pairs, weight in ((strict, -weights.mutual_weight), (wide, weights.consistency_weight)):
        rows, s = pairs // n, flat[pairs]
        logp, p, size = _pair_log_softmax(rows, s, b)
        entropy = np.bincount(rows, p * logp, minlength=b)
        value += weight * (entropy + np.log(size))
        g = weight * p * (logp - entropy[rows])
        grad_s[pairs] += g
        along += np.bincount(rows, g * s, minlength=b)
    # d cos(q, f_u) / dq = (f_u - cos * q_hat) / |q|, summed over every picked u
    grads = (grad_s.reshape(b, n) @ mem.features - along[:, None] * q_hat) / norms[:, None]
    return value, grads


@dataclass
class NeighborhoodLoss:
    value: float
    drone_grads: np.ndarray
    sat_grads: np.ndarray


def neighborhood_total(
    drone_queries,
    drone_indices,
    sat_queries,
    sat_indices,
    mem_d: InstanceMemory,
    mem_s: InstanceMemory,
    weights: NeighborWeights,
    extra_cross_d=None,
    extra_cross_s=None,
) -> NeighborhoodLoss:
    """Sum of the four directional losses, each batch-averaged.

    drone_indices / sat_indices are each query's own row in its view's
    instance memory (used for intra-view self-exclusion); a negative index
    marks a query that is not a memory row, so nothing is excluded.
    extra_cross_d[i] optionally lists satellite rows force-included into
    drone query i's cross-view threshold set (and symmetrically for
    extra_cross_s), which is how refined pseudo-labels feed back into
    training.
    """
    weights.validate()
    drone_queries = as_matrix(drone_queries, "drone queries")
    sat_queries = as_matrix(sat_queries, "satellite queries")
    drone_indices = np.asarray(drone_indices, dtype=np.int64)
    sat_indices = np.asarray(sat_indices, dtype=np.int64)
    gd = np.zeros_like(drone_queries)
    gs = np.zeros_like(sat_queries)
    total = 0.0
    for queries, own, grads, intra, cross, extra in (
        (drone_queries, drone_indices, gd, mem_d, mem_s, extra_cross_d),
        (sat_queries, sat_indices, gs, mem_s, mem_d, extra_cross_s),
    ):
        b = queries.shape[0]
        if b == 0:
            continue
        v_intra, g_intra = _direction_batch(queries, intra, weights, own, None)
        v_cross, g_cross = _direction_batch(queries, cross, weights, np.full(b, -1), extra)
        total += float((v_intra + v_cross).sum()) / b
        grads[:] = (g_intra + g_cross) / b
    return NeighborhoodLoss(value=float(total), drone_grads=gd, sat_grads=gs)
