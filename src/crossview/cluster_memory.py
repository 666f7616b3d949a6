"""Per-view centroid banks with momentum updates and the cross-view
contrastive objective.

Loss values inside a minibatch are always computed against the bank state
at minibatch start; the per-query momentum updates are applied afterwards.
A batch is P distinct clusters times Z queries, cluster-major, as the
sampler draws it; ``kernels.blend_chain`` gathers the P rows once and
applies the t-th query of every cluster as one in-place step on that
block, the same bits as one update at a time. Centroid banks are
treated as constants when differentiating, so gradients flow only into
the query embeddings. A bank is a plain (clusters x dim) array.
"""

import numpy as np

from . import kernels
from .config import TrainConfig
from .numcore import as_int_ids, as_matrix


def init_memory(centroids) -> np.ndarray:
    """Snapshot this epoch's centroids into a fresh bank."""
    centroids = as_matrix(centroids, "centroids").copy()
    if centroids.shape[0] < 1:
        raise ValueError("cannot initialize memory with an empty centroid set")
    return centroids


def momentum_update_batch(bank: np.ndarray, queries, clusters, config: TrainConfig) -> np.ndarray:
    """In-place momentum updates, Z queries per distinct cluster, cluster-major."""
    kernels.blend_chain(
        bank,
        as_matrix(queries, "queries"),
        clusters,
        config.momentum,
        1.0 - config.momentum,
        config.renormalize_memory,
    )
    return bank


def bank_contrastive_rows(queries, bank, positive_ids, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy of each query row against a fixed bank of
    prototypes.

    Logits are plain dot products scaled by 1/temperature (unit rows make
    them cosines). Returns the per-row losses and their exact per-row
    gradients; the bank is a constant.

    The logits, their shifted form and the softmax share one batch x bank
    buffer; the log-sum-exp's exponentials are the only other one.
    """
    bank = np.asarray(bank, dtype=np.float64)
    message = "{count} positive ids: need one integer in [0, {bound}) each for {rows} query rows"
    positive_ids = as_int_ids(positive_ids, message, len(queries), bank.shape[0])
    rows = np.arange(positive_ids.size)
    buf = queries @ bank.T
    buf /= temperature
    buf -= buf.max(axis=1, keepdims=True)  # the shifted logits
    lse = np.log(np.exp(buf).sum(axis=1))
    losses = lse - buf[rows, positive_ids]
    buf -= lse[:, None]
    p = np.exp(buf, out=buf)
    p[rows, positive_ids] -= 1.0
    grads = p @ bank
    grads /= temperature
    return losses, grads


def batch_loss_cv(queries, ids, bank: np.ndarray, temperature: float) -> tuple[float, np.ndarray]:
    """Mean loss of one view's queries against its centroid bank, and the
    per-query gradients, which already carry the 1/batch factor. Queries
    must have a real (non-noise) pseudo-label; noise is excluded upstream.
    """
    queries = as_matrix(queries, "queries")
    n = queries.shape[0]
    if n == 0:
        raise ValueError("empty query batch")
    losses, grads = bank_contrastive_rows(queries, bank, ids, temperature)
    grads /= n
    return float(losses.sum()) / n, grads
