"""Per-view centroid banks with momentum updates and the cross-view
contrastive objective.

Loss values inside a minibatch are always computed against the bank state
at minibatch start; the sequential per-query momentum updates are applied
afterwards, in batch index order. Centroid banks are treated as constants
when differentiating, so gradients flow only into the query embeddings.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .numcore import as_matrix

DRONE = "drone"
SATELLITE = "satellite"


@dataclass
class ClusterMemory:
    centroids: np.ndarray
    view: str
    momentum: float = 0.2
    renormalize: bool = True

    @property
    def num_clusters(self) -> int:
        return self.centroids.shape[0]


def init_memory(centroids, view: str, momentum: float = 0.2, renormalize: bool = True) -> ClusterMemory:
    """Snapshot this epoch's centroids into a fresh bank."""
    centroids = as_matrix(centroids, "centroids").copy()
    if centroids.shape[0] < 1:
        raise ValueError("cannot initialize memory with an empty centroid set")
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
    return ClusterMemory(centroids=centroids, view=view, momentum=momentum, renormalize=renormalize)


def momentum_update_batch(mem: ClusterMemory, cluster_ids, queries) -> ClusterMemory:
    """Sequential momentum updates for a whole batch, in index order."""
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    if cluster_ids.size and (cluster_ids.min() < 0 or cluster_ids.max() >= mem.num_clusters):
        raise ValueError("cluster id out of range")
    kernels.blend_chain(
        mem.centroids,
        cluster_ids,
        as_matrix(queries, "queries"),
        mem.momentum,
        1.0 - mem.momentum,
        mem.renormalize,
    )
    return mem


def bank_contrastive_rows(queries, bank, positive_ids, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy of each query row against a fixed bank of
    prototypes.

    Logits are plain dot products scaled by 1/temperature (unit rows make
    them cosines). Returns the per-row losses and their exact per-row
    gradients; the bank is a constant.
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    bank = np.asarray(bank, dtype=np.float64)
    positive_ids = np.asarray(positive_ids, dtype=np.int64)
    if positive_ids.size and (positive_ids.min() < 0 or positive_ids.max() >= bank.shape[0]):
        raise ValueError("positive id out of range")
    rows = np.arange(positive_ids.size)
    logits = queries @ bank.T / temperature
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1))
    losses = lse - shift[rows, positive_ids]
    p = np.exp(shift - lse[:, None])
    p[rows, positive_ids] -= 1.0
    return losses, p @ bank / temperature


@dataclass
class BatchLoss:
    value: float
    drone_grads: np.ndarray
    sat_grads: np.ndarray
    per_view: tuple[float, float] = field(default=(0.0, 0.0))


def batch_loss_cv(
    drone_queries,
    drone_ids,
    sat_queries,
    sat_ids,
    mem_d: ClusterMemory,
    mem_s: ClusterMemory,
    temperature: float,
) -> BatchLoss:
    """Mean drone-view loss plus mean satellite-view loss over the batch.

    Gradients are per query and already carry the 1/batch factors. Queries
    must have a real (non-noise) pseudo-label; noise is excluded upstream.
    """
    drone_queries = as_matrix(drone_queries, "drone queries")
    sat_queries = as_matrix(sat_queries, "satellite queries")
    drone_ids = np.asarray(drone_ids, dtype=np.int64)
    sat_ids = np.asarray(sat_ids, dtype=np.int64)
    if np.any(drone_ids < 0) or np.any(sat_ids < 0):
        raise ValueError("noise-labeled query in contrastive batch")
    parts = []
    grads = []
    for queries, ids, mem in ((drone_queries, drone_ids, mem_d), (sat_queries, sat_ids, mem_s)):
        if queries.shape[0] == 0:
            raise ValueError("empty query batch")
        losses, g = bank_contrastive_rows(queries, mem.centroids, ids, temperature)
        parts.append(float(losses.sum()) / queries.shape[0])
        grads.append(g / queries.shape[0])
    return BatchLoss(
        value=parts[0] + parts[1],
        drone_grads=grads[0],
        sat_grads=grads[1],
        per_view=(parts[0], parts[1]),
    )
