"""Dual-rate centroid banks: a responsive short-term bank, a damped
long-term bank, and their weighted fusion used as contrastive targets.

Update order inside a minibatch: the adaptive coefficient beta is computed
from the long-term bank as it stood before any of this minibatch's
updates, the short-term bank blends toward that same pre-update long-term
state, then each long-term row absorbs its queries one after another in
batch order, and the fused bank is rebuilt from the refreshed pair. The
updates take the batch's P distinct clusters (Z queries each,
cluster-major); beta and the losses take the per-query ids.
``kernels.blend_chain`` runs the long-term updates on one gathered block
of the P rows, the t-th query of every cluster in one in-place step.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .cluster_memory import bank_contrastive_rows
from .config import TrainConfig
from .errors import DegenerateInputError
from .numcore import as_matrix, l2_normalize_rows, row_norms


@dataclass
class DualMemory:
    short_term: np.ndarray
    long_term: np.ndarray
    fused: np.ndarray

    @property
    def num_clusters(self) -> int:
        return self.long_term.shape[0]


def init_dual(centroids, config: TrainConfig) -> DualMemory:
    """Both banks start at this epoch's centroids; fused is their blend."""
    centroids = as_matrix(centroids, "centroids")
    if centroids.shape[0] < 1:
        raise ValueError("cannot initialize dual memory with an empty centroid set")
    dm = DualMemory(
        short_term=centroids.copy(),
        long_term=centroids.copy(),
        fused=np.empty_like(centroids),
    )
    refresh_fused(dm, config)
    return dm


def _long_term_weights(config: TrainConfig) -> tuple[float, float]:
    # damped: history and input weights sum to 0.5 on purpose; the row is
    # renormalized afterwards. normalized: same ratio rescaled to sum 1.
    hist = 0.5 - config.momentum
    new = config.momentum
    if config.update_rule == "normalized":
        hist, new = hist / 0.5, new / 0.5
    return hist, new


def update_long_term_batch(dm: DualMemory, queries, clusters, config: TrainConfig) -> DualMemory:
    """Z queries for each of the P distinct ``clusters``, cluster-major."""
    hist, new = _long_term_weights(config)
    kernels.blend_chain(dm.long_term, as_matrix(queries, "queries"), clusters, hist, new, True)
    return dm


def compute_beta(batch_queries, dm: DualMemory, cluster_ids) -> float:
    """Adaptive coefficient 1 / (1 + exp(-d)), d the mean query-to-long-term
    distance; d >= 0, so exp(-d) cannot overflow."""
    batch_queries = as_matrix(batch_queries, "queries")
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    if batch_queries.shape[0] == 0:
        raise ValueError("empty batch")
    if cluster_ids.shape != batch_queries.shape[:1]:
        raise ValueError(f"{cluster_ids.size} cluster ids for {batch_queries.shape[0]} query rows")
    if cluster_ids.min() < 0 or cluster_ids.max() >= dm.num_clusters:
        raise ValueError("cluster id out of range")
    diffs = batch_queries - dm.long_term[cluster_ids]
    mean_dist = float(row_norms(diffs).mean())
    return float(1.0 / (1.0 + np.exp(-mean_dist)))


def update_short_term(dm: DualMemory, beta: float, clusters) -> DualMemory:
    """Blend the short-term rows of the batch's distinct clusters toward the
    long-term bank."""
    ids = np.asarray(clusters, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= dm.num_clusters):
        raise ValueError("cluster id out of range")
    blended = beta * dm.long_term[ids] + (1.0 - beta) * dm.short_term[ids]
    dm.short_term[ids] = _normalized(blended, "short-term", ids)
    return dm


def refresh_fused(dm: DualMemory, config: TrainConfig) -> DualMemory:
    fused = config.long_weight * dm.long_term + config.short_weight * dm.short_term
    dm.fused = _normalized(fused, "fused", range(dm.num_clusters))
    return dm


def _normalized(rows: np.ndarray, bank: str, clusters) -> np.ndarray:
    """``l2_normalize_rows`` of the bank rows of ``clusters``; a collapsed
    row is a DegenerateInputError naming the bank and the cluster."""
    try:
        return l2_normalize_rows(rows)
    except DegenerateInputError:
        bad = clusters[int(np.flatnonzero(row_norms(rows) == 0.0)[0])]
        raise DegenerateInputError(f"{bank} bank row of cluster {bad} collapsed to zero norm") from None


def fused_bank_loss(queries, dm: DualMemory, positive_ids, temperature: float):
    """Contrastive loss of each query row against the fused bank: the
    per-row losses and the per-row gradients."""
    return bank_contrastive_rows(queries, dm.fused, positive_ids, temperature)
