"""Dual-rate centroid banks: a responsive short-term bank, a damped
long-term bank, and their weighted fusion used as contrastive targets.

Update order inside a minibatch: the adaptive coefficient beta is computed
from the long-term bank as it stood before any of this minibatch's
updates, the short-term bank blends toward that same pre-update long-term
state, then the long-term bank absorbs the queries one by one, and the
fused bank is rebuilt from the refreshed pair.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .cluster_memory import bank_contrastive_rows
from .errors import ConfigError
from .numcore import as_matrix, l2_normalize_rows, sigmoid

UPDATE_RULES = ("damped", "normalized")


@dataclass
class DualMemory:
    short_term: np.ndarray
    long_term: np.ndarray
    fused: np.ndarray
    long_weight: float = 0.5
    short_weight: float = 0.5
    momentum: float = 0.2
    update_rule: str = "damped"

    @property
    def num_clusters(self) -> int:
        return self.long_term.shape[0]


def init_dual(
    centroids,
    momentum: float = 0.2,
    long_weight: float = 0.5,
    short_weight: float = 0.5,
    update_rule: str = "damped",
) -> DualMemory:
    """Both banks start at this epoch's centroids; fused is their blend."""
    centroids = as_matrix(centroids, "centroids")
    if centroids.shape[0] < 1:
        raise ValueError("cannot initialize dual memory with an empty centroid set")
    if update_rule not in UPDATE_RULES:
        raise ConfigError(f"update_rule must be one of {UPDATE_RULES}, got {update_rule!r}")
    if update_rule == "damped" and momentum >= 0.5:
        raise ConfigError(
            f"damped rule needs momentum < 0.5 (history weight 0.5 - momentum), got {momentum}"
        )
    if long_weight < 0.0 or short_weight < 0.0:
        raise ConfigError("fusion weights must be non-negative")
    dm = DualMemory(
        short_term=centroids.copy(),
        long_term=centroids.copy(),
        fused=np.empty_like(centroids),
        long_weight=long_weight,
        short_weight=short_weight,
        momentum=momentum,
        update_rule=update_rule,
    )
    refresh_fused(dm)
    return dm


def _long_term_weights(dm: DualMemory) -> tuple[float, float]:
    # damped: history and input weights sum to 0.5 on purpose; the row is
    # renormalized afterwards. normalized: same ratio rescaled to sum 1.
    hist = 0.5 - dm.momentum
    new = dm.momentum
    if dm.update_rule == "normalized":
        hist, new = hist / 0.5, new / 0.5
    return hist, new


def update_long_term_batch(dm: DualMemory, cluster_ids, queries) -> DualMemory:
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    if cluster_ids.size and (cluster_ids.min() < 0 or cluster_ids.max() >= dm.num_clusters):
        raise ValueError("cluster id out of range")
    hist, new = _long_term_weights(dm)
    kernels.blend_chain(dm.long_term, cluster_ids, as_matrix(queries, "queries"), hist, new, True)
    return dm


def compute_beta(batch_queries, dm: DualMemory, cluster_ids) -> float:
    """Adaptive coefficient: sigmoid of the mean query-to-long-term distance."""
    batch_queries = as_matrix(batch_queries, "queries")
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    if batch_queries.shape[0] == 0:
        raise ValueError("empty batch")
    if cluster_ids.min() < 0 or cluster_ids.max() >= dm.num_clusters:
        raise ValueError("cluster id out of range")
    diffs = batch_queries - dm.long_term[cluster_ids]
    mean_dist = float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs)).mean())
    return float(sigmoid(mean_dist))


def update_short_term(dm: DualMemory, beta: float, clusters_in_batch) -> DualMemory:
    """Blend batch-present short-term rows toward the long-term bank."""
    ids = np.unique(np.asarray(clusters_in_batch, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= dm.num_clusters):
        raise ValueError("cluster id out of range")
    blended = beta * dm.long_term[ids] + (1.0 - beta) * dm.short_term[ids]
    dm.short_term[ids] = l2_normalize_rows(blended)
    return dm


def refresh_fused(dm: DualMemory) -> DualMemory:
    if dm.long_weight == 0.0 and dm.short_weight == 0.0:
        raise ConfigError("fusion weights cannot both be zero")
    dm.fused = l2_normalize_rows(
        dm.long_weight * dm.long_term + dm.short_weight * dm.short_term
    )
    return dm


def fused_bank_loss(queries, dm: DualMemory, positive_ids, temperature: float):
    """Contrastive loss of each query row against the fused bank: the
    per-row losses and the per-row gradients."""
    return bank_contrastive_rows(queries, dm.fused, positive_ids, temperature)
