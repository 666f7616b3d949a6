"""Density-based pseudo-labeling under cosine distance.

Pseudo-labels are regenerated from scratch at the start of every epoch.
Determinism rules: cluster ids follow the order of the first core point
index, and border points reachable from several clusters go to the
cluster of their lowest-indexed core neighbor.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .numcore import as_matrix, l2_normalize_rows, pairwise_sim

NOISE = -1


@dataclass
class DbscanParams:
    """eps is a cosine-distance threshold (1 - cosine similarity)."""

    eps: float = 0.4
    min_pts: int = 4

    def validate(self) -> None:
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")


@dataclass
class PseudoLabels:
    """Per-instance integer assignment; -1 marks noise."""

    labels: np.ndarray
    num_clusters: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        lo = self.labels.min(initial=NOISE)
        hi = self.labels.max(initial=NOISE)
        if lo < NOISE or hi >= self.num_clusters:
            raise ValueError(
                f"labels out of range [-1, {self.num_clusters - 1}]: min {lo}, max {hi}"
            )
        present = np.unique(self.labels[self.labels >= 0])
        if present.size != self.num_clusters:
            raise ValueError("every cluster id must have at least one member")

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)


def dbscan(features, params: DbscanParams) -> PseudoLabels:
    """Core/border/noise semantics with deterministic cluster numbering.

    The point itself counts toward min_pts, matching the usual convention.
    """
    params.validate()
    features = as_matrix(features, "features")
    if features.shape[0] < 1:
        raise ValueError("dbscan needs at least one row")
    dist = pairwise_sim(features, features)
    np.subtract(1.0, dist, out=dist)  # in place: no second n x n matrix
    adjacency = dist <= params.eps
    neighbor_counts = adjacency.sum(axis=1)
    core = neighbor_counts >= params.min_pts
    rows, cols = np.nonzero(adjacency)
    indptr = np.zeros(features.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=features.shape[0]), out=indptr[1:])
    labels = kernels.expand_clusters(indptr, cols, core)
    num = int(labels.max(initial=NOISE)) + 1
    return PseudoLabels(labels=labels, num_clusters=num)


def replicate_features(features, factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Repeat each row ``factor`` times contiguously.

    Returns the replicated matrix and an index map from replicated row to
    original row. The trainer does not cluster replicated rows: it runs
    ``dbscan`` on the originals with ``min_pts`` divided by ``factor``,
    rounded up. This and ``collapse_replica_labels`` are the reference that
    shortcut is tested against.
    """
    if factor < 1:
        raise ValueError(f"replication factor must be >= 1, got {factor}")
    features = as_matrix(features, "features")
    replicated = np.repeat(features, factor, axis=0)
    index_map = np.repeat(np.arange(features.shape[0], dtype=np.int64), factor)
    return replicated, index_map


def collapse_replica_labels(labels: PseudoLabels, index_map, n_originals: int) -> PseudoLabels:
    """Map labels computed on replicated rows back to the originals.

    Replicas of one original are identical rows, so they always land in the
    same cluster; the first replica's label is taken. Cluster ids are
    renumbered densely in order; when every replica is noise the result is
    all noise with no clusters. Reference for the trainer's shortcut (see
    ``replicate_features``).
    """
    index_map = np.asarray(index_map, dtype=np.int64)
    first = np.full(n_originals, -2, dtype=np.int64)
    for pos in range(index_map.size - 1, -1, -1):
        first[index_map[pos]] = pos
    if np.any(first < 0):
        raise ValueError("index map does not cover every original row")
    collapsed = labels.labels[first]
    present = np.unique(collapsed[collapsed >= 0])
    # a label's rank among the sorted present ids is its new id
    out = np.where(collapsed >= 0, np.searchsorted(present, collapsed), NOISE)
    return PseudoLabels(labels=out, num_clusters=int(present.size))


def compute_centroids(features, labels: PseudoLabels) -> np.ndarray:
    """Unit-normalized mean of each cluster's member rows; noise excluded."""
    features = as_matrix(features, "features")
    if labels.labels.shape[0] != features.shape[0]:
        raise ValueError("labels do not match feature rows")
    centroids = np.empty((labels.num_clusters, features.shape[1]))
    for k in range(labels.num_clusters):
        members = labels.members(k)
        if members.size == 0:
            raise ValueError(f"cluster {k} has no members")
        centroids[k] = features[members].mean(axis=0)
    return l2_normalize_rows(centroids)

