"""Density-based pseudo-labeling under cosine distance.

Pseudo-labels are regenerated from scratch at the start of every epoch.
Determinism rules: cluster ids follow the order of the first core point
index, and border points reachable from several clusters go to the
cluster of their lowest-indexed core neighbor. ``PseudoLabels`` groups
its rows once, and the sampler and ``compute_centroids`` both read that.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .numcore import as_int_ids, as_matrix, l2_normalize_rows, pairwise_sim

NOISE = -1
BLOCK_ROWS = 64  # rows of the eps-graph built per similarity product


@dataclass
class DbscanParams:
    """eps is a cosine-distance threshold (1 - cosine similarity)."""

    eps: float
    min_pts: int

    def validate(self) -> None:
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")


@dataclass
class PseudoLabels:
    """Per-instance integer assignment; -1 marks noise. The labels are fixed
    once built: one stable argsort groups the rows (noise first, then cluster
    0, 1, ...) into ``order``, where cluster k's rows, ascending, are
    ``order[starts[k] : starts[k] + sizes[k]]``. All three are read-only."""

    labels: np.ndarray
    num_clusters: int

    def __post_init__(self):
        self.labels = as_int_ids(self.labels, "labels must be integer cluster ids")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        lo, hi = self.labels.min(initial=NOISE), self.labels.max(initial=NOISE)
        if lo < NOISE or hi >= self.num_clusters:
            raise ValueError(f"labels out of range [-1, {self.num_clusters - 1}]: min {lo}, max {hi}")
        counts = np.bincount(self.labels - NOISE, minlength=self.num_clusters + 1)
        if np.count_nonzero(counts[1:]) != self.num_clusters:
            raise ValueError("every cluster id must have at least one member")
        self.order = np.argsort(self.labels, kind="stable")
        self.starts = np.cumsum(counts)[:-1]
        self.sizes = counts[1:]
        for grouping in (self.order, self.starts, self.sizes):
            grouping.flags.writeable = False

    def members(self, k: int) -> np.ndarray:
        if not 0 <= k < self.num_clusters:
            raise ValueError(f"cluster id {k} out of range [0, {self.num_clusters})")
        return self.order[self.starts[k] : self.starts[k] + self.sizes[k]]


def dbscan(features, params: DbscanParams) -> PseudoLabels:
    """Core/border/noise semantics with deterministic cluster numbering.

    The point itself counts toward min_pts, matching the usual convention.
    """
    params.validate()
    features = as_matrix(features, "features")
    n = features.shape[0]
    if n < 1:
        raise ValueError("dbscan needs at least one row")
    counts = np.empty(n, dtype=np.int64)
    cols = []
    # the eps-graph goes straight into CSR one block of rows at a time, so
    # no n x n matrix is ever held
    for start in range(0, n, BLOCK_ROWS):
        adjacency = 1.0 - pairwise_sim(features[start : start + BLOCK_ROWS], features) <= params.eps
        counts[start : start + BLOCK_ROWS] = adjacency.sum(axis=1)
        cols.append(np.nonzero(adjacency)[1])
    core = counts >= params.min_pts
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    labels = kernels.expand_clusters(indptr, np.concatenate(cols), core)
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
    present = np.flatnonzero(np.bincount(collapsed[collapsed >= 0]))
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
        centroids[k] = features[labels.members(k)].mean(axis=0)
    return l2_normalize_rows(centroids)

