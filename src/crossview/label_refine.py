"""Perturbation-vote refinement of cross-view pseudo-labels.

Satellite instances get a drone-cluster label in four steps: perturb both
views with Gaussian noise, rank the drone gallery for each satellite
instance on original and perturbed features independently, vote on the
label whose agreement count between the two rankings is largest, then
smooth the one-hot votes with a binary intra-view similarity mask that
keeps the top entries of the summed original+perturbed similarity matrix.

Refinement runs once per epoch on frozen features and is consumed only as
an augmentation of the cross-view threshold neighborhoods; intra-view
clustering labels stay untouched.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import NOISE, PseudoLabels
from .numcore import Rng, as_matrix, l2_normalize_rows, pairwise_sim, top_k_indices


@dataclass
class PerturbConfig:
    noise_std: float = 0.01
    rank_depth: int = 10
    smoothing_keep: int = 5
    seed: int = 0

    def validate(self) -> None:
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")
        if self.rank_depth < 1:
            raise ValueError("rank_depth must be >= 1")
        if self.smoothing_keep < 1:
            raise ValueError("smoothing_keep must be >= 1")


@dataclass
class RefinedLabels:
    """Soft score matrix (satellite x drone-cluster) and its row argmaxes."""

    scores: np.ndarray
    hard: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.scores.shape[1]


def perturb(features, noise_std: float, rng: Rng) -> np.ndarray:
    """Add elementwise Gaussian noise, then renormalize rows."""
    features = as_matrix(features, "features")
    if noise_std < 0.0:
        raise ValueError("noise_std must be >= 0")
    if noise_std == 0.0:
        return features.copy()
    noisy = features + rng.normal(features.shape, scale=noise_std)
    return l2_normalize_rows(noisy)


def rank_label_lists(sat_feats, drone_feats, drone_labels: PseudoLabels, depth: int) -> np.ndarray:
    """Labels of each satellite instance's top-ranked drone gallery items.

    Noise-labeled drone instances are excluded from the gallery. Returns an
    (M x depth) integer matrix; row m holds the pseudo-labels of the depth
    most similar gallery instances, best first, ties by lower index.
    """
    gallery = np.flatnonzero(drone_labels.labels != NOISE)
    if gallery.size == 0:
        raise ValueError("drone gallery is empty after removing noise")
    if depth > gallery.size:
        raise ValueError(f"rank depth {depth} exceeds gallery size {gallery.size}")
    sims = pairwise_sim(sat_feats, np.asarray(drone_feats)[gallery])
    out = np.empty((sims.shape[0], depth), dtype=np.int64)
    labels = drone_labels.labels[gallery]
    for m in range(sims.shape[0]):
        out[m] = labels[top_k_indices(sims[m], depth)]
    return out


def consistency_vote(list_orig, list_pert) -> np.ndarray:
    """Per instance: the label with the largest agreement count between the
    two ranked lists (multiset intersection), ties to the smaller label id,
    falling back to the original list's top label when nothing agrees."""
    list_orig = np.asarray(list_orig, dtype=np.int64)
    list_pert = np.asarray(list_pert, dtype=np.int64)
    if list_orig.shape != list_pert.shape:
        raise ValueError("ranked label lists must have matching shapes")
    m, _ = list_orig.shape
    refined = np.empty(m, dtype=np.int64)
    for i in range(m):
        labels = np.unique(np.concatenate([list_orig[i], list_pert[i]]))
        best_label = -1
        best_count = 0
        for lab in labels:
            count = min(
                int(np.sum(list_orig[i] == lab)), int(np.sum(list_pert[i] == lab))
            )
            if count > best_count:
                best_count = count
                best_label = int(lab)
        refined[i] = best_label if best_count > 0 else int(list_orig[i, 0])
    return refined


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range for one-hot encoding")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def smooth_labels(sat_feats, sat_feats_pert, refined_one_hot, keep: int = 5) -> RefinedLabels:
    """Spread one-hot votes along the strongest intra-view similarities.

    The original and perturbed satellite-satellite similarity matrices are
    summed; per row the ``keep`` largest entries become 1 (the self entry
    competes like any other) and the binary mask multiplies the one-hot
    matrix. Hard labels are row argmaxes, lowest index winning ties.
    """
    refined_one_hot = as_matrix(refined_one_hot, "refined one-hot")
    combined = pairwise_sim(sat_feats, sat_feats) + pairwise_sim(sat_feats_pert, sat_feats_pert)
    m = combined.shape[0]
    if refined_one_hot.shape[0] != m:
        raise ValueError("one-hot rows must match satellite count")
    if keep > m:
        warnings.warn(f"smoothing keep clamped from {keep} to {m} rows", stacklevel=2)
        keep = m
    mask = np.zeros_like(combined)
    for i in range(m):
        mask[i, top_k_indices(combined[i], keep)] = 1.0
    scores = mask @ refined_one_hot
    hard = scores.argmax(axis=1).astype(np.int64)
    return RefinedLabels(scores=scores, hard=hard)


def refine_labels(
    sat_feats, drone_feats, drone_labels: PseudoLabels, config: PerturbConfig
) -> RefinedLabels:
    """Full refinement pipeline: perturb, rank, vote, smooth."""
    config.validate()
    sat_feats = as_matrix(sat_feats, "satellite features")
    drone_feats = as_matrix(drone_feats, "drone features")
    rng = Rng(config.seed)
    sat_pert = perturb(sat_feats, config.noise_std, rng.derive(1))
    drone_pert = perturb(drone_feats, config.noise_std, rng.derive(2))
    gallery_size = int(np.sum(drone_labels.labels != NOISE))
    depth = config.rank_depth
    if depth > gallery_size:
        warnings.warn(
            f"rank depth clamped from {depth} to gallery size {gallery_size}", stacklevel=2
        )
        depth = gallery_size
    lists_orig = rank_label_lists(sat_feats, drone_feats, drone_labels, depth)
    lists_pert = rank_label_lists(sat_pert, drone_pert, drone_labels, depth)
    voted = consistency_vote(lists_orig, lists_pert)
    encoded = one_hot(voted, drone_labels.num_clusters)
    return smooth_labels(sat_feats, sat_pert, encoded, keep=config.smoothing_keep)


def refinement_agreement(refined_hard, drone_labels: PseudoLabels, drone_loc, sat_loc) -> float:
    """Fraction of satellite instances whose refined label equals the
    dominant drone cluster of their true location. Locations whose drone
    instances are all noise count as disagreement."""
    refined_hard = np.asarray(refined_hard, dtype=np.int64)
    drone_loc = np.asarray(drone_loc, dtype=np.int64)
    sat_loc = np.asarray(sat_loc, dtype=np.int64)
    hits = 0
    for m in range(refined_hard.size):
        member_labels = drone_labels.labels[drone_loc == sat_loc[m]]
        member_labels = member_labels[member_labels != NOISE]
        if member_labels.size == 0:
            continue
        counts = np.bincount(member_labels)
        if refined_hard[m] == int(counts.argmax()):
            hits += 1
    return hits / refined_hard.size if refined_hard.size else 0.0
