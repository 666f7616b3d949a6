"""Perturbation-vote refinement of cross-view pseudo-labels.

Satellite instances get a drone-cluster label in four steps: perturb both
views with Gaussian noise, rank the drone gallery for each satellite
instance on original and perturbed features independently, vote on the
label whose agreement count between the two rankings is largest, then
score each label by the votes of the instances that rank highest in the
instance's row of the summed original+perturbed similarity matrix.

Refinement runs once per epoch on frozen features and is consumed only as
an augmentation of the cross-view threshold neighborhoods; intra-view
clustering labels stay untouched.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import NOISE, PseudoLabels
from .config import TrainConfig
from .numcore import Rng, as_int_ids, as_matrix, l2_normalize_rows, pairwise_sim, top_k_indices


@dataclass
class RefinedLabels:
    """Soft score matrix (satellite x drone-cluster) and its row argmaxes."""

    scores: np.ndarray
    hard: np.ndarray


def perturb(features, noise_std: float, rng: Rng) -> np.ndarray:
    """Add elementwise Gaussian noise, then renormalize rows."""
    features = as_matrix(features, "features")
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
    sims = pairwise_sim(sat_feats, np.asarray(drone_feats)[gallery])
    return drone_labels.labels[gallery][top_k_indices(sims, depth)]


def consistency_vote(list_orig, list_pert) -> np.ndarray:
    """Per instance: the label with the largest agreement count between the
    two ranked lists (multiset intersection), ties to the smaller label id,
    falling back to the original list's top label when nothing agrees."""
    list_orig = as_int_ids(list_orig, "ranked labels must be integer cluster ids")
    list_pert = as_int_ids(list_pert, "ranked labels must be integer cluster ids")
    if list_orig.shape != list_pert.shape:
        raise ValueError("ranked label lists must have matching shapes")
    m, depth = list_orig.shape
    if m == 0:
        return np.empty(0, dtype=np.int64)
    # number the labels 0..u-1 in ascending order, so any integer ids work
    values, codes = np.unique(np.stack([list_orig, list_pert]), return_inverse=True)
    u = values.size
    # counts[v, i, c]: how often label c occurs in row i of list v
    slots = np.arange(2 * m).reshape(2, m, 1) * u + codes.reshape(2, m, depth)
    counts = np.bincount(slots.ravel(), minlength=2 * m * u).reshape(2, m, u)
    agree = counts.min(axis=0)
    best = agree.argmax(axis=1)  # the first maximum is the smallest label
    agreed = agree[np.arange(m), best] > 0
    return np.where(agreed, values[best], list_orig[:, 0])


def smooth_labels(sat_feats, sat_feats_pert, votes, num_classes: int, keep: int) -> RefinedLabels:
    """Spread the votes along the strongest intra-view similarities.

    The original and perturbed satellite-satellite similarity matrices are
    summed; per row the ``keep`` largest entries are kept (the self entry
    competes like any other), and scores[i, c] counts the kept rows of row
    i that voted c. Hard labels are row argmaxes, lowest index winning ties.
    """
    votes = as_int_ids(votes, "vote out of range for {bound} classes", None, num_classes)
    combined = pairwise_sim(sat_feats, sat_feats) + pairwise_sim(sat_feats_pert, sat_feats_pert)
    m = combined.shape[0]
    if votes.size != m:
        raise ValueError("votes must match satellite count")
    if keep > m:
        warnings.warn(f"smoothing keep clamped from {keep} to {m} rows", stacklevel=2)
        keep = m
    scores = np.zeros((m, num_classes))
    if m:
        # each of row i's kept rows adds one to row i's score of its vote
        np.add.at(scores, (np.arange(m)[:, None], votes[top_k_indices(combined, keep)]), 1.0)
    hard = scores.argmax(axis=1).astype(np.int64)
    return RefinedLabels(scores=scores, hard=hard)


def refine_labels(
    sat_feats, drone_feats, drone_labels: PseudoLabels, config: TrainConfig, rng: Rng
) -> RefinedLabels:
    """Full refinement pipeline: perturb, rank, vote, smooth. The noise of
    the two views comes from ``rng.derive(1)`` and ``rng.derive(2)``."""
    sat_feats = as_matrix(sat_feats, "satellite features")
    drone_feats = as_matrix(drone_feats, "drone features")
    sat_pert = perturb(sat_feats, config.perturb_std, rng.derive(1))
    drone_pert = perturb(drone_feats, config.perturb_std, rng.derive(2))
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
    return smooth_labels(
        sat_feats, sat_pert, voted, drone_labels.num_clusters, keep=config.smoothing_keep
    )


def refinement_agreement(refined_hard, drone_labels: PseudoLabels, drone_loc, sat_loc) -> float:
    """Fraction of satellite instances whose refined label equals the
    dominant drone cluster of their true location. Locations whose drone
    instances are all noise count as disagreement."""
    refined_hard = as_int_ids(refined_hard, "refined labels must be integer cluster ids")
    drone_loc = as_int_ids(drone_loc, "drone labels must be integer location ids")
    sat_loc = as_int_ids(sat_loc, "satellite labels must be integer location ids")
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
