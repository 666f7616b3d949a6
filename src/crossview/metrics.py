"""Retrieval evaluation: Recall@K and mean Average Precision.

Gallery rankings are by cosine similarity, descending, ties broken by
lower gallery index.
"""

import numpy as np

from .numcore import pairwise_sim


def rank_gallery(query_emb, gallery_emb) -> np.ndarray:
    """Row i holds gallery indices ranked best-first for query i."""
    sims = pairwise_sim(query_emb, gallery_emb)
    return np.argsort(-sims, axis=1, kind="stable")


def recall_at_k(query_emb, gallery_emb, query_gt, gallery_gt, k: int) -> float:
    """Fraction of queries with >= 1 same-location item in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gallery_gt = np.asarray(gallery_gt, dtype=np.int64)
    query_gt = np.asarray(query_gt, dtype=np.int64)
    if gallery_gt.size == 0:
        raise ValueError("empty gallery")
    ranking = rank_gallery(query_emb, gallery_emb)
    depth = min(k, gallery_gt.size)
    hits = 0
    for i in range(ranking.shape[0]):
        if np.any(gallery_gt[ranking[i, :depth]] == query_gt[i]):
            hits += 1
    return hits / ranking.shape[0]


def average_precision(query_emb, gallery_emb, query_gt, gallery_gt) -> float:
    """Mean over queries of the average precision of its full ranking.

    Per query: mean over relevant gallery items of the precision at that
    item's rank. Every query must have at least one relevant item.
    """
    gallery_gt = np.asarray(gallery_gt, dtype=np.int64)
    query_gt = np.asarray(query_gt, dtype=np.int64)
    if gallery_gt.size == 0:
        raise ValueError("empty gallery")
    ranking = rank_gallery(query_emb, gallery_emb)
    ap_values = np.empty(ranking.shape[0])
    for i in range(ranking.shape[0]):
        try:
            ap_values[i] = ap_from_ranked_relevance(gallery_gt[ranking[i]] == query_gt[i])
        except ValueError:
            raise ValueError(f"query {i} has no relevant gallery item") from None
    return float(ap_values.mean())


def ap_from_ranked_relevance(relevant) -> float:
    """Average precision of one ranked boolean relevance list."""
    relevant = np.asarray(relevant, dtype=bool)
    total = int(relevant.sum())
    if total == 0:
        raise ValueError("no relevant items in ranking")
    ranks = np.flatnonzero(relevant) + 1
    found = np.arange(1, total + 1)
    return float(np.mean(found / ranks))
