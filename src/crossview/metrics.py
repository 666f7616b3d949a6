"""Retrieval evaluation: Recall@K and mean Average Precision.

Gallery rankings are by cosine similarity, descending, ties broken by
lower gallery index. The scores never sort the gallery: a relevant item's
rank is 1 + the gallery items strictly more similar + the equally similar
ones at a lower index, which is its position in ``rank_gallery``'s order.
"""

import numpy as np

from .numcore import pairwise_sim

RECALL_KS = (1, 5, 10)
SCORE_KEYS = ("r1_ds", "r5_ds", "r10_ds", "ap_ds", "r1_sd", "r5_sd", "r10_sd", "ap_sd")
NO_RANK = np.iinfo(np.int64).max  # pads a query's ranks past its relevant count


def rank_gallery(query_emb, gallery_emb) -> np.ndarray:
    """Row i holds gallery indices ranked best-first for query i."""
    sims = pairwise_sim(query_emb, gallery_emb)
    return np.argsort(-sims, axis=1, kind="stable")


def relevant_ranks(query_emb, gallery_emb, query_gt, gallery_gt) -> np.ndarray:
    """Row i holds the 1-based ranks of query i's same-location gallery
    items, ascending, padded with ``NO_RANK`` to the largest such count."""
    gallery_gt = np.asarray(gallery_gt, dtype=np.int64)
    query_gt = np.asarray(query_gt, dtype=np.int64)
    if gallery_gt.size == 0:
        raise ValueError("empty gallery")
    sims = pairwise_sim(query_emb, gallery_emb)
    queries, items = np.nonzero(query_gt[:, None] == gallery_gt[None, :])
    counts = np.bincount(queries, minlength=sims.shape[0])
    # layer t pairs each query with its t-th relevant item in gallery order
    layer = np.arange(queries.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ranks = np.full((sims.shape[0], counts.max(initial=0)), NO_RANK, dtype=np.int64)
    for t in range(ranks.shape[1]):
        picked = layer == t
        rows, cols = queries[picked], items[picked]
        block = sims if rows.size == sims.shape[0] else sims[rows]
        value = sims[rows, cols][:, None]
        ahead = np.count_nonzero(block > value, axis=1)
        # equal similarities rank by gallery index; only rows with a tie
        # besides the item itself need the index-aware count
        for i in np.flatnonzero(np.count_nonzero(block == value, axis=1) > 1):
            ahead[i] += np.count_nonzero(block[i, : cols[i]] == value[i])
        ranks[rows, t] = ahead + 1
    return np.sort(ranks, axis=1)


def recall_at_k(query_emb, gallery_emb, query_gt, gallery_gt, k: int) -> float:
    """Fraction of queries with >= 1 same-location item in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _recall(relevant_ranks(query_emb, gallery_emb, query_gt, gallery_gt), k)


def average_precision(query_emb, gallery_emb, query_gt, gallery_gt) -> float:
    """Mean over queries of the average precision of its full ranking.

    Per query: mean over relevant gallery items of the precision at that
    item's rank. Every query must have at least one relevant item.
    """
    return _mean_ap(relevant_ranks(query_emb, gallery_emb, query_gt, gallery_gt))


def evaluate_retrieval(emb_d, emb_s, gt_d, gt_s) -> dict:
    """Recall@1/5/10 and AP both ways, keyed as ``SCORE_KEYS``: drone
    queries against the satellite gallery (``_ds``), then back (``_sd``).
    Computes one similarity matrix per direction."""
    out = {}
    for prefix, q, g, qt, gt in (
        ("ds", emb_d, emb_s, gt_d, gt_s),
        ("sd", emb_s, emb_d, gt_s, gt_d),
    ):
        ranks = relevant_ranks(q, g, qt, gt)
        for k in RECALL_KS:
            out[f"r{k}_{prefix}"] = _recall(ranks, k)
        out[f"ap_{prefix}"] = _mean_ap(ranks)
    return out


def _recall(ranks: np.ndarray, k: int) -> float:
    """Share of queries whose best rank, column 0, is at most k."""
    return int(np.count_nonzero(ranks[:, :1] <= k)) / ranks.shape[0]


def _mean_ap(ranks: np.ndarray) -> float:
    counts = np.count_nonzero(ranks != NO_RANK, axis=1)
    if np.any(counts == 0):
        raise ValueError(f"query {np.flatnonzero(counts == 0)[0]} has no relevant gallery item")
    ap_values = np.empty(ranks.shape[0])
    for r in np.unique(counts):
        rows = np.flatnonzero(counts == r)
        ap_values[rows] = (np.arange(1, r + 1) / ranks[rows, :r]).mean(axis=1)
    return float(ap_values.mean())
