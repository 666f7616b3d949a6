"""Retrieval evaluation: Recall@K and mean Average Precision.

Gallery rankings are by cosine similarity, descending, ties broken by
lower gallery index. The scores never sort the gallery: a relevant item's
rank is 1 + the gallery items strictly more similar + the equally similar
ones at a lower index, which is its position in ``rank_gallery``'s order.

``relevant_ranks`` counts these ranks without a query x gallery label mask.
One stable sort of the gallery labels groups each location's items in index
order, and two binary searches of the query labels give every query its
group: a (queries x layers) table whose layer t holds the query's t-th
relevant item. The similarity matrix is then read in blocks of query rows
(``BLOCK_CELLS`` booleans per comparison), and each block counts, for all
layers at once, the entries above and equal to each relevant item's
similarity. Only the pairs where another entry equals the item's value get
the index-aware count of the tie rule.
"""

import numpy as np

from .numcore import as_int_ids, pairwise_sim

RECALL_KS = (1, 5, 10)
SCORE_KEYS = ("r1_ds", "r5_ds", "r10_ds", "ap_ds", "r1_sd", "r5_sd", "r10_sd", "ap_sd")
NO_RANK = np.iinfo(np.int64).max  # pads a query's ranks past its relevant count
BLOCK_CELLS = 1 << 18  # booleans (bytes) compared per block of query rows


def rank_gallery(query_emb, gallery_emb) -> np.ndarray:
    """Row i holds gallery indices ranked best-first for query i."""
    sims = pairwise_sim(query_emb, gallery_emb)
    return np.argsort(-sims, axis=1, kind="stable")


def relevant_ranks(query_emb, gallery_emb, query_gt, gallery_gt) -> np.ndarray:
    """Row i holds the 1-based ranks of query i's same-location gallery
    items, ascending, padded with ``NO_RANK`` to the largest such count."""
    sims = pairwise_sim(query_emb, gallery_emb)
    query_gt = _labels(query_gt, sims.shape[0], "query")
    gallery_gt = _labels(gallery_gt, sims.shape[1], "gallery")
    if gallery_gt.size == 0:
        raise ValueError("empty gallery")
    if query_gt.size == 0:
        raise ValueError("empty query set")
    # a stable sort groups the gallery by location, each group in index order
    order = np.argsort(gallery_gt, kind="stable")
    grouped = gallery_gt[order]
    first = np.searchsorted(grouped, query_gt, side="left")
    counts = np.searchsorted(grouped, query_gt, side="right") - first
    if not counts.all():
        raise ValueError(f"query {np.flatnonzero(counts == 0)[0]} has no relevant gallery item")
    # layer t pairs each query with its t-th relevant item in gallery order;
    # past a query's count the index is a clipped stand-in that ``present`` masks
    layers = np.arange(counts.max())
    present = layers < counts[:, None]
    items = order[np.minimum(first[:, None] + layers, order.size - 1)]
    ranks = np.full(present.shape, NO_RANK, dtype=np.int64)
    step = max(1, BLOCK_CELLS // (max(layers.size, 1) * sims.shape[1]))
    for start in range(0, sims.shape[0], step):
        rows = slice(start, start + step)
        block = sims[rows]
        values = np.take_along_axis(block, items[rows], axis=1)
        # int32 sums count about twice as fast as count_nonzero's intp
        ahead = (block[:, None, :] > values[:, :, None]).sum(axis=2, dtype=np.int32)
        ties = (block[:, None, :] == values[:, :, None]).sum(axis=2, dtype=np.int32)
        # equal similarities rank by gallery index; only pairs with a tie
        # besides the item itself need the index-aware count
        for i, t in zip(*np.nonzero(present[rows] & (ties > 1))):
            ahead[i, t] += np.count_nonzero(block[i, : items[start + i, t]] == values[i, t])
        np.copyto(ranks[rows], ahead + 1, where=present[rows])
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


def _labels(gt, rows: int, side: str) -> np.ndarray:
    gt = as_int_ids(gt, f"{side} labels must be integer location ids")
    if gt.shape != (rows,):
        raise ValueError(f"{side} labels have shape {gt.shape}, expected ({rows},)")
    return gt


def _recall(ranks: np.ndarray, k: int) -> float:
    """Share of queries whose best rank, column 0, is at most k."""
    return int(np.count_nonzero(ranks[:, :1] <= k)) / ranks.shape[0]


def _mean_ap(ranks: np.ndarray) -> float:
    counts = np.count_nonzero(ranks != NO_RANK, axis=1)
    ap_values = np.empty(ranks.shape[0])
    for r in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == r)
        ap_values[rows] = (np.arange(1, r + 1) / ranks[rows, :r]).mean(axis=1)
    return float(ap_values.mean())
