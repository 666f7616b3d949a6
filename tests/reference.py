"""Single-row and per-query references that the tests check crossview's
batch functions against: ``cosine_sim`` for ``numcore.pairwise_sim``,
``bank_contrastive`` for ``cluster_memory.bank_contrastive_rows``, the
per-query neighbourhood sets and losses for ``neighborhood_total``, and
the full-ranking Recall@K and AP for ``metrics.evaluate_retrieval``.
Below them sit small helpers that only the tests need."""

import math

import numpy as np

from crossview.clustering import NOISE, PseudoLabels
from crossview.encoder import EncoderGrads, EncoderParams
from crossview.errors import DegenerateInputError
from crossview.metrics import rank_gallery
from crossview.neighborhood import InstanceMemory, _check_ks
from crossview.numcore import Rng, top_k_indices


def cosine_sim(a, b) -> float:
    """Cosine of the angle between two vectors, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    na = float(np.sqrt(a @ a))
    nb = float(np.sqrt(b @ b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero-norm vector")
    return float(a @ b) / (na * nb)


def bank_contrastive(q, bank, positive_id: int, temperature: float) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy of q against a fixed bank of prototypes.

    Logits are plain dot products scaled by 1/temperature (unit rows make
    them cosines). Returns the loss and its exact gradient in q; the bank
    is a constant.
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    bank = np.asarray(bank, dtype=np.float64)
    if not 0 <= positive_id < bank.shape[0]:
        raise ValueError(f"positive id {positive_id} out of range")
    q = np.asarray(q, dtype=np.float64).ravel()
    logits = bank @ q / temperature
    shift = logits - logits.max()
    lse = np.log(np.sum(np.exp(shift)))
    loss = float(lse - shift[positive_id])
    p = np.exp(shift - lse)
    p[positive_id] -= 1.0
    grad = (bank.T @ p) / temperature
    return loss, grad


def _query_sims(q, mem: InstanceMemory) -> tuple[np.ndarray, np.ndarray, float]:
    """Cosine similarities of q to every memory row, plus q-hat and |q|."""
    q = np.asarray(q, dtype=np.float64).ravel()
    qn = math.sqrt(q @ q)
    if qn == 0.0:
        raise ValueError("zero-norm query")
    q_hat = q / qn
    sims = mem.features @ q_hat
    return sims, q_hat, qn


def _masked(sims: np.ndarray, exclude: int | None) -> np.ndarray:
    if exclude is None:
        return sims
    out = sims.copy()
    out[exclude] = -np.inf
    return out


def threshold_neighborhood(q, mem: InstanceMemory, ratio: float, exclude: int | None = None) -> np.ndarray:
    """Indices with similarity strictly above ratio * max similarity.

    The comparison is verbatim, so with a negative maximum the set can be
    empty; callers treat an empty set as a zero-loss no-op.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"threshold ratio must be in (0, 1), got {ratio}")
    if mem.size == 0:
        raise ValueError("empty instance memory")
    sims, _, _ = _query_sims(q, mem)
    sims = _masked(sims, exclude)
    return (sims > ratio * sims.max()).nonzero()[0]


def topk_neighborhoods(
    q, mem: InstanceMemory, k_strict: int, k_expanded: int, exclude: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact strict/expanded top-k index lists, ties broken by lower index."""
    pool = mem.size - (1 if exclude is not None else 0)
    _check_ks(k_strict, k_expanded, pool)
    sims, _, _ = _query_sims(q, mem)
    wide = top_k_indices(_masked(sims, exclude), k_expanded)
    return wide[:k_strict].copy(), wide


# The per-query losses see a handful of picked similarities, where Python
# float arithmetic costs less than numpy's per-call overhead; only the
# gradient's chain goes back to numpy.


def _log_softmax(z: list) -> tuple[list, list]:
    top = max(z)
    shift = [v - top for v in z]
    lse = math.log(sum(math.exp(v) for v in shift))
    logp = [v - lse for v in shift]
    return logp, [math.exp(v) for v in logp]


def _cosine_chain(grad_s: list, picked, sims: list, mem, q_hat, qn) -> np.ndarray:
    # d cos(q, f_u) / dq = (f_u - cos * q_hat) / |q|
    along = sum(g * s for g, s in zip(grad_s, sims))
    return (np.dot(grad_s, mem.features.take(picked, axis=0)) - along * q_hat) / qn


def alignment_loss(q, mem: InstanceMemory, omega, temperature: float) -> tuple[float, np.ndarray]:
    """Cross-entropy pulling q toward every member of its threshold set."""
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    omega = np.asarray(omega, dtype=np.int64)
    q = np.asarray(q, dtype=np.float64).ravel()
    if omega.size == 0:
        return 0.0, np.zeros_like(q)
    sims, q_hat, qn = _query_sims(q, mem)
    picked = sims.take(omega).tolist()
    logp, p = _log_softmax([s / temperature for s in picked])
    n = len(picked)
    grad_s = [(n * pi - 1.0) / temperature for pi in p]
    return -sum(logp), _cosine_chain(grad_s, omega, picked, mem, q_hat, qn)


def uniform_divergence(p) -> float:
    """KL(p || uniform) = sum p log(k p), with 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.size == 0:
        raise ValueError("empty distribution")
    nz = p > 0.0
    return float(np.sum(p[nz] * np.log(p.size * p[nz])))


def _divergence(q, mem: InstanceMemory, picked) -> tuple[float, np.ndarray]:
    """KL to uniform of the raw-similarity softmax over picked, and its gradient."""
    sims, q_hat, qn = _query_sims(q, mem)
    chosen = sims.take(picked).tolist()
    logp, p = _log_softmax(chosen)
    entropy_term = sum(pi * li for pi, li in zip(p, logp))
    grad_s = [pi * (li - entropy_term) for pi, li in zip(p, logp)]
    loss = entropy_term + math.log(len(chosen))
    return loss, _cosine_chain(grad_s, picked, chosen, mem, q_hat, qn)


def consistency_loss(q, mem: InstanceMemory, picked) -> tuple[float, np.ndarray]:
    """KL to uniform of the raw-similarity softmax over the expanded set."""
    picked = np.asarray(picked, dtype=np.int64)
    if picked.size == 0:
        raise ValueError("expanded neighborhood is empty")
    return _divergence(q, mem, picked)


def mutual_info_loss(q, mem: InstanceMemory, picked) -> tuple[float, np.ndarray]:
    """Negative KL to uniform over the strict set; bounded in [-ln k, 0]."""
    picked = np.asarray(picked, dtype=np.int64)
    if picked.size == 0:
        raise ValueError("strict neighborhood is empty")
    loss, grad = _divergence(q, mem, picked)
    return -loss, -grad


def ap_from_ranked_relevance(relevant) -> float:
    """Average precision of one ranked boolean relevance list."""
    relevant = np.asarray(relevant, dtype=bool)
    total = int(relevant.sum())
    if total == 0:
        raise ValueError("no relevant items in ranking")
    ranks = np.flatnonzero(relevant) + 1
    found = np.arange(1, total + 1)
    return float(np.mean(found / ranks))


def recall_by_ranking(query_emb, gallery_emb, query_gt, gallery_gt, k: int) -> float:
    """Recall@K read off each query's full stable ranking."""
    gallery_gt = np.asarray(gallery_gt, dtype=np.int64)
    query_gt = np.asarray(query_gt, dtype=np.int64)
    ranking = rank_gallery(query_emb, gallery_emb)
    depth = min(k, gallery_gt.size)
    hits = 0
    for i in range(ranking.shape[0]):
        if np.any(gallery_gt[ranking[i, :depth]] == query_gt[i]):
            hits += 1
    return hits / ranking.shape[0]


def ap_by_ranking(query_emb, gallery_emb, query_gt, gallery_gt) -> float:
    """Mean AP read off each query's full stable ranking."""
    gallery_gt = np.asarray(gallery_gt, dtype=np.int64)
    query_gt = np.asarray(query_gt, dtype=np.int64)
    ranking = rank_gallery(query_emb, gallery_emb)
    ap_values = np.empty(ranking.shape[0])
    for i in range(ranking.shape[0]):
        ap_values[i] = ap_from_ranked_relevance(gallery_gt[ranking[i]] == query_gt[i])
    return float(ap_values.mean())


def evaluation_by_ranking(emb_d, emb_s, gt_d, gt_s) -> dict:
    """Both directions, one full ranking per score: four per direction."""
    out = {}
    for prefix, q, g, qt, gt in (
        ("ds", emb_d, emb_s, gt_d, gt_s),
        ("sd", emb_s, emb_d, gt_s, gt_d),
    ):
        for k in (1, 5, 10):
            out[f"r{k}_{prefix}"] = recall_by_ranking(q, g, qt, gt, k)
        out[f"ap_{prefix}"] = ap_by_ranking(q, g, qt, gt)
    return out


def zero_grads(params: EncoderParams) -> EncoderGrads:
    return EncoderGrads(
        np.zeros_like(params.w1),
        np.zeros_like(params.b1),
        np.zeros_like(params.w2),
        np.zeros_like(params.b2),
    )


def flatten_grads(grads: EncoderGrads) -> np.ndarray:
    return np.concatenate([grads.w1.ravel(), grads.b1.ravel(), grads.w2.ravel(), grads.b2.ravel()])


def uniform_stream(rng: Rng, n: int) -> np.ndarray:
    """n uniform draws from the generator behind ``rng``."""
    return rng._gen.random(n)


def noise_count(labels: PseudoLabels) -> int:
    return int(np.sum(labels.labels == NOISE))
