"""Single-row and per-query references that the tests check crossview's
batch functions against: ``cosine_sim`` for ``numcore.pairwise_sim``,
``bank_contrastive`` for ``cluster_memory.bank_contrastive_rows``, the
out-of-place ``reference_bank_contrastive_rows``, ``reference_forward``
and ``reference_backward`` for the in-place batch loss and encoder
passes, the per-query neighbourhood sets and losses (summed by
``reference_total``) for ``neighborhood_total``, the scalar refinement
(``reference_vote``, ``reference_pipeline``) for ``label_refine``, the
full-ranking Recall@K and AP for ``metrics.evaluate_retrieval``, and
the one-update-at-a-time ``reference_blend_chain`` for
``kernels.blend_chain``, and ``sample_by_scan`` for
``training.sample_view_batch``.
Below them sit small helpers that only the tests need."""

import math
from dataclasses import replace

import numpy as np

from crossview.clustering import NOISE, PseudoLabels
from crossview.datagen import Corpus, SyntheticSpec
from crossview.encoder import EncoderParams, ForwardTape
from crossview.errors import DegenerateInputError
from crossview.metrics import rank_gallery
from crossview.numcore import Rng, l2_normalize_rows, row_norms
from crossview.training import TrainConfig


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


def reference_bank_contrastive_rows(queries, bank, positive_ids, temperature: float):
    """``cluster_memory.bank_contrastive_rows`` with a fresh array for every
    step: the same operations in the same order."""
    bank = np.asarray(bank, dtype=np.float64)
    positive_ids = np.asarray(positive_ids, dtype=np.int64)
    rows = np.arange(positive_ids.size)
    logits = queries @ bank.T / temperature
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1))
    losses = lse - shift[rows, positive_ids]
    p = np.exp(shift - lse[:, None])
    p[rows, positive_ids] -= 1.0
    return losses, p @ bank / temperature


def reference_forward(params: EncoderParams, X) -> tuple[np.ndarray, ForwardTape]:
    """``encoder.forward`` with a fresh array for every step, without its
    checks."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    hidden = np.tanh(X @ params.w1.T + params.b1)
    u = hidden @ params.w2.T + params.b2
    norms = row_norms(u)
    embeddings = u / norms[:, None]
    return embeddings, ForwardTape(X, hidden, norms, embeddings)


def reference_backward(params: EncoderParams, tape: ForwardTape, d_embeddings) -> EncoderParams:
    """``encoder.backward`` with a fresh array for every step."""
    dE = np.asarray(d_embeddings, dtype=np.float64)
    e = tape.embeddings
    inner = np.einsum("ij,ij->i", dE, e)
    d_pre = (dE - inner[:, None] * e) / tape.norms[:, None]
    dw2 = d_pre.T @ tape.hidden
    db2 = d_pre.sum(axis=0)
    d_hidden = d_pre @ params.w2
    d_act = d_hidden * (1.0 - tape.hidden**2)
    dw1 = d_act.T @ tape.inputs
    db1 = d_act.sum(axis=0)
    return EncoderParams(dw1, db1, dw2, db2)


def _query_sims(q, mem: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Cosine similarities of q to every memory row, plus q-hat and |q|."""
    q = np.asarray(q, dtype=np.float64).ravel()
    qn = math.sqrt(q @ q)
    if qn == 0.0:
        raise ValueError("zero-norm query")
    q_hat = q / qn
    sims = mem @ q_hat
    return sims, q_hat, qn


def _masked(sims: np.ndarray, exclude: int | None) -> np.ndarray:
    if exclude is None:
        return sims
    out = sims.copy()
    out[exclude] = -np.inf
    return out


def threshold_neighborhood(q, mem: np.ndarray, ratio: float, exclude: int | None = None) -> np.ndarray:
    """Indices with similarity strictly above ratio * max similarity.

    The comparison is verbatim, so with a negative maximum the set can be
    empty; callers treat an empty set as a zero-loss no-op.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"threshold ratio must be in (0, 1), got {ratio}")
    if mem.shape[0] == 0:
        raise ValueError("empty instance memory")
    sims, _, _ = _query_sims(q, mem)
    sims = _masked(sims, exclude)
    return (sims > ratio * sims.max()).nonzero()[0]


def topk_neighborhoods(
    q, mem: np.ndarray, k_strict: int, k_expanded: int, exclude: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact strict/expanded top-k index lists, ties broken by lower index."""
    pool = mem.shape[0] - (1 if exclude is not None else 0)
    if not 1 <= k_strict <= k_expanded <= pool:
        raise ValueError(
            f"need 1 <= k_strict <= k_expanded <= {pool}, got {k_strict}, {k_expanded}"
        )
    sims, _, _ = _query_sims(q, mem)
    # a full stable sort, kept apart from numcore.top_k_indices's partition
    wide = np.argsort(-_masked(sims, exclude), kind="stable")[:k_expanded]
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
    return (np.dot(grad_s, mem.take(picked, axis=0)) - along * q_hat) / qn


def alignment_loss(q, mem: np.ndarray, omega, temperature: float) -> tuple[float, np.ndarray]:
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


def _divergence(q, mem: np.ndarray, picked) -> tuple[float, np.ndarray]:
    """KL to uniform of the raw-similarity softmax over picked, and its gradient."""
    sims, q_hat, qn = _query_sims(q, mem)
    chosen = sims.take(picked).tolist()
    logp, p = _log_softmax(chosen)
    entropy_term = sum(pi * li for pi, li in zip(p, logp))
    grad_s = [pi * (li - entropy_term) for pi, li in zip(p, logp)]
    loss = entropy_term + math.log(len(chosen))
    return loss, _cosine_chain(grad_s, picked, chosen, mem, q_hat, qn)


def consistency_loss(q, mem: np.ndarray, picked) -> tuple[float, np.ndarray]:
    """KL to uniform of the raw-similarity softmax over the expanded set."""
    picked = np.asarray(picked, dtype=np.int64)
    if picked.size == 0:
        raise ValueError("expanded neighborhood is empty")
    return _divergence(q, mem, picked)


def mutual_info_loss(q, mem: np.ndarray, picked) -> tuple[float, np.ndarray]:
    """Negative KL to uniform over the strict set; bounded in [-ln k, 0]."""
    picked = np.asarray(picked, dtype=np.int64)
    if picked.size == 0:
        raise ValueError("strict neighborhood is empty")
    loss, grad = _divergence(q, mem, picked)
    return -loss, -grad


def reference_total(
    drone_queries, drone_indices, sat_queries, sat_indices, mem_d, mem_s, config,
    partners_s=None,
):
    """neighborhood_total recomputed one query at a time from the per-query
    sets and losses; returns the value and both views' gradients.

    partners_s[i], when given and not None, lists the drone rows forced into
    satellite query i's cross-view threshold set (repeats allowed): the
    per-query form of neighborhood_total's forced_s mask.
    """
    w = config
    value = 0.0
    grads = []
    for queries, own, intra, cross, partners in (
        (drone_queries, drone_indices, mem_d, mem_s, None),
        (sat_queries, sat_indices, mem_s, mem_d, partners_s),
    ):
        b = queries.shape[0]
        g = np.zeros_like(queries)
        for i, q in enumerate(queries):
            exclude = int(own[i]) if own[i] >= 0 else None
            forced = None if partners is None else partners[i]
            for mem, skip, extra in ((intra, exclude, None), (cross, None, forced)):
                k2 = min(w.k_expanded, mem.shape[0] - (skip is not None))
                omega = threshold_neighborhood(q, mem, w.neighbor_threshold, exclude=skip)
                if extra is not None:
                    omega = np.union1d(omega, np.asarray(extra, dtype=np.int64))
                strict, wide = topk_neighborhoods(q, mem, min(w.k_strict, k2), k2, exclude=skip)
                for (v, dv), weight in (
                    (alignment_loss(q, mem, omega, w.temperature), 1.0),
                    (mutual_info_loss(q, mem, strict), w.mutual_weight),
                    (consistency_loss(q, mem, wide), w.consistency_weight),
                ):
                    value += weight * v / b
                    g[i] += weight * dv / b
        grads.append(g)
    return value, grads[0], grads[1]


def reference_vote(list_orig, list_pert) -> list:
    """consistency_vote one row at a time: the label whose multiset
    agreement between the two lists is largest, ties to the smaller id,
    else the original list's first label."""
    voted = []
    for lo, lp in zip(list_orig, list_pert):
        lo, lp = [int(x) for x in lo], [int(x) for x in lp]
        counts = {lab: min(lo.count(lab), lp.count(lab)) for lab in set(lo) | set(lp)}
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        voted.append(best[0] if best[1] > 0 else lo[0])
    return voted


def reference_pipeline(sat, drone, drone_labels, depth, keep, noise_std, seed):
    """Step-by-step scalar re-implementation of the whole refinement."""

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    rng = Rng(seed)
    if noise_std == 0.0:
        sat_p, drone_p = sat.copy(), drone.copy()
    else:
        sat_p = sat + rng.derive(1).normal(sat.shape, scale=noise_std)
        sat_p = sat_p / np.linalg.norm(sat_p, axis=1, keepdims=True)
        drone_p = drone + rng.derive(2).normal(drone.shape, scale=noise_std)
        drone_p = drone_p / np.linalg.norm(drone_p, axis=1, keepdims=True)
    gallery = [i for i in range(len(drone)) if drone_labels.labels[i] != NOISE]

    def ranked_labels(s_feats, d_feats):
        lists = []
        for m in range(len(s_feats)):
            sims = [(-cos(s_feats[m], d_feats[g]), g) for g in gallery]
            order = sorted(range(len(gallery)), key=lambda t: (sims[t][0], gallery[t]))
            lists.append(
                [int(drone_labels.labels[gallery[t]]) for t in order[:depth]]
            )
        return lists

    voted = reference_vote(ranked_labels(sat, drone), ranked_labels(sat_p, drone_p))
    C = drone_labels.num_clusters
    Y = np.zeros((len(sat), C))
    for m, lab in enumerate(voted):
        Y[m, lab] = 1.0
    P = np.zeros((len(sat), len(sat)))
    for a in range(len(sat)):
        for b in range(len(sat)):
            P[a, b] = cos(sat[a], sat[b]) + cos(sat_p[a], sat_p[b])
    mask = np.zeros_like(P)
    kk = min(keep, len(sat))
    for a in range(len(sat)):
        order = sorted(range(len(sat)), key=lambda b: (-P[a, b], b))[:kk]
        mask[a, order] = 1.0
    scores = mask @ Y
    hard = np.array([int(row.argmax()) for row in scores])
    return scores, hard


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


def reference_blend_chain(bank, ids, queries, w_old: float, w_new: float, renorm: bool) -> None:
    """``kernels.blend_chain`` as one update at a time, in batch order."""
    for t, (k, q) in enumerate(zip(np.asarray(ids).tolist(), queries)):
        row = w_old * bank[k] + w_new * q
        if renorm:
            nrm = np.sqrt(row @ row)
            if nrm == 0.0:
                raise DegenerateInputError(
                    f"memory row {k} collapsed to zero norm at batch position {t}"
                )
            row = row / nrm
        bank[k] = row


def sample_by_scan(labels: PseudoLabels, p: int, z: int, rng: Rng) -> np.ndarray:
    """``sample_view_batch`` one cluster at a time: each drawn cluster's rows
    found by a scan of every label, and one ``choice`` call per cluster, in
    order, where the sampler draws a run of small clusters at once."""
    picks = []
    for k in rng.choice(labels.num_clusters, size=p, replace=False):
        rows = np.flatnonzero(labels.labels == k)
        picks.append(rows[rng.choice(rows.size, size=z, replace=rows.size < z)])
    return np.concatenate(picks)


def tilted_view_corpus(spec: SyntheticSpec, theta: float) -> Corpus:
    """A corpus whose satellite map is the drone map tilted by the angle
    theta: map_s = cos(theta) map_d + sin(theta) Q, where Q has orthonormal
    columns orthogonal to map_d, so map_s has orthonormal columns too.
    theta = 0 gives both views one map, as ``shared_view_maps`` does; the
    larger theta, the less the raw views share. Latents and noise are drawn as ``datagen.generate`` draws
    them; ``spec.shared_view_maps`` is ignored, and Q needs
    input_dim >= 2 * latent_dim."""
    rng = Rng(spec.seed)
    latents = l2_normalize_rows(rng.derive(1).normal((spec.num_locations, spec.latent_dim)))
    # map_d and its complement split one random orthonormal basis
    basis, _ = np.linalg.qr(rng.derive(2).normal((spec.input_dim, spec.input_dim)))
    map_d, rest = basis[:, : spec.latent_dim], basis[:, spec.latent_dim :]
    turn, _ = np.linalg.qr(rng.derive(3).normal((rest.shape[1], spec.latent_dim)))
    map_s = math.cos(theta) * map_d + math.sin(theta) * (rest @ turn)
    drone_loc = np.repeat(np.arange(spec.num_locations, dtype=np.int64), spec.drone_per_loc)
    sat_loc = np.repeat(np.arange(spec.num_locations, dtype=np.int64), spec.sat_per_loc)
    drone = latents[drone_loc] @ map_d.T + rng.derive(4).normal(
        (drone_loc.size, spec.input_dim), scale=spec.noise_std
    )
    sat = latents[sat_loc] @ map_s.T + rng.derive(5).normal(
        (sat_loc.size, spec.input_dim), scale=spec.noise_std
    )
    return Corpus(drone, sat, drone_loc=drone_loc, sat_loc=sat_loc)


def zero_grads(params: EncoderParams) -> EncoderParams:
    return EncoderParams(*map(np.zeros_like, params.arrays()))


def uniform_stream(rng: Rng, n: int) -> np.ndarray:
    """n uniform draws from the generator behind ``rng``."""
    return rng._gen.random(n)


def integer_stream(rng: Rng, high: int, n: int) -> np.ndarray:
    """n integers in [0, high) from the generator behind ``rng``."""
    return rng._gen.integers(0, high, size=n)


def noise_count(labels: PseudoLabels) -> int:
    return int(np.sum(labels.labels == NOISE))


# the trainer's settings at their defaults: a test that builds memories
# directly takes every setting it does not override from here
DEFAULTS = TrainConfig()


def config(**overrides) -> TrainConfig:
    """The trainer's settings at their defaults, with overrides."""
    return replace(DEFAULTS, **overrides)
