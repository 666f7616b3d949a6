"""Epoch loop: extract features, cluster, rebuild memories, refine labels,
sample identity-balanced minibatches, optimize, evaluate.

Every epoch starts from a clean slate: pseudo-labels, centroid banks, dual
banks, and instance memories are all rebuilt from freshly extracted
features, so stale state cannot leak across epochs. Within a minibatch the
losses are evaluated against the bank state at minibatch start and the
sequential updates run afterwards in batch index order.
"""

import json
import math
import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import encoder
from .cluster_memory import batch_loss_cv, init_memory, momentum_update_batch
# replicate_features and collapse_replica_labels are unused here but stay
# importable from this module: perfbench/tracer.py wraps them by name.
from .clustering import (  # noqa: F401
    DbscanParams,
    PseudoLabels,
    collapse_replica_labels,
    compute_centroids,
    dbscan,
    replicate_features,
)
from .config import TrainConfig
from .datagen import Corpus
from .dual_memory import (
    DualMemory,
    compute_beta,
    fused_bank_loss,
    init_dual,
    refresh_fused,
    update_long_term_batch,
    update_short_term,
)
from .errors import ClusteringError, DataError, NumericError
from .label_refine import RefinedLabels, refine_labels, refinement_agreement
from .metrics import SCORE_KEYS, evaluate_retrieval
# recall_at_k and average_precision are unused here but stay importable
# from this module: perfbench/tracer.py wraps them by name.
from .metrics import average_precision, recall_at_k  # noqa: F401
from .neighborhood import build_instance_memory, neighborhood_total
from .numcore import Rng

@dataclass
class EpochRecord:
    epoch: int
    loss_base: float
    loss_dual: float
    loss_neighbor: float
    loss_total: float
    clusters_drone: int
    clusters_sat: int
    refine_agreement: float | None
    r1_ds: float | None
    r5_ds: float | None
    r10_ds: float | None
    ap_ds: float | None
    r1_sd: float | None
    r5_sd: float | None
    r10_sd: float | None
    ap_sd: float | None
    wall_clock: float

    def metrics_dict(self) -> dict:
        # wall_clock deliberately stays out: metrics files must be
        # byte-identical across reruns of the same seed.
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.pop("wall_clock")
        return out


@dataclass
class ViewBatch:
    """One view's minibatch: query embeddings, their pseudo-label ids and
    their rows in the view's corpus and instance memory."""

    emb: np.ndarray
    ids: np.ndarray
    rows: np.ndarray


@dataclass
class ViewMemories:
    """One view's pseudo-labels and the banks built from them this epoch."""

    labels: PseudoLabels
    centroids: np.ndarray  # centroid bank
    dual: DualMemory | None = None
    instances: np.ndarray | None = None  # instance memory


@dataclass
class EpochMemories:
    views: tuple[ViewMemories, ViewMemories]  # drone, satellite
    refined: RefinedLabels | None = None  # satellite rows' votes over the drone clusters


@dataclass
class TotalLoss:
    value: float
    base: float
    dual: float
    neighbor: float
    grads: list[np.ndarray]  # per view, drone then satellite


def sample_view_batch(labels: PseudoLabels, p: int, z: int, rng: Rng) -> np.ndarray:
    """Pick p distinct clusters uniformly, then z members each (with
    replacement only when the cluster is smaller than z). Noise-labeled
    instances are never sampled. Rows come cluster-major, z per drawn
    cluster, so the batch's distinct clusters are its labels ``[::z]``.

    The draws are those of one ``choice(size, z)`` per drawn cluster, in
    order. A run of consecutive clusters smaller than z takes them from one
    ``integers`` call, which numpy fills element by element the same way;
    a larger cluster keeps its own ``choice`` without replacement. The rows
    come from one gather of the labels' grouping."""
    if labels.num_clusters < p:
        raise ValueError(
            f"need {p} clusters but only {labels.num_clusters} are available"
        )
    chosen = rng.choice(labels.num_clusters, size=p, replace=False)
    sizes = labels.sizes[chosen]
    small = sizes < z
    picks = np.empty((p, z), dtype=np.int64)
    # runs of consecutive clusters on the same side of z
    cuts = (np.flatnonzero(small[1:] != small[:-1]) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [p]):
        if small[lo]:
            picks[lo:hi] = rng.integers(0, sizes[lo:hi, None], (hi - lo, z))
        else:
            for i in range(lo, hi):
                picks[i] = rng.choice(int(sizes[i]), size=z, replace=False)
    return labels.order[labels.starts[chosen][:, None] + picks].ravel()


def total_loss(batch: list[ViewBatch], memories: EpochMemories, config: TrainConfig) -> TotalLoss:
    """Printed-form total: base + dual + neighborhood terms, for the drone
    and satellite batches against their views' memories.

    The dual term re-includes the base contrastive value by construction,
    so with default coefficients the base loss is counted twice when the
    dual banks are enabled; coeff_* overrides exist for experiments.
    """
    base_scale = config.coeff_base + (config.coeff_dual if config.enable_dual else 0.0)
    base = fused_term = 0.0
    grads = []
    for view, mem in zip(batch, memories.views):
        mean, g = batch_loss_cv(view.emb, view.ids, mem.centroids, config.temperature)
        base += mean
        g *= base_scale
        if config.enable_dual:
            n = view.emb.shape[0]
            fv, fg = fused_bank_loss(view.emb, mem.dual, view.ids, config.temperature)
            fused_term += float(fv.sum()) / n
            fg *= config.coeff_dual * config.fused_loss_weight
            fg /= n
            g += fg
        grads.append(g)
    value = config.coeff_base * base
    dual_value = 0.0
    if config.enable_dual:
        dual_value = base + config.fused_loss_weight * fused_term
        value += config.coeff_dual * dual_value
    neighbor_value = 0.0
    if config.enable_neighbor:
        (drone, sat), (mem_d, mem_s) = batch, memories.views
        forced_s = None
        if memories.refined is not None:
            # refined labels live on satellite instances, so only satellite
            # queries get force-included partners (their refined drone
            # cluster's members); the reverse direction would drag every
            # drone cluster toward the satellite cloud and collapse it
            forced_s = memories.refined.hard[sat.rows][:, None] == mem_d.labels.labels
        nbr = neighborhood_total(
            drone.emb, drone.rows, sat.emb, sat.rows, mem_d.instances, mem_s.instances, config,
            forced_s=forced_s,
        )
        neighbor_value = nbr.value
        value += config.coeff_neighbor * neighbor_value
        grads[0] += config.coeff_neighbor * nbr.drone_grads
        grads[1] += config.coeff_neighbor * nbr.sat_grads
    if not math.isfinite(value):
        raise NumericError(f"non-finite total loss: {value}")
    return TotalLoss(
        value=float(value),
        base=float(base),
        dual=float(dual_value),
        neighbor=float(neighbor_value),
        grads=grads,
    )


class Trainer:
    """Owns the encoder parameters and the per-epoch state machine."""

    def __init__(self, config: TrainConfig, corpus: Corpus):
        config.validate()
        if corpus.has_ground_truth:
            corpus.check_paired()
        self.config = config
        self.corpus = corpus
        self.raw_views = (corpus.drone_raw, corpus.sat_raw)
        self.params = encoder.init_params(
            Rng(config.seed).derive(11),
            corpus.drone_raw.shape[1],
            config.hidden_dim,
            config.embed_dim,
        )
        self.rng = Rng(config.seed).derive(23)
        self.epoch = 0

    def _pseudo_labels(self, emb_d, emb_s):
        cfg = self.config
        db = DbscanParams(eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts)
        labels_d = dbscan(emb_d, db)
        # exact for r replicas a row: c originals in eps are r*c replicas, core iff c >= ceil(min_pts/r)
        labels_s = dbscan(emb_s, replace(db, min_pts=-(-db.min_pts // cfg.replication)))
        return labels_d, labels_s

    def _build_memories(self, embs, labels) -> EpochMemories:
        cfg = self.config
        views = []
        for emb, view_labels in zip(embs, labels):
            cent = compute_centroids(emb, view_labels)
            view = ViewMemories(labels=view_labels, centroids=init_memory(cent))
            if cfg.enable_dual:
                view.dual = init_dual(cent, cfg)
            if cfg.enable_neighbor:
                view.instances = build_instance_memory(emb)
            views.append(view)
        memories = EpochMemories(views=tuple(views))
        if cfg.enable_refine and self.epoch >= cfg.refine_start_epoch:
            rng = Rng(cfg.seed * 1_000_003 + self.epoch)
            memories.refined = refine_labels(embs[1], embs[0], labels[0], cfg, rng)
        return memories

    def _epoch_lr(self) -> float:
        return self.config.lr * self.config.lr_decay**self.epoch

    def _embed_views(self) -> list[np.ndarray]:
        return [encoder.forward(self.params, raw)[0] for raw in self.raw_views]

    def run_epoch(self) -> EpochRecord:
        cfg = self.config
        n, m = (raw.shape[0] for raw in self.raw_views)
        if cfg.enable_neighbor and min(n, m) < 2:
            # a one-row view leaves its intra-view neighbourhood pool empty
            raise DataError(
                f"neighborhood losses need at least 2 rows per view, got {n} drone / {m} satellite"
            )
        started = time.perf_counter()
        embs = self._embed_views()
        labels = self._pseudo_labels(*embs)
        counts = [view_labels.num_clusters for view_labels in labels]
        if min(counts) == 0:
            raise ClusteringError(
                f"epoch {self.epoch}: clustering found "
                f"{counts[0]} drone / {counts[1]} satellite clusters"
            )
        memories = self._build_memories(embs, labels)
        p = [min(cfg.p_classes, count) for count in counts]
        if min(p) < cfg.p_classes:
            warnings.warn(
                f"epoch {self.epoch}: sampler clamped to {p[0]} drone / {p[1]} satellite clusters",
                stacklevel=2,
            )
        views, z = memories.views, cfg.z_instances
        iters = cfg.iters_per_epoch or max(1, math.ceil(max(n, m) / cfg.batch_size))
        lr = self._epoch_lr()
        sums = np.zeros(4)
        for _ in range(iters):
            # the generator draws the drone batch, then the satellite batch
            rows = [sample_view_batch(v.labels, p_v, z, self.rng) for v, p_v in zip(views, p)]
            # only ``tapes`` may hold the forward tapes, so that rebinding it
            # frees the last minibatch's before the losses run: a name still
            # bound to them kept about 400 KiB more live at the heap's peak
            # and tripled a dual-memory epoch's minor page faults (P=32, Z=8)
            tapes = [encoder.forward(self.params, x[r])[1] for x, r in zip(self.raw_views, rows)]
            batch = [ViewBatch(t.embeddings, v.labels.labels[r], r)
                     for t, v, r in zip(tapes, views, rows)]
            losses = total_loss(batch, memories, cfg)
            sums += (losses.base, losses.dual, losses.neighbor, losses.value)
            grads = encoder.backward(self.params, tapes[0], losses.grads[0])
            grads += encoder.backward(self.params, tapes[1], losses.grads[1])
            self.params = encoder.sgd_step(self.params, grads, lr)
            for view, mem in zip(batch, views):
                clusters = view.ids[::z]
                momentum_update_batch(mem.centroids, view.emb, clusters, cfg)
                if cfg.enable_dual:
                    beta = compute_beta(view.emb, mem.dual, view.ids)
                    update_short_term(mem.dual, beta, clusters)
                    update_long_term_batch(mem.dual, view.emb, clusters, cfg)
                    refresh_fused(mem.dual, cfg)
        record = self._evaluate_epoch(memories, sums / iters, started)
        self.epoch += 1
        return record

    def _evaluate_epoch(self, memories, means, started) -> EpochRecord:
        evals = dict.fromkeys(SCORE_KEYS)
        agreement = None
        labels_d, labels_s = (mem.labels for mem in memories.views)
        if self.corpus.has_ground_truth:
            gt_d, gt_s = self.corpus.ground_truth()
            evals = evaluate_retrieval(*self._embed_views(), gt_d, gt_s)
            if memories.refined is not None:
                agreement = refinement_agreement(memories.refined.hard, labels_d, gt_d, gt_s)
        return EpochRecord(
            epoch=self.epoch,
            loss_base=float(means[0]),
            loss_dual=float(means[1]),
            loss_neighbor=float(means[2]),
            loss_total=float(means[3]),
            clusters_drone=labels_d.num_clusters,
            clusters_sat=labels_s.num_clusters,
            refine_agreement=agreement,
            wall_clock=time.perf_counter() - started,
            **evals,
        )

    def train(self) -> list[EpochRecord]:
        return [self.run_epoch() for _ in range(self.config.epochs)]


def summary_record(records: list[EpochRecord], config: TrainConfig) -> dict:
    """Best-epoch retrieval summary; best means highest drone-to-satellite
    Recall@1, earliest epoch winning ties."""
    summary: dict = {
        "epochs": len(records),
        "best_epoch": None,
        "components": {
            "dual": config.enable_dual,
            "neighbor": config.enable_neighbor,
            "refine": config.enable_refine,
        },
    }
    scored = [r for r in records if r.r1_ds is not None]
    if scored:
        best = max(scored, key=lambda r: (r.r1_ds, -r.epoch))
        summary["best_epoch"] = best.epoch
        for key in SCORE_KEYS:
            summary[key] = getattr(best, key)
    return {"summary": summary}


def write_metrics(records: list[EpochRecord], path, config: TrainConfig) -> None:
    """Line-delimited JSON: one record per epoch, then a summary line.

    A zero-epoch run leaves the file empty.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if not records:
            return
        for record in records:
            fh.write(json.dumps(record.metrics_dict(), sort_keys=True) + "\n")
        fh.write(json.dumps(summary_record(records, config), sort_keys=True) + "\n")
