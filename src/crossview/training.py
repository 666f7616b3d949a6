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
class Batch:
    drone_emb: np.ndarray
    drone_cluster_ids: np.ndarray
    drone_rows: np.ndarray
    sat_emb: np.ndarray
    sat_cluster_ids: np.ndarray
    sat_rows: np.ndarray


@dataclass
class EpochMemories:
    mem_d: np.ndarray  # centroid banks
    mem_s: np.ndarray
    dual_d: DualMemory | None = None
    dual_s: DualMemory | None = None
    inst_d: np.ndarray | None = None  # instance memories
    inst_s: np.ndarray | None = None
    refined: RefinedLabels | None = None
    labels_d: PseudoLabels | None = None  # the drone labels refinement voted on


@dataclass
class TotalLoss:
    value: float
    base: float
    dual: float
    neighbor: float
    drone_grads: np.ndarray
    sat_grads: np.ndarray


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


def total_loss(batch: Batch, memories: EpochMemories, config: TrainConfig) -> TotalLoss:
    """Printed-form total: base + dual + neighborhood terms.

    The dual term re-includes the base contrastive value by construction,
    so with default coefficients the base loss is counted twice when the
    dual banks are enabled; coeff_* overrides exist for experiments.
    """
    base = batch_loss_cv(
        batch.drone_emb,
        batch.drone_cluster_ids,
        batch.sat_emb,
        batch.sat_cluster_ids,
        memories.mem_d,
        memories.mem_s,
        config.temperature,
    )
    base_scale = config.coeff_base + (config.coeff_dual if config.enable_dual else 0.0)
    value = config.coeff_base * base.value
    gd = base.drone_grads
    gd *= base_scale
    gs = base.sat_grads
    gs *= base_scale
    dual_value = 0.0
    if config.enable_dual:
        fused_term = 0.0
        for emb, ids, dm, grads in (
            (batch.drone_emb, batch.drone_cluster_ids, memories.dual_d, gd),
            (batch.sat_emb, batch.sat_cluster_ids, memories.dual_s, gs),
        ):
            n = emb.shape[0]
            fv, fg = fused_bank_loss(emb, dm, ids, config.temperature)
            fused_term += float(fv.sum()) / n
            fg *= config.coeff_dual * config.fused_loss_weight
            fg /= n
            grads += fg
        dual_value = base.value + config.fused_loss_weight * fused_term
        value += config.coeff_dual * dual_value
    neighbor_value = 0.0
    if config.enable_neighbor:
        forced_s = None
        if memories.refined is not None:
            # refined labels live on satellite instances, so only satellite
            # queries get force-included partners (their refined drone
            # cluster's members); the reverse direction would drag every
            # drone cluster toward the satellite cloud and collapse it
            forced_s = memories.refined.hard[batch.sat_rows][:, None] == memories.labels_d.labels
        nbr = neighborhood_total(
            batch.drone_emb,
            batch.drone_rows,
            batch.sat_emb,
            batch.sat_rows,
            memories.inst_d,
            memories.inst_s,
            config,
            forced_s=forced_s,
        )
        neighbor_value = nbr.value
        value += config.coeff_neighbor * neighbor_value
        gd += config.coeff_neighbor * nbr.drone_grads
        gs += config.coeff_neighbor * nbr.sat_grads
    if not math.isfinite(value):
        raise NumericError(f"non-finite total loss: {value}")
    return TotalLoss(
        value=float(value),
        base=float(base.value),
        dual=float(dual_value),
        neighbor=float(neighbor_value),
        drone_grads=gd,
        sat_grads=gs,
    )


class Trainer:
    """Owns the encoder parameters and the per-epoch state machine."""

    def __init__(self, config: TrainConfig, corpus: Corpus):
        config.validate()
        if corpus.has_ground_truth:
            corpus.check_paired()
        self.config = config
        self.corpus = corpus
        self.params = encoder.init_params(
            Rng(config.seed).derive(11),
            self.corpus.drone_raw.shape[1],
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

    def _build_memories(self, emb_d, emb_s, labels_d, labels_s) -> EpochMemories:
        cfg = self.config
        cent_d = compute_centroids(emb_d, labels_d)
        cent_s = compute_centroids(emb_s, labels_s)
        memories = EpochMemories(
            mem_d=init_memory(cent_d),
            mem_s=init_memory(cent_s),
        )
        if cfg.enable_dual:
            memories.dual_d = init_dual(cent_d, cfg)
            memories.dual_s = init_dual(cent_s, cfg)
        if cfg.enable_neighbor:
            memories.inst_d = build_instance_memory(emb_d)
            memories.inst_s = build_instance_memory(emb_s)
        if cfg.enable_refine and self.epoch >= cfg.refine_start_epoch:
            rng = Rng(cfg.seed * 1_000_003 + self.epoch)
            memories.refined = refine_labels(emb_s, emb_d, labels_d, cfg, rng)
            memories.labels_d = labels_d
        return memories

    def _epoch_lr(self) -> float:
        return self.config.lr * self.config.lr_decay**self.epoch

    def run_epoch(self) -> EpochRecord:
        cfg = self.config
        n, m = self.corpus.drone_raw.shape[0], self.corpus.sat_raw.shape[0]
        if cfg.enable_neighbor and min(n, m) < 2:
            # a one-row view leaves its intra-view neighbourhood pool empty
            raise DataError(
                f"neighborhood losses need at least 2 rows per view, got {n} drone / {m} satellite"
            )
        started = time.perf_counter()
        emb_d, _ = encoder.forward(self.params, self.corpus.drone_raw)
        emb_s, _ = encoder.forward(self.params, self.corpus.sat_raw)
        labels_d, labels_s = self._pseudo_labels(emb_d, emb_s)
        if labels_d.num_clusters == 0 or labels_s.num_clusters == 0:
            raise ClusteringError(
                f"epoch {self.epoch}: clustering found "
                f"{labels_d.num_clusters} drone / {labels_s.num_clusters} satellite clusters"
            )
        memories = self._build_memories(emb_d, emb_s, labels_d, labels_s)
        p_d = min(cfg.p_classes, labels_d.num_clusters)
        p_s = min(cfg.p_classes, labels_s.num_clusters)
        if p_d < cfg.p_classes or p_s < cfg.p_classes:
            warnings.warn(
                f"epoch {self.epoch}: sampler clamped to {p_d} drone / {p_s} satellite clusters",
                stacklevel=2,
            )
        iters = cfg.iters_per_epoch or max(1, math.ceil(max(n, m) / cfg.batch_size))
        lr = self._epoch_lr()
        sums = np.zeros(4)
        for _ in range(iters):
            idx_d = sample_view_batch(labels_d, p_d, cfg.z_instances, self.rng)
            idx_s = sample_view_batch(labels_s, p_s, cfg.z_instances, self.rng)
            q_d, tape_d = encoder.forward(self.params, self.corpus.drone_raw[idx_d])
            q_s, tape_s = encoder.forward(self.params, self.corpus.sat_raw[idx_s])
            batch = Batch(
                drone_emb=q_d,
                drone_cluster_ids=labels_d.labels[idx_d],
                drone_rows=idx_d,
                sat_emb=q_s,
                sat_cluster_ids=labels_s.labels[idx_s],
                sat_rows=idx_s,
            )
            losses = total_loss(batch, memories, cfg)
            sums += (losses.base, losses.dual, losses.neighbor, losses.value)
            grads = encoder.backward(self.params, tape_d, losses.drone_grads)
            grads += encoder.backward(self.params, tape_s, losses.sat_grads)
            self.params = encoder.sgd_step(self.params, grads, lr)
            clusters_d = batch.drone_cluster_ids[:: cfg.z_instances]
            clusters_s = batch.sat_cluster_ids[:: cfg.z_instances]
            momentum_update_batch(memories.mem_d, q_d, clusters_d, cfg)
            momentum_update_batch(memories.mem_s, q_s, clusters_s, cfg)
            if cfg.enable_dual:
                for dm, ids, clusters, q in (
                    (memories.dual_d, batch.drone_cluster_ids, clusters_d, q_d),
                    (memories.dual_s, batch.sat_cluster_ids, clusters_s, q_s),
                ):
                    beta = compute_beta(q, dm, ids)
                    update_short_term(dm, beta, clusters)
                    update_long_term_batch(dm, q, clusters, cfg)
                    refresh_fused(dm, cfg)
        means = sums / iters
        record = self._evaluate_epoch(labels_d, labels_s, memories, means, started)
        self.epoch += 1
        return record

    def _evaluate_epoch(self, labels_d, labels_s, memories, means, started) -> EpochRecord:
        evals = dict.fromkeys(SCORE_KEYS)
        agreement = None
        if self.corpus.has_ground_truth:
            emb_d, _ = encoder.forward(self.params, self.corpus.drone_raw)
            emb_s, _ = encoder.forward(self.params, self.corpus.sat_raw)
            gt_d, gt_s = self.corpus.ground_truth()
            evals = evaluate_retrieval(emb_d, emb_s, gt_d, gt_s)
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
