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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import encoder
from .cluster_memory import (
    ClusterMemory,
    batch_loss_cv,
    init_memory,
    momentum_update_batch,
)
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
from .datagen import Corpus, TrainingView
from .dual_memory import (
    UPDATE_RULES,
    DualMemory,
    compute_beta,
    fused_bank_loss,
    init_dual,
    refresh_fused,
    update_long_term_batch,
    update_short_term,
)
from .errors import ClusteringError, ConfigError, DataError, NumericError
from .label_refine import PerturbConfig, RefinedLabels, refine_labels, refinement_agreement
from .metrics import SCORE_KEYS, evaluate_retrieval
# recall_at_k and average_precision are unused here but stay importable
# from this module: perfbench/tracer.py wraps them by name.
from .metrics import average_precision, recall_at_k  # noqa: F401
from .neighborhood import (
    InstanceMemory,
    NeighborWeights,
    build_instance_memory,
    neighborhood_total,
)
from .numcore import Rng

ABLATIONS = {
    "baseline": dict(enable_dual=False, enable_neighbor=False, enable_refine=False),
    "dual-memory": dict(enable_dual=True, enable_neighbor=False, enable_refine=False),
    "neighbor": dict(enable_dual=False, enable_neighbor=True, enable_refine=False),
    "full": dict(enable_dual=True, enable_neighbor=True, enable_refine=True),
}


@dataclass
class TrainConfig:
    # optimization
    momentum: float = 0.2
    lr: float = 0.001
    epochs: int = 30
    p_classes: int = 16
    z_instances: int = 4
    iters_per_epoch: int = 0  # 0 means ceil(max(N, M) / batch)
    lr_decay: float = 1.0  # per-epoch multiplier; 1.0 keeps the rate constant
    # clustering
    replication: int = 50
    dbscan_eps: float = 0.12
    dbscan_min_pts: int = 4
    # contrastive losses
    temperature: float = 0.2
    fused_loss_weight: float = 1.0
    long_weight: float = 0.5
    short_weight: float = 0.5
    update_rule: str = "damped"
    renormalize_memory: bool = True
    # neighborhood losses
    neighbor_threshold: float = 0.95
    k_strict: int = 3
    k_expanded: int = 6
    mutual_weight: float = 1.0
    consistency_weight: float = 1.0
    # label refinement
    perturb_std: float = 0.01
    rank_depth: int = 10
    smoothing_keep: int = 5
    refine_start_epoch: int = 5  # refinement engages once pseudo-labels settle
    # printed-sum coefficients, overridable for experiments
    coeff_base: float = 1.0
    coeff_dual: float = 1.0
    coeff_neighbor: float = 1.0
    # encoder
    hidden_dim: int = 64
    embed_dim: int = 32
    # component toggles
    enable_dual: bool = True
    enable_neighbor: bool = True
    enable_refine: bool = True
    seed: int = 0

    @property
    def batch_size(self) -> int:
        return self.p_classes * self.z_instances

    def validate(self) -> None:
        checks = [
            (0.0 <= self.momentum <= 1.0, "momentum must lie in [0, 1]"),
            (self.lr >= 0.0, "lr must be >= 0"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.p_classes >= 1 and self.z_instances >= 1, "P and Z must be >= 1"),
            (self.iters_per_epoch >= 0, "iters_per_epoch must be >= 0"),
            (self.lr_decay > 0.0, "lr_decay must be positive"),
            (self.replication >= 1, "replication must be >= 1"),
            (self.dbscan_eps > 0.0, "dbscan_eps must be positive"),
            (self.dbscan_min_pts >= 1, "dbscan_min_pts must be >= 1"),
            (self.temperature > 0.0, "temperature must be positive"),
            (self.fused_loss_weight >= 0.0, "fused_loss_weight must be >= 0"),
            (self.long_weight >= 0.0 and self.short_weight >= 0.0, "fusion weights must be >= 0"),
            (self.long_weight + self.short_weight > 0.0, "fusion weights cannot both be zero"),
            (self.update_rule in UPDATE_RULES, "unknown update_rule"),
            (0.0 < self.neighbor_threshold < 1.0, "neighbor_threshold must be in (0, 1)"),
            (1 <= self.k_strict <= self.k_expanded, "need 1 <= k_strict <= k_expanded"),
            (self.mutual_weight >= 0.0, "mutual_weight must be >= 0"),
            (self.consistency_weight >= 0.0, "consistency_weight must be >= 0"),
            (self.perturb_std >= 0.0, "perturb_std must be >= 0"),
            (self.rank_depth >= 1, "rank_depth must be >= 1"),
            (self.smoothing_keep >= 1, "smoothing_keep must be >= 1"),
            (self.refine_start_epoch >= 0, "refine_start_epoch must be >= 0"),
            (self.hidden_dim >= 1 and self.embed_dim >= 1, "encoder dims must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if self.update_rule == "damped" and self.enable_dual and self.momentum >= 0.5:
            raise ConfigError("damped update rule needs momentum < 0.5")

    def with_ablation(self, name: str) -> "TrainConfig":
        if name not in ABLATIONS:
            raise ConfigError(f"unknown ablation {name!r}, expected one of {sorted(ABLATIONS)}")
        return replace(self, **ABLATIONS[name])

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    mem_d: ClusterMemory
    mem_s: ClusterMemory
    dual_d: DualMemory | None = None
    dual_s: DualMemory | None = None
    inst_d: InstanceMemory | None = None
    inst_s: InstanceMemory | None = None
    refined: RefinedLabels | None = None
    drone_rows_by_label: dict = field(default_factory=dict)


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
    instances are never sampled."""
    if labels.num_clusters < p:
        raise ValueError(
            f"need {p} clusters but only {labels.num_clusters} are available"
        )
    chosen = rng.choice(labels.num_clusters, size=p, replace=False)
    picks = []
    for k in chosen:
        members = labels.members(int(k))
        idx = rng.choice(members.size, size=z, replace=members.size < z)
        picks.append(members[idx])
    return np.concatenate(picks)


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
    gd = base_scale * base.drone_grads
    gs = base_scale * base.sat_grads
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
            grads += config.coeff_dual * config.fused_loss_weight * fg / n
        dual_value = base.value + config.fused_loss_weight * fused_term
        value += config.coeff_dual * dual_value
    neighbor_value = 0.0
    if config.enable_neighbor:
        weights = NeighborWeights(
            threshold_ratio=config.neighbor_threshold,
            k_strict=config.k_strict,
            k_expanded=config.k_expanded,
            mutual_weight=config.mutual_weight,
            consistency_weight=config.consistency_weight,
            temperature=config.temperature,
        )
        extra_s = None
        if memories.refined is not None:
            # refined labels live on satellite instances, so only satellite
            # queries get force-included partners (their refined drone
            # cluster's members); the reverse direction would drag every
            # drone cluster toward the satellite cloud and collapse it
            hard = memories.refined.hard
            extra_s = [
                memories.drone_rows_by_label.get(int(hard[int(row)]))
                for row in batch.sat_rows
            ]
        nbr = neighborhood_total(
            batch.drone_emb,
            batch.drone_rows,
            batch.sat_emb,
            batch.sat_rows,
            memories.inst_d,
            memories.inst_s,
            weights,
            extra_cross_s=extra_s,
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

    def __init__(self, config: TrainConfig, corpus: Corpus | TrainingView, params=None):
        config.validate()
        self.config = config
        if isinstance(corpus, Corpus):
            if corpus.has_ground_truth:
                corpus.check_paired()
            self.corpus = corpus
            self.view = corpus.training_view()
        else:
            self.corpus = None
            self.view = corpus
        if self.view.drone_raw.shape[1] != self.view.sat_raw.shape[1]:
            raise ConfigError("drone and satellite feature dimensions differ")
        input_dim = self.view.drone_raw.shape[1]
        if params is None:
            params = encoder.init_params(
                Rng(config.seed).derive(11), input_dim, config.hidden_dim, config.embed_dim
            )
        self.params = params
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
            mem_d=init_memory(cent_d, "drone", cfg.momentum, cfg.renormalize_memory),
            mem_s=init_memory(cent_s, "satellite", cfg.momentum, cfg.renormalize_memory),
        )
        if cfg.enable_dual:
            memories.dual_d = init_dual(
                cent_d, cfg.momentum, cfg.long_weight, cfg.short_weight, cfg.update_rule
            )
            memories.dual_s = init_dual(
                cent_s, cfg.momentum, cfg.long_weight, cfg.short_weight, cfg.update_rule
            )
        if cfg.enable_neighbor:
            memories.inst_d = build_instance_memory(emb_d, "drone")
            memories.inst_s = build_instance_memory(emb_s, "satellite")
        if cfg.enable_refine and self.epoch >= cfg.refine_start_epoch:
            refine_cfg = PerturbConfig(
                noise_std=cfg.perturb_std,
                rank_depth=cfg.rank_depth,
                smoothing_keep=cfg.smoothing_keep,
                seed=(cfg.seed * 1_000_003 + self.epoch) & 0xFFFFFFFFFFFFFFFF,
            )
            memories.refined = refine_labels(emb_s, emb_d, labels_d, refine_cfg)
            for label in range(labels_d.num_clusters):
                members = labels_d.members(label)
                if members.size:
                    memories.drone_rows_by_label[label] = members
        return memories

    def _epoch_lr(self) -> float:
        return self.config.lr * self.config.lr_decay**self.epoch

    def run_epoch(self) -> EpochRecord:
        cfg = self.config
        n, m = self.view.drone_raw.shape[0], self.view.sat_raw.shape[0]
        if cfg.enable_neighbor and min(n, m) < 2:
            # a one-row view leaves its intra-view neighbourhood pool empty
            raise DataError(
                f"neighborhood losses need at least 2 rows per view, got {n} drone / {m} satellite"
            )
        started = time.perf_counter()
        emb_d, _ = encoder.forward(self.params, self.view.drone_raw)
        emb_s, _ = encoder.forward(self.params, self.view.sat_raw)
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
            q_d, tape_d = encoder.forward(self.params, self.view.drone_raw[idx_d])
            q_s, tape_s = encoder.forward(self.params, self.view.sat_raw[idx_s])
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
            momentum_update_batch(memories.mem_d, batch.drone_cluster_ids, q_d)
            momentum_update_batch(memories.mem_s, batch.sat_cluster_ids, q_s)
            if cfg.enable_dual:
                for dm, ids, q in (
                    (memories.dual_d, batch.drone_cluster_ids, q_d),
                    (memories.dual_s, batch.sat_cluster_ids, q_s),
                ):
                    beta = compute_beta(q, dm, ids)
                    update_short_term(dm, beta, ids)
                    update_long_term_batch(dm, ids, q)
                    refresh_fused(dm)
        means = sums / iters
        record = self._evaluate_epoch(labels_d, labels_s, memories, means, started)
        self.epoch += 1
        return record

    def _evaluate_epoch(self, labels_d, labels_s, memories, means, started) -> EpochRecord:
        emb_d, _ = encoder.forward(self.params, self.view.drone_raw)
        emb_s, _ = encoder.forward(self.params, self.view.sat_raw)
        evals = dict.fromkeys(SCORE_KEYS)
        agreement = None
        if self.corpus is not None and self.corpus.has_ground_truth:
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

    def train(self, on_record=None) -> list[EpochRecord]:
        records = []
        for _ in range(self.config.epochs):
            record = self.run_epoch()
            records.append(record)
            if on_record is not None:
                on_record(record)
        return records


def summary_record(records: list[EpochRecord], config: TrainConfig | None = None) -> dict:
    """Best-epoch retrieval summary; best means highest drone-to-satellite
    Recall@1, earliest epoch winning ties."""
    summary: dict = {"epochs": len(records), "best_epoch": None}
    if config is not None:
        summary["components"] = {
            "dual": config.enable_dual,
            "neighbor": config.enable_neighbor,
            "refine": config.enable_refine,
        }
    scored = [r for r in records if r.r1_ds is not None]
    if scored:
        best = max(scored, key=lambda r: (r.r1_ds, -r.epoch))
        summary["best_epoch"] = best.epoch
        for key in SCORE_KEYS:
            summary[key] = getattr(best, key)
    return {"summary": summary}


def write_metrics(records: list[EpochRecord], path, config: TrainConfig | None = None) -> None:
    """Line-delimited JSON: one record per epoch, then a summary line.

    A zero-epoch run leaves the file empty.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if not records:
            return
        for record in records:
            fh.write(json.dumps(record.metrics_dict(), sort_keys=True) + "\n")
        fh.write(json.dumps(summary_record(records, config), sort_keys=True) + "\n")
