"""The trainer's settings. ``TrainConfig`` is the only object that holds
them and ``TrainConfig.validate`` their only check; a layer takes the
validated config, or the one value it needs. This module imports no layer."""

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

UPDATE_RULES = ("damped", "normalized")

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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        # the schedule's largest rate is its first (lr) or its last one
        try:
            last_lr = self.lr * self.lr_decay ** max(self.epochs - 1, 0)
        except OverflowError:
            last_lr = math.inf
        checks = [
            (0.0 <= self.momentum <= 1.0, "momentum must lie in [0, 1]"),
            (self.lr >= 0.0, "lr must be >= 0"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.p_classes >= 1 and self.z_instances >= 1, "P and Z must be >= 1"),
            (self.iters_per_epoch >= 0, "iters_per_epoch must be >= 0"),
            (self.lr_decay > 0.0, "lr_decay must be positive"),
            (math.isfinite(last_lr), "lr_decay: the last rate lr * lr_decay ** (epochs - 1) must be finite"),
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
