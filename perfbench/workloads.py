"""The benchmark's workloads: corpora, configurations, and the round, the
unit of identical work that a run repeats.

A training round trains a fresh ``Trainer`` for a fixed number of epochs
and deploys the encoder after every epoch: a few full two-direction
evaluations (what ``crossview eval`` computes) and a closed-loop,
single-client stream of single drone queries against the satellite gallery
embedded beforehand. Serving after every epoch rather than once per round
spreads the evaluation and latency samples over the whole run, so a change
in the shared machine's speed affects them as much as the epochs. The
``retrieve`` round has no training: one batch evaluation and the query
stream of a freshly initialised encoder, as ``crossview train --epochs 0``
writes it. Every round of a run repeats the same seeded work, so rounds
give identical outputs and per-round figures do not depend on how many
rounds fitted in the run.
"""

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracles
from crossview import cli, encoder, metrics
from crossview.clustering import DbscanParams, collapse_replica_labels, dbscan, replicate_features
from crossview.datagen import SyntheticSpec
from crossview.training import TrainConfig, Trainer

# --seed 0 gives the acceptance suite's canonical corpus and training seeds.
CORPUS_SEED = 2024
TRAIN_SEED = 38
# The acceptance suite's canonical run, minus its epoch count.
CANONICAL = dict(iters_per_epoch=32, smoothing_keep=1)
COUNT_SHARE = 0.15  # final cluster counts must lie this close to the true locations


@dataclass(frozen=True)
class Workload:
    name: str
    locations: int
    ablation: str | None  # None: no training
    epochs: int = 0
    overrides: tuple = ()
    evaluations: int = 3  # full evaluations per deployment
    stream: int = 2048  # single queries streamed per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-full",
            locations=64,
            ablation="full",
            epochs=4,
            overrides=(("refine_start_epoch", 2),),
        ),
        Workload(
            "train-memory",
            locations=64,
            ablation="dual-memory",
            epochs=3,
            overrides=(("p_classes", 32), ("z_instances", 8)),
        ),
        Workload(
            "cluster-wide",
            locations=128,
            ablation="baseline",
            epochs=3,
            evaluations=1,
        ),
        Workload(
            "retrieve",
            locations=384,
            ablation=None,
            evaluations=1,
            stream=3072,
        ),
    )
}


def corpus_spec(locations: int, seed: int, **changes) -> SyntheticSpec:
    spec = SyntheticSpec(
        num_locations=locations,
        latent_dim=16,
        input_dim=32,
        drone_per_loc=8,
        sat_per_loc=1,
        noise_std=0.05,
        seed=CORPUS_SEED + seed,
    )
    return replace(spec, **changes)


def train_config(workload: Workload, seed: int) -> TrainConfig:
    config = TrainConfig(
        seed=TRAIN_SEED + seed, epochs=workload.epochs, **CANONICAL, **dict(workload.overrides)
    )
    return config.with_ablation(workload.ablation or "baseline")


@dataclass
class Deployment:
    """One encoder served: its evaluation and its streamed queries' answers."""

    params: encoder.EncoderParams
    scores: dict
    queries: np.ndarray  # drone rows streamed
    top1: np.ndarray


@dataclass
class Round:
    op_times: list = field(default_factory=list)  # epochs; the whole round for retrieve
    eval_times: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    records: list = field(default_factory=list)  # epoch records as JSON lines
    deployments: list = field(default_factory=list)


class Bench:
    """Set-up state of one workload run, and its rounds and checks."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.config = train_config(workload, seed)
        descriptor = {"kind": "synthetic", **corpus_spec(workload.locations, seed).__dict__}
        self.corpus = cli._resolve_corpus(descriptor)
        self.trainer = None
        if workload.ablation is None:
            # deployment path: the corpus and the checkpoint come from files
            drone, sat = scratch / cli.DRONE_FILE, scratch / cli.SAT_FILE
            cli.save_corpus(self.corpus, drone, sat)
            self.corpus = cli._resolve_corpus(
                {"kind": "files", "drone": str(drone), "satellite": str(sat)}
            )
            checkpoint = scratch / "checkpoint.dmpw"
            encoder.save_params(Trainer(self.config, self.corpus).params, checkpoint)
            self.params = encoder.load_params(checkpoint)
            self.gallery, _ = encoder.forward(self.params, self.corpus.sat_raw)
        else:
            self.trainer = Trainer(self.config, self.corpus)
        order = np.random.default_rng(seed).permutation(self.corpus.drone_raw.shape[0])
        self.chunks = np.array_split(np.resize(order, workload.stream), max(1, workload.epochs))
        self.attempted = workload.epochs + len(self.chunks) * workload.evaluations + workload.stream

    def run_round(self) -> Round:
        clock = time.perf_counter
        started = clock()
        out = Round()
        if self.workload.ablation is None:
            self._serve(self.params, self.gallery, self.chunks[0], out)
            out.op_times.append(clock() - started)
            return out
        trainer = self.trainer or Trainer(self.config, self.corpus)
        self.trainer = None
        for chunk in self.chunks:
            t0 = clock()
            record = trainer.run_epoch()
            out.op_times.append(clock() - t0)
            out.records.append(json.dumps(record.metrics_dict(), sort_keys=True))
            gallery, _ = encoder.forward(trainer.params, self.corpus.sat_raw)
            self._serve(trainer.params, gallery, chunk, out)
        return out

    def _serve(self, params, gallery, chunk, out: Round) -> None:
        clock = time.perf_counter
        for _ in range(self.workload.evaluations):
            t0 = clock()
            scores = cli._evaluation(params, self.corpus)
            out.eval_times.append(clock() - t0)
        drone = self.corpus.drone_raw
        top1 = np.empty(chunk.size, dtype=np.int64)
        for j, i in enumerate(chunk):
            t0 = clock()
            query, _ = encoder.forward(params, drone[i : i + 1])
            top1[j] = metrics.rank_gallery(query, gallery)[0, 0]
            out.latencies.append(clock() - t0)
        out.deployments.append(Deployment(params, scores, chunk, top1))

    def check(self, rounds: list) -> list[str]:
        """Compare the program's outputs with the oracles; list every problem."""
        problems = []
        first = rounds[0]
        for i, other in enumerate(rounds[1:], 2):
            same = other.records == first.records and all(
                a.scores == b.scores
                and np.array_equal(a.top1, b.top1)
                and encoder.flatten_params(a.params).tobytes()
                == encoder.flatten_params(b.params).tobytes()
                for a, b in zip(first.deployments, other.deployments)
            )
            if not same:
                problems.append(f"round {i} differs from round 1 on identical inputs")
        drone, sat = self.corpus.drone_raw, self.corpus.sat_raw
        gt_d, gt_s = self.corpus.ground_truth()
        records = first.records or [None]
        for k, (record, served) in enumerate(zip(records, first.deployments)):
            emb_d, _ = encoder.forward(served.params, drone)
            emb_s, _ = encoder.forward(served.params, sat)
            expected = oracles.evaluation(emb_d, emb_s, gt_d, gt_s)
            problems += oracles.compare_scores(expected, served.scores, f"evaluation {k}")
            if record is not None:
                problems += oracles.compare_scores(expected, json.loads(record), f"epoch {k} record")
            # each streamed query embedded alone, as the stream embedded it
            queries = np.vstack([encoder.forward(served.params, drone[i : i + 1])[0] for i in served.queries])
            problems += oracles.compare_top1(emb_s, queries, served.top1, f"query stream {k}")
        if first.records:
            final = json.loads(first.records[-1])
            for key in ("clusters_drone", "clusters_sat"):
                problems += oracles.compare_count(
                    final[key], self.workload.locations, COUNT_SHARE, f"final {key}"
                )
            problems += self._check_clustering(emb_d, emb_s)  # the final encoder's
        problems += self._check_noiseless(first.deployments[-1].params)
        return problems

    def _check_clustering(self, emb_d, emb_s) -> list[str]:
        cfg = self.config
        db = DbscanParams(eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts)
        replicated, index_map = replicate_features(emb_s, cfg.replication)
        sat = collapse_replica_labels(dbscan(replicated, db), index_map, emb_s.shape[0])
        return oracles.compare_labels(
            oracles.density_labels(emb_d, db.eps, db.min_pts), dbscan(emb_d, db).labels, "drone dbscan"
        ) + oracles.compare_labels(
            oracles.replicated_density_labels(emb_s, cfg.replication, db.eps, db.min_pts),
            sat.labels,
            "replicated satellite dbscan",
        )

    def _check_noiseless(self, params) -> list[str]:
        """Identical views of one location must retrieve each other first."""
        spec = corpus_spec(32, self.seed, noise_std=0.0, shared_view_maps=True)
        corpus = cli._resolve_corpus({"kind": "synthetic", **spec.__dict__})
        scores = cli._evaluation(params, corpus)
        problems = [
            f"noiseless corpus: {key} is {scores[key]}, expected exactly 1"
            for key in ("r1_ds", "ap_ds")
            if scores[key] != 1.0
        ]
        emb_d, _ = encoder.forward(params, corpus.drone_raw)
        emb_s, _ = encoder.forward(params, corpus.sat_raw)
        expected = oracles.evaluation(emb_d, emb_s, *corpus.ground_truth())
        return problems + oracles.compare_scores(expected, scores, "noiseless evaluation")
