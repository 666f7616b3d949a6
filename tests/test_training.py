import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labelings, unit_rows
from crossview import encoder
from crossview.cluster_memory import init_memory
from crossview.clustering import (
    DbscanParams,
    PseudoLabels,
    collapse_replica_labels,
    dbscan,
    replicate_features,
)
from crossview.datagen import Corpus, SyntheticSpec, generate
from crossview.errors import ClusteringError, ConfigError
from crossview.label_refine import RefinedLabels
from crossview.metrics import evaluate_retrieval
from crossview.neighborhood import build_instance_memory
from crossview.numcore import Rng
from crossview.config import ABLATIONS
from crossview.training import (
    EpochMemories,
    TrainConfig,
    Trainer,
    ViewBatch,
    ViewMemories,
    sample_view_batch,
    summary_record,
    total_loss,
    write_metrics,
)
from reference import reference_total, sample_by_scan, tilted_view_corpus


def tiny_config(**overrides):
    base = dict(
        epochs=2,
        p_classes=4,
        z_instances=2,
        replication=8,
        hidden_dim=16,
        embed_dim=8,
        k_strict=2,
        k_expanded=5,
        rank_depth=4,
        smoothing_keep=3,
        dbscan_eps=0.3,
        dbscan_min_pts=2,
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_corpus(seed=3):
    return generate(
        SyntheticSpec(
            num_locations=10,
            latent_dim=6,
            input_dim=12,
            drone_per_loc=5,
            sat_per_loc=1,
            noise_std=0.02,
            seed=seed,
        )
    )


def quiet_train(config, corpus):
    trainer = Trainer(config, corpus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = trainer.train()
    return trainer, records


class TestConfig:
    def test_batch_size(self):
        assert TrainConfig(p_classes=16, z_instances=4).batch_size == 64

    def test_defaults_are_valid(self):
        TrainConfig().validate()

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(temperature=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(k_strict=9, k_expanded=3).validate()
        with pytest.raises(ConfigError):
            TrainConfig(momentum=0.7).validate()  # damped rule bound
        with pytest.raises(ConfigError, match="coeff_dual must be finite"):
            TrainConfig(coeff_dual=float("nan")).validate()
        # the one check of each rule the memories, losses, refinement and
        # optimiser take as given
        for values, message in (
            (dict(long_weight=0.0, short_weight=0.0), "fusion weights cannot both be zero"),
            (dict(update_rule="exact"), "unknown update_rule"),
            (dict(perturb_std=-0.01), "perturb_std must be >= 0"),
            (dict(rank_depth=0), "rank_depth must be >= 1"),
            (dict(smoothing_keep=0), "smoothing_keep must be >= 1"),
            (dict(neighbor_threshold=1.0), "neighbor_threshold must be in (0, 1)"),
            (dict(mutual_weight=-0.5), "mutual_weight must be >= 0"),
            (dict(lr=-0.001), "lr must be >= 0"),
            (dict(epochs=3, lr=0.0, lr_decay=1e300), "lr_decay: the last rate"),
        ):
            with pytest.raises(ConfigError) as err:
                TrainConfig(**values).validate()
            assert str(err.value).startswith(message), values

    def test_ablation_presets(self):
        cfg = TrainConfig().with_ablation("baseline")
        assert not (cfg.enable_dual or cfg.enable_neighbor or cfg.enable_refine)
        full = TrainConfig(enable_dual=False).with_ablation("full")
        assert full.enable_dual and full.enable_neighbor and full.enable_refine
        with pytest.raises(ConfigError):
            TrainConfig().with_ablation("bogus")
        assert set(ABLATIONS) == {"baseline", "dual-memory", "neighbor", "full"}


class TestSampler:
    def make_labels(self):
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, -1, -1])
        return PseudoLabels(labels=labels, num_clusters=3)

    def test_single_query(self):
        got = sample_view_batch(self.make_labels(), 1, 1, Rng(0))
        assert got.shape == (1,)
        assert got[0] != 9 and got[0] != 10

    def test_noise_never_sampled(self):
        labels = self.make_labels()
        for seed in range(30):
            got = sample_view_batch(labels, 3, 4, Rng(seed))
            assert np.all(labels.labels[got] >= 0)

    def test_distinct_clusters_per_batch(self):
        labels = self.make_labels()
        for seed in range(30):
            got = sample_view_batch(labels, 3, 2, Rng(seed))
            picked = labels.labels[got].reshape(3, 2)
            firsts = picked[:, 0]
            assert len(set(firsts.tolist())) == 3
            assert np.all(picked[:, 0] == picked[:, 1])

    def test_small_cluster_sampled_with_replacement(self):
        labels = PseudoLabels(labels=np.array([0, 1]), num_clusters=2)
        got = sample_view_batch(labels, 2, 4, Rng(5))
        assert got.shape == (8,)

    def test_too_few_clusters_rejected(self):
        with pytest.raises(ValueError):
            sample_view_batch(self.make_labels(), 4, 1, Rng(0))

    def test_one_stream_draws_both_views(self):
        # the trainer draws the drone batch, then the satellite batch, from one stream
        labels = self.make_labels()
        rng = Rng(1)
        idx_d = sample_view_batch(labels, 2, 3, rng)
        idx_s = sample_view_batch(labels, 2, 3, rng)
        assert idx_d.shape == (6,) and idx_s.shape == (6,)

    @given(labelings(), st.integers(1, 6), st.data())
    @settings(deadline=None, max_examples=100)
    def test_matches_per_cluster_scan(self, labels, z, data):
        # clusters of 1-10 rows against z of 1-6; p up to every cluster
        p = data.draw(st.one_of(st.just(labels.num_clusters), st.integers(1, labels.num_clusters)))
        seed = data.draw(st.integers(0, 2**32))
        rng, ref_rng = Rng(seed), Rng(seed)
        for _ in range(2):
            got = sample_view_batch(labels, p, z, rng)
            np.testing.assert_array_equal(got, sample_by_scan(labels, p, z, ref_rng))
        assert rng._gen.bit_generator.state == ref_rng._gen.bit_generator.state

    def test_cluster_selection_uniform(self):
        labels = PseudoLabels(labels=np.arange(8).repeat(2), num_clusters=8)
        rng = Rng(123)
        counts = np.zeros(8)
        draws = 10_000
        for _ in range(draws):
            picked = sample_view_batch(labels, 2, 1, rng)
            for idx in picked:
                counts[labels.labels[idx]] += 1
        expect = draws * 2 / 8
        sigma = np.sqrt(draws * 2 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expect) <= 3 * sigma)


class TestEpoch:
    def test_deterministic_records(self):
        corpus = tiny_corpus()
        _, records_a = quiet_train(tiny_config(), corpus)
        _, records_b = quiet_train(tiny_config(), corpus)
        for a, b in zip(records_a, records_b):
            da, db = a.metrics_dict(), b.metrics_dict()
            assert da == db

    def test_zero_lr_keeps_metrics(self):
        corpus = tiny_corpus()
        cfg = tiny_config(lr=0.0, epochs=2, enable_refine=False)
        _, records = quiet_train(cfg, corpus)
        assert records[0].r1_ds == records[1].r1_ds
        assert records[0].ap_sd == records[1].ap_sd

    def test_losses_finite_all_ablations(self):
        corpus = tiny_corpus()
        for name in ABLATIONS:
            cfg = tiny_config(epochs=1).with_ablation(name)
            _, records = quiet_train(cfg, corpus)
            assert np.isfinite(records[0].loss_total)

    def test_baseline_total_equals_base(self):
        corpus = tiny_corpus()
        cfg = tiny_config(epochs=1).with_ablation("baseline")
        _, records = quiet_train(cfg, corpus)
        assert records[0].loss_total == pytest.approx(records[0].loss_base, abs=1e-12)

    def test_dual_without_fused_weight_doubles_base(self):
        corpus = tiny_corpus()
        cfg = tiny_config(epochs=1, fused_loss_weight=0.0).with_ablation("dual-memory")
        _, records = quiet_train(cfg, corpus)
        assert records[0].loss_total == pytest.approx(2 * records[0].loss_base, rel=1e-12)

    def test_memories_rebuilt_each_epoch(self):
        corpus = tiny_corpus()
        _, records = quiet_train(tiny_config(epochs=2), corpus)
        assert [r.epoch for r in records] == [0, 1]
        assert all(r.clusters_drone > 0 and r.clusters_sat > 0 for r in records)

    def test_refine_agreement_recorded(self):
        corpus = tiny_corpus()
        _, records = quiet_train(tiny_config(epochs=1, refine_start_epoch=0), corpus)
        assert records[0].refine_agreement is not None
        assert 0.0 <= records[0].refine_agreement <= 1.0

    def test_refine_waits_for_start_epoch(self):
        corpus = tiny_corpus()
        _, records = quiet_train(tiny_config(epochs=2, refine_start_epoch=1), corpus)
        assert records[0].refine_agreement is None
        assert records[1].refine_agreement is not None

    def test_unlabelled_corpus_skips_evaluation_forwards(self, monkeypatch):
        labelled = tiny_corpus()
        corpus = Corpus(labelled.drone_raw, labelled.sat_raw)
        calls = []
        forward = encoder.forward

        def counting_forward(params, X):
            calls.append(1)
            return forward(params, X)

        monkeypatch.setattr(encoder, "forward", counting_forward)
        _, records = quiet_train(tiny_config(epochs=1, iters_per_epoch=3), corpus)
        assert records[0].r1_ds is None
        # each view once for clustering, then both views per minibatch
        assert len(calls) == 2 + 2 * 3


class TestRefinedPartners:
    def test_neighbor_term_matches_reference_with_refined_members(self):
        # with the base and dual terms off, total_loss returns the
        # neighbourhood value and gradients alone; each satellite query's
        # forced partners are every drone row of its refined cluster
        rng = np.random.default_rng(11)
        cfg = TrainConfig(
            enable_dual=False, coeff_base=0.0, neighbor_threshold=0.9, k_strict=2,
            k_expanded=4, mutual_weight=0.7, consistency_weight=1.3,
        )
        labels_d = PseudoLabels(labels=np.array([0, 0, 1, -1, 1, 2, 2, 2, 3, 1]), num_clusters=4)
        hard = np.array([2, 1, 0, 3, 2, 1])
        inst_d = build_instance_memory(unit_rows(rng, 10, 4))
        inst_s = build_instance_memory(unit_rows(rng, 6, 4))
        mem_d = ViewMemories(labels_d, init_memory(unit_rows(rng, 4, 4)), instances=inst_d)
        labels_s = PseudoLabels(hard % 3, 3)
        mem_s = ViewMemories(labels_s, init_memory(unit_rows(rng, 3, 4)), instances=inst_s)
        refined = RefinedLabels(scores=np.eye(4)[hard], hard=hard)
        memories = EpochMemories(views=(mem_d, mem_s), refined=refined)
        drone_rows, sat_rows = np.array([0, 4, 7]), np.array([1, 3, 3, 4])
        emb_d = inst_d[drone_rows] + 0.05 * rng.standard_normal((3, 4))
        emb_s = inst_s[sat_rows] + 0.05 * rng.standard_normal((4, 4))
        batch = [
            ViewBatch(emb_d, np.array([0, 1, 2]), drone_rows),
            ViewBatch(emb_s, np.array([0, 2, 2, 1]), sat_rows),
        ]
        partners = [np.flatnonzero(labels_d.labels == hard[row]) for row in sat_rows]
        value, gd, gs = reference_total(
            emb_d, drone_rows, emb_s, sat_rows, inst_d, inst_s, cfg,
            partners_s=partners,
        )
        got = total_loss(batch, memories, cfg)
        assert got.neighbor == pytest.approx(value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(got.grads[0], gd, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.grads[1], gs, rtol=1e-12, atol=1e-12)
        memories.refined = None
        assert total_loss(batch, memories, cfg).neighbor != pytest.approx(value, abs=1e-9)


class TestSatelliteClustering:
    def test_labels_match_replicated_reference(self):
        corpus = tiny_corpus()
        cfg = tiny_config(dbscan_min_pts=12)  # 12 over 8 replicas: 2 originals needed
        trainer = Trainer(cfg, corpus)
        emb_d, _ = encoder.forward(trainer.params, trainer.corpus.drone_raw)
        emb_s, _ = encoder.forward(trainer.params, trainer.corpus.sat_raw)
        _, labels_s = trainer._pseudo_labels(emb_d, emb_s)
        rep, idx = replicate_features(emb_s, cfg.replication)
        db = DbscanParams(eps=cfg.dbscan_eps, min_pts=cfg.dbscan_min_pts)
        want = collapse_replica_labels(dbscan(rep, db), idx, emb_s.shape[0])
        assert labels_s.num_clusters == want.num_clusters
        np.testing.assert_array_equal(labels_s.labels, want.labels)

    def test_dbscan_never_sees_replicated_rows(self, monkeypatch):
        corpus = tiny_corpus()  # 50 drone, 10 satellite rows; 8 replicas would be 80
        seen = []

        def recording_dbscan(features, params):
            seen.append(np.shape(features)[0])
            return dbscan(features, params)

        monkeypatch.setattr("crossview.training.dbscan", recording_dbscan)
        quiet_train(tiny_config(epochs=1), corpus)
        assert seen
        assert max(seen) <= max(corpus.drone_raw.shape[0], corpus.sat_raw.shape[0])

    def test_all_noise_satellites_raise_clustering_error(self):
        # no satellite lies within eps of another, and one replica cannot reach min_pts
        corpus = generate(
            SyntheticSpec(num_locations=8, latent_dim=4, input_dim=8, drone_per_loc=4, seed=1)
        )
        trainer = Trainer(TrainConfig(replication=1, dbscan_min_pts=4), corpus)
        with pytest.raises(ClusteringError, match="0 satellite clusters"):
            trainer.run_epoch()


class TestCrossViewLearning:
    # the canonical corpus, but with a satellite map tilted from the drone
    # map by 0.9 rad instead of drawn independently of it
    SPEC = SyntheticSpec(
        num_locations=64, latent_dim=16, input_dim=32, drone_per_loc=8,
        sat_per_loc=1, noise_std=0.05, seed=2024,
    )

    @pytest.fixture(scope="class")
    def r1(self):
        """Final drone-to-satellite R@1 of each ablation at training seed 38."""
        corpus = tilted_view_corpus(self.SPEC, 0.9)
        gt_d, gt_s = corpus.ground_truth()
        r1 = {}
        for name in ("baseline", "dual-memory", "full"):
            cfg = TrainConfig(seed=38, epochs=15, iters_per_epoch=32, smoothing_keep=1)
            trainer = Trainer(cfg.with_ablation(name), corpus)
            if not r1:
                emb_d, _ = encoder.forward(trainer.params, corpus.drone_raw)
                emb_s, _ = encoder.forward(trainer.params, corpus.sat_raw)
                r1["untrained"] = evaluate_retrieval(emb_d, emb_s, gt_d, gt_s)["r1_ds"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                r1[name] = trainer.train()[-1].r1_ds
        return r1

    def test_full_beats_baseline_beats_untrained(self, r1):
        # With these settings the order held at every epoch count from 13
        # on for training seeds 38-53, which chose the count, and at 15
        # epochs for seeds 54-69; seed 38 ends about 0.03 and 0.05 apart
        assert r1["untrained"] < r1["baseline"] < r1["full"], r1

    def test_dual_memory_beats_baseline(self, r1):
        # At 15 epochs, dual-memory beat baseline on all 32 training seeds
        # 38-69, by 0.021 or more; seed 38 ends 0.037 apart. It is not
        # pinned against full: full ended below dual-memory on seeds 42
        # (0.568 against 0.574) and 51 (0.633 against 0.639), and level
        # with it on seed 65. README has the whole sweep.
        assert r1["untrained"] < r1["baseline"] < r1["dual-memory"], r1


class TestMetricsFile:
    def test_jsonl_contents(self, tmp_path):
        corpus = tiny_corpus()
        config = tiny_config(epochs=2)
        _, records = quiet_train(config, corpus)
        path = tmp_path / "metrics.jsonl"
        write_metrics(records, path, config)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["epoch"] == 0
        assert "wall_clock" not in first
        summary = json.loads(lines[-1])
        assert "summary" in summary
        assert summary["summary"]["epochs"] == 2

    def test_zero_epochs_empty_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        write_metrics([], path, tiny_config(epochs=0))
        assert path.read_text() == ""

    def test_summary_picks_best_epoch(self):
        corpus = tiny_corpus()
        config = tiny_config(epochs=2)
        _, records = quiet_train(config, corpus)
        summary = summary_record(records, config)["summary"]
        best = max(records, key=lambda r: (r.r1_ds, -r.epoch))
        assert summary["best_epoch"] == best.epoch
        assert summary["r1_ds"] == best.r1_ds


# one full-method epoch with refinement, then the CLI's evaluation
FULL_EPOCH_AND_EVAL = """
import sys, warnings
from crossview.cli import _evaluation
from crossview.datagen import SyntheticSpec, generate
from crossview.training import TrainConfig, Trainer
corpus = generate(SyntheticSpec(num_locations=10, latent_dim=6, input_dim=12, drone_per_loc=5,
                                noise_std=0.02, seed=3))
config = TrainConfig(epochs=1, p_classes=4, z_instances=2, replication=8, hidden_dim=16,
                     embed_dim=8, k_strict=2, k_expanded=5, rank_depth=4, smoothing_keep=3,
                     dbscan_eps=0.3, dbscan_min_pts=2, refine_start_epoch=0, seed=7)
trainer = Trainer(config.with_ablation("full"), corpus)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    trainer.train()
_evaluation(trainer.params, corpus)
print("numpy.ma" in sys.modules)
"""


def test_epoch_and_evaluation_leave_numpy_ma_unimported():
    # numpy.ma adds about 1.25 MB to the resident set; plain np.unique and
    # np.setdiff1d import it on their first call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", FULL_EPOCH_AND_EVAL], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
