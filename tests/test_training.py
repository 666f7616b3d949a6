import json
import warnings

import numpy as np
import pytest

from crossview import encoder
from crossview.clustering import (
    DbscanParams,
    PseudoLabels,
    collapse_replica_labels,
    dbscan,
    replicate_features,
)
from crossview.datagen import SyntheticSpec, generate
from crossview.errors import ClusteringError, ConfigError
from crossview.numcore import Rng
from crossview.training import (
    ABLATIONS,
    TrainConfig,
    Trainer,
    sample_view_batch,
    summary_record,
    write_metrics,
)


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


class TestSatelliteClustering:
    def test_labels_match_replicated_reference(self):
        corpus = tiny_corpus()
        cfg = tiny_config(dbscan_min_pts=12)  # 12 over 8 replicas: 2 originals needed
        trainer = Trainer(cfg, corpus)
        emb_d, _ = encoder.forward(trainer.params, trainer.view.drone_raw)
        emb_s, _ = encoder.forward(trainer.params, trainer.view.sat_raw)
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


class TestMetricsFile:
    def test_jsonl_contents(self, tmp_path):
        corpus = tiny_corpus()
        _, records = quiet_train(tiny_config(epochs=2), corpus)
        path = tmp_path / "metrics.jsonl"
        write_metrics(records, path)
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
        write_metrics([], path)
        assert path.read_text() == ""

    def test_summary_picks_best_epoch(self):
        corpus = tiny_corpus()
        _, records = quiet_train(tiny_config(epochs=2), corpus)
        summary = summary_record(records)["summary"]
        best = max(records, key=lambda r: (r.r1_ds, -r.epoch))
        assert summary["best_epoch"] == best.epoch
        assert summary["r1_ds"] == best.r1_ds
