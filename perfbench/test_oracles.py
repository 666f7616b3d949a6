"""Tests of the benchmark's oracles: each agrees with the program on good
output and catches a planted wrong label or wrong ranking.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from crossview import metrics  # noqa: E402
from crossview.clustering import (  # noqa: E402
    DbscanParams,
    collapse_replica_labels,
    dbscan,
    replicate_features,
)


def blobs(seed, centres=6, per=7, dim=8, spread=0.05):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((centres, dim))
    points = np.repeat(base, per, axis=0) + spread * rng.standard_normal((centres * per, dim))
    points = np.vstack([points, rng.standard_normal((4, dim))])  # likely noise
    return points[rng.permutation(points.shape[0])]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("eps,min_pts", [(0.02, 3), (0.05, 4), (0.3, 2)])
def test_density_labels_match_dbscan(seed, eps, min_pts):
    points = blobs(seed)
    program = dbscan(points, DbscanParams(eps=eps, min_pts=min_pts)).labels
    assert oracles.compare_labels(oracles.density_labels(points, eps, min_pts), program, "x") == []


def test_density_labels_border_goes_to_lowest_core_neighbour():
    # angles on the unit circle: core runs at 0.29-0.32 and 0.00-0.03, a
    # border point at 0.16 that reaches one core point of each, and noise
    angles = np.array([0.29, 0.30, 0.31, 0.32, 0.03, 0.02, 0.01, 0.0, 0.16, 2.0])
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    eps = 1.0 - np.cos(0.135)
    labels = oracles.density_labels(points, eps, min_pts=4)
    assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 0, -1]
    assert dbscan(points, DbscanParams(eps=eps, min_pts=4)).labels.tolist() == labels.tolist()


def test_replicated_labels_match_the_trainer_path():
    points = blobs(7, per=1, centres=12, spread=0.0)
    params = DbscanParams(eps=0.1, min_pts=4)
    replicated, index_map = replicate_features(points, 5)
    program = collapse_replica_labels(dbscan(replicated, params), index_map, points.shape[0])
    expected = oracles.replicated_density_labels(points, 5, params.eps, params.min_pts)
    assert oracles.compare_labels(expected, program.labels, "x") == []


def test_planted_wrong_label_is_caught():
    points = blobs(3)
    labels = dbscan(points, DbscanParams(eps=0.05, min_pts=4)).labels.copy()
    labels[int(np.flatnonzero(labels >= 0)[0])] += 1
    problems = oracles.compare_labels(oracles.density_labels(points, 0.05, 4), labels, "planted")
    assert len(problems) == 1 and "1 labels differ" in problems[0]


def retrieval_case(seed, n_loc=10, per=4):
    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((n_loc, 6))
    gt_d = np.repeat(np.arange(n_loc), per)
    gt_s = np.arange(n_loc)
    emb_d = latents[gt_d] + 0.8 * rng.standard_normal((gt_d.size, 6))
    emb_s = latents + 0.8 * rng.standard_normal((n_loc, 6))
    return emb_d, emb_s, gt_d, gt_s


def program_scores(emb_d, emb_s, gt_d, gt_s):
    out = {}
    for prefix, q, g, qt, gt in (("ds", emb_d, emb_s, gt_d, gt_s), ("sd", emb_s, emb_d, gt_s, gt_d)):
        for k in oracles.KS:
            out[f"r{k}_{prefix}"] = metrics.recall_at_k(q, g, qt, gt, k)
        out[f"ap_{prefix}"] = metrics.average_precision(q, g, qt, gt)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_evaluation_matches_program(seed):
    case = retrieval_case(seed)
    assert oracles.compare_scores(oracles.evaluation(*case), program_scores(*case), "x") == []


def test_ties_rank_by_lower_index():
    gallery = oracles.unit_rows(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.6, 0.8]]))
    assert oracles.ranking(np.array([1.0, 0.0]), gallery).tolist() == [0, 2, 3, 1]
    assert metrics.rank_gallery(np.array([[1.0, 0.0]]), gallery)[0].tolist() == [0, 2, 3, 1]


def test_planted_wrong_ranking_is_caught():
    emb_d, emb_s, gt_d, gt_s = retrieval_case(11)
    ranking = metrics.rank_gallery(emb_d, emb_s)
    hits = gt_s[ranking[:, 0]] == gt_d
    query = int(np.flatnonzero(hits)[0])
    # swap that query's correct first answer with its second one
    ranking[query, [0, 1]] = ranking[query, [1, 0]]
    planted = {"r1_ds": float(np.mean(gt_s[ranking[:, 0]] == gt_d))}
    expected = {"r1_ds": oracles.evaluation(emb_d, emb_s, gt_d, gt_s)["r1_ds"]}
    assert len(oracles.compare_scores(expected, planted, "planted")) == 1
    top1 = ranking[:, 0]
    problems = oracles.compare_top1(emb_s, emb_d, top1, "planted")
    assert len(problems) == 1 and "1 of" in problems[0]
    assert oracles.compare_top1(emb_s, emb_d, metrics.rank_gallery(emb_d, emb_s)[:, 0], "x") == []


def test_planted_wrong_ap_is_caught():
    case = retrieval_case(4)
    scores = program_scores(*case)
    scores["ap_sd"] += 1e-9
    problems = oracles.compare_scores(oracles.evaluation(*case), scores, "planted")
    assert len(problems) == 1 and "ap_sd" in problems[0]


def test_count_share():
    assert oracles.compare_count(73, 64, 0.15, "x") == []
    assert len(oracles.compare_count(54, 64, 0.15, "x")) == 1
    assert len(oracles.compare_count(75, 64, 0.15, "x")) == 1
