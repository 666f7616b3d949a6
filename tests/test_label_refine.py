import numpy as np
import pytest

from conftest import unit_rows
from crossview.clustering import NOISE, PseudoLabels
from crossview.label_refine import (
    PerturbConfig,
    consistency_vote,
    one_hot,
    perturb,
    rank_label_lists,
    refine_labels,
    refinement_agreement,
    smooth_labels,
)
from crossview.numcore import Rng


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

    lo = ranked_labels(sat, drone)
    lp = ranked_labels(sat_p, drone_p)
    voted = []
    for m in range(len(sat)):
        counts = {}
        for lab in set(lo[m]) | set(lp[m]):
            counts[lab] = min(lo[m].count(lab), lp[m].count(lab))
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]), default=(None, 0))
        voted.append(best[0] if best[1] > 0 else lo[m][0])
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


class TestPerturb:
    def test_zero_sigma_identity(self, np_rng):
        feats = unit_rows(np_rng, 4, 5)
        out = perturb(feats, 0.0, Rng(3))
        np.testing.assert_array_equal(out, feats)

    def test_deterministic_per_seed(self, np_rng):
        feats = unit_rows(np_rng, 4, 5)
        a = perturb(feats, 0.05, Rng(9))
        b = perturb(feats, 0.05, Rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rows_unit_after(self, np_rng):
        out = perturb(unit_rows(np_rng, 6, 4), 0.2, Rng(1))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_noise_scale(self):
        feats = np.zeros((1000, 100))
        feats[:, 0] = 1.0
        rng = Rng(7)
        noisy = feats + rng.normal(feats.shape, scale=0.01)
        eps = noisy - feats
        assert abs(eps.std() - 0.01) <= 0.001


class TestRankLists:
    def make_labels(self, raw):
        arr = np.asarray(raw, dtype=np.int64)
        k = int(arr.max()) + 1 if np.any(arr >= 0) else 0
        return PseudoLabels(labels=arr, num_clusters=k)

    def test_exact_match_tops_list(self):
        drone = np.array([[1.0, 0.0], [0.0, 1.0]])
        sat = np.array([[1.0, 0.0]])
        labels = self.make_labels([0, 1])
        lists = rank_label_lists(sat, drone, labels, 2)
        np.testing.assert_array_equal(lists, [[0, 1]])

    def test_noise_excluded_from_gallery(self):
        drone = np.array([[1.0, 0.0], [0.999, 0.04], [0.0, 1.0]])
        sat = np.array([[1.0, 0.0]])
        labels = self.make_labels([NOISE, 0, 1])
        lists = rank_label_lists(sat, drone, labels, 2)
        np.testing.assert_array_equal(lists, [[0, 1]])

    def test_matches_sort_oracle(self, np_rng):
        drone = unit_rows(np_rng, 12, 5)
        sat = unit_rows(np_rng, 4, 5)
        raw = np_rng.integers(0, 3, size=12)
        raw[:3] = [0, 1, 2]
        labels = self.make_labels(raw)
        lists = rank_label_lists(sat, drone, labels, 6)
        for m in range(4):
            sims = sat[m] @ drone.T
            order = sorted(range(12), key=lambda i: (-sims[i], i))[:6]
            np.testing.assert_array_equal(lists[m], raw[order])

    def test_depth_exceeding_gallery_rejected(self):
        drone = np.eye(2)
        sat = np.eye(2)
        labels = self.make_labels([0, 1])
        with pytest.raises(ValueError):
            rank_label_lists(sat, drone, labels, 3)


class TestVote:
    def test_identical_lists_majority(self):
        got = consistency_vote([[0, 0, 1]], [[0, 0, 1]])
        np.testing.assert_array_equal(got, [0])

    def test_disjoint_lists_fall_back_to_rank_one(self):
        got = consistency_vote([[2, 2, 2]], [[1, 1, 1]])
        np.testing.assert_array_equal(got, [2])

    def test_depth_one_agreement(self):
        got = consistency_vote([[4]], [[4]])
        np.testing.assert_array_equal(got, [4])

    def test_tie_takes_smaller_label(self):
        got = consistency_vote([[1, 0]], [[0, 1]])
        np.testing.assert_array_equal(got, [0])

    def test_multiset_counting(self):
        # label 7 agrees twice, label 3 once
        got = consistency_vote([[7, 3, 7]], [[7, 7, 5]])
        np.testing.assert_array_equal(got, [7])


class TestSmooth:
    def test_unanimous_neighborhood(self, np_rng):
        sat = np.tile(unit_rows(np_rng, 1, 4), (5, 1))
        refined = one_hot(np.full(5, 2), 4)
        out = smooth_labels(sat, sat, refined, keep=5)
        np.testing.assert_array_equal(out.hard, [2] * 5)

    def test_five_max_mask(self):
        # a row whose combined sims are strictly ordered keeps exactly 5 ones
        sat = unit_rows(np.random.default_rng(0), 6, 8)
        refined = one_hot(np.arange(6) % 2, 2)
        out = smooth_labels(sat, sat, refined, keep=5)
        assert np.all(out.scores.sum(axis=1) == 5.0)

    def test_five_max_selection_on_forced_row(self):
        from crossview.numcore import top_k_indices

        row = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
        mask = np.zeros(6)
        mask[top_k_indices(row, 5)] = 1.0
        np.testing.assert_array_equal(mask, [1, 1, 1, 1, 1, 0])

    def test_scores_non_negative_and_argmax_stable(self, np_rng):
        sat = unit_rows(np_rng, 7, 4)
        refined = one_hot(np_rng.integers(0, 3, size=7), 3)
        out = smooth_labels(sat, perturb(sat, 0.01, Rng(0)), refined, keep=3)
        assert np.all(out.scores >= 0.0)
        np.testing.assert_array_equal(out.hard, out.scores.argmax(axis=1))

    def test_keep_clamped_with_warning(self, np_rng):
        sat = unit_rows(np_rng, 3, 4)
        refined = one_hot(np.zeros(3, dtype=int), 1)
        with pytest.warns(UserWarning):
            smooth_labels(sat, sat, refined, keep=5)


class TestPipeline:
    def make_instance(self, np_rng, m=8, n=16, c=3):
        drone = unit_rows(np_rng, n, 6)
        sat = unit_rows(np_rng, m, 6)
        raw = np_rng.integers(0, c, size=n)
        raw[:c] = np.arange(c)
        labels = PseudoLabels(labels=raw.astype(np.int64), num_clusters=c)
        return sat, drone, labels

    def test_matches_reference_pipeline_exactly(self, np_rng):
        for trial in range(50):
            m = int(np_rng.integers(2, 17))
            n = int(np_rng.integers(6, 33))
            c = int(np_rng.integers(1, 6))
            sat, drone, labels = self.make_instance(np_rng, m=m, n=n, c=c)
            cfg = PerturbConfig(noise_std=0.02, rank_depth=5, smoothing_keep=5, seed=trial)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                refined = refine_labels(sat, drone, labels, cfg)
                want_scores, want_hard = reference_pipeline(
                    sat, drone, labels, depth=min(5, n), keep=5, noise_std=0.02, seed=trial
                )
            np.testing.assert_array_equal(refined.hard, want_hard)
            np.testing.assert_allclose(refined.scores, want_scores, atol=1e-12)

    def test_sigma_zero_vote_reduces_to_rank_one(self, np_rng):
        sat, drone, labels = self.make_instance(np_rng)
        lists = rank_label_lists(sat, drone, labels, 4)
        voted = consistency_vote(lists, lists)
        # identical lists: the most frequent label within the prefix wins,
        # and with depth 1 it is exactly the rank-1 label
        one = consistency_vote(lists[:, :1], lists[:, :1])
        np.testing.assert_array_equal(one, lists[:, 0])
        assert voted.shape == (8,)

    def test_deterministic_per_seed(self, np_rng):
        sat, drone, labels = self.make_instance(np_rng)
        cfg = PerturbConfig(noise_std=0.05, rank_depth=4, smoothing_keep=4, seed=11)
        a = refine_labels(sat, drone, labels, cfg)
        b = refine_labels(sat, drone, labels, cfg)
        np.testing.assert_array_equal(a.hard, b.hard)

    def test_gallery_permutation_invariance(self, np_rng):
        sat, drone, labels = self.make_instance(np_rng)
        cfg = PerturbConfig(noise_std=0.0, rank_depth=5, smoothing_keep=4, seed=0)
        base = refine_labels(sat, drone, labels, cfg)
        perm = np_rng.permutation(drone.shape[0])
        permuted_labels = PseudoLabels(labels=labels.labels[perm], num_clusters=labels.num_clusters)
        out = refine_labels(sat, drone[perm], permuted_labels, cfg)
        np.testing.assert_array_equal(base.hard, out.hard)

    def test_noiseless_separable_recovers_ground_truth(self):
        # views identical per location, drone labels equal to the location
        locs = 6
        rng = Rng(5)
        latents = rng.normal((locs, 8))
        latents = latents / np.linalg.norm(latents, axis=1, keepdims=True)
        drone = np.repeat(latents, 4, axis=0)
        sat = latents.copy()
        drone_loc = np.repeat(np.arange(locs), 4)
        sat_loc = np.arange(locs)
        labels = PseudoLabels(labels=drone_loc.copy(), num_clusters=locs)
        cfg = PerturbConfig(noise_std=0.005, rank_depth=4, smoothing_keep=1, seed=2)
        refined = refine_labels(sat, drone, labels, cfg)
        np.testing.assert_array_equal(refined.hard, sat_loc)
        assert refinement_agreement(refined.hard, labels, drone_loc, sat_loc) == 1.0


class TestAgreement:
    def test_perfect_agreement(self):
        labels = PseudoLabels(labels=np.array([0, 0, 1, 1]), num_clusters=2)
        drone_loc = np.array([10, 10, 20, 20])
        sat_loc = np.array([10, 20])
        assert refinement_agreement([0, 1], labels, drone_loc, sat_loc) == 1.0

    def test_mismatch_counts_against(self):
        labels = PseudoLabels(labels=np.array([0, 0, 1, 1]), num_clusters=2)
        drone_loc = np.array([10, 10, 20, 20])
        sat_loc = np.array([10, 20])
        assert refinement_agreement([1, 1], labels, drone_loc, sat_loc) == 0.5

    def test_all_noise_location_disagrees(self):
        labels = PseudoLabels(labels=np.array([NOISE, NOISE, 0, 0]), num_clusters=1)
        drone_loc = np.array([10, 10, 20, 20])
        sat_loc = np.array([10])
        assert refinement_agreement([0], labels, drone_loc, sat_loc) == 0.0
