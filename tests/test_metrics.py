import numpy as np
import pytest

from conftest import unit_rows
from crossview.metrics import ap_from_ranked_relevance, average_precision, recall_at_k


def brute_force_recall(queries, gallery, q_gt, g_gt, k):
    hits = 0
    for i in range(len(queries)):
        sims = [
            float(queries[i] @ gallery[j])
            / (np.linalg.norm(queries[i]) * np.linalg.norm(gallery[j]))
            for j in range(len(gallery))
        ]
        order = sorted(range(len(gallery)), key=lambda j: (-sims[j], j))
        top = order[: min(k, len(gallery))]
        if any(g_gt[j] == q_gt[i] for j in top):
            hits += 1
    return hits / len(queries)


def brute_force_map(queries, gallery, q_gt, g_gt):
    aps = []
    for i in range(len(queries)):
        sims = [
            float(queries[i] @ gallery[j])
            / (np.linalg.norm(queries[i]) * np.linalg.norm(gallery[j]))
            for j in range(len(gallery))
        ]
        order = sorted(range(len(gallery)), key=lambda j: (-sims[j], j))
        precisions = []
        found = 0
        for rank, j in enumerate(order, start=1):
            if g_gt[j] == q_gt[i]:
                found += 1
                precisions.append(found / rank)
        aps.append(float(np.mean(precisions)))
    return float(np.mean(aps))


class TestRecall:
    def test_unique_nearest_neighbor_gives_one(self):
        queries = np.eye(3)
        gallery = np.eye(3) + 0.01
        gt = np.arange(3)
        assert recall_at_k(queries, gallery, gt, gt, 1) == 1.0

    def test_k_equal_gallery_size(self, np_rng):
        queries = unit_rows(np_rng, 5, 4)
        gallery = unit_rows(np_rng, 6, 4)
        q_gt = np_rng.integers(0, 3, size=5)
        g_gt = np.array([0, 0, 1, 1, 2, 2])
        assert recall_at_k(queries, gallery, q_gt, g_gt, 6) == 1.0

    def test_handcrafted_three_queries(self):
        gallery = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
        g_gt = np.array([0, 1, 2])
        queries = np.array([[0.9, 0.1], [0.1, 0.9], [-1.0, 0.0]])
        q_gt = np.array([1, 1, 0])
        # hand-ranked: q0 -> [0,2,1], q1 -> [1,2,0], q2 -> [1,2,0]
        assert recall_at_k(queries, gallery, q_gt, g_gt, 1) == pytest.approx(1 / 3)
        assert recall_at_k(queries, gallery, q_gt, g_gt, 2) == pytest.approx(1 / 3)
        assert recall_at_k(queries, gallery, q_gt, g_gt, 3) == 1.0

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.eye(2), np.zeros((0, 2)), [0, 1], [], 1)

    def test_matches_brute_force(self, np_rng):
        for _ in range(50):
            nq = int(np_rng.integers(1, 20))
            ng = int(np_rng.integers(1, 30))
            queries = unit_rows(np_rng, nq, 4)
            gallery = unit_rows(np_rng, ng, 4)
            q_gt = np_rng.integers(0, 4, size=nq)
            g_gt = np_rng.integers(0, 4, size=ng)
            k = int(np_rng.integers(1, ng + 3))
            assert recall_at_k(queries, gallery, q_gt, g_gt, k) == pytest.approx(
                brute_force_recall(queries, gallery, q_gt, g_gt, k)
            )


class TestAveragePrecision:
    def test_single_relevant_rank_one(self):
        assert ap_from_ranked_relevance([True, False, False]) == 1.0

    def test_single_relevant_rank_two(self):
        assert ap_from_ranked_relevance([False, True, False]) == 0.5

    def test_two_relevant_ranks_one_three(self):
        assert ap_from_ranked_relevance([True, False, True]) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_no_relevant_rejected(self):
        with pytest.raises(ValueError):
            ap_from_ranked_relevance([False, False])

    def test_query_without_match_rejected(self):
        queries = np.eye(2)
        gallery = np.eye(2)
        with pytest.raises(ValueError, match="query 1 has no relevant gallery item"):
            average_precision(queries, gallery, [0, 1], [0, 5])

    def test_matches_brute_force(self, np_rng):
        for _ in range(50):
            nq = int(np_rng.integers(1, 15))
            ng = int(np_rng.integers(2, 25))
            queries = unit_rows(np_rng, nq, 4)
            gallery = unit_rows(np_rng, ng, 4)
            q_gt = np_rng.integers(0, 3, size=nq)
            g_gt = np.concatenate([[0, 1, 2], np_rng.integers(0, 3, size=ng - 3)]) if ng >= 3 else np.arange(ng)
            q_gt = np.clip(q_gt, 0, max(0, len(set(g_gt.tolist())) - 1))
            got = average_precision(queries, gallery, q_gt, g_gt)
            want = brute_force_map(queries, gallery, q_gt, g_gt)
            assert got == pytest.approx(want, abs=1e-12)
