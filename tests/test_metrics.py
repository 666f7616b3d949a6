import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_rows
from crossview import cli, encoder, metrics
from crossview.metrics import average_precision, evaluate_retrieval, recall_at_k
from crossview.training import Trainer
from reference import ap_by_ranking, ap_from_ranked_relevance, evaluation_by_ranking, recall_by_ranking
from test_training import tiny_config, tiny_corpus


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
            g_gt = np_rng.integers(0, 4, size=ng)
            # every query needs a relevant gallery item, so its label is one of the gallery's
            q_gt = np_rng.choice(g_gt, size=nq)
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


def coarse_rows(rng, n, d, levels):
    """Rows on a small integer grid, so many similarities tie exactly."""
    rows = rng.integers(-levels, levels + 1, size=(n, d)).astype(np.float64)
    rows[np.all(rows == 0.0, axis=1), 0] = 1.0
    return rows


def paired_labels(rng, n_loc, extra_d, extra_s):
    """Every location in both views, plus extra rows at random locations,
    so queries have unequal numbers of relevant gallery items."""
    gt_d = np.concatenate([np.arange(n_loc), rng.integers(0, n_loc, size=extra_d)])
    gt_s = np.concatenate([np.arange(n_loc), rng.integers(0, n_loc, size=extra_s)])
    return rng.permutation(gt_d), rng.permutation(gt_s)


class TestOnePassEvaluation:
    """``evaluate_retrieval`` counts ranks instead of sorting; its scores
    must equal the full-ranking reference exactly, not approximately."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_loc=st.integers(1, 6),
        extra_d=st.integers(0, 12),
        extra_s=st.integers(0, 6),
        dim=st.integers(1, 3),
        levels=st.integers(1, 2),
    )
    @settings(deadline=None, max_examples=150)
    def test_tie_heavy_matches_ranking_reference(self, seed, n_loc, extra_d, extra_s, dim, levels):
        rng = np.random.default_rng(seed)
        gt_d, gt_s = paired_labels(rng, n_loc, extra_d, extra_s)
        emb_d = coarse_rows(rng, gt_d.size, dim, levels)
        emb_s = coarse_rows(rng, gt_s.size, dim, levels)
        assert evaluate_retrieval(emb_d, emb_s, gt_d, gt_s) == evaluation_by_ranking(emb_d, emb_s, gt_d, gt_s)

    def test_unequal_relevant_counts(self, np_rng):
        # location i has i + 1 drone rows and 3 - i % 3 satellite rows
        gt_d = np.repeat(np.arange(6), np.arange(1, 7))
        gt_s = np.repeat(np.arange(6), 3 - np.arange(6) % 3)
        for _ in range(20):
            emb_d = unit_rows(np_rng, gt_d.size, 3)
            emb_s = unit_rows(np_rng, gt_s.size, 3)
            got = evaluate_retrieval(emb_d, emb_s, gt_d, gt_s)
            assert got == evaluation_by_ranking(emb_d, emb_s, gt_d, gt_s)
            assert list(got) == list(metrics.SCORE_KEYS)

    def test_one_row_gallery_and_k_past_gallery(self, np_rng):
        emb_d = unit_rows(np_rng, 5, 4)
        emb_s = unit_rows(np_rng, 1, 4)
        gt_d = np.zeros(5, dtype=np.int64)
        gt_s = np.zeros(1, dtype=np.int64)
        got = evaluate_retrieval(emb_d, emb_s, gt_d, gt_s)
        assert got == evaluation_by_ranking(emb_d, emb_s, gt_d, gt_s)
        # k = 5 and 10 exceed both the one-row and the five-row gallery
        assert got["r10_ds"] == got["r1_ds"] == got["ap_ds"] == 1.0
        assert got["r5_sd"] == got["r10_sd"] == 1.0

    def test_public_scores_match_ranking_reference(self, np_rng):
        for _ in range(30):
            gt_d, gt_s = paired_labels(np_rng, 4, int(np_rng.integers(0, 10)), 3)
            emb_d = coarse_rows(np_rng, gt_d.size, 2, 2)
            emb_s = coarse_rows(np_rng, gt_s.size, 2, 2)
            for k in (1, 2, 7, 40):
                assert recall_at_k(emb_d, emb_s, gt_d, gt_s, k) == recall_by_ranking(emb_d, emb_s, gt_d, gt_s, k)
            assert average_precision(emb_d, emb_s, gt_d, gt_s) == ap_by_ranking(emb_d, emb_s, gt_d, gt_s)

    def test_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            recall_at_k(np.eye(2), np.eye(2), [0, 1], [0, 1], 0)
        with pytest.raises(ValueError, match="empty gallery"):
            average_precision(np.eye(2), np.zeros((0, 2)), [0, 1], [])
        for score in (
            lambda: recall_at_k(np.eye(2), np.eye(2), [3, 1], [0, 1], 1),
            lambda: evaluate_retrieval(np.eye(2), np.eye(2), [3, 1], [0, 1]),
        ):
            with pytest.raises(ValueError, match="query 0 has no relevant gallery item"):
                score()
        with pytest.raises(ValueError, match=r"query labels have shape \(4,\), expected \(3,\)"):
            average_precision(np.eye(3), np.eye(3), [0, 1, 2, 0], [0, 1, 2])
        with pytest.raises(ValueError, match=r"query labels have shape \(1,\), expected \(3,\)"):
            average_precision(np.eye(3), np.eye(3), [0], [0, 1, 2])
        with pytest.raises(ValueError, match=r"gallery labels have shape \(2,\), expected \(3,\)"):
            evaluate_retrieval(np.eye(3), np.eye(3), [0, 1, 2], [0, 1])
        for score in (
            lambda q, qt: recall_at_k(q, np.eye(2), qt, [0, 1], 1),
            lambda q, qt: average_precision(q, np.eye(2), qt, [0, 1]),
            lambda q, qt: evaluate_retrieval(q, np.eye(2), qt, [0, 1]),
        ):
            with pytest.raises(ValueError, match="empty query set"):
                score(np.zeros((0, 2)), [])

    def test_non_integer_labels_rejected(self):
        # a cast to int64 would score the query labelled 0.9 as location 0
        for q_gt, g_gt, side in (
            ([0.9, 1], [0, 1], "query"),
            ([0, 1], [0, np.nan], "gallery"),
            ([0, 1], [0, 2.0**70], "gallery"),
        ):
            for score in (
                lambda: recall_at_k(np.eye(2), np.eye(2), q_gt, g_gt, 1),
                lambda: average_precision(np.eye(2), np.eye(2), q_gt, g_gt),
                lambda: evaluate_retrieval(np.eye(2), np.eye(2), q_gt, g_gt),
            ):
                with pytest.raises(ValueError, match=f"{side} labels must be integer location ids"):
                    score()
        # integral floats name a location exactly
        assert average_precision(np.eye(2), np.eye(2), [0.0, 1.0], [0, 1]) == 1.0

    @staticmethod
    def block_rows(width, gallery_size):
        """Query rows that ``relevant_ranks`` counts per block."""
        return max(1, metrics.BLOCK_CELLS // (width * gallery_size))

    def assert_spans_blocks(self, queries, width, gallery_size):
        step = self.block_rows(width, gallery_size)
        assert queries > step and queries % step, "input must span blocks and end in a partial one"

    def test_blocks_with_eight_relevant_items_each(self, np_rng):
        # satellite -> drone as in retrieval: every location has 8 drone rows
        n_loc = 64
        gt_d = np.repeat(np.arange(n_loc), 8)
        step = self.block_rows(8, gt_d.size)
        n_s = 2 * step + step // 2
        gt_s = np_rng.permutation(np.concatenate([np.arange(n_loc), np_rng.integers(0, n_loc, n_s - n_loc)]))
        self.assert_spans_blocks(n_s, 8, gt_d.size)
        for rows in (unit_rows, lambda rng, n, d: coarse_rows(rng, n, d, 2)):
            emb_d = rows(np_rng, gt_d.size, 3)
            emb_s = rows(np_rng, n_s, 3)
            got = evaluate_retrieval(emb_d, emb_s, gt_d, gt_s)
            assert got == evaluation_by_ranking(emb_d, emb_s, gt_d, gt_s)

    def test_ties_straddle_a_block_edge(self, np_rng):
        # every row on a coarse grid ties with many others; the rows on
        # either side of each block edge are the same query
        n_loc = 32
        gt_d = np.repeat(np.arange(n_loc), 16)
        step = self.block_rows(16, gt_d.size)
        n_s = 3 * step + 5
        gt_s = np_rng.integers(0, n_loc, n_s)
        emb_s = coarse_rows(np_rng, n_s, 2, 1)
        edges = np.arange(step, n_s, step)
        emb_s[edges], gt_s[edges] = emb_s[edges - 1], gt_s[edges - 1]
        self.assert_spans_blocks(n_s, 16, gt_d.size)
        emb_d = coarse_rows(np_rng, gt_d.size, 2, 1)
        ranks = metrics.relevant_ranks(emb_s, emb_d, gt_s, gt_d)
        np.testing.assert_array_equal(ranks[edges], ranks[edges - 1])
        for k in (1, 5, 10):
            assert recall_at_k(emb_s, emb_d, gt_s, gt_d, k) == recall_by_ranking(emb_s, emb_d, gt_s, gt_d, k)
        assert average_precision(emb_s, emb_d, gt_s, gt_d) == ap_by_ranking(emb_s, emb_d, gt_s, gt_d)

    def test_one_crowded_location(self, np_rng):
        # location 0 holds most of the gallery, so a block is a few rows
        gt_s = np_rng.permutation(np.concatenate([np.zeros(240, dtype=np.int64), np.arange(1, 31)]))
        gt_d = np_rng.integers(0, 31, 150)
        gt_d[:31] = np.arange(31)
        self.assert_spans_blocks(gt_d.size, 240, gt_s.size)
        emb_d = coarse_rows(np_rng, gt_d.size, 2, 2)
        emb_s = coarse_rows(np_rng, gt_s.size, 2, 2)
        assert evaluate_retrieval(emb_d, emb_s, gt_d, gt_s) == evaluation_by_ranking(emb_d, emb_s, gt_d, gt_s)


class TestOneSimilarityPerDirection:
    @pytest.fixture
    def sim_shapes(self, monkeypatch):
        shapes = []

        def counting(a, b):
            shapes.append((len(a), len(b)))
            return original(a, b)

        original = metrics.pairwise_sim
        monkeypatch.setattr(metrics, "pairwise_sim", counting)
        return shapes

    def test_cli_evaluation(self, sim_shapes):
        corpus = tiny_corpus()
        params = Trainer(tiny_config(), corpus).params
        cli._evaluation(params, corpus)
        n_d, n_s = corpus.drone_raw.shape[0], corpus.sat_raw.shape[0]
        assert sim_shapes == [(n_d, n_s), (n_s, n_d)]

    def test_trainer_epoch(self, sim_shapes):
        corpus = tiny_corpus()
        trainer = Trainer(tiny_config(), corpus)
        record = trainer.run_epoch()
        n_d, n_s = corpus.drone_raw.shape[0], corpus.sat_raw.shape[0]
        assert sim_shapes == [(n_d, n_s), (n_s, n_d)]
        emb_d, _ = encoder.forward(trainer.params, corpus.drone_raw)
        emb_s, _ = encoder.forward(trainer.params, corpus.sat_raw)
        expected = evaluation_by_ranking(emb_d, emb_s, *corpus.ground_truth())
        assert {key: getattr(record, key) for key in expected} == expected
