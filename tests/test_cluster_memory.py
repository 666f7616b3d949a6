import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference, rel_error, unit_rows
from crossview.cluster_memory import (
    bank_contrastive_rows,
    batch_loss_cv,
    init_memory,
    momentum_update_batch,
)
from reference import bank_contrastive

LN_1P_EXP_NEG1 = float(np.log1p(np.exp(-1.0)))


def two_class_memory(view="drone", momentum=0.2, renormalize=True):
    return init_memory(np.eye(2), view, momentum, renormalize)


def one_row_loss(q, mem, positive_id, temperature):
    """Loss and gradient of a batch of one query."""
    losses, grads = bank_contrastive_rows(np.array([q]), mem.centroids, [positive_id], temperature)
    return losses[0], grads[0]


class TestInit:
    def test_single_centroid_verbatim(self):
        mem = init_memory(np.array([[0.6, 0.8]]), "drone")
        np.testing.assert_array_equal(mem.centroids, [[0.6, 0.8]])

    def test_reinit_identical(self, np_rng):
        cents = unit_rows(np_rng, 4, 3)
        a = init_memory(cents, "satellite")
        b = init_memory(cents, "satellite")
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_holds_a_copy(self):
        cents = np.eye(2)
        mem = init_memory(cents, "drone")
        cents[0, 0] = 5.0
        assert mem.centroids[0, 0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            init_memory(np.zeros((0, 3)), "drone")


class TestMomentumUpdate:
    def test_momentum_one_keeps_centroid(self):
        mem = init_memory(np.eye(2), "drone", momentum=1.0)
        momentum_update_batch(mem, [0], np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(mem.centroids[0], [1.0, 0.0], atol=1e-15)

    def test_momentum_zero_takes_query(self):
        mem = init_memory(np.eye(2), "drone", momentum=0.0)
        momentum_update_batch(mem, [0], np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(mem.centroids[0], [0.0, 1.0], atol=1e-15)

    def test_hand_value(self):
        mem = two_class_memory(momentum=0.2)
        momentum_update_batch(mem, [0], np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(
            mem.centroids[0], [0.24253563, 0.97014250], atol=1e-8
        )

    def test_invalid_cluster(self):
        mem = two_class_memory()
        with pytest.raises(ValueError):
            momentum_update_batch(mem, [5], np.array([[1.0, 0.0]]))

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40), st.integers(0, 2**31))
    @settings(deadline=None, max_examples=40)
    def test_renormalized_stays_unit(self, ids, seed):
        np_rng = np.random.default_rng(seed)
        mem = init_memory(np.eye(4), "drone", momentum=0.2)
        queries = unit_rows(np_rng, len(ids), 4)
        momentum_update_batch(mem, np.array(ids), queries)
        np.testing.assert_allclose(
            np.linalg.norm(mem.centroids, axis=1), 1.0, atol=1e-12
        )


class TestContrastiveLoss:
    def test_single_class_zero(self):
        mem = init_memory(np.array([[1.0, 0.0]]), "drone")
        loss, grad = one_row_loss(np.array([0.3, 0.1]), mem, 0, 1.0)
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_hand_value_two_classes(self):
        mem = two_class_memory()
        loss, _ = one_row_loss(np.array([1.0, 0.0]), mem, 0, 1.0)
        assert loss == pytest.approx(LN_1P_EXP_NEG1, abs=1e-9)

    def test_gradient_matches_finite_differences(self, np_rng):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mem = init_memory(unit_rows(rng, 4, 6), "drone")
            q0 = rng.standard_normal(6)

            def value(q):
                return one_row_loss(q, mem, 1, 0.3)[0]

            _, grad = one_row_loss(q0, mem, 1, 0.3)
            assert rel_error(grad, finite_difference(value, q0)) <= 1e-6

    def test_loss_non_negative(self, np_rng):
        for _ in range(50):
            mem = init_memory(unit_rows(np_rng, 5, 4), "drone")
            q = np_rng.standard_normal(4)
            loss, _ = one_row_loss(q, mem, int(np_rng.integers(5)), 0.1)
            assert loss >= 0.0

    def test_bad_args(self):
        mem = two_class_memory()
        with pytest.raises(ValueError):
            one_row_loss(np.ones(2), mem, 9, 1.0)
        with pytest.raises(ValueError):
            one_row_loss(np.ones(2), mem, 0, 0.0)


class TestBatchLoss:
    def test_queries_on_their_centroids(self):
        mem_d = two_class_memory("drone")
        mem_s = two_class_memory("satellite")
        drone_q = np.eye(2)
        sat_q = np.eye(2)
        out = batch_loss_cv(drone_q, [0, 1], sat_q, [0, 1], mem_d, mem_s, 1.0)
        assert out.value == pytest.approx(2.0 * LN_1P_EXP_NEG1, abs=1e-9)

    def test_symmetric_views_equal_parts(self, np_rng):
        cents = unit_rows(np_rng, 3, 4)
        queries = unit_rows(np_rng, 5, 4)
        ids = np_rng.integers(0, 3, size=5)
        out = batch_loss_cv(
            queries, ids, queries, ids,
            init_memory(cents, "drone"), init_memory(cents, "satellite"), 0.2,
        )
        assert out.per_view[0] == pytest.approx(out.per_view[1], abs=1e-12)

    def test_batch_of_one_reduces_to_two_scalar_losses(self, np_rng):
        mem_d = init_memory(unit_rows(np_rng, 3, 4), "drone")
        mem_s = init_memory(unit_rows(np_rng, 2, 4), "satellite")
        qd = unit_rows(np_rng, 1, 4)
        qs = unit_rows(np_rng, 1, 4)
        out = batch_loss_cv(qd, [2], qs, [0], mem_d, mem_s, 0.5)
        expect = bank_contrastive(qd[0], mem_d.centroids, 2, 0.5)[0]
        expect += bank_contrastive(qs[0], mem_s.centroids, 0, 0.5)[0]
        assert out.value == pytest.approx(expect, abs=1e-12)

    def test_noise_label_rejected(self, np_rng):
        mem = init_memory(unit_rows(np_rng, 2, 3), "drone")
        q = unit_rows(np_rng, 1, 3)
        with pytest.raises(ValueError):
            batch_loss_cv(q, [-1], q, [0], mem, mem, 0.5)

    def test_value_permutation_invariant(self, np_rng):
        mem_d = init_memory(unit_rows(np_rng, 4, 5), "drone")
        mem_s = init_memory(unit_rows(np_rng, 4, 5), "satellite")
        qd = unit_rows(np_rng, 6, 5)
        qs = unit_rows(np_rng, 6, 5)
        ids = np_rng.integers(0, 4, size=6)
        perm = np_rng.permutation(6)
        a = batch_loss_cv(qd, ids, qs, ids, mem_d, mem_s, 0.3).value
        b = batch_loss_cv(qd[perm], ids[perm], qs[perm], ids[perm], mem_d, mem_s, 0.3).value
        assert a == pytest.approx(b, abs=1e-12)


class TestDescentProperty:
    def test_small_step_decreases_loss_on_frozen_memory(self, np_rng):
        mem = init_memory(unit_rows(np_rng, 4, 6), "drone")
        q = np_rng.standard_normal(6)
        loss0, grad = one_row_loss(q, mem, 2, 0.2)
        loss1, _ = one_row_loss(q - 1e-4 * grad, mem, 2, 0.2)
        assert loss1 < loss0
