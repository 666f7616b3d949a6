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
from crossview.dual_memory import compute_beta, fused_bank_loss, init_dual
from crossview.neighborhood import build_instance_memory, neighborhood_total
from reference import bank_contrastive, config

LN_1P_EXP_NEG1 = float(np.log1p(np.exp(-1.0)))


def two_class_memory():
    return init_memory(np.eye(2))


def one_row_loss(q, mem, positive_id, temperature):
    """Loss and gradient of a batch of one query."""
    losses, grads = bank_contrastive_rows(np.array([q]), mem, [positive_id], temperature)
    return losses[0], grads[0]


class TestInit:
    def test_single_centroid_verbatim(self):
        mem = init_memory(np.array([[0.6, 0.8]]))
        np.testing.assert_array_equal(mem, [[0.6, 0.8]])

    def test_reinit_identical(self, np_rng):
        cents = unit_rows(np_rng, 4, 3)
        a = init_memory(cents)
        b = init_memory(cents)
        np.testing.assert_array_equal(a, b)

    def test_holds_a_copy(self):
        cents = np.eye(2)
        mem = init_memory(cents)
        cents[0, 0] = 5.0
        assert mem[0, 0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            init_memory(np.zeros((0, 3)))


class TestMomentumUpdate:
    def test_momentum_one_keeps_centroid(self):
        mem = init_memory(np.eye(2))
        momentum_update_batch(mem, np.array([[0.0, 1.0]]), [0], config(momentum=1.0))
        np.testing.assert_allclose(mem[0], [1.0, 0.0], atol=1e-15)

    def test_momentum_zero_takes_query(self):
        mem = init_memory(np.eye(2))
        momentum_update_batch(mem, np.array([[0.0, 1.0]]), [0], config(momentum=0.0))
        np.testing.assert_allclose(mem[0], [0.0, 1.0], atol=1e-15)

    def test_hand_value(self):
        mem = two_class_memory()
        momentum_update_batch(mem, np.array([[0.0, 1.0]]), [0], config(momentum=0.2))
        np.testing.assert_allclose(
            mem[0], [0.24253563, 0.97014250], atol=1e-8
        )

    def test_invalid_cluster(self):
        mem = two_class_memory()
        with pytest.raises(ValueError):
            momentum_update_batch(mem, np.array([[1.0, 0.0]]), [5], config())

    @given(st.permutations(range(4)), st.integers(1, 4), st.integers(1, 10), st.integers(0, 2**31))
    @settings(deadline=None, max_examples=40)
    def test_renormalized_stays_unit(self, order, p, z, seed):
        np_rng = np.random.default_rng(seed)
        mem = init_memory(np.eye(4))
        queries = unit_rows(np_rng, p * z, 4)
        momentum_update_batch(mem, queries, order[:p], config(momentum=0.2))
        np.testing.assert_allclose(
            np.linalg.norm(mem, axis=1), 1.0, atol=1e-12
        )


class TestContrastiveLoss:
    def test_single_class_zero(self):
        mem = init_memory(np.array([[1.0, 0.0]]))
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
            mem = init_memory(unit_rows(rng, 4, 6))
            q0 = rng.standard_normal(6)

            def value(q):
                return one_row_loss(q, mem, 1, 0.3)[0]

            _, grad = one_row_loss(q0, mem, 1, 0.3)
            assert rel_error(grad, finite_difference(value, q0)) <= 1e-6

    def test_loss_non_negative(self, np_rng):
        for _ in range(50):
            mem = init_memory(unit_rows(np_rng, 5, 4))
            q = np_rng.standard_normal(4)
            loss, _ = one_row_loss(q, mem, int(np_rng.integers(5)), 0.1)
            assert loss >= 0.0

    def test_bad_args(self):
        mem = two_class_memory()
        with pytest.raises(ValueError):
            one_row_loss(np.ones(2), mem, 9, 1.0)


class TestBatchLoss:
    def test_queries_on_their_centroids(self):
        value, _ = batch_loss_cv(np.eye(2), [0, 1], two_class_memory(), 1.0)
        assert value == pytest.approx(LN_1P_EXP_NEG1, abs=1e-9)

    def test_value_is_mean_of_row_losses(self, np_rng):
        cents = unit_rows(np_rng, 3, 4)
        queries = unit_rows(np_rng, 5, 4)
        ids = np_rng.integers(0, 3, size=5)
        value, grads = batch_loss_cv(queries, ids, init_memory(cents), 0.2)
        losses, row_grads = bank_contrastive_rows(queries, cents, ids, 0.2)
        np.testing.assert_array_equal(grads, row_grads / 5)
        assert value == pytest.approx(losses.mean(), abs=1e-12)

    def test_batch_of_one_reduces_to_two_scalar_losses(self, np_rng):
        mem_d = init_memory(unit_rows(np_rng, 3, 4))
        mem_s = init_memory(unit_rows(np_rng, 2, 4))
        qd = unit_rows(np_rng, 1, 4)
        qs = unit_rows(np_rng, 1, 4)
        value = batch_loss_cv(qd, [2], mem_d, 0.5)[0] + batch_loss_cv(qs, [0], mem_s, 0.5)[0]
        expect = bank_contrastive(qd[0], mem_d, 2, 0.5)[0]
        expect += bank_contrastive(qs[0], mem_s, 0, 0.5)[0]
        assert value == pytest.approx(expect, abs=1e-12)

    def test_noise_label_rejected(self, np_rng):
        mem = init_memory(unit_rows(np_rng, 2, 3))
        q = unit_rows(np_rng, 1, 3)
        with pytest.raises(ValueError):
            batch_loss_cv(q, [-1], mem, 0.5)

    def test_value_permutation_invariant(self, np_rng):
        mem = init_memory(unit_rows(np_rng, 4, 5))
        q = unit_rows(np_rng, 6, 5)
        ids = np_rng.integers(0, 4, size=6)
        perm = np_rng.permutation(6)
        a, _ = batch_loss_cv(q, ids, mem, 0.3)
        b, _ = batch_loss_cv(q[perm], ids[perm], mem, 0.3)
        assert a == pytest.approx(b, abs=1e-12)


NBR = config(k_strict=2, k_expanded=3)
# every function that pairs query rows with per-row ids, given five unit
# query rows, a three-row bank and its dual memory, and ids all equal to 2
ID_PER_ROW = {
    "bank_contrastive_rows": lambda q, bank, dm, ids: bank_contrastive_rows(q, bank, ids, 0.2),
    "batch_loss_cv": lambda q, bank, dm, ids: batch_loss_cv(q, ids, bank, 0.2),
    "fused_bank_loss": lambda q, bank, dm, ids: fused_bank_loss(q, dm, ids, 0.2),
    "compute_beta": lambda q, bank, dm, ids: compute_beta(q, dm, ids),
    "neighborhood_total drone": lambda q, bank, dm, ids: neighborhood_total(
        q, ids, q, np.arange(5), build_instance_memory(q), build_instance_memory(q), NBR
    ),
    "neighborhood_total satellite": lambda q, bank, dm, ids: neighborhood_total(
        q, np.arange(5), q, ids, build_instance_memory(q), build_instance_memory(q), NBR
    ),
}


@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("score", sorted(ID_PER_ROW))
def test_ids_must_match_query_rows(np_rng, score, count):
    # one id used to broadcast over every row, scoring each row against
    # row 0's positive; other counts failed inside numpy
    q = unit_rows(np_rng, 5, 4)
    bank = init_memory(unit_rows(np_rng, 3, 4))
    dm = init_dual(bank, config())
    ID_PER_ROW[score](q, bank, dm, np.arange(5) % 3)  # one id per row is accepted
    with pytest.raises(ValueError, match=rf"^{count} .* for 5 query rows$"):
        ID_PER_ROW[score](q, bank, dm, np.full(count, 2))


class TestDescentProperty:
    def test_small_step_decreases_loss_on_frozen_memory(self, np_rng):
        mem = init_memory(unit_rows(np_rng, 4, 6))
        q = np_rng.standard_normal(6)
        loss0, grad = one_row_loss(q, mem, 2, 0.2)
        loss1, _ = one_row_loss(q - 1e-4 * grad, mem, 2, 0.2)
        assert loss1 < loss0
