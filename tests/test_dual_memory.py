import numpy as np
import pytest

from conftest import finite_difference, rel_error, unit_rows
from crossview.cluster_memory import batch_loss_cv, init_memory
from crossview.dual_memory import (
    compute_beta,
    fused_bank_loss,
    init_dual,
    refresh_fused,
    update_long_term_batch,
    update_short_term,
)
from crossview.clustering import PseudoLabels
from crossview.errors import DegenerateInputError
from crossview.training import EpochMemories, TrainConfig, ViewBatch, ViewMemories, total_loss
from reference import config


def make_dual(np_rng=None, k=3, d=4, cfg=config()):
    if np_rng is None:
        cents = np.eye(max(k, d))[:k, :d]
    else:
        cents = unit_rows(np_rng, k, d)
    return init_dual(cents, cfg)


class TestInit:
    def test_banks_start_at_centroids(self, np_rng):
        cents = unit_rows(np_rng, 3, 5)
        dm = init_dual(cents, config())
        np.testing.assert_array_equal(dm.short_term, cents)
        np.testing.assert_array_equal(dm.long_term, cents)

    def test_equal_weights_fused_equals_centroids(self, np_rng):
        cents = unit_rows(np_rng, 3, 5)
        dm = init_dual(cents, config(long_weight=0.5, short_weight=0.5))
        np.testing.assert_allclose(dm.fused, cents, atol=1e-12)

    def test_deterministic_reinit(self, np_rng):
        cents = unit_rows(np_rng, 4, 3)
        a = init_dual(cents, config())
        b = init_dual(cents, config())
        np.testing.assert_array_equal(a.fused, b.fused)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            init_dual(np.zeros((0, 2)), config())


class TestLongTermUpdate:
    def test_hand_value_damped(self):
        cfg = config(momentum=0.2)
        dm = init_dual(np.eye(2), cfg)
        update_long_term_batch(dm, np.array([[0.0, 1.0]]), [0], cfg)
        np.testing.assert_allclose(dm.long_term[0], [0.83205029, 0.55470020], atol=1e-8)

    def test_query_equal_to_row_keeps_direction(self):
        cfg = config(momentum=0.2)
        dm = init_dual(np.eye(2), cfg)
        update_long_term_batch(dm, np.array([[0.0, 1.0]]), [1], cfg)
        np.testing.assert_allclose(dm.long_term[1], [0.0, 1.0], atol=1e-12)

    def test_zero_momentum_keeps_direction(self):
        cfg = config(momentum=0.0)
        dm = init_dual(np.eye(2), cfg)
        update_long_term_batch(dm, np.array([[0.0, 1.0]]), [0], cfg)
        np.testing.assert_allclose(dm.long_term[0], [1.0, 0.0], atol=1e-12)

    def test_normalized_rule_same_direction_as_damped(self, np_rng):
        cents = unit_rows(np_rng, 2, 4)
        q = unit_rows(np_rng, 1, 4)
        damped_cfg = config(momentum=0.2, update_rule="damped")
        normed_cfg = config(momentum=0.2, update_rule="normalized")
        damped = init_dual(cents, damped_cfg)
        normed = init_dual(cents, normed_cfg)
        update_long_term_batch(damped, q, [0], damped_cfg)
        update_long_term_batch(normed, q, [0], normed_cfg)
        np.testing.assert_allclose(damped.long_term[0], normed.long_term[0], atol=1e-12)

    def test_banks_stay_unit(self, np_rng):
        for rule in ("damped", "normalized"):
            cfg = config(update_rule=rule, momentum=0.2)
            dm = make_dual(np_rng, cfg=cfg)
            for _ in range(30):
                update_long_term_batch(dm, unit_rows(np_rng, 1, 4), [int(np_rng.integers(3))], cfg)
            np.testing.assert_allclose(np.linalg.norm(dm.long_term, axis=1), 1.0, atol=1e-12)


class TestBeta:
    def test_queries_on_centroids_give_half(self, np_rng):
        dm = make_dual(np_rng)
        ids = np.array([0, 1, 2])
        assert compute_beta(dm.long_term[ids], dm, ids) == pytest.approx(0.5, abs=1e-12)

    def test_hand_value(self):
        dm = init_dual(np.eye(2), config(momentum=0.2))
        # one query at distance ln(3) from its long-term row
        q = np.array([1.0, np.log(3.0)])
        assert compute_beta(q[None, :], dm, [0]) == pytest.approx(0.75, abs=1e-12)

    def test_monotone_in_single_distance(self, np_rng):
        dm = make_dual(np_rng)
        base = dm.long_term.copy()
        near = base + 0.1 * unit_rows(np_rng, 3, 4)
        far = near.copy()
        far[1] = base[1] + 0.9 * unit_rows(np_rng, 1, 4)[0]
        ids = np.array([0, 1, 2])
        assert compute_beta(far, dm, ids) > compute_beta(near, dm, ids)

    def test_permutation_invariant(self, np_rng):
        dm = make_dual(np_rng)
        queries = unit_rows(np_rng, 6, 4)
        ids = np.array([0, 1, 2, 0, 1, 2])
        perm = np_rng.permutation(6)
        a = compute_beta(queries, dm, ids)
        b = compute_beta(queries[perm], dm, ids[perm])
        assert a == pytest.approx(b, abs=1e-14)

    def test_empty_batch_rejected(self, np_rng):
        dm = make_dual(np_rng)
        with pytest.raises(ValueError):
            compute_beta(np.zeros((0, 4)), dm, np.zeros(0, dtype=int))


class TestShortTermUpdate:
    def test_beta_zero_keeps_short(self, np_rng):
        dm = make_dual(np_rng)
        before = dm.short_term.copy()
        update_long_term_batch(dm, unit_rows(np_rng, 1, 4), [0], config())
        update_short_term(dm, 0.0, [0, 1])
        np.testing.assert_allclose(dm.short_term, before, atol=1e-12)

    def test_beta_one_copies_long(self, np_rng):
        dm = make_dual(np_rng)
        update_long_term_batch(dm, unit_rows(np_rng, 1, 4), [0], config())
        update_short_term(dm, 1.0, [0])
        np.testing.assert_allclose(dm.short_term[0], dm.long_term[0], atol=1e-12)

    def test_equal_banks_fixed_point(self, np_rng):
        dm = make_dual(np_rng)
        before = dm.short_term.copy()
        update_short_term(dm, 0.37, [0, 1, 2])
        np.testing.assert_allclose(dm.short_term, before, atol=1e-12)

    def test_only_batch_present_rows_move(self, np_rng):
        dm = make_dual(np_rng)
        update_long_term_batch(dm, unit_rows(np_rng, 1, 4), [0], config())
        update_long_term_batch(dm, unit_rows(np_rng, 1, 4), [2], config())
        before = dm.short_term.copy()
        update_short_term(dm, 0.8, [0])
        np.testing.assert_array_equal(dm.short_term[1], before[1])
        np.testing.assert_array_equal(dm.short_term[2], before[2])

    def test_collapse_names_the_bank_and_the_cluster(self, np_rng):
        # cluster 4's long-term row is its short-term row negated: at beta
        # 0.5 the blend is exactly zero. It is the third cluster drawn, so
        # a message indexing the blended rows would say 2
        dm = make_dual(np_rng, k=6)
        dm.long_term[4] = -dm.short_term[4]
        before = dm.short_term.copy()
        with pytest.raises(DegenerateInputError, match=r"^short-term bank row of cluster 4 collapsed"):
            update_short_term(dm, 0.5, [1, 0, 4, 5])
        np.testing.assert_array_equal(dm.short_term, before)


class TestFusion:
    def test_long_only(self, np_rng):
        cfg = config(long_weight=1.0, short_weight=0.0)
        dm = make_dual(np_rng, cfg=cfg)
        update_long_term_batch(dm, unit_rows(np_rng, 1, 4), [0], cfg)
        refresh_fused(dm, cfg)
        np.testing.assert_allclose(dm.fused, dm.long_term, atol=1e-12)

    def test_hand_value(self):
        cfg = config(momentum=0.2)
        dm = init_dual(np.eye(2), cfg)
        dm.long_term = np.array([[1.0, 0.0]])
        dm.short_term = np.array([[0.0, 1.0]])
        refresh_fused(dm, cfg)
        np.testing.assert_allclose(dm.fused, [[0.70710678, 0.70710678]], atol=1e-8)

    def test_rows_unit(self, np_rng):
        cfg = config(long_weight=0.7, short_weight=0.3)
        dm = make_dual(np_rng, cfg=cfg)
        update_long_term_batch(dm, unit_rows(np_rng, 1, 4), [1], cfg)
        refresh_fused(dm, cfg)
        np.testing.assert_allclose(np.linalg.norm(dm.fused, axis=1), 1.0, atol=1e-12)

    def test_collapse_names_the_bank_and_the_cluster(self, np_rng):
        cfg = config(long_weight=0.5, short_weight=0.5)
        dm = make_dual(np_rng, k=5, cfg=cfg)
        dm.long_term[3] = -dm.short_term[3]
        with pytest.raises(DegenerateInputError, match=r"^fused bank row of cluster 3 collapsed"):
            refresh_fused(dm, cfg)


def dual_total(np_rng, fused_loss_weight):
    """total_loss of a two-query batch, the same in both views, with the
    neighbourhood term off, and the view's base contrastive mean and
    gradients."""
    cents = unit_rows(np_rng, 3, 4)
    q, ids, rows = np_rng.standard_normal((2, 4)), np.array([1, 2]), np.array([0, 1])
    labels = PseudoLabels(np.arange(3), 3)
    mem = EpochMemories(views=tuple(
        ViewMemories(labels, init_memory(cents), init_dual(cents, config())) for _ in range(2)
    ))
    cfg = TrainConfig(temperature=0.2, fused_loss_weight=fused_loss_weight, enable_neighbor=False)
    out = total_loss([ViewBatch(q, ids, rows)] * 2, mem, cfg)
    return out, batch_loss_cv(q, ids, init_memory(cents), 0.2)


class TestCombinedLoss:
    def test_zero_weight_reduces_to_base(self, np_rng):
        # the fused term adds no gradient: base and dual terms each carry the base one
        out, (_, base_grads) = dual_total(np_rng, 0.0)
        for grads in out.grads:
            np.testing.assert_allclose(grads - 2.0 * base_grads, 0.0, atol=1e-15)

    def test_single_cluster_fused_term_zero(self, np_rng):
        dm = init_dual(unit_rows(np_rng, 1, 4), config())
        q = unit_rows(np_rng, 1, 4)
        value, _ = fused_bank_loss(q, dm, [0], 0.5)
        assert value[0] == pytest.approx(0.0, abs=1e-15)

    def test_exact_match_with_base_loss(self, np_rng):
        # bit-level: weight zero means the dual value IS the base value
        out, (base, _) = dual_total(np_rng, 0.0)
        assert out.dual == base + base

    def test_gradient_matches_finite_differences(self, np_rng):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            dm = init_dual(unit_rows(rng, 4, 5), config())
            q0 = rng.standard_normal((1, 5))

            def value(q):
                return fused_bank_loss(q[None, :], dm, [2], 0.4)[0][0]

            _, grad = fused_bank_loss(q0, dm, [2], 0.4)
            assert rel_error(grad, finite_difference(value, q0[0])) <= 1e-6

    def test_all_equal_state_is_update_fixed_point(self, np_rng):
        cents = unit_rows(np_rng, 3, 4)
        for rule in ("damped", "normalized"):
            cfg = config(momentum=0.2, update_rule=rule)
            dm = init_dual(cents, cfg)
            for k in range(3):
                update_long_term_batch(dm, cents[k : k + 1], [k], cfg)
            update_short_term(dm, compute_beta(cents, dm, [0, 1, 2]), [0, 1, 2])
            refresh_fused(dm, cfg)
            np.testing.assert_allclose(dm.long_term, cents, atol=1e-12)
            np.testing.assert_allclose(dm.short_term, cents, atol=1e-12)
            np.testing.assert_allclose(dm.fused, cents, atol=1e-12)
