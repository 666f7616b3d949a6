import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference, rel_error, unit_rows
from crossview.neighborhood import NeighborWeights, build_instance_memory, neighborhood_total
from reference import (
    alignment_loss,
    consistency_loss,
    mutual_info_loss,
    threshold_neighborhood,
    topk_neighborhoods,
    uniform_divergence,
)

LN2 = float(np.log(2.0))


def memory_with_rows(rows, view="drone"):
    rows = np.asarray(rows, dtype=np.float64)
    return build_instance_memory(rows / np.linalg.norm(rows, axis=1, keepdims=True), view)


def planted_memory(np_rng, n, d):
    return build_instance_memory(unit_rows(np_rng, n, d), "drone")


def axis_memory(ids, d=4, view="drone"):
    """Row j is +e_j for j < d and -e_(j-d) otherwise. A query's similarity
    to such a row is exactly one signed component of its unit vector, so
    equal components tie exactly however the dot products are summed."""
    return build_instance_memory(np.vstack([np.eye(d), -np.eye(d)])[ids], view)


def reference_total(
    drone_queries, drone_indices, sat_queries, sat_indices, mem_d, mem_s, weights,
    extra_cross_d=None, extra_cross_s=None,
):
    """neighborhood_total recomputed one query at a time from the per-query
    sets and losses; returns the value and both views' gradients."""
    w = weights
    value = 0.0
    grads = []
    for queries, own, intra, cross, extra in (
        (drone_queries, drone_indices, mem_d, mem_s, extra_cross_d),
        (sat_queries, sat_indices, mem_s, mem_d, extra_cross_s),
    ):
        b = queries.shape[0]
        g = np.zeros_like(queries)
        for i, q in enumerate(queries):
            exclude = int(own[i]) if own[i] >= 0 else None
            forced = None if extra is None else extra[i]
            for mem, skip, partners in ((intra, exclude, None), (cross, None, forced)):
                k2 = min(w.k_expanded, mem.size - (skip is not None))
                omega = threshold_neighborhood(q, mem, w.threshold_ratio, exclude=skip)
                if partners is not None:
                    omega = np.union1d(omega, np.asarray(partners, dtype=np.int64))
                strict, wide = topk_neighborhoods(q, mem, min(w.k_strict, k2), k2, exclude=skip)
                for (v, dv), weight in (
                    (alignment_loss(q, mem, omega, w.temperature), 1.0),
                    (mutual_info_loss(q, mem, strict), w.mutual_weight),
                    (consistency_loss(q, mem, wide), w.consistency_weight),
                ):
                    value += weight * v / b
                    g[i] += weight * dv / b
        grads.append(g)
    return value, grads[0], grads[1]


def assert_matches_reference(case):
    out = neighborhood_total(**case)
    value, gd, gs = reference_total(**case)
    assert out.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(out.drone_grads, gd, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.sat_grads, gs, rtol=1e-12, atol=1e-12)


class TestInstanceMemory:
    def test_single_row(self):
        mem = memory_with_rows([[3.0, 4.0]])
        assert mem.size == 1

    def test_rebuild_identical(self, np_rng):
        rows = unit_rows(np_rng, 4, 3)
        a = build_instance_memory(rows, "drone")
        b = build_instance_memory(rows, "drone")
        np.testing.assert_array_equal(a.features, b.features)

    def test_snapshot_is_a_copy(self, np_rng):
        rows = unit_rows(np_rng, 4, 3)
        mem = build_instance_memory(rows, "drone")
        rows[0, 0] = 9.0
        assert mem.features[0, 0] != 9.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            build_instance_memory(np.array([[2.0, 0.0]]), "drone")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_instance_memory(np.zeros((0, 3)), "drone")


class TestThresholdSet:
    def test_enumerated_example(self):
        # sims to q=(1,0): 0.9, 0.5, 0.3; cutoff 0.45 keeps the first two
        mem = memory_with_rows(
            [
                [0.9, np.sqrt(1 - 0.81)],
                [0.5, np.sqrt(1 - 0.25)],
                [0.3, np.sqrt(1 - 0.09)],
            ]
        )
        got = threshold_neighborhood(np.array([1.0, 0.0]), mem, 0.5)
        np.testing.assert_array_equal(got, [0, 1])

    def test_ratio_near_one_keeps_argmax_only(self, np_rng):
        mem = planted_memory(np_rng, 10, 4)
        q = unit_rows(np_rng, 1, 4)[0]
        sims = mem.features @ q
        if sims.max() <= 0:  # ratio filter needs a positive max here
            q = mem.features[3]
            sims = mem.features @ q
        got = threshold_neighborhood(q, mem, 0.999999)
        assert got.size >= 1
        assert int(sims.argmax()) in got.tolist()
        assert got.size <= np.sum(sims > 0.999 * sims.max())

    def test_all_equal_positive_gives_full_set(self):
        mem = memory_with_rows([[1.0, 0.0]] * 4)
        got = threshold_neighborhood(np.array([1.0, 0.0]), mem, 0.9)
        np.testing.assert_array_equal(got, [0, 1, 2, 3])

    def test_exclusion_removes_self(self):
        mem = memory_with_rows([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        got = threshold_neighborhood(np.array([1.0, 0.0]), mem, 0.5, exclude=0)
        assert 0 not in got.tolist()
        assert 1 in got.tolist()

    def test_bad_ratio(self):
        mem = memory_with_rows([[1.0, 0.0]])
        with pytest.raises(ValueError):
            threshold_neighborhood(np.array([1.0, 0.0]), mem, 1.0)


class TestTopK:
    def test_equal_ks_identical_lists(self, np_rng):
        mem = planted_memory(np_rng, 8, 3)
        q = unit_rows(np_rng, 1, 3)[0]
        strict, wide = topk_neighborhoods(q, mem, 3, 3)
        np.testing.assert_array_equal(strict, wide)

    def test_full_k2_covers_memory(self, np_rng):
        mem = planted_memory(np_rng, 6, 3)
        q = unit_rows(np_rng, 1, 3)[0]
        _, wide = topk_neighborhoods(q, mem, 2, 6)
        assert sorted(wide.tolist()) == list(range(6))

    def test_strict_subset_of_wide(self, np_rng):
        for _ in range(100):
            n = int(np_rng.integers(3, 30))
            mem = planted_memory(np_rng, n, 4)
            q = unit_rows(np_rng, 1, 4)[0]
            k1 = int(np_rng.integers(1, n))
            k2 = int(np_rng.integers(k1, n))
            strict, wide = topk_neighborhoods(q, mem, k1, k2)
            assert set(strict.tolist()) <= set(wide.tolist())
            sims = mem.features @ q
            expect = sorted(range(n), key=lambda i: (-sims[i], i))
            np.testing.assert_array_equal(wide, expect[:k2])

    def test_k_out_of_range(self, np_rng):
        mem = planted_memory(np_rng, 4, 3)
        q = unit_rows(np_rng, 1, 3)[0]
        with pytest.raises(ValueError):
            topk_neighborhoods(q, mem, 1, 5)
        with pytest.raises(ValueError):
            topk_neighborhoods(q, mem, 3, 2)

    def test_exclusion_shrinks_pool(self, np_rng):
        mem = planted_memory(np_rng, 4, 3)
        strict, wide = topk_neighborhoods(mem.features[1], mem, 1, 3, exclude=1)
        assert 1 not in wide.tolist()


class TestAlignmentLoss:
    def test_singleton_set_zero(self, np_rng):
        mem = planted_memory(np_rng, 5, 4)
        q = unit_rows(np_rng, 1, 4)[0]
        loss, grad = alignment_loss(q, mem, np.array([2]), 0.1)
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_empty_set_noop(self, np_rng):
        mem = planted_memory(np_rng, 5, 4)
        q = unit_rows(np_rng, 1, 4)[0]
        loss, grad = alignment_loss(q, mem, np.array([], dtype=np.int64), 0.1)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_two_equal_sims(self):
        mem = memory_with_rows([[1.0, 1.0], [1.0, -1.0]])
        loss, _ = alignment_loss(np.array([1.0, 0.0]), mem, np.array([0, 1]), 1.0)
        assert loss == pytest.approx(2 * LN2, abs=1e-9)

    def test_gradient_matches_finite_differences(self, np_rng):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mem = planted_memory(rng, 8, 5)
            q0 = rng.standard_normal(5)
            omega = np.sort(rng.choice(8, size=4, replace=False))

            def value(q):
                return alignment_loss(q, mem, omega, 0.3)[0]

            _, grad = alignment_loss(q0, mem, omega, 0.3)
            assert rel_error(grad, finite_difference(value, q0)) <= 1e-6


class TestConsistencyLoss:
    def test_uniform_zero(self):
        mem = memory_with_rows([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        loss, _ = consistency_loss(np.array([1.0, 0.0]), mem, np.array([0, 1, 2]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_value_by_formula(self):
        assert uniform_divergence([1.0, 0.0, 0.0, 0.0]) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_non_negative_random(self, np_rng):
        for _ in range(200):
            n = int(np_rng.integers(2, 12))
            mem = planted_memory(np_rng, n, 4)
            q = np_rng.standard_normal(4)
            picked = np.sort(np_rng.choice(n, size=int(np_rng.integers(1, n + 1)), replace=False))
            loss, _ = consistency_loss(q, mem, picked)
            assert loss >= -1e-12

    def test_gradient_matches_finite_differences(self, np_rng):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mem = planted_memory(rng, 9, 4)
            q0 = rng.standard_normal(4)
            picked = np.sort(rng.choice(9, size=5, replace=False))

            def value(q):
                return consistency_loss(q, mem, picked)[0]

            _, grad = consistency_loss(q0, mem, picked)
            assert rel_error(grad, finite_difference(value, q0)) <= 1e-6


class TestMutualInfoLoss:
    def test_uniform_zero(self):
        mem = memory_with_rows([[1.0, 1.0], [1.0, 1.0]])
        loss, _ = mutual_info_loss(np.array([1.0, 0.0]), mem, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_bound_by_formula(self):
        assert -uniform_divergence([1.0, 0.0, 0.0, 0.0]) == pytest.approx(-np.log(4.0), abs=1e-12)

    def test_bounds_random(self, np_rng):
        for _ in range(1000):
            n = int(np_rng.integers(2, 10))
            mem = planted_memory(np_rng, n, 3)
            q = np_rng.standard_normal(3)
            k = int(np_rng.integers(1, n + 1))
            picked = np.sort(np_rng.choice(n, size=k, replace=False))
            loss, _ = mutual_info_loss(q, mem, picked)
            assert -np.log(k) - 1e-12 <= loss <= 1e-12

    def test_gradient_matches_finite_differences(self, np_rng):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            mem = planted_memory(rng, 7, 4)
            q0 = rng.standard_normal(4)
            picked = np.sort(rng.choice(7, size=3, replace=False))

            def value(q):
                return mutual_info_loss(q, mem, picked)[0]

            _, grad = mutual_info_loss(q0, mem, picked)
            assert rel_error(grad, finite_difference(value, q0)) <= 1e-6


class TestCombination:
    def make_batches(self, np_rng, n=9, m=7, d=4, bd=3, bs=2):
        mem_d = planted_memory(np_rng, n, d)
        mem_s = build_instance_memory(unit_rows(np_rng, m, d), "satellite")
        rows_d = np_rng.choice(n, size=bd, replace=False)
        rows_s = np_rng.choice(m, size=bs, replace=False)
        return mem_d, mem_s, mem_d.features[rows_d], rows_d, mem_s.features[rows_s], rows_s

    def test_zero_weights_reduce_to_alignment_sum(self, np_rng):
        mem_d, mem_s, qd, rd, qs, rs = self.make_batches(np_rng)
        w = NeighborWeights(
            threshold_ratio=0.7, k_strict=2, k_expanded=4, mutual_weight=0.0,
            consistency_weight=0.0, temperature=0.2,
        )
        out = neighborhood_total(qd, rd, qs, rs, mem_d, mem_s, w)
        expect = 0.0
        for i in range(qd.shape[0]):
            om_dd = threshold_neighborhood(qd[i], mem_d, 0.7, exclude=int(rd[i]))
            om_ds = threshold_neighborhood(qd[i], mem_s, 0.7)
            expect += (
                alignment_loss(qd[i], mem_d, om_dd, 0.2)[0]
                + alignment_loss(qd[i], mem_s, om_ds, 0.2)[0]
            ) / qd.shape[0]
        for j in range(qs.shape[0]):
            om_ss = threshold_neighborhood(qs[j], mem_s, 0.7, exclude=int(rs[j]))
            om_sd = threshold_neighborhood(qs[j], mem_d, 0.7)
            expect += (
                alignment_loss(qs[j], mem_s, om_ss, 0.2)[0]
                + alignment_loss(qs[j], mem_d, om_sd, 0.2)[0]
            ) / qs.shape[0]
        assert out.value == pytest.approx(expect, abs=1e-12)

    def test_identical_corpora_make_intra_equal_cross(self, np_rng):
        rows = unit_rows(np_rng, 8, 4)
        mem_d = build_instance_memory(rows, "drone")
        mem_s = build_instance_memory(rows, "satellite")
        q = unit_rows(np_rng, 1, 4)
        w = NeighborWeights(threshold_ratio=0.6, k_strict=2, k_expanded=4, temperature=0.3)
        # index -1 marks a query outside the memory: no self-exclusion
        # anywhere, so the dd and ds contributions coincide
        out = neighborhood_total(
            q, np.array([-1]), q[:0], np.array([], dtype=int), mem_d, mem_s, w
        )
        half = neighborhood_total(
            q, np.array([-1]), q[:0], np.array([], dtype=int), mem_d, mem_d, w
        )
        assert out.value == pytest.approx(half.value, abs=1e-12)

    def test_forced_cross_inclusion_changes_set(self, np_rng):
        mem_d, mem_s, qd, rd, qs, rs = self.make_batches(np_rng, bd=1, bs=0)
        w = NeighborWeights(
            threshold_ratio=0.95, k_strict=1, k_expanded=2, mutual_weight=0.0,
            consistency_weight=0.0, temperature=0.2,
        )
        plain = neighborhood_total(qd, rd, qs, rs, mem_d, mem_s, w)
        everything = [np.arange(mem_s.size)]
        forced = neighborhood_total(
            qd, rd, qs, rs, mem_d, mem_s, w, extra_cross_d=everything
        )
        om = threshold_neighborhood(qd[0], mem_s, 0.95)
        if om.size < mem_s.size:
            assert forced.value != pytest.approx(plain.value, abs=1e-9)

    def test_gradients_match_finite_differences(self, np_rng):
        # selections are recomputed inside the probe, so this exercises the
        # full piecewise-smooth objective at generic points
        w = NeighborWeights(
            threshold_ratio=0.8, k_strict=2, k_expanded=4,
            mutual_weight=0.7, consistency_weight=1.3, temperature=0.25,
        )
        for seed in range(5):
            rng = np.random.default_rng(seed + 100)
            mem_d = build_instance_memory(unit_rows(rng, 9, 4), "drone")
            mem_s = build_instance_memory(unit_rows(rng, 7, 4), "satellite")
            rows_d = np.array([1, 4])
            rows_s = np.array([3])
            qd0 = mem_d.features[rows_d] + 0.01 * rng.standard_normal((2, 4))
            qs0 = mem_s.features[rows_s] + 0.01 * rng.standard_normal((1, 4))

            def value(flat):
                qd = flat[:8].reshape(2, 4)
                qs = flat[8:].reshape(1, 4)
                return neighborhood_total(qd, rows_d, qs, rows_s, mem_d, mem_s, w).value

            out = neighborhood_total(qd0, rows_d, qs0, rows_s, mem_d, mem_s, w)
            grad = np.concatenate([out.drone_grads.ravel(), out.sat_grads.ravel()])
            flat0 = np.concatenate([qd0.ravel(), qs0.ravel()])
            assert rel_error(grad, finite_difference(value, flat0)) <= 1e-5

    def test_removing_non_member_row_keeps_sets(self, np_rng):
        rows = unit_rows(np_rng, 12, 4)
        mem = build_instance_memory(rows, "drone")
        q = unit_rows(np_rng, 1, 4)[0]
        omega = threshold_neighborhood(q, mem, 0.9)
        strict, wide = topk_neighborhoods(q, mem, 2, 4)
        selected = set(omega.tolist()) | set(wide.tolist())
        outsiders = [i for i in range(12) if i not in selected]
        assert outsiders, "instance must leave at least one row unselected"
        drop = outsiders[0]
        keep = np.array([i for i in range(12) if i != drop])
        remap = {old: new for new, old in enumerate(keep)}
        mem2 = build_instance_memory(rows[keep], "drone")
        omega2 = threshold_neighborhood(q, mem2, 0.9)
        strict2, wide2 = topk_neighborhoods(q, mem2, 2, 4)
        np.testing.assert_array_equal(omega2, [remap[i] for i in omega.tolist()])
        np.testing.assert_array_equal(strict2, [remap[i] for i in strict.tolist()])
        np.testing.assert_array_equal(wide2, [remap[i] for i in wide.tolist()])

    def test_memory_permutation_outside_sets_is_irrelevant(self, np_rng):
        rows = unit_rows(np_rng, 10, 4)
        mem = build_instance_memory(rows, "drone")
        q = unit_rows(np_rng, 1, 4)[0]
        k1, k2 = 2, 3
        strict, wide = topk_neighborhoods(q, mem, k1, k2)
        a = (
            mutual_info_loss(q, mem, strict)[0],
            consistency_loss(q, mem, wide)[0],
        )
        outside = [i for i in range(10) if i not in wide.tolist()]
        perm = np.arange(10)
        perm[outside] = np.array(outside)[::-1]
        mem2 = build_instance_memory(rows[perm], "drone")
        inv = np.argsort(perm)
        b = (
            mutual_info_loss(q, mem2, inv[strict])[0],
            consistency_loss(q, mem2, inv[wide])[0],
        )
        assert a == pytest.approx(b, abs=1e-12)


def reference_case(kind):
    """Inputs to neighborhood_total, named as its keyword arguments."""
    rng = np.random.default_rng(7)
    w = NeighborWeights(
        threshold_ratio=0.7, k_strict=2, k_expanded=4,
        mutual_weight=0.7, consistency_weight=1.3, temperature=0.2,
    )
    case = dict(
        drone_queries=rng.standard_normal((3, 4)), drone_indices=np.array([4, -1, 0]),
        sat_queries=rng.standard_normal((2, 4)), sat_indices=np.array([-1, 5]),
        mem_d=planted_memory(rng, 9, 4),
        mem_s=build_instance_memory(unit_rows(rng, 7, 4), "satellite"),
        weights=w,
    )
    if kind == "ties":
        # each view's first query ranks row 0 of either memory first and rows
        # 1-4 tied just below it; k_expanded = 3 keeps two of the tied rows
        # and k_strict = 2 one. Row 1 lies along another axis than rows 2-4,
        # the same in both memories, so taking the higher-indexed tied rows
        # moves both directions' gradients the same way
        case.update(
            drone_queries=np.array([[2.0, 2.0, 3.0, 0.0], [3.0, 3.0, -1.0, 1.0]]),
            drone_indices=np.array([-1, 5]),
            sat_queries=np.array([[1.0, 1.0, 2.0, 0.0], [0.0, 2.0, 2.0, 1.0]]),
            sat_indices=np.array([4, -1]),
            mem_d=axis_memory([2, 0, 1, 1, 1, 3]),
            mem_s=axis_memory([2, 0, 1, 1, 1, 3], view="satellite"),
            weights=NeighborWeights(
                threshold_ratio=0.8, k_strict=2, k_expanded=3,
                mutual_weight=0.7, consistency_weight=1.3, temperature=0.2,
            ),
        )
    elif kind == "forced":
        om = threshold_neighborhood(case["sat_queries"][0], case["mem_d"], w.threshold_ratio)
        outside = [u for u in range(case["mem_d"].size) if u not in om.tolist()][0]
        # one partner already in the threshold set, one outside it, both repeated
        case["extra_cross_s"] = [np.array([om[0], outside, om[0], outside]), None]
        case["extra_cross_d"] = [[1, 1], None, []]
    elif kind == "no threshold set":
        # every similarity is at most 0, so no row clears ratio * max
        case.update(
            drone_queries=np.array([[-1.0, -2.0, -1.0, 0.0]]), drone_indices=np.array([0]),
            sat_queries=np.array([[-2.0, -1.0, -1.0, -1.0]]), sat_indices=np.array([-1]),
            mem_d=axis_memory([0, 1, 2, 3, 0]),
            mem_s=axis_memory([1, 2, 0, 3], view="satellite"),
        )
    return case


class TestBatchMatchesReference:
    @pytest.mark.parametrize("kind", ["random", "ties", "forced", "no threshold set"])
    def test_value_and_gradients(self, kind):
        assert_matches_reference(reference_case(kind))

    def test_clamped_k_differs_per_row_and_warns_once_per_direction(self):
        # k_expanded = 6 exceeds the 5-row drone memory: drone rows that
        # exclude themselves keep 4, the row with index -1 keeps 5, and the
        # satellite-to-drone direction clamps to 5 too; the 7-row satellite
        # memory has room in both of its directions
        case = reference_case("random")
        case["weights"] = NeighborWeights(
            threshold_ratio=0.7, k_strict=3, k_expanded=6,
            mutual_weight=0.7, consistency_weight=1.3, temperature=0.2,
        )
        case["mem_d"] = planted_memory(np.random.default_rng(8), 5, 4)
        case["drone_indices"] = np.array([0, -1, 3])
        case["sat_indices"] = np.array([2, -1])
        with pytest.warns(UserWarning, match="clamped") as record:
            assert_matches_reference(case)
        # the reference computes its clamped k itself and warns nothing
        assert len(record) == 2


QUERY = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.filterwarnings("ignore:expanded neighborhood clamped")
def test_tie_heavy_batches_match_reference(data):
    n = data.draw(st.integers(2, 8), label="drone rows")
    m = data.draw(st.integers(2, 8), label="satellite rows")
    # rows along the six signed axes of R^3, so rows repeat and similarities tie
    mem_d = axis_memory(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), d=3)
    mem_s = axis_memory(
        data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)), d=3, view="satellite"
    )
    qd = np.array(data.draw(st.lists(QUERY, min_size=1, max_size=4)), dtype=np.float64)
    qs = np.array(data.draw(st.lists(QUERY, min_size=1, max_size=4)), dtype=np.float64)
    rd = np.array([data.draw(st.integers(-1, n - 1)) for _ in qd])
    rs = np.array([data.draw(st.integers(-1, m - 1)) for _ in qs])
    k_strict = data.draw(st.integers(1, 4), label="k_strict")
    w = NeighborWeights(
        threshold_ratio=data.draw(st.floats(0.05, 0.95)),
        k_strict=k_strict,
        k_expanded=data.draw(st.integers(k_strict, 9), label="k_expanded"),
        mutual_weight=data.draw(st.floats(0.0, 2.0)),
        consistency_weight=data.draw(st.floats(0.0, 2.0)),
        temperature=data.draw(st.sampled_from([0.1, 0.5, 1.0])),
    )
    forced = st.none() | st.lists(st.integers(0, n - 1), max_size=4)
    extra_s = data.draw(st.none() | st.lists(forced, min_size=len(qs), max_size=len(qs)))
    assert_matches_reference(dict(
        drone_queries=qd, drone_indices=rd, sat_queries=qs, sat_indices=rs,
        mem_d=mem_d, mem_s=mem_s, weights=w, extra_cross_s=extra_s,
    ))
