import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview.cluster_memory import bank_contrastive_rows
from crossview.errors import DegenerateInputError
from crossview.numcore import Rng, l2_normalize_rows, pairwise_sim, sigmoid, top_k_indices
from reference import cosine_sim, uniform_stream

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestCosine:
    def test_identical_unit_vectors(self):
        assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_45_degrees(self):
        assert cosine_sim([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])


class TestPairwise:
    def test_identity_rows(self):
        eye = np.eye(2)
        np.testing.assert_allclose(pairwise_sim(eye, eye), np.eye(2), atol=1e-12)

    def test_self_similarity_single_row(self):
        row = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(pairwise_sim(row, row), [[1.0]], atol=1e-12)

    def test_matches_scalar_loop(self, np_rng):
        A = np_rng.standard_normal((5, 8))
        B = np_rng.standard_normal((7, 8))
        got = pairwise_sim(A, B)
        for i in range(5):
            for j in range(7):
                assert got[i, j] == pytest.approx(cosine_sim(A[i], B[j]), abs=1e-12)

    def test_symmetric_unit_diagonal(self, np_rng):
        A = np_rng.standard_normal((6, 4))
        S = pairwise_sim(A, A)
        np.testing.assert_allclose(S, S.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-12)

    def test_zero_row_rejected(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            pairwise_sim(A, A)


class TestNormalize:
    def test_pythagorean_row(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_unchanged(self):
        row = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(l2_normalize_rows(row), row, atol=1e-15)

    def test_random_norms_one(self, np_rng):
        out = l2_normalize_rows(np_rng.standard_normal((10, 6)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def softmax(v, temperature: float = 1.0) -> np.ndarray:
    """The contrastive losses' tempered softmax: against the identity bank,
    copy j of v with positive j has loss -log p_j."""
    k = np.size(v)
    return np.exp(-bank_contrastive_rows(np.tile(v, (k, 1)), np.eye(k), np.arange(k), temperature)[0])


class TestSoftmax:
    def test_two_equal_logits(self):
        np.testing.assert_allclose(softmax([0.0, 0.0], 1.0), [0.5, 0.5], atol=1e-12)

    def test_constant_vector_uniform(self):
        np.testing.assert_allclose(softmax([3.3] * 4, 0.7), [0.25] * 4, atol=1e-12)

    def test_binary_logit(self):
        np.testing.assert_allclose(
            softmax([1.0, 0.0], 1.0), [0.73105858, 0.26894142], atol=1e-8
        )

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], 0.0)

    @given(
        st.lists(finite_floats, min_size=1, max_size=12),
        finite_floats,
        st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(deadline=None, max_examples=80)
    def test_shift_invariance_and_sums_to_one(self, logits, shift, temp):
        v = np.array(logits)
        p = softmax(v, temp)
        q = softmax(v + shift, temp)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0)
        if (v.max() - v.min()) / temp < 700:  # below the exp underflow cliff
            assert np.all(p > 0.0)
        np.testing.assert_allclose(p, q, atol=1e-12)


class TestTopK:
    def test_forced_ordering(self):
        np.testing.assert_array_equal(top_k_indices([0.3, 0.9, 0.5], 2), [1, 2])

    def test_full_k_is_permutation(self):
        got = top_k_indices([0.1, 0.7, 0.4, 0.4], 4)
        assert sorted(got.tolist()) == [0, 1, 2, 3]

    def test_tie_break_lower_index(self):
        np.testing.assert_array_equal(top_k_indices([0.5, 0.9, 0.5], 2), [1, 0])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_indices([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            top_k_indices([1.0, 2.0], 0)

    def test_matches_sort_oracle_random(self, np_rng):
        for _ in range(100):
            v = np_rng.standard_normal(50)
            k = int(np_rng.integers(1, 51))
            got = top_k_indices(v, k)
            expect = sorted(range(50), key=lambda i: (-v[i], i))[:k]
            np.testing.assert_array_equal(got, expect)

    @given(st.lists(finite_floats, min_size=1, max_size=20), st.data())
    @settings(deadline=None, max_examples=60)
    def test_deterministic_pure_function(self, values, data):
        k = data.draw(st.integers(min_value=1, max_value=len(values)))
        a = top_k_indices(values, k)
        b = top_k_indices(values, k)
        np.testing.assert_array_equal(a, b)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_log_three(self):
        assert sigmoid(np.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    @given(finite_floats)
    @settings(deadline=None, max_examples=80)
    def test_symmetry_identity(self, x):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_inputs_stay_finite(self):
        assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-12)
        assert sigmoid(1000.0) == pytest.approx(1.0, abs=1e-12)


class TestRng:
    def test_same_seed_same_megastream(self):
        a = uniform_stream(Rng(1234), 1_000_000)
        b = uniform_stream(Rng(1234), 1_000_000)
        ha = hashlib.sha256(a.tobytes()).hexdigest()
        hb = hashlib.sha256(b.tobytes()).hexdigest()
        assert ha == hb

    def test_different_seeds_differ(self):
        assert not np.array_equal(uniform_stream(Rng(1), 64), uniform_stream(Rng(2), 64))

    def test_derive_is_stable_and_independent(self):
        parent = Rng(99)
        uniform_stream(parent, 1000)  # consuming the parent must not shift children
        child_a = uniform_stream(parent.derive(5), 32)
        child_b = uniform_stream(Rng(99).derive(5), 32)
        np.testing.assert_array_equal(child_a, child_b)
