"""The density-expansion and sequential-blend kernels on small inputs with
known answers, and the layered blend against its per-update reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview import kernels
from crossview.errors import DegenerateInputError
from reference import reference_blend_chain


class TestExpandClusters:
    def test_single_core_chain(self):
        # 0-1-2 path, all core: one cluster
        adj = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
        rows, cols = np.nonzero(adj)
        indptr = np.zeros(4, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=3), out=indptr[1:])
        labels = kernels.expand_clusters(indptr, cols, np.array([True, True, True]))
        np.testing.assert_array_equal(labels, [0, 0, 0])

    def test_border_goes_to_lowest_indexed_core_neighbor(self):
        # point 2 borders cores 1 and 3 which are in different clusters
        adj = np.zeros((4, 4), dtype=bool)
        np.fill_diagonal(adj, True)
        adj[1, 2] = adj[2, 1] = True
        adj[3, 2] = adj[2, 3] = True
        rows, cols = np.nonzero(adj)
        indptr = np.zeros(5, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=4), out=indptr[1:])
        core = np.array([True, True, False, True])
        labels = kernels.expand_clusters(indptr, cols, core)
        assert labels[2] == labels[1]
        assert labels[1] != labels[3]


def blend_both(bank, queries, clusters, w_old, w_new, renorm):
    """Run blend_chain and the reference, on ``np.repeat(clusters, Z)``, on
    copies of ``bank``; return both final banks and both collapse messages
    (None when none raised)."""
    clusters = np.asarray(clusters, dtype=np.int64)
    ids = np.repeat(clusters, queries.shape[0] // max(clusters.size, 1))
    out = []
    for blend, args in ((kernels.blend_chain, (queries, clusters)), (reference_blend_chain, (ids, queries))):
        got = bank.copy()
        try:
            blend(got, *args, w_old, w_new, renorm)
            message = None
        except DegenerateInputError as exc:
            message = str(exc)
        out += [got, message]
    return out


def sampler_layout(rng, rows, max_z):
    """P distinct clusters of a ``rows``-row bank, in draw order, and Z."""
    p = int(rng.integers(0, rows + 1))
    return rng.choice(rows, size=p, replace=False), int(rng.integers(0, max_z + 1))


class TestBlendChain:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([7, 16, 32, 64]),
        st.booleans(),
        st.sampled_from([(0.2, 0.8), (0.3, 0.2), (1.0, 0.0)]),
    )
    @settings(deadline=None, max_examples=200)
    def test_matches_per_update_loop(self, seed, dim, renorm, weights):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 40))
        clusters, z = sampler_layout(rng, rows, 8)
        bank = rng.standard_normal((rows, dim))
        queries = rng.standard_normal((clusters.size * z, dim))
        got, got_msg, want, want_msg = blend_both(bank, queries, clusters, *weights, renorm)
        assert got.tobytes() == want.tobytes()
        assert got_msg == want_msg is None

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.booleans(),
        st.floats(0.0, 0.5),
    )
    @settings(deadline=None, max_examples=300)
    def test_collapses_match_per_update_loop(self, seed, dim, renorm, cancel_share):
        # integer-valued banks and queries blended half and half: a query
        # equal to minus its row's state cancels it exactly, so rows reach
        # zero norm in any layer and at any batch position
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 12))
        clusters, z = sampler_layout(rng, rows, 8)
        ids = np.repeat(clusters, z)
        bank = rng.integers(-2, 3, size=(rows, dim)).astype(np.float64)
        queries = rng.integers(-2, 3, size=(ids.size, dim)).astype(np.float64)
        cancel = rng.random(ids.size) < cancel_share
        state = bank.copy()  # each row as the loop leaves it, a zero norm left unscaled
        for pos, k in enumerate(ids.tolist()):
            if cancel[pos]:
                queries[pos] = -state[k]
            row = 0.5 * state[k] + 0.5 * queries[pos]
            nrm = np.sqrt(row @ row)
            state[k] = row / nrm if renorm and nrm else row
        got, got_msg, want, want_msg = blend_both(bank, queries, clusters, 0.5, 0.5, renorm)
        assert got.tobytes() == want.tobytes()
        assert got_msg == want_msg
        if renorm and cancel.any():
            assert want_msg is not None

    def test_collapse_names_earliest_position_across_layers(self):
        # clusters [0, 1], two queries each: row 0 collapses at position 1
        # (its second query, layer 1) and row 1 at position 2 (its first,
        # layer 0): position 1 is reported, with position 0 applied and
        # row 1 untouched
        bank = np.array([[1.0, 0.0], [0.0, 1.0]])
        clusters = np.array([0, 1], dtype=np.int64)
        queries = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        before = bank.copy()
        reference_blend_chain(before, [0], queries[:1], 0.5, 0.5, True)
        queries[1] = -before[0]
        got, got_msg, want, want_msg = blend_both(bank, queries, clusters, 0.5, 0.5, True)
        assert got_msg == want_msg == "memory row 0 collapsed to zero norm at batch position 1"
        assert got.tobytes() == want.tobytes() == before.tobytes()

    def test_zero_collapse_raises(self):
        # row 1 takes positions 0 and 1; position 2 cancels row 0 exactly
        bank = np.array([[1.0, 0.0], [1.0, 0.0]])
        clusters = np.array([1, 0], dtype=np.int64)
        queries = np.array([[0.0, 1.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateInputError, match=r"row 0 collapsed .* position 2$"):
            kernels.blend_chain(bank, queries, clusters, 0.5, 0.5, True)

    def test_sequential_not_batched(self):
        # two updates to the same row must compound
        bank = np.array([[1.0, 0.0]])
        queries = np.array([[0.0, 1.0], [0.0, 1.0]])
        kernels.blend_chain(bank, queries, [0], 0.5, 0.5, False)
        np.testing.assert_allclose(bank, [[0.25, 0.75]], atol=1e-15)

    @pytest.mark.parametrize(
        "clusters, queries, message",
        [
            ([0, 1, 0], 6, "repeated cluster"),
            ([0, 1], 3, "3 queries do not split evenly over 2 clusters"),
            ([], 1, "1 queries do not split evenly over 0 clusters"),
            ([2], 1, "cluster id out of range"),
            ([-1], 1, "cluster id out of range"),
        ],
    )
    def test_rejects_a_batch_off_the_layout(self, clusters, queries, message):
        bank = np.eye(2)
        with pytest.raises(ValueError, match=message):
            kernels.blend_chain(bank, np.ones((queries, 2)), clusters, 0.5, 0.5, True)
        assert bank.tobytes() == np.eye(2).tobytes()


def test_backend_name_is_reported():
    assert kernels.backend_name() == "numpy"
