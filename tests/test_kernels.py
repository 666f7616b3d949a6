"""The density-expansion and sequential-blend kernels on small inputs with
known answers."""

import numpy as np
import pytest

from crossview import kernels
from crossview.errors import DegenerateInputError


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


class TestBlendChain:
    def test_matches_per_update_loop(self, np_rng):
        for renorm in (True, False):
            bank = np_rng.standard_normal((6, 5))
            expected = bank.copy()
            ids = np_rng.integers(0, 6, size=30)
            assert np.unique(ids).size < ids.size
            queries = np_rng.standard_normal((30, 5))
            kernels.blend_chain(bank, ids, queries, 0.2, 0.8, renorm)
            for k, q in zip(ids, queries):
                row = 0.2 * expected[k] + 0.8 * q
                expected[k] = row / np.sqrt(row @ row) if renorm else row
            np.testing.assert_array_equal(bank, expected)

    def test_zero_collapse_raises(self):
        # position 1 keeps row 0 at [1, 0]; position 2 cancels it exactly
        bank = np.array([[1.0, 0.0], [1.0, 0.0]])
        ids = np.array([1, 0, 0], dtype=np.int64)
        queries = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateInputError, match=r"row 0 collapsed .* position 2$"):
            kernels.blend_chain(bank, ids, queries, 0.5, 0.5, True)

    def test_sequential_not_batched(self):
        # two updates to the same row must compound
        bank = np.array([[1.0, 0.0]])
        ids = np.array([0, 0], dtype=np.int64)
        queries = np.array([[0.0, 1.0], [0.0, 1.0]])
        kernels.blend_chain(bank, ids, queries, 0.5, 0.5, False)
        np.testing.assert_allclose(bank, [[0.25, 0.75]], atol=1e-15)


def test_backend_name_is_reported():
    assert kernels.backend_name() == "numpy"
