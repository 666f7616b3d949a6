import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labelings, unit_rows
from reference import noise_count
from crossview.clustering import (
    NOISE,
    DbscanParams,
    PseudoLabels,
    collapse_replica_labels,
    compute_centroids,
    dbscan,
    replicate_features,
)
from crossview.numcore import l2_normalize_rows


def reference_dbscan(points, eps, min_pts):
    """Brute-force oracle: union-find over core pairs instead of queue
    expansion, then borders to their lowest-indexed core neighbor (the
    documented tie-break). Cluster numbering is arbitrary but valid."""
    n = len(points)
    unit = points / np.linalg.norm(points, axis=1, keepdims=True)
    dist = 1.0 - unit @ unit.T
    neighbors = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        if not core[i]:
            continue
        for j in neighbors[i]:
            if core[j]:
                parent[find(i)] = find(int(j))
    labels = np.full(n, -1, dtype=np.int64)
    roots = {}
    for i in range(n):
        if core[i]:
            labels[i] = roots.setdefault(find(i), len(roots))
    for i in range(n):
        if core[i]:
            continue
        for j in neighbors[i]:  # ascending index order
            if core[j]:
                labels[i] = labels[j]
                break
    return labels, len(roots)


def partition_signature(labels):
    """Cluster memberships as a set of frozensets plus the noise set."""
    labels = np.asarray(labels)
    clusters = {
        frozenset(np.flatnonzero(labels == k).tolist())
        for k in np.unique(labels[labels >= 0])
    }
    noise = frozenset(np.flatnonzero(labels == NOISE).tolist())
    return clusters, noise


class TestDbscan:
    def test_circle_arcs(self):
        deg = np.array([0.0, 2.0, 3.0, 90.0, 92.0, 93.0, 180.0]) * np.pi / 180.0
        feats = np.stack([np.cos(deg), np.sin(deg)], axis=1)
        out = dbscan(feats, DbscanParams(eps=0.05, min_pts=2))
        assert out.num_clusters == 2
        np.testing.assert_array_equal(out.labels, [0, 0, 0, 1, 1, 1, NOISE])

    def test_all_identical_single_cluster(self):
        feats = np.tile([0.6, 0.8], (5, 1))
        out = dbscan(feats, DbscanParams(eps=0.1, min_pts=5))
        assert out.num_clusters == 1
        assert noise_count(out) == 0

    def test_tiny_eps_all_noise(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        out = dbscan(feats, DbscanParams(eps=1e-9, min_pts=2))
        assert out.num_clusters == 0
        assert noise_count(out) == 3

    def test_invalid_params(self):
        feats = np.eye(2)
        with pytest.raises(ValueError):
            dbscan(feats, DbscanParams(eps=0.0, min_pts=2))
        with pytest.raises(ValueError):
            dbscan(feats, DbscanParams(eps=0.1, min_pts=0))

    def test_matches_reference_up_to_relabeling(self, np_rng):
        # noise sets must be identical, memberships equal as partitions
        for trial in range(100):
            n = int(np_rng.integers(4, 65))
            d = int(np_rng.integers(2, 6))
            feats = unit_rows(np_rng, n, d)
            eps = float(np_rng.uniform(0.02, 0.6))
            min_pts = int(np_rng.integers(1, 6))
            mine = dbscan(feats, DbscanParams(eps=eps, min_pts=min_pts))
            ref_labels, _ = reference_dbscan(feats, eps, min_pts)
            got = partition_signature(mine.labels)
            want = partition_signature(ref_labels)
            assert got == want, f"trial {trial} diverged"

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 200])
    def test_row_blocks_match_reference(self, np_rng, n):
        # the eps-graph is built BLOCK_ROWS rows at a time; sizes on both
        # sides of the block edges, and a last block of one row
        feats = unit_rows(np_rng, n, 3)
        mine = dbscan(feats, DbscanParams(eps=0.02, min_pts=3))
        ref_labels, ref_count = reference_dbscan(feats, 0.02, 3)
        np.testing.assert_array_equal(mine.labels, ref_labels)
        assert mine.num_clusters == ref_count > 1

    def test_deterministic_relabeling(self, np_rng):
        feats = unit_rows(np_rng, 40, 4)
        params = DbscanParams(eps=0.3, min_pts=3)
        a = dbscan(feats, params)
        b = dbscan(feats, params)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_cluster_ids_ordered_by_first_core_index(self, np_rng):
        feats = unit_rows(np_rng, 30, 3)
        out = dbscan(feats, DbscanParams(eps=0.4, min_pts=2))
        firsts = [out.members(k)[0] for k in range(out.num_clusters)]
        assert firsts == sorted(firsts)


class TestPseudoLabels:
    @given(labelings())
    @settings(deadline=None, max_examples=100)
    def test_members_match_label_scan(self, labels):
        for k in range(labels.num_clusters):
            np.testing.assert_array_equal(labels.members(k), np.flatnonzero(labels.labels == k))

    @pytest.mark.parametrize("raw", [np.array([[0, 1], [1, 0]]), np.array(0)])
    def test_labels_must_be_one_dimensional(self, raw):
        with pytest.raises(ValueError, match=rf"1-D, got shape {re.escape(str(raw.shape))}"):
            PseudoLabels(labels=raw, num_clusters=2)

    def test_labels_are_a_copy(self):
        raw = np.array([0, 1, 1])
        labels = PseudoLabels(labels=raw, num_clusters=2)
        raw[0] = 1
        np.testing.assert_array_equal(labels.labels, [0, 1, 1])

    def test_fractional_labels_rejected(self):
        # an int64 cast would truncate them to [0, 1] without a word
        with pytest.raises(ValueError, match="labels must be integer cluster ids"):
            PseudoLabels(labels=np.array([0.5, 1.7]), num_clusters=2)

    @pytest.mark.parametrize("k", [-2, -1, 3])
    def test_cluster_id_out_of_range_rejected(self, k):
        # a negative id must not index the grouping from its end
        labels = PseudoLabels(labels=np.array([0, 1, NOISE, 2, 1]), num_clusters=3)
        with pytest.raises(ValueError, match="out of range"):
            labels.members(k)

    def test_members_are_read_only(self):
        labels = PseudoLabels(labels=np.array([1, 0, 1]), num_clusters=2)
        with pytest.raises(ValueError):
            labels.members(1)[0] = 0
        np.testing.assert_array_equal(labels.members(1), [0, 2])


class TestReplicate:
    def test_factor_one_identity(self, np_rng):
        feats = np_rng.standard_normal((3, 4))
        rep, idx = replicate_features(feats, 1)
        np.testing.assert_array_equal(rep, feats)
        np.testing.assert_array_equal(idx, [0, 1, 2])

    def test_contiguous_pattern(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep, idx = replicate_features(feats, 3)
        np.testing.assert_array_equal(idx, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(rep[:3], np.tile(feats[0], (3, 1)))

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            replicate_features(np.eye(2), 0)

    def test_replicated_singleton_centroid_is_original(self):
        feats = np.array([[0.6, 0.8]])
        rep, _ = replicate_features(feats, 5)
        labels = PseudoLabels(labels=np.zeros(5, dtype=np.int64), num_clusters=1)
        np.testing.assert_allclose(compute_centroids(rep, labels), feats, atol=1e-12)

    def test_centroids_replication_invariant(self, np_rng):
        feats = unit_rows(np_rng, 6, 4)
        base_labels = PseudoLabels(labels=np.array([0, 0, 1, 1, 2, 2]), num_clusters=3)
        rep, idx = replicate_features(feats, 4)
        rep_labels = PseudoLabels(labels=base_labels.labels[idx], num_clusters=3)
        np.testing.assert_allclose(
            compute_centroids(rep, rep_labels),
            compute_centroids(feats, base_labels),
            atol=1e-12,
        )


class TestCollapseReplicaLabels:
    def test_round_trip(self, np_rng):
        feats = unit_rows(np_rng, 8, 3)
        rep, idx = replicate_features(feats, 5)
        labels = dbscan(rep, DbscanParams(eps=0.2, min_pts=3))
        collapsed = collapse_replica_labels(labels, idx, 8)
        assert collapsed.labels.shape == (8,)
        # each original must carry the (remapped) label shared by its replicas
        for orig in range(8):
            replica_labels = labels.labels[idx == orig]
            assert len(set(replica_labels.tolist())) == 1

    @pytest.mark.parametrize("entry", [-1, 3, 0.5])
    def test_index_map_entry_outside_the_originals_rejected(self, entry):
        # -1 used to index from the end, 3 to raise an IndexError, 0.5 to read as 0
        labels = PseudoLabels(labels=np.zeros(4, dtype=np.int64), num_clusters=1)
        with pytest.raises(ValueError, match=r"in \[0, 3\)"):
            collapse_replica_labels(labels, [0, 1, 2, entry], 3)

    def test_all_noise_gives_no_clusters(self):
        rep, idx = replicate_features(np.eye(3), 2)
        labels = dbscan(rep, DbscanParams(eps=0.1, min_pts=4))
        assert labels.num_clusters == 0
        collapsed = collapse_replica_labels(labels, idx, 3)
        assert collapsed.num_clusters == 0
        np.testing.assert_array_equal(collapsed.labels, [NOISE, NOISE, NOISE])


direction = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(
    lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 > 0.01
)


class TestReplicationAsMinPtsDivisor:
    """Clustering rows replicated r times equals clustering the originals
    with min_pts divided by r, rounded up: the trainer's shortcut."""

    @given(
        st.lists(direction, min_size=1, max_size=24),
        st.floats(min_value=0.01, max_value=0.6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=12),
    )
    @settings(deadline=None, max_examples=150)
    def test_labels_identical(self, rows, eps, factor, min_pts):
        feats = np.array(rows)
        rep, idx = replicate_features(feats, factor)
        want = collapse_replica_labels(
            dbscan(rep, DbscanParams(eps=eps, min_pts=min_pts)), idx, feats.shape[0]
        )
        got = dbscan(feats, DbscanParams(eps=eps, min_pts=-(-min_pts // factor)))
        assert got.num_clusters == want.num_clusters
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_border_and_noise_carry_over(self):
        # angles on the unit circle: core runs at 0.29-0.32 and 0.00-0.03, a
        # border point at 0.16 that reaches one core point of each, and noise;
        # min_pts 8 over 2 replicas means a row needs 4 originals within eps
        angles = np.array([0.29, 0.30, 0.31, 0.32, 0.03, 0.02, 0.01, 0.0, 0.16, 2.0])
        feats = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        eps = 1.0 - np.cos(0.135)
        rep, idx = replicate_features(feats, 2)
        want = collapse_replica_labels(dbscan(rep, DbscanParams(eps=eps, min_pts=8)), idx, 10)
        got = dbscan(feats, DbscanParams(eps=eps, min_pts=4))
        assert want.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 0, NOISE]
        np.testing.assert_array_equal(got.labels, want.labels)


class TestCentroids:
    def test_singleton(self):
        feats = np.array([[0.0, 1.0]])
        labels = PseudoLabels(labels=np.array([0]), num_clusters=1)
        np.testing.assert_allclose(compute_centroids(feats, labels), [[0.0, 1.0]], atol=1e-15)

    def test_two_member_mean_normalized(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = PseudoLabels(labels=np.array([0, 0]), num_clusters=1)
        np.testing.assert_allclose(
            compute_centroids(feats, labels),
            [[0.70710678, 0.70710678]],
            atol=1e-8,
        )

    def test_matches_loop_oracle(self, np_rng):
        # members in ascending row order give the per-cluster scan's bits
        for _ in range(20):
            feats = np_rng.standard_normal((40, 5))
            raw = np_rng.integers(NOISE, 4, size=40)
            raw[np_rng.permutation(40)[:5]] = [0, 1, 2, 3, NOISE]  # every cluster non-empty, some noise
            labels = PseudoLabels(labels=raw, num_clusters=4)
            means = [np.mean([feats[i] for i in range(40) if raw[i] == k], axis=0) for k in range(4)]
            np.testing.assert_array_equal(compute_centroids(feats, labels), l2_normalize_rows(np.array(means)))

    def test_noise_excluded(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        labels = PseudoLabels(labels=np.array([0, NOISE, NOISE]), num_clusters=1)
        np.testing.assert_allclose(compute_centroids(feats, labels), [[1.0, 0.0]], atol=1e-15)

