import hashlib
import struct

import numpy as np
import pytest

from crossview.datagen import (
    Corpus,
    SyntheticSpec,
    generate,
    load_corpus,
    load_feature_file,
    save_corpus,
    save_features,
)
from crossview.errors import (
    BadMagicError,
    DataError,
    NonFiniteDataError,
    TruncatedFileError,
)


class TestGenerate:
    def test_shared_maps_no_noise_views_identical(self):
        spec = SyntheticSpec(
            num_locations=5, latent_dim=4, input_dim=8, drone_per_loc=1,
            sat_per_loc=1, noise_std=0.0, seed=3, shared_view_maps=True,
        )
        corpus = generate(spec)
        np.testing.assert_allclose(corpus.drone_raw, corpus.sat_raw, atol=1e-12)

    def test_same_seed_identical(self):
        spec = SyntheticSpec(num_locations=4, latent_dim=3, input_dim=6, seed=11)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.drone_raw, b.drone_raw)
        np.testing.assert_array_equal(a.sat_raw, b.sat_raw)

    def test_noiseless_within_location_rows_identical(self):
        spec = SyntheticSpec(
            num_locations=6, latent_dim=4, input_dim=8, drone_per_loc=3, noise_std=0.0, seed=1
        )
        corpus = generate(spec)
        gt_d, _ = corpus.ground_truth()
        for p in range(6):
            rows = corpus.drone_raw[gt_d == p]
            np.testing.assert_array_equal(rows, np.tile(rows[0], (3, 1)))

    def test_cross_location_latents_not_aligned(self):
        spec = SyntheticSpec(
            num_locations=8, latent_dim=5, input_dim=10, drone_per_loc=1, noise_std=0.0, seed=2
        )
        corpus = generate(spec)
        sims = corpus.drone_raw @ corpus.drone_raw.T
        norms = np.linalg.norm(corpus.drone_raw, axis=1)
        cos = sims / np.outer(norms, norms)
        off = cos[~np.eye(8, dtype=bool)]
        assert np.all(off < 1.0 - 1e-9)

    def test_counts_match_spec(self):
        spec = SyntheticSpec(num_locations=7, latent_dim=3, input_dim=5, drone_per_loc=4, sat_per_loc=2)
        corpus = generate(spec)
        assert corpus.drone_raw.shape == (28, 5)
        assert corpus.sat_raw.shape == (14, 5)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            generate(SyntheticSpec(latent_dim=10, input_dim=4))


class TestGroundTruthIsolation:
    def test_missing_ground_truth_raises(self):
        corpus = Corpus(np.eye(3), np.eye(3))
        assert not corpus.has_ground_truth
        with pytest.raises(DataError):
            corpus.ground_truth()

    @pytest.mark.parametrize("drone_loc", [[[0, 1], [2, 3], [0, 1], [2, 3]], 0])
    def test_location_array_must_be_one_dimensional(self, drone_loc):
        # a 4 x 2 array has one entry per drone row but is no label vector
        with pytest.raises(DataError, match="labels do not match instance count: shape"):
            Corpus(np.eye(8), np.eye(8)[:4], drone_loc=drone_loc, sat_loc=[0, 1, 2, 3])

    def test_location_arrays_are_copies(self):
        drone_loc, sat_loc = np.array([0, 1]), np.array([1, 0])
        corpus = Corpus(np.eye(2), np.eye(2), drone_loc=drone_loc, sat_loc=sat_loc)
        drone_loc[0] = sat_loc[0] = 7
        assert [loc.tolist() for loc in corpus.ground_truth()] == [[0, 1], [1, 0]]

    def test_fractional_location_rejected(self):
        # an int64 cast would turn 0.9 into 0 and pair it with satellite 0
        with pytest.raises(DataError, match="drone labels must be integer location ids"):
            Corpus(np.eye(2), np.eye(2), drone_loc=[0.9, 1], sat_loc=[0, 1])


class TestFeatureFiles:
    def test_round_trip_bit_identical_file(self, tmp_path):
        corpus = generate(SyntheticSpec(num_locations=4, latent_dim=3, input_dim=6, seed=5))
        d1, s1 = tmp_path / "d.dmfv", tmp_path / "s.dmfv"
        save_corpus(corpus, d1, s1)
        loaded = load_corpus(d1, s1)
        d2, s2 = tmp_path / "d2.dmfv", tmp_path / "s2.dmfv"
        save_corpus(loaded, d2, s2)
        assert hashlib.sha256(d1.read_bytes()).digest() == hashlib.sha256(d2.read_bytes()).digest()
        assert hashlib.sha256(s1.read_bytes()).digest() == hashlib.sha256(s2.read_bytes()).digest()

    def test_int32_extreme_location_ids_round_trip(self, tmp_path):
        ids = [2**31 - 1, -(2**31)]
        corpus = Corpus(np.eye(2), np.eye(2), drone_loc=ids, sat_loc=ids[::-1])
        d, s = tmp_path / "d.dmfv", tmp_path / "s.dmfv"
        save_corpus(corpus, d, s)
        loaded = load_corpus(d, s)
        np.testing.assert_array_equal(loaded.ground_truth()[0], ids)
        np.testing.assert_array_equal(loaded.ground_truth()[1], ids[::-1])

    @pytest.mark.parametrize("drone, sat, message", [
        ([2**32, 1], [2**32, 1], "drone location id 4294967296"),
        ([2**31, 1], [0, 1], "drone location id 2147483648"),
        ([0, 1], [1, -(2**31) - 1], "satellite location id -2147483649"),
    ], ids=["2**32", "2**31", "below int32"])
    def test_location_ids_beyond_int32_rejected_before_writing(self, tmp_path, drone, sat, message):
        # the label block holds int32: these used to come back wrapped
        corpus = Corpus(np.eye(2), np.eye(2), drone_loc=drone, sat_loc=sat)
        d, s = tmp_path / "d.dmfv", tmp_path / "s.dmfv"
        with pytest.raises(DataError, match=f"{message} does not fit int32"):
            save_corpus(corpus, d, s)
        assert not d.exists() and not s.exists()

    @pytest.mark.parametrize("features, labels, error", [
        (np.eye(2), [1, 2, 3], ValueError),
        (np.eye(2), [1.5, 1], ValueError),
        (np.eye(2), [2**32, 1], DataError),
        (np.eye(2) * 1e300, None, NonFiniteDataError),
    ], ids=["three labels", "fraction", "2**32", "beyond float32"])
    def test_view_the_format_cannot_hold_rejected_before_writing(self, tmp_path, features, labels, error):
        # these used to leave a partial file, or load back as [1, 1], [0, 1] and inf
        path = tmp_path / "d.dmfv"
        with pytest.raises(error):
            save_features(path, "drone", features, labels=labels)
        assert not path.exists()

    def test_handcrafted_bytes(self, tmp_path):
        # 2 instances, dim 3, drone view, with a label block
        payload = np.array([[1.0, 0.5, -0.25], [0.0, 2.0, 4.0]], dtype="<f4")
        blob = (
            b"DMFV"
            + struct.pack("<IBII", 1, 0, 2, 3)
            + payload.tobytes()
            + b"LBLS"
            + np.array([7, 9], dtype="<i4").tobytes()
        )
        path = tmp_path / "hand.dmfv"
        path.write_bytes(blob)
        view, feats, labels = load_feature_file(path)
        assert view == "drone"
        np.testing.assert_array_equal(feats, [[1.0, 0.5, -0.25], [0.0, 2.0, 4.0]])
        np.testing.assert_array_equal(labels, [7, 9])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.dmfv"
        path.write_bytes(b"WHAT" + b"\x00" * 40)
        with pytest.raises(BadMagicError):
            load_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.dmfv"
        save_features(path, "drone", np.eye(3))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            load_feature_file(path)

    def test_nan_payload(self, tmp_path):
        path = tmp_path / "n.dmfv"
        blob = (
            b"DMFV"
            + struct.pack("<IBII", 1, 1, 1, 2)
            + np.array([[np.nan, 1.0]], dtype="<f4").tobytes()
        )
        path.write_bytes(blob)
        with pytest.raises(NonFiniteDataError):
            load_feature_file(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "g.dmfv"
        save_features(path, "drone", np.eye(2))
        path.write_bytes(path.read_bytes() + b"JUNKJUNK")
        with pytest.raises(DataError):
            load_feature_file(path)

    def test_view_tag_mismatch(self, tmp_path):
        d = tmp_path / "d.dmfv"
        s = tmp_path / "s.dmfv"
        save_features(d, "satellite", np.eye(2))
        save_features(s, "satellite", np.eye(2))
        with pytest.raises(DataError):
            load_corpus(d, s)
