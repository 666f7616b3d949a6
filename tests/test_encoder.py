import struct
from dataclasses import fields

import numpy as np
import pytest

from conftest import finite_difference, rel_error, unit_rows
from crossview import encoder
from crossview.errors import (
    BadMagicError,
    DataError,
    DegenerateInputError,
    NonFiniteDataError,
    NumericError,
    TruncatedFileError,
)
from crossview.numcore import Rng
from reference import zero_grads


def small_setup(seed=0, n=5, input_dim=6, hidden=4, embed=5):
    rng = Rng(seed)
    params = encoder.init_params(rng, input_dim, hidden, embed)
    X = rng.derive(7).normal((n, input_dim))
    return params, X


class TestForward:
    def test_contrived_normalization(self):
        # identity-ish configuration: first layer saturates to fixed hidden
        # activations, second layer rescales them to a 3-4-5 row
        params = encoder.EncoderParams(
            w1=np.array([[1000.0], [1000.0]]),
            b1=np.zeros(2),
            w2=np.array([[3.0, 0.0], [0.0, 4.0]]),
            b2=np.zeros(2),
        )
        out, _ = encoder.forward(params, np.array([[1.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-9)

    def test_duplicate_inputs_duplicate_embeddings(self):
        params, X = small_setup()
        X2 = np.vstack([X, X[0]])
        emb, _ = encoder.forward(params, X2)
        np.testing.assert_array_equal(emb[0], emb[-1])

    def test_unit_norm_rows(self, np_rng):
        for seed in range(5):
            params, X = small_setup(seed=seed, n=8)
            emb, _ = encoder.forward(params, X)
            np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)

    def test_shape_mismatch(self):
        params, _ = small_setup()
        with pytest.raises(ValueError):
            encoder.forward(params, np.zeros((3, 99)))

    def test_collapse_detected(self):
        zero = encoder.EncoderParams(
            w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros((2, 2)), b2=np.zeros(2)
        )
        # finite outputs whose squared norm overflows: dividing by it would give a zero row
        huge = encoder.EncoderParams(
            w1=np.zeros((2, 2)), b1=np.ones(2), w2=np.full((2, 2), 1e300), b2=np.zeros(2)
        )
        for params, error in ((zero, DegenerateInputError), (huge, NumericError)):
            with pytest.raises(error):
                encoder.forward(params, np.ones((1, 2)))

    def test_view_order_does_not_matter(self):
        # weight sharing: the same rows embed identically whether they come
        # through a "drone" batch or a "satellite" batch
        params, X = small_setup(n=6)
        a, _ = encoder.forward(params, X[:3])
        b, _ = encoder.forward(params, X)
        np.testing.assert_array_equal(a, b[:3])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        params, X = small_setup()
        emb, tape = encoder.forward(params, X)
        grads = encoder.backward(params, tape, np.zeros_like(emb))
        for g in grads.arrays():
            assert np.all(g == 0.0)

    def test_linear_loss_matches_finite_differences(self):
        params, X = small_setup(seed=3, n=1)
        c = Rng(11).normal(params.embed_dim)

        def loss_at(flat):
            p = encoder.unflatten_params(flat, params)
            emb, _ = encoder.forward(p, X)
            return float(emb[0] @ c)

        emb, tape = encoder.forward(params, X)
        grads = encoder.backward(params, tape, np.tile(c, (1, 1)))
        fd = finite_difference(loss_at, encoder.flatten_params(params))
        assert rel_error(encoder.flatten_params(grads), fd) <= 1e-6

    def test_batch_quadratic_loss_matches_finite_differences(self, np_rng):
        params, X = small_setup(seed=5, n=4)
        target = unit_rows(np_rng, 4, params.embed_dim)

        def loss_at(flat):
            p = encoder.unflatten_params(flat, params)
            emb, _ = encoder.forward(p, X)
            return float(0.5 * np.sum((emb - target) ** 2))

        emb, tape = encoder.forward(params, X)
        grads = encoder.backward(params, tape, emb - target)
        fd = finite_difference(loss_at, encoder.flatten_params(params))
        assert rel_error(encoder.flatten_params(grads), fd) <= 1e-6

    def test_shape_check(self):
        params, X = small_setup()
        _, tape = encoder.forward(params, X)
        with pytest.raises(ValueError):
            encoder.backward(params, tape, np.zeros((1, 1)))


class TestSgdStep:
    def test_zero_grads_keep_params(self):
        params, _ = small_setup()
        out = encoder.sgd_step(params, zero_grads(params), 0.5)
        np.testing.assert_array_equal(out.w1, params.w1)

    def test_zero_lr_keeps_params(self):
        params, X = small_setup()
        emb, tape = encoder.forward(params, X)
        grads = encoder.backward(params, tape, emb)
        out = encoder.sgd_step(params, grads, 0.0)
        np.testing.assert_array_equal(out.w2, params.w2)

    def test_scalar_arithmetic(self):
        params = encoder.EncoderParams(
            w1=np.array([[1.0]]), b1=np.zeros(1), w2=np.array([[1.0]]), b2=np.zeros(1)
        )
        grads = encoder.EncoderParams(
            w1=np.array([[2.0]]), b1=np.zeros(1), w2=np.zeros((1, 1)), b2=np.zeros(1)
        )
        out = encoder.sgd_step(params, grads, 0.001)
        assert out.w1[0, 0] == pytest.approx(0.998, abs=1e-15)

    def test_non_finite_grads_rejected(self):
        params, _ = small_setup()
        grads = zero_grads(params)
        grads.w1[0, 0] = np.nan
        with pytest.raises(NumericError):
            encoder.sgd_step(params, grads, 0.1)


class TestInit:
    def test_deterministic_per_seed(self):
        a = encoder.init_params(Rng(42), 8, 6, 4)
        b = encoder.init_params(Rng(42), 8, 6, 4)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_biases_zero(self):
        p = encoder.init_params(Rng(0), 8, 6, 4)
        assert np.all(p.b1 == 0.0) and np.all(p.b2 == 0.0)

    def test_fan_in_variance(self):
        fan_in = 256
        p = encoder.init_params(Rng(1), fan_in, 400, 4)
        draws = p.w1.ravel()[:100_000]
        assert draws.size >= 100_000
        target = 2.0 / fan_in
        assert abs(draws.var() - target) <= 0.2 * target

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            encoder.init_params(Rng(0), 0, 4, 4)


def test_arrays_are_every_field_in_declaration_order():
    # the checkpoint, flatten_params and sgd_step all walk arrays()
    params, _ = small_setup()
    want = [getattr(params, f.name) for f in fields(encoder.EncoderParams)]
    got = params.arrays()
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params, _ = small_setup(seed=9)
        path = tmp_path / "ck.dmpw"
        encoder.save_params(params, path)
        loaded = encoder.load_params(path)
        for a, b in zip(
            (params.w1, params.b1, params.w2, params.b2),
            (loaded.w1, loaded.b1, loaded.w2, loaded.b2),
        ):
            np.testing.assert_array_equal(a, b)

    def test_magic_bytes(self, tmp_path):
        params, _ = small_setup()
        path = tmp_path / "ck.dmpw"
        encoder.save_params(params, path)
        assert path.read_bytes()[:4] == b"DMPW"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.dmpw"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            encoder.load_params(path)

    def test_truncated(self, tmp_path):
        params, _ = small_setup()
        path = tmp_path / "ck.dmpw"
        encoder.save_params(params, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(TruncatedFileError):
            encoder.load_params(path)

    def test_unsupported_dimension_count(self, tmp_path):
        # a complete file that declares 4 dimensions: the count is named,
        # and it is not reported as truncated
        params, _ = small_setup()
        path = tmp_path / "ck.dmpw"
        encoder.save_params(params, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 4)
        path.write_bytes(bytes(blob[:24]) + struct.pack("<I", 1) + bytes(blob[24:]))
        with pytest.raises(DataError, match="unsupported dimension count 4") as info:
            encoder.load_params(path)
        assert not isinstance(info.value, TruncatedFileError)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, value):
        params, _ = small_setup()
        params.b2[0] = value
        path = tmp_path / "ck.dmpw"
        encoder.save_params(params, path)
        with pytest.raises(NonFiniteDataError, match="payload contains non-finite values"):
            encoder.load_params(path)
