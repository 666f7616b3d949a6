"""The batch contrastive loss and the encoder's passes reuse their own
buffers in place: they give the bytes of the out-of-place references in
``reference``, the loss holds at most two batch x bank matrices at once,
and none of them writes into an array a caller passed it."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import unit_rows
from crossview import encoder
from crossview.cluster_memory import bank_contrastive_rows, init_memory
from crossview.clustering import PseudoLabels
from crossview.dual_memory import init_dual
from crossview.neighborhood import build_instance_memory
from crossview.numcore import Rng
from crossview.training import EpochMemories, ViewBatch, ViewMemories, total_loss
from reference import (
    config,
    reference_backward,
    reference_bank_contrastive_rows,
    reference_forward,
)

# a batch of 256 rows against 64 columns is 128 KiB of float64
BATCH, BANK = 256, 64
SIZES = st.one_of(st.sampled_from([1, 2, 63, 64, 65, BATCH]), st.integers(1, 300))


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def contrastive_inputs(n, k, d, seed):
    rng = np.random.default_rng(seed)
    queries = unit_rows(rng, n, d)
    bank = unit_rows(rng, k, d)
    return queries, bank, rng.integers(0, k, n)


def snapshot(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


@given(n=SIZES, k=SIZES, d=st.integers(1, 40), temperature=st.sampled_from([0.07, 0.2, 1.0, 3.3]),
       seed=st.integers(0, 2**32 - 1))
@example(n=BATCH, k=BANK, d=32, temperature=0.2, seed=0)
@settings(deadline=None, max_examples=60)
def test_bank_contrastive_rows_matches_out_of_place_reference(n, k, d, temperature, seed):
    queries, bank, ids = contrastive_inputs(n, k, d, seed)
    losses, grads = bank_contrastive_rows(queries, bank, ids, temperature)
    want_losses, want_grads = reference_bank_contrastive_rows(queries, bank, ids, temperature)
    assert same_bytes(losses, want_losses)
    assert same_bytes(grads, want_grads)


def encoder_inputs(n, input_dim, hidden, embed, seed):
    rng = Rng(seed)
    params = encoder.init_params(rng, input_dim, hidden, embed)
    # init_params leaves the biases at zero; the in-place adds need some
    params.b1 = rng.derive(3).normal(hidden)
    params.b2 = rng.derive(4).normal(embed)
    X = rng.derive(5).normal((n, input_dim))
    return params, X, rng.derive(6).normal((n, embed))


@given(n=SIZES, input_dim=st.integers(1, 40), hidden=SIZES, embed=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(n=BATCH, input_dim=32, hidden=BANK, embed=32, seed=0)
@settings(deadline=None, max_examples=60)
def test_encoder_passes_match_out_of_place_reference(n, input_dim, hidden, embed, seed):
    params, X, dE = encoder_inputs(n, input_dim, hidden, embed, seed)
    emb, tape = encoder.forward(params, X)
    want_emb, want_tape = reference_forward(params, X)
    assert same_bytes(emb, want_emb)
    for name in ("inputs", "hidden", "norms", "embeddings"):
        assert same_bytes(getattr(tape, name), getattr(want_tape, name))
    grads = encoder.backward(params, tape, dE)
    want = reference_backward(params, want_tape, dE)
    for name in ("w1", "b1", "w2", "b2"):
        assert same_bytes(getattr(grads, name), getattr(want, name))


def test_bank_contrastive_rows_peaks_under_three_batch_by_bank_matrices():
    # the out-of-place steps peaked at 520 KiB here, four 128 KiB matrices
    queries, bank, ids = contrastive_inputs(BATCH, BANK, 32, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bank_contrastive_rows(queries, bank, ids, 0.2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * BATCH * BANK * 8


def test_bank_contrastive_rows_leaves_its_inputs_unchanged():
    queries, bank, ids = contrastive_inputs(BATCH, BANK, 32, 1)
    before = snapshot(queries, bank, ids)
    bank_contrastive_rows(queries, bank, ids, 0.2)
    assert snapshot(queries, bank, ids) == before


def test_encoder_passes_leave_params_inputs_and_tape_unchanged():
    params, X, dE = encoder_inputs(BATCH, 32, BANK, 32, 2)
    weights = (params.w1, params.b1, params.w2, params.b2)
    before = snapshot(X, dE, *weights)
    emb, tape = encoder.forward(params, X)
    taped = snapshot(tape.inputs, tape.hidden, tape.norms, tape.embeddings)
    emb_bytes = snapshot(emb)
    encoder.backward(params, tape, dE)
    assert snapshot(X, dE, *weights) == before
    assert snapshot(tape.inputs, tape.hidden, tape.norms, tape.embeddings) == taped
    assert snapshot(emb) == emb_bytes


def test_total_loss_leaves_batch_memories_and_tapes_unchanged():
    # every loss term on, the fused term included, on 128 KiB batch x bank matrices
    rng = np.random.default_rng(3)
    cfg = config(p_classes=32, z_instances=8, hidden_dim=BANK, embed_dim=32)
    params, X, _ = encoder_inputs(BATCH, 32, BANK, 32, 3)
    q_d, tape_d = encoder.forward(params, X)
    q_s, tape_s = encoder.forward(params, X[::-1])
    ids = np.repeat(np.arange(32), 8)
    rows = rng.permutation(BATCH)
    cents = unit_rows(rng, BANK, 32)
    labels = PseudoLabels(labels=ids, num_clusters=32)
    memories = EpochMemories(views=tuple(
        ViewMemories(labels, init_memory(c), init_dual(c, cfg), build_instance_memory(q))
        for c, q in ((cents, q_d), (cents[::-1], q_s))
    ))
    batch = [ViewBatch(q_d, ids, rows), ViewBatch(q_s, ids, rows)]

    def everything():
        duals = [getattr(view.dual, bank) for view in memories.views
                 for bank in ("short_term", "long_term", "fused")]
        banks = [bank for view in memories.views for bank in (view.centroids, view.instances)]
        tapes = [getattr(tape, name) for tape in (tape_d, tape_s)
                 for name in ("inputs", "hidden", "norms", "embeddings")]
        return snapshot(q_d, q_s, ids, rows, *banks, *duals, *tapes)

    before = everything()
    losses = total_loss(batch, memories, cfg)
    assert everything() == before
    encoder.backward(params, tape_d, losses.grads[0])
    encoder.backward(params, tape_s, losses.grads[1])
    assert everything() == before
