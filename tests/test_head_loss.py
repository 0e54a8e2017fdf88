"""The five public loss functions share one head-loss path, and build_batch
pads through EncodedBatch.from_sequences. Both are held byte for byte to
the separate bodies they replaced, kept below as `reference_*`."""

import numpy as np
import pytest

from mlmforge import masking, training
from mlmforge.encoder import (
    EncodedBatch,
    ModelConfig,
    backward_hidden,
    cls_head,
    cls_head_backward,
    forward_hidden,
    init_classifier,
    init_params,
    mlm_head,
    mlm_head_backward,
)
from mlmforge.errors import DataError
from mlmforge.numerics.ops import IGNORE_ID, cross_entropy, cross_entropy_backward
from mlmforge.tokenizer import PAD_ID

# --- the separate loss bodies and padding the shared code replaced -------------


def reference_labelled_rows(labels):
    flat = labels.reshape(-1)
    pos = np.flatnonzero(flat != IGNORE_ID)
    return pos, flat[pos]


def reference_mlm_loss(params, config, batch) -> float:
    hidden, _ = forward_hidden(params, config, batch.encoded(), training=False)
    pos, targets = reference_labelled_rows(batch.labels)
    logits, _ = mlm_head(params, hidden.reshape(-1, hidden.shape[-1])[pos])
    loss, _ = cross_entropy(logits, targets, IGNORE_ID)
    return loss


def reference_mlm_loss_and_backward(params, config, batch, training=True, rng=None) -> float:
    hidden, cache = forward_hidden(params, config, batch.encoded(), training=training,
                                   rng=rng, want_cache=True)
    flat = hidden.reshape(-1, hidden.shape[-1])
    pos, targets = reference_labelled_rows(batch.labels)
    logits, hcache = mlm_head(params, flat[pos], want_cache=True)
    loss, ce_cache = cross_entropy(logits, targets, IGNORE_ID)
    dlogits = cross_entropy_backward(ce_cache)
    dflat = np.zeros_like(flat)
    dflat[pos] = mlm_head_backward(params, hcache, dlogits)
    backward_hidden(params, config, cache, dflat.reshape(hidden.shape))
    return loss


def reference_mlm_eval_loss(params, config, batches) -> float:
    total = 0.0
    n = 0
    for batch in batches:
        hidden, _ = forward_hidden(params, config, batch.encoded(), training=False)
        pos, targets = reference_labelled_rows(batch.labels)
        logits, _ = mlm_head(params, hidden.reshape(-1, hidden.shape[-1])[pos])
        loss, _ = cross_entropy(logits, targets, IGNORE_ID)
        total += loss * pos.size
        n += pos.size
    if n == 0:
        raise DataError("no labeled positions in evaluation stream")
    return total / n


def reference_cls_loss(params, config, batch, targets) -> float:
    hidden, _ = forward_hidden(params, config, batch, training=False)
    logits, _ = cls_head(params, hidden[:, 0, :])
    loss, _ = cross_entropy(logits, targets)
    return loss


def reference_cls_loss_and_backward(params, config, batch, targets,
                                    training=True, rng=None) -> float:
    hidden, cache = forward_hidden(params, config, batch, training=training, rng=rng,
                                   want_cache=True)
    cls_vec = hidden[:, 0, :]
    logits, hcache = cls_head(params, cls_vec, want_cache=True)
    loss, ce_cache = cross_entropy(logits, targets)
    dlogits = cross_entropy_backward(ce_cache)
    dcls = cls_head_backward(params, hcache, dlogits)
    dhidden = np.zeros_like(hidden)
    dhidden[:, 0, :] = dcls
    backward_hidden(params, config, cache, dhidden)
    return loss


def reference_build_batch(corpus_ids, indices, mode, epoch, seed, vocab_size, max_len,
                          ratio=masking.MASK_RATIO):
    masked = []
    for i in indices:
        rng = masking._sequence_rng(seed, int(i), epoch, mode)
        seq = masking._truncate(corpus_ids[i], max_len)
        masked.append(masking.mask_sequence(seq, vocab_size, rng, ratio))
    width = max(len(m[0]) for m in masked)
    n = len(masked)
    input_ids = np.full((n, width), PAD_ID, dtype=np.int64)
    attention = np.zeros((n, width), dtype=np.int64)
    labels = np.full((n, width), IGNORE_ID, dtype=np.int64)
    for row, (ids, labs) in enumerate(masked):
        input_ids[row, : ids.size] = ids
        attention[row, : ids.size] = 1
        labels[row, : labs.size] = labs
    segment_ids = np.zeros((n, width), dtype=np.int64)
    return masking.MaskedBatch(input_ids, attention, segment_ids, labels)


# --- fixtures -------------------------------------------------------------------

CONFIG = ModelConfig(n_layers=2, hidden=16, n_heads=2, ffn=32, vocab_size=40,
                     max_positions=16, dropout=0.1)
# Mixed lengths, one longer than max_positions so truncation is exercised.
LENGTHS = [9, 3, 14, 1, 6, 20, 5]


def corpus(seed=0):
    rng = np.random.default_rng(seed)
    return [[2, *rng.integers(5, CONFIG.vocab_size, size=n).tolist(), 3] for n in LENGTHS]


def store(dtype):
    params = init_params(CONFIG, 0).astype(dtype)
    init_classifier(params, CONFIG, 3, seed=1)
    return params


def batch_bytes(batch):
    return [(a.dtype, a.shape, a.tobytes()) for a in
            (batch.input_ids, batch.attention_mask, batch.segment_ids, batch.labels)]


def grads_bytes(params):
    return {name: p.grad.tobytes() for name, p in params.items()}


DTYPES = [np.float32, np.float64]


class TestSharedLossPath:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("train", [True, False])
    def test_mlm_loss_and_backward_bitwise(self, dtype, train):
        batch = masking.build_batch(corpus(), range(len(LENGTHS)), "dynamic", 1, 4,
                                    CONFIG.vocab_size, CONFIG.max_positions)
        new, old = store(dtype), store(dtype)
        loss = training.mlm_loss_and_backward(new, CONFIG, batch, training=train,
                                              rng=np.random.default_rng(7))
        want = reference_mlm_loss_and_backward(old, CONFIG, batch, training=train,
                                               rng=np.random.default_rng(7))
        assert np.float64(loss).tobytes() == np.float64(want).tobytes()
        assert grads_bytes(new) == grads_bytes(old)
        assert (new["encoder.layer1.ffn.w1"].grad != 0).any()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("train", [True, False])
    def test_cls_loss_and_backward_bitwise(self, dtype, train):
        enc = EncodedBatch.from_sequences([s[: CONFIG.max_positions] for s in corpus(1)])
        targets = np.arange(len(LENGTHS)) % 3
        new, old = store(dtype), store(dtype)
        loss = training.cls_loss_and_backward(new, CONFIG, enc, targets, training=train,
                                              rng=np.random.default_rng(7))
        want = reference_cls_loss_and_backward(old, CONFIG, enc, targets, training=train,
                                               rng=np.random.default_rng(7))
        assert np.float64(loss).tobytes() == np.float64(want).tobytes()
        assert grads_bytes(new) == grads_bytes(old)
        assert (new["cls.dense.w"].grad != 0).any()
        assert (new["encoder.layer0.attn.wq"].grad != 0).any()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_only_losses_bitwise_and_leave_grads(self, dtype):
        params = store(dtype)
        batch = masking.build_batch(corpus(2), range(len(LENGTHS)), "static", 0, 9,
                                    CONFIG.vocab_size, CONFIG.max_positions)
        enc = batch.encoded()
        targets = np.arange(len(LENGTHS)) % 3
        assert training.mlm_loss(params, CONFIG, batch) == reference_mlm_loss(
            params, CONFIG, batch)
        assert training.cls_loss(params, CONFIG, enc, targets) == reference_cls_loss(
            params, CONFIG, enc, targets)
        assert all((p.grad == 0).all() for _, p in params.items())

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mlm_eval_loss_over_three_batches_bitwise(self, dtype):
        params = store(dtype)
        stream = list(masking.build_epoch_batches(corpus(3), "static", 0, 11, 3,
                                                  CONFIG.max_positions, CONFIG.vocab_size))
        assert len(stream) == 3
        got = training.mlm_eval_loss(params, CONFIG, iter(stream))
        want = reference_mlm_eval_loss(params, CONFIG, stream)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestBuildBatchPadding:
    @pytest.mark.parametrize("mode,epoch", [("static", 0), ("dynamic", 3)])
    @pytest.mark.parametrize("indices", [[0], [1, 1], [2, 0, 5, 3], range(len(LENGTHS))])
    def test_every_array_matches_reference(self, mode, epoch, indices):
        args = (corpus(4), indices, mode, epoch, 13, CONFIG.vocab_size, CONFIG.max_positions)
        got = masking.build_batch(*args)
        assert batch_bytes(got) == batch_bytes(reference_build_batch(*args))
        assert got.input_ids.flags.c_contiguous and got.labels.flags.c_contiguous
