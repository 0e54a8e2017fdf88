"""The five public loss functions share one head-loss path, cross_entropy
takes only the gathered rows, and build_batch pads through
EncodedBatch.from_sequences. Each is held byte for byte to the separate
bodies it replaced, kept below as `reference_*`. Those call the encoder
with the rows the head reads, as the shared path does, so they pin the
loss plumbing; tests/test_encoder.py holds the encoder itself to a padded
float64 reference."""

import tracemalloc
from unittest import mock

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
from mlmforge.errors import DataError, ShapeError
from mlmforge.numerics.ops import IGNORE_ID, cross_entropy, cross_entropy_backward, ensure_finite
from mlmforge.tokenizer import PAD_ID

# --- the separate loss bodies and padding the shared code replaced -------------


def reference_cross_entropy(logits, targets, ignore_id=IGNORE_ID):
    """Mean negative log-likelihood over positions whose target != ignore_id,
    for logits of any leading shape."""
    targets = np.asarray(targets)
    if logits.shape[:-1] != targets.shape:
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} do not match targets {targets.shape}"
        )
    n_class = logits.shape[-1]
    flat = logits.reshape(-1, n_class)
    tgt = targets.reshape(-1)
    rows = np.nonzero(tgt != ignore_id)[0]
    n_valid = rows.size
    if n_valid == 0:
        raise DataError("cross_entropy: every target is ignore_id")
    picked = tgt[rows]
    if picked.min() < 0 or picked.max() >= n_class:
        raise ShapeError(f"cross_entropy: target id outside [0, {n_class})")
    m = flat.max(axis=-1, keepdims=True)
    sh = flat - m
    lse = np.log(np.exp(sh).sum(axis=-1, keepdims=True))
    logp = sh - lse
    loss = -logp[rows, picked].sum() / n_valid
    ensure_finite("cross_entropy", loss)
    cache = (logp, picked, rows, n_valid, logits.shape)
    return float(loss), cache


def reference_cross_entropy_backward(cache):
    logp, picked, rows, n_valid, shape = cache
    d = np.zeros_like(logp)
    d[rows] = np.exp(logp[rows])
    d[rows, picked] -= 1.0
    d[rows] /= n_valid
    return d.reshape(shape)


def reference_labelled_rows(labels):
    flat = labels.reshape(-1)
    pos = np.flatnonzero(flat != IGNORE_ID)
    return pos, flat[pos]


def reference_mlm_loss(params, config, batch) -> float:
    pos, targets = reference_labelled_rows(batch.labels)
    hidden, _ = forward_hidden(params, config, batch.encoded(), pos)
    logits, _ = mlm_head(params, hidden)
    loss, _ = reference_cross_entropy(logits, targets, IGNORE_ID)
    return loss


def reference_mlm_loss_and_backward(params, config, batch, rng=None) -> float:
    pos, targets = reference_labelled_rows(batch.labels)
    hidden, cache = forward_hidden(params, config, batch.encoded(), pos, rng=rng,
                                   want_cache=True)
    logits, hcache = mlm_head(params, hidden)
    loss, ce_cache = reference_cross_entropy(logits, targets, IGNORE_ID)
    dlogits = reference_cross_entropy_backward(ce_cache)
    backward_hidden(params, config, cache, mlm_head_backward(params, hcache, dlogits))
    return loss


def reference_mlm_eval_loss(params, config, batches) -> float:
    total = 0.0
    n = 0
    for batch in batches:
        pos, targets = reference_labelled_rows(batch.labels)
        hidden, _ = forward_hidden(params, config, batch.encoded(), pos)
        logits, _ = mlm_head(params, hidden)
        loss, _ = reference_cross_entropy(logits, targets, IGNORE_ID)
        total += loss * pos.size
        n += pos.size
    if n == 0:
        raise DataError("no labeled positions in evaluation stream")
    return total / n


def reference_cls_rows(batch):
    n, width = batch.ids.shape
    return np.arange(n) * width


def reference_cls_loss(params, config, batch, targets) -> float:
    cls_vec, _ = forward_hidden(params, config, batch, reference_cls_rows(batch))
    logits, _ = cls_head(params, cls_vec)
    loss, _ = reference_cross_entropy(logits, targets)
    return loss


def reference_cls_loss_and_backward(params, config, batch, targets, rng=None) -> float:
    cls_vec, cache = forward_hidden(params, config, batch, reference_cls_rows(batch), rng=rng,
                                    want_cache=True)
    logits, hcache = cls_head(params, cls_vec)
    loss, ce_cache = reference_cross_entropy(logits, targets)
    dlogits = reference_cross_entropy_backward(ce_cache)
    backward_hidden(params, config, cache, cls_head_backward(params, hcache, dlogits))
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


def dropout_rng(train):
    return np.random.default_rng(7) if train else None


DTYPES = [np.float32, np.float64]


class TestCrossEntropy:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n, n_class", [(1, 2), (7, 3), (110, 8192)])
    def test_matches_reference_bitwise(self, dtype, n, n_class):
        rng = np.random.default_rng(n)
        logits = (4.0 * rng.standard_normal((n, n_class))).astype(dtype)
        targets = rng.integers(0, n_class, size=n)
        loss, cache = cross_entropy(logits.copy(), targets)
        want, want_cache = reference_cross_entropy(logits, targets)
        assert np.float64(loss).tobytes() == np.float64(want).tobytes()
        grad = cross_entropy_backward(cache)
        want_grad = reference_cross_entropy_backward(want_cache)
        assert grad.dtype == want_grad.dtype == dtype
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_consumes_its_logits_and_backward_consumes_its_cache(self, dtype):
        """The forward writes the log-probabilities over its logits and
        caches that buffer; the backward writes the gradient over it."""
        rng = np.random.default_rng(5)
        logits = (4.0 * rng.standard_normal((110, 8192))).astype(dtype)
        targets = rng.integers(0, 8192, size=110)
        _, want_cache = reference_cross_entropy(logits, targets)
        want_grad = reference_cross_entropy_backward(want_cache)
        _, cache = cross_entropy(logits, targets)
        assert cache[0] is logits
        assert logits.tobytes() == want_cache[0].tobytes()
        grad = cross_entropy_backward(cache)
        assert grad is logits
        assert grad.tobytes() == want_grad.tobytes()


class TestSharedLossPath:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("train", [True, False])
    def test_mlm_loss_and_backward_bitwise(self, dtype, train):
        batch = masking.build_batch(corpus(), range(len(LENGTHS)), "dynamic", 1, 4,
                                    CONFIG.vocab_size, CONFIG.max_positions)
        new, old = store(dtype), store(dtype)
        loss = training.mlm_loss_and_backward(new, CONFIG, batch, rng=dropout_rng(train))
        want = reference_mlm_loss_and_backward(old, CONFIG, batch, rng=dropout_rng(train))
        assert np.float64(loss).tobytes() == np.float64(want).tobytes()
        assert grads_bytes(new) == grads_bytes(old)
        assert (new["encoder.layer1.ffn.w1"].grad != 0).any()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("train", [True, False])
    def test_cls_loss_and_backward_bitwise(self, dtype, train):
        enc = EncodedBatch.from_sequences([s[: CONFIG.max_positions] for s in corpus(1)])
        targets = np.arange(len(LENGTHS)) % 3
        new, old = store(dtype), store(dtype)
        loss = training.cls_loss_and_backward(new, CONFIG, enc, targets, rng=dropout_rng(train))
        want = reference_cls_loss_and_backward(old, CONFIG, enc, targets, rng=dropout_rng(train))
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


class TestLabelOnAPad:
    """A label on a pad cell is a ShapeError naming its batch row and
    position, not a loss on the pad row's zero state."""

    def batch(self):
        ids = np.array([[2, 7, 8, 9, 3], [2, 6, 3, PAD_ID, PAD_ID]])
        att = (ids != PAD_ID).astype(np.int64)
        labels = np.full(ids.shape, IGNORE_ID)
        labels[0, 2] = 8
        labels[1, 4] = 11
        return masking.MaskedBatch(ids, att, np.zeros_like(ids), labels)

    @pytest.mark.parametrize("loss", ["mlm_loss", "mlm_loss_and_backward"])
    def test_names_the_cell(self, loss):
        params = store(np.float64)
        with pytest.raises(ShapeError, match=r"batch row 1, position 4\) is a pad position"):
            getattr(training, loss)(params, CONFIG, self.batch())
        assert all((p.grad == 0).all() for _, p in params.items())

    def test_eval_loss_names_the_cell(self):
        with pytest.raises(ShapeError, match=r"batch row 1, position 4\)"):
            training.mlm_eval_loss(store(np.float64), CONFIG, [self.batch()])


class TestBuildBatchPadding:
    @pytest.mark.parametrize("mode,epoch", [("static", 0), ("dynamic", 3)])
    @pytest.mark.parametrize("indices", [[0], [1, 1], [2, 0, 5, 3], range(len(LENGTHS))])
    def test_every_array_matches_reference(self, mode, epoch, indices):
        args = (corpus(4), indices, mode, epoch, 13, CONFIG.vocab_size, CONFIG.max_positions)
        got = masking.build_batch(*args)
        assert batch_bytes(got) == batch_bytes(reference_build_batch(*args))
        assert got.input_ids.flags.c_contiguous and got.labels.flags.c_contiguous


class TestStepWorkingSet:
    """One desk-layout 16 x 48 MLM step with dropout on, as `pretrain` runs
    it (ops unchecked, then one check), under tracemalloc.
    The head, the loss backward and the head backward each rise at most
    1.25 (n_masked, vocab) arrays above the traced level at their start,
    and the loss at most 0.25: the logits are the only array of that size,
    the loss writes the log-probabilities over them and the loss backward
    writes its gradient over those. Together they stay within 1.25 such
    arrays above the level after forward_hidden, and none of them is alive
    when backward_hidden starts. Every dropout mask the encoder caches is
    one byte a cell."""

    def test_head_and_loss_hold_each_vocab_wide_array_once(self):
        config = ModelConfig()
        rng = np.random.default_rng(100)
        sentences = [[2, *rng.integers(5, config.vocab_size, size=46).tolist(), 3]
                     for _ in range(16)]
        batch = masking.build_batch(sentences, range(16), "dynamic", 0, 100,
                                    config.vocab_size, config.max_positions)
        params = init_params(config, 0)
        n_masked = int((batch.labels != IGNORE_ID).sum())
        logits_bytes = n_masked * config.vocab_size * 4
        phases = {}

        def traced(name, fn):
            def run(*args, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = fn(*args, **kwargs)
                phases[name] = (start, tracemalloc.get_traced_memory()[1],
                                tracemalloc.get_traced_memory()[0])
                return out
            return run

        names = ("forward_hidden", "mlm_head", "cross_entropy", "cross_entropy_backward",
                 "mlm_head_backward", "backward_hidden")
        patches = {name: traced(name, getattr(training, name)) for name in names}
        tracemalloc.start()
        try:
            with mock.patch.multiple(training, **patches):
                training._checked_step(params, "step", lambda: training.mlm_loss_and_backward(
                    params, config, batch, rng=np.random.default_rng(100)))
        finally:
            tracemalloc.stop()

        after_forward = phases["forward_hidden"][2]
        for name in names[1:-1]:
            start, peak, _ = phases[name]
            bound = 0.25 if name == "cross_entropy" else 1.25
            assert peak - start <= bound * logits_bytes, name
        head_peak = max(phases[name][1] for name in names[1:-1])
        assert head_peak - after_forward <= 1.25 * logits_bytes
        assert phases["backward_hidden"][0] - after_forward <= 0.25 * logits_bytes

        _, cache = forward_hidden(params, config, batch.encoded(),
                                  np.flatnonzero(batch.labels.reshape(-1) != IGNORE_ID),
                                  rng=np.random.default_rng(100), want_cache=True)
        masks = [cache.emb.keep]
        for attn, ffn in cache.layers:
            masks += [attn.keep, ffn.keep, *(group.keep for group in attn.groups)]
        assert len(masks) == 1 + 3 * config.n_layers
        assert all(mask.itemsize == 1 for mask in masks)
