import dataclasses
import itertools
import json
import platform
import re
import resource
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmforge import checkpoint, evaluation, training
from mlmforge.benchmarks import Example, LabeledDataset
from mlmforge.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mlmforge.corpus import CorpusStats, SentenceCorpus
from mlmforge.encoder import (
    ModelConfig,
    backward_hidden,
    forward_hidden,
    init_classifier,
    init_params,
    mlm_head,
    mlm_head_backward,
    param_shapes,
)
from mlmforge.errors import CheckpointError, ConfigError, DataError, NonFiniteError
from mlmforge.numerics import _heap, adam_step, ops
from mlmforge.masking import build_batch, build_epoch_batches
from mlmforge.numerics.ops import IGNORE_ID, cross_entropy, cross_entropy_backward
from mlmforge.tokenizer import PAD_ID, train_vocab
from mlmforge.training import (
    TrainConfig,
    finetune,
    mlm_eval_loss,
    mlm_loss_and_backward,
    pretrain,
    write_log,
)

MICRO = ModelConfig(n_layers=1, hidden=16, n_heads=2, ffn=32, vocab_size=24,
                    max_positions=16, dropout=0.0)
MICRO_CORPUS = [
    [2, 6, 7, 8, 9, 3],
    [2, 10, 11, 12, 3],
    [2, 13, 14, 15, 16, 17, 3],
    [2, 18, 19, 3],
]


@pytest.fixture
def snapshots(monkeypatch):
    """Records each best snapshot a loop takes as (the ids of its value and
    moment buffers, the live store's bytes, its step count). Before each
    later snapshot it asserts that the one before still holds the bytes it
    was taken with, though training has moved the live store since."""
    taken = []
    real = training._snapshot

    def recording(params, best):
        if best is not None:
            assert store_bytes(best) == taken[-1][1]
        best = real(params, best)
        ids = [id(a) for _, p in best.items() for a in (p.value, p.adam_m, p.adam_v)]
        taken.append((ids, store_bytes(params), params.step_count))
        return best

    monkeypatch.setattr(training, "_snapshot", recording)
    return taken


def check_best_snapshot(best, taken):
    """At least two improvements; every snapshot reused the first one's
    buffers; the result holds the live store's bytes and step count at
    the last one; its grads are read-only zeros of each tensor's shape and
    dtype."""
    assert len(taken) >= 2
    assert all(ids == taken[0][0] for ids, _, _ in taken)
    assert store_bytes(best) == taken[-1][1]
    assert best.step_count == taken[-1][2]
    for name, p in best.items():
        assert p.grad.shape == p.value.shape and p.grad.dtype == p.value.dtype, name
        assert not p.grad.any(), name
        with pytest.raises(ValueError, match="read-only"):
            p.grad[...] = 1


def micro_cfg(**kw):
    base = dict(batch_size=2, max_steps=4, eval_every=2, lr_encoder=1e-3,
                lr_head=3e-3, seed=0, masking_mode="static")
    base.update(kw)
    return TrainConfig(**base)


def stores_equal(a, b, values_only=False):
    if a.names() != b.names():
        return False
    for name in a.names():
        pa, pb = a[name], b[name]
        if not (pa.value == pb.value).all():
            return False
        if not values_only:
            if not (pa.adam_m == pb.adam_m).all() or not (pa.adam_v == pb.adam_v).all():
                return False
    return values_only or a.step_count == b.step_count


@pytest.fixture
def adam_rates(monkeypatch):
    """Records, per `training.adam_step` call, the set of rates it gave the
    tensors under each name prefix (`encoder`, `mlm`, `cls`)."""
    seen = []
    full_adam = training.adam_step

    def recording_adam(store, lr, rows=None):
        rates = {}
        for name, rate in lr.items():
            rates.setdefault(name.partition(".")[0], set()).add(rate)
        seen.append(rates)
        full_adam(store, lr, rows)

    monkeypatch.setattr(training, "adam_step", recording_adam)
    return seen


class TestTrainConfig:
    def test_default_lr_ratio_is_three(self):
        cfg = TrainConfig()
        assert cfg.lr_head / cfg.lr_encoder == 3.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(eval_every=0)
        with pytest.raises(ConfigError):
            TrainConfig(masking_mode="sometimes")
        with pytest.raises(ConfigError):
            TrainConfig(lr_encoder=-1.0)

    @pytest.mark.parametrize("name", ["lr_encoder", "lr_head"])
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_rejected(self, name, lr):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: lr})

    def test_zero_learning_rate_allowed(self):
        cfg = TrainConfig(lr_encoder=0.0, lr_head=0.0)
        assert (cfg.lr_encoder, cfg.lr_head) == (0.0, 0.0)


class TestPretrain:
    def test_same_seed_identical_loss_logs(self):
        r1 = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO, micro_cfg())
        r2 = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO, micro_cfg())
        assert r1.log == r2.log
        assert stores_equal(r1.params, r2.params)

    @pytest.mark.parametrize("corpus, val, match", [
        ([*MICRO_CORPUS, [2, 1, 3]], None, r"^training sequence 4 \(from 0\) has no maskable"),
        (MICRO_CORPUS, [[2, 6, 3], [2, 1, 1, 3]], r"^validation sequence 1 \(from 0\)"),
        # the one ordinary token lies past max_positions, so truncation drops it
        ([[2, *[1] * 14, 6, 3], *MICRO_CORPUS], None, r"^training sequence 0 \(from 0\)"),
    ])
    def test_sequence_with_nothing_to_mask_fails_before_step_0(self, corpus, val, match):
        params = init_params(MICRO, 0)
        before = params.clone()
        with pytest.raises(DataError, match=match):
            pretrain(corpus, params, MICRO, micro_cfg(max_steps=40), val_corpus_ids=val)
        assert params.step_count == 0
        assert stores_equal(params, before)

    def test_loss_decreases_on_toy_corpus(self):
        cfg = micro_cfg(max_steps=120, eval_every=10**6)
        res = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO, cfg)
        losses = [r["value"] for r in res.log if r["split"] == "train"]
        assert losses[-1] < losses[0]

    def test_eval_cadence_count(self):
        cfg = micro_cfg(max_steps=15, eval_every=5)
        res = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO, cfg,
                       val_corpus_ids=MICRO_CORPUS)
        val = [r for r in res.log if r["split"] == "validation"]
        assert [r["step"] for r in val] == [5, 10, 15]

    def test_best_checkpoint_is_optimum_of_logged_series(self):
        cfg = micro_cfg(max_steps=30, eval_every=5)
        res = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO, cfg,
                       val_corpus_ids=MICRO_CORPUS)
        vals = [r["value"] for r in res.log if r["split"] == "validation"]
        assert res.best_val_loss == min(vals)
        held = mlm_eval_loss(
            res.best_params, MICRO,
            build_epoch_batches(MICRO_CORPUS, "static", 0, cfg.seed + 1_000_003,
                                cfg.batch_size, MICRO.max_positions, MICRO.vocab_size),
        )
        assert held == pytest.approx(res.best_val_loss)

    def test_best_snapshot_is_one_reused_copy_without_grads(self, snapshots):
        # validation improves at step 1, then at steps 7 to 12
        cfg = micro_cfg(max_steps=12, eval_every=1, masking_mode="dynamic")
        res = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO, cfg,
                       val_corpus_ids=MICRO_CORPUS)
        check_best_snapshot(res.best_params, snapshots)
        assert [step for _, _, step in snapshots] == [1, *range(7, 13)]
        assert res.best_step == 12

    def test_non_finite_loss_aborts_with_step(self):
        params = init_params(MICRO, 0)
        params["mlm.out_bias"].value[...] = np.inf
        with pytest.raises(NonFiniteError, match="step 0"):
            pretrain(MICRO_CORPUS, params, MICRO, micro_cfg())

    def test_non_finite_gradient_from_a_backward_op_names_the_tensor(self, monkeypatch):
        """No op checks a backward's output; the step's gradient check
        does, and Adam does not run."""
        params = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO,
                          micro_cfg(max_steps=2)).params
        before = store_bytes(params)
        monkeypatch.setattr(ops, "gelu_backward",
                            lambda dout, cache: np.full_like(dout, np.nan))
        with pytest.raises(NonFiniteError,
                           match=r"^aborting at step 2: the gradient of 'encoder.tok_emb' "):
            pretrain(MICRO_CORPUS, params, MICRO, micro_cfg(max_steps=4))
        assert params.step_count == 2
        assert store_bytes(params) == before

    def test_a_step_checks_only_its_loss_and_gradients(self, monkeypatch):
        """A training step runs its ops unchecked and then checks each
        gradient once; evaluation still checks every op."""
        params = init_params(MICRO, 0)
        grads = {id(p.grad) for _, p in params.items()}
        checked = []
        isfinite = np.isfinite

        def recording_isfinite(x, *args, **kwargs):
            checked.append(id(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", recording_isfinite)
        pretrain(MICRO_CORPUS, params, MICRO, micro_cfg(max_steps=2))
        assert len(checked) == 2 * len(grads) and set(checked) == grads

        init_classifier(params, MICRO, 2, seed=0)
        params["cls.out.b"].value[0] = np.nan
        with pytest.raises(NonFiniteError, match="add_bias"):
            evaluation.confusion_table(params, MICRO, MICRO_CORPUS, np.zeros(4, np.int64), 2)

    def test_already_at_max_steps_rejected(self):
        params = init_params(MICRO, 0)
        params.step_count = 4
        with pytest.raises(ConfigError):
            pretrain(MICRO_CORPUS, params, MICRO, micro_cfg(max_steps=4))

    def test_continuation_equals_uninterrupted(self, tmp_path):
        uninterrupted = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO,
                                 micro_cfg(max_steps=2)).params

        first = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO,
                         micro_cfg(max_steps=1)).params
        ck = tmp_path / "step1.ckpt"
        save_checkpoint(first, MICRO, ck, vocab_hash="h")
        resumed, _ = load_checkpoint(ck)
        final = pretrain(MICRO_CORPUS, resumed, MICRO, micro_cfg(max_steps=2)).params
        assert stores_equal(uninterrupted, final)

    def test_continued_checkpoint_with_a_head_moves_every_tensor_at_lr_encoder(
            self, tmp_path, adam_rates):
        params = init_params(MICRO, 0)
        init_classifier(params, MICRO, 2, 0)
        ck = tmp_path / "with_head.ckpt"
        save_checkpoint(params, MICRO, ck, vocab_hash="h")
        resumed, _ = load_checkpoint(ck)
        pretrain(MICRO_CORPUS, resumed, MICRO, micro_cfg(max_steps=3))
        assert adam_rates == [{"encoder": {1e-3}, "mlm": {1e-3}, "cls": {1e-3}}] * 3


def dense_mlm_loss_and_backward(params, config, batch):
    """Reference: run the last layer and project every real position, and
    take the loss on the labelled rows, the rest getting a zero logit
    gradient."""
    real = np.flatnonzero(batch.attention_mask.reshape(-1))
    hidden, cache = forward_hidden(params, config, batch.encoded(), real, want_cache=True)
    logits, hcache = mlm_head(params, hidden)
    labels = batch.labels.reshape(-1)[real]
    labelled = labels != IGNORE_ID
    loss, ce_cache = cross_entropy(logits[labelled], labels[labelled])
    dlogits = np.zeros_like(logits)
    dlogits[labelled] = cross_entropy_backward(ce_cache)
    dhidden = mlm_head_backward(params, hcache, dlogits)
    backward_hidden(params, config, cache, dhidden)
    return loss


def store_bytes(store):
    return {name: (p.value.tobytes(), p.adam_m.tobytes(), p.adam_v.tobytes())
            for name, p in store.items()}


class TestSparseMLM:
    @pytest.fixture
    def batch(self):
        batch = build_batch(MICRO_CORPUS, [0, 1, 2, 3], "static", 0, 5,
                            MICRO.vocab_size, MICRO.max_positions)
        labelled = batch.labels != IGNORE_ID
        assert (batch.input_ids == PAD_ID).any()
        assert ((batch.input_ids != PAD_ID) & ~labelled).any()
        assert labelled.any()
        return batch

    def test_matches_dense_reference(self, batch):
        params = init_params(MICRO, 0).astype(np.float64)
        dense = params.clone()
        loss = mlm_loss_and_backward(params, MICRO, batch)
        ref = dense_mlm_loss_and_backward(dense, MICRO, batch)
        assert loss == pytest.approx(ref, rel=1e-12)
        for name in params.names():
            assert np.allclose(params[name].grad, dense[name].grad,
                               rtol=1e-9, atol=1e-15), name
        for name in ("encoder.tok_emb", "mlm.out_bias", "mlm.dense.w"):
            assert (params[name].grad != 0).any(), name

    def test_eval_loss_is_label_weighted_dense_mean(self):
        params = init_params(MICRO, 1).astype(np.float64)
        stream = list(build_epoch_batches(MICRO_CORPUS, "static", 0, 3, 2,
                                          MICRO.max_positions, MICRO.vocab_size))
        assert len(stream) == 2
        losses, counts = [], []
        for batch in stream:
            # The last layer on every real token, then the labelled rows.
            encoded = batch.encoded()
            real = np.flatnonzero(encoded.attention_mask.reshape(-1))
            every, _ = forward_hidden(params, MICRO, encoded, real)
            labels = batch.labels.reshape(-1)
            labelled = np.flatnonzero(labels != IGNORE_ID)
            logits, _ = mlm_head(params, every[np.searchsorted(real, labelled)])
            losses.append(cross_entropy(logits, labels[labelled])[0])
            counts.append(labelled.size)
        expected = np.dot(losses, counts) / sum(counts)
        assert mlm_eval_loss(params, MICRO, stream) == pytest.approx(expected, rel=1e-12)

    def test_same_seed_pretrain_bitwise_equal(self):
        config = ModelConfig(n_layers=1, hidden=16, n_heads=2, ffn=32, vocab_size=24,
                             max_positions=16, dropout=0.1)
        cfg = micro_cfg(max_steps=6, masking_mode="dynamic")
        r1 = pretrain(MICRO_CORPUS, init_params(config, 0), config, cfg)
        r2 = pretrain(MICRO_CORPUS, init_params(config, 0), config, cfg)
        assert r1.params.step_count == r2.params.step_count == 6
        assert store_bytes(r1.params) == store_bytes(r2.params)

    def test_mt19937_dropout_trains_deterministically(self, batch):
        """The masks are a pure function of the rng state, whatever the bit
        generator."""
        config = dataclasses.replace(MICRO, dropout=0.1)

        def train(bit_generator):
            params = init_params(config, 0)
            losses = []
            for step in range(3):
                rng = np.random.Generator(bit_generator(step))
                losses.append(mlm_loss_and_backward(params, config, batch, rng=rng))
                adam_step(params, dict.fromkeys(params.names(), 1e-2))
            return losses, store_bytes(params)

        run = train(np.random.MT19937)
        assert run == train(np.random.MT19937)
        assert run[0] != train(np.random.PCG64)[0]


def separable_dataset(n_train=40, n_val=20):
    examples = []
    for i in range(n_train + n_val):
        c = i % 2
        word = ["sunny", "gloomy"][c]
        examples.append(Example(f"{word} day {word} mood.", ["bright", "dark"][c]))
    return LabeledDataset(
        "toy", examples, {"bright": 0, "dark": 1},
        {"train": list(range(n_train)),
         "validation": list(range(n_train, n_train + n_val))},
    )


@pytest.fixture(scope="module")
def toy_setup():
    ds = separable_dataset()
    corpus = SentenceCorpus([ex.text for ex in ds.examples], CorpusStats())
    vocab = train_vocab(corpus, target_size=64, min_freq=1)
    config = ModelConfig(n_layers=1, hidden=16, n_heads=2, ffn=32,
                         vocab_size=len(vocab), max_positions=16, dropout=0.0)
    return ds, vocab, config


class TestFinetune:
    def test_zero_epoch_leaves_values_and_reports_initial_head(self, toy_setup):
        ds, vocab, config = toy_setup
        params = init_params(config, seed=0)
        before = params.clone()
        res = finetune(ds, params, config, micro_cfg(epochs=0), vocab)
        # encoder and MLM tensors untouched; only the fresh head was attached
        for name in before.names():
            assert (res.final_params[name].value == before[name].value).all(), name
        assert res.best_epoch == 0
        assert [r["epoch"] for r in res.log if r["metric"] == "f1_weighted"] == [0]

    def test_learns_separable_task(self, toy_setup):
        ds, vocab, config = toy_setup
        params = init_params(config, seed=0)
        cfg = micro_cfg(epochs=10, batch_size=8, lr_encoder=1e-3, lr_head=1e-2)
        res = finetune(ds, params, config, cfg, vocab)
        assert res.best_val_f1 >= 95.0

    def test_best_equals_optimum_of_logged_series(self, toy_setup):
        ds, vocab, config = toy_setup
        params = init_params(config, seed=1)
        res = finetune(ds, params, config, micro_cfg(epochs=4, batch_size=8), vocab)
        logged = [r["value"] for r in res.log if r["metric"] == "f1_weighted"]
        assert res.best_val_f1 == max(logged)

    def test_best_snapshot_is_one_reused_copy_without_grads(self, toy_setup, snapshots):
        ds, vocab, config = toy_setup
        cfg = micro_cfg(epochs=10, batch_size=8, lr_encoder=1e-3, lr_head=1e-2)
        res = finetune(ds, init_params(config, seed=0), config, cfg, vocab)
        check_best_snapshot(res.params, snapshots)
        assert res.best_epoch > 0

    def test_float64_store_stays_float64(self, toy_setup):
        ds, vocab, config = toy_setup
        params = init_params(config, seed=0, dtype=np.float64)
        res = finetune(ds, params, config, micro_cfg(epochs=1, batch_size=8), vocab)
        for store in (res.final_params, res.params):
            assert "cls.out.w" in store
            for name, p in store.items():
                for part in ("value", "grad", "adam_m", "adam_v"):
                    assert getattr(p, part).dtype == np.float64, f"{name}.{part}"

    def test_adam_moves_the_head_at_lr_head_and_the_rest_at_lr_encoder(self, toy_setup,
                                                                       adam_rates):
        ds, vocab, config = toy_setup
        finetune(ds, init_params(config, seed=0), config,
                 micro_cfg(epochs=2, batch_size=20), vocab)
        assert adam_rates == [{"encoder": {1e-3}, "mlm": {1e-3}, "cls": {3e-3}}] * 4

    def test_frozen_encoder_bitwise_unchanged(self, toy_setup):
        ds, vocab, config = toy_setup
        params = init_params(config, seed=2)
        frozen = {n: params[n].value.copy() for n in params.names()}
        cfg = micro_cfg(epochs=3, batch_size=8, lr_encoder=0.0, lr_head=1e-2)
        res = finetune(ds, params, config, cfg, vocab)
        for name, before in frozen.items():
            assert (res.final_params[name].value == before).all(), name
        assert (res.final_params["cls.out.w"].value != 0).any()

    def test_label_outside_label_map_errors(self, toy_setup):
        ds, vocab, config = toy_setup
        broken = LabeledDataset("broken", ds.examples + [Example("odd text.", "unknown")],
                                dict(ds.label_map),
                                {"train": [0, 1, len(ds.examples)], "validation": [2, 3]})
        params = init_params(config, seed=0)
        from mlmforge.errors import DataError
        with pytest.raises(DataError, match="unknown"):
            finetune(broken, params, config, micro_cfg(epochs=1), vocab)

    def test_validation_label_outside_label_map_is_data_error(self, toy_setup):
        ds, vocab, config = toy_setup
        # Built directly, without validate(): validation example 2 says "c".
        examples = list(ds.examples)
        examples[2] = Example(examples[2].text, "c")
        broken = LabeledDataset("broken", examples, dict(ds.label_map),
                                {"train": [0, 1, 4, 5], "validation": [2, 3]})
        params = init_params(config, seed=0)
        with pytest.raises(DataError, match="'c' not in label map"):
            finetune(broken, params, config, micro_cfg(epochs=1), vocab)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_row_set_equals_full_update_bitwise(self, monkeypatch, dtype):
        """finetune hands Adam the train split's tok_emb rows. From a store
        whose moments are nonzero everywhere, as after pretraining, that
        gives the same bytes as Adam over every row, which holds only if
        the row set covers every train token and is taken after the moment
        reset. Each train example has a word of its own, so every batch
        touches rows the others do not."""
        rng = np.random.default_rng(7)
        words = sorted({"".join(rng.choice(list("abcdefghijklmnop"), size=5)) for _ in range(40)})
        examples = [Example(f"{['sunny', 'gloomy'][i % 2]} {w} day.", ["bright", "dark"][i % 2])
                    for i, w in enumerate(words)]
        ds = LabeledDataset("varied", examples, {"bright": 0, "dark": 1},
                            {"train": list(range(24)), "validation": list(range(24, 36))})
        vocab = train_vocab(SentenceCorpus([ex.text for ex in examples], CorpusStats()),
                            target_size=400, min_freq=1)
        config = ModelConfig(n_layers=1, hidden=16, n_heads=2, ffn=32, vocab_size=len(vocab),
                             max_positions=16, dropout=0.1)
        cfg = micro_cfg(epochs=2, batch_size=8, lr_encoder=1e-2, lr_head=1e-2)

        def pretrained():
            params = init_params(config, seed=3, dtype=dtype)
            rng = np.random.default_rng(3)
            for _, p in params.items():
                p.adam_m[...] = rng.normal(size=p.value.shape)
                p.adam_v[...] = rng.random(size=p.value.shape)
            params.step_count = 9
            return params

        full_adam = training.adam_step
        seen = []

        def recording_adam(store, lr, rows=None):
            seen.append(rows)
            full_adam(store, lr, rows)

        monkeypatch.setattr(training, "adam_step", recording_adam)
        with_rows = finetune(ds, pretrained(), config, cfg, vocab)
        live = seen[0]["encoder.tok_emb"]
        assert 0 < live.size < config.vocab_size and all(r is seen[0] for r in seen)
        monkeypatch.setattr(training, "adam_step",
                            lambda store, lr, rows=None: full_adam(store, lr))
        every_row = finetune(ds, pretrained(), config, cfg, vocab)
        for a, b in ((with_rows.final_params, every_row.final_params),
                     (with_rows.params, every_row.params)):
            assert a.step_count == b.step_count
            assert store_bytes(a) == store_bytes(b)
        assert with_rows.log == every_row.log

    def test_non_finite_head_bias_aborts_with_epoch_and_op(self, toy_setup, monkeypatch):
        """A +inf that appears in cls.out.b after the epoch-0 validation is
        caught by the step's check, and its replay names the op."""
        ds, vocab, config = toy_setup
        validate = evaluation.confusion_table

        def poisoning_validate(params, *args, **kwargs):
            table = validate(params, *args, **kwargs)
            params["cls.out.b"].value[0] = np.inf
            return table

        monkeypatch.setattr(evaluation, "confusion_table", poisoning_validate)
        with pytest.raises(NonFiniteError,
                           match="^aborting at epoch 1: add_bias: produced non-finite values"):
            finetune(ds, init_params(config, seed=0), config, micro_cfg(epochs=1), vocab)

    def test_non_finite_live_tok_emb_row_aborts_and_names_it(self, toy_setup, monkeypatch):
        """A finetune step checks only the live rows of tok_emb's gradient,
        the train split's tokens; a NaN in one of them still aborts."""
        ds, vocab, config = toy_setup
        loss_and_backward = training.cls_loss_and_backward

        def poisoning_step(params, config, batch, *args, **kwargs):
            loss = loss_and_backward(params, config, batch, *args, **kwargs)
            params["encoder.tok_emb"].grad[batch.ids[0, 1]] = np.nan
            return loss

        monkeypatch.setattr(training, "cls_loss_and_backward", poisoning_step)
        with pytest.raises(NonFiniteError, match="^aborting at epoch 1: the gradient of "
                                                 "'encoder.tok_emb' holds non-finite"):
            finetune(ds, init_params(config, seed=0), config, micro_cfg(epochs=1), vocab)

    def test_head_class_count_mismatch(self, toy_setup):
        ds, vocab, config = toy_setup
        params = init_params(config, seed=0)
        init_classifier(params, config, 5, seed=1)
        with pytest.raises(ConfigError, match="classifier head has 5 classes but dataset"):
            finetune(ds, params, config, micro_cfg(epochs=1), vocab)

    @pytest.mark.parametrize("refusal, error, match", [
        ("no train", DataError, "empty train split"),
        ("no validation", DataError, "no examples in split 'validation'"),
        ("unknown label", DataError, "'unknown' not in label map"),
        ("5-class head", ConfigError, "classifier head has 5 classes"),
    ])
    def test_refusal_leaves_the_store_unchanged(self, toy_setup, refusal, error, match):
        ds, vocab, config = toy_setup
        params = init_params(config, seed=0)
        splits = dict(ds.splits)
        examples = list(ds.examples)
        if refusal == "5-class head":
            init_classifier(params, config, 5, seed=1)
        elif refusal == "unknown label":
            examples[0] = Example(examples[0].text, "unknown")
        else:
            del splits[refusal.removeprefix("no ")]
        before = store_bytes(params)
        broken = LabeledDataset("toy", examples, dict(ds.label_map), splits)
        with pytest.raises(error, match=match):
            finetune(broken, params, config, micro_cfg(epochs=1), vocab)
        assert params.names() == list(before)
        assert store_bytes(params) == before


def read_manifest(path):
    """A checkpoint's JSON manifest, read from its header without any check."""
    data = path.read_bytes()
    head = len(MAGIC) + 4
    (mlen,) = struct.unpack("<Q", data[head:head + 8])
    return json.loads(data[head + 8:head + 8 + mlen])


def rewrite_manifest(path, manifest):
    """Replace a checkpoint's manifest, keeping its header layout and blob."""
    data = path.read_bytes()
    head = len(MAGIC) + 4
    (mlen,) = struct.unpack("<Q", data[head:head + 8])
    mbytes = json.dumps(manifest).encode("utf-8")
    path.write_bytes(data[:head] + struct.pack("<Q", len(mbytes)) + mbytes
                     + data[head + 8 + mlen:])


def with_record(manifest, index, **fields):
    tensors = list(manifest["tensors"])
    tensors[index] = dict(tensors[index], **fields)
    return dict(manifest, tensors=tensors)


def with_model(manifest, **fields):
    return dict(manifest, model_config=dict(manifest["model_config"], **fields))


def renamed(manifest, old, new):
    """Renames tensor `old` and its two Adam moments to `new`."""
    tensors = [dict(t, name=new + t["name"][len(old):]) if t["name"].split("#")[0] == old
               else t for t in manifest["tensors"]]
    return dict(manifest, tensors=tensors)


def with_param(store, name, shape):
    store.add(name, np.zeros(shape, dtype=np.float32))
    return store


class TestCheckpointFormat:
    def test_save_load_save_byte_identical(self, tmp_path):
        params = init_params(MICRO, 0)
        pretrain(MICRO_CORPUS, params, MICRO, micro_cfg(max_steps=2))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, MICRO, p1, vocab_hash="abc", extra={"k": 1})
        loaded, manifest = load_checkpoint(p1)
        assert manifest["vocab_hash"] == "abc"
        assert manifest["extra"] == {"k": 1}
        save_checkpoint(loaded, MICRO, p2, vocab_hash="abc", extra={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_moments_and_step(self, tmp_path):
        params = init_params(MICRO, 0)
        pretrain(MICRO_CORPUS, params, MICRO, micro_cfg(max_steps=3))
        path = tmp_path / "c.ckpt"
        save_checkpoint(params, MICRO, path)
        loaded, _ = load_checkpoint(path)
        assert stores_equal(params, loaded)
        assert loaded.step_count == 3

    def test_truncated_blob_names_tensor(self, tmp_path):
        params = init_params(MICRO, 0)
        path = tmp_path / "t.ckpt"
        save_checkpoint(params, MICRO, path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(CheckpointError, match="truncated inside tensor"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["name", "dtype", "shape", "offset", "length"])
    @pytest.mark.parametrize("broken", ["missing", "wrong type"])
    def test_malformed_tensor_record_names_record(self, tmp_path, key, broken):
        path = tmp_path / "r.ckpt"
        save_checkpoint(init_params(MICRO, 0), MICRO, path)
        manifest = read_manifest(path)
        rec = manifest["tensors"][1]
        if broken == "missing":
            del rec[key]
        else:
            rec[key] = {"name": 7, "dtype": 32, "shape": "16", "offset": "0",
                        "length": None}[key]
        rewrite_manifest(path, manifest)
        who = "tensor record 1" if key == "name" else f"tensor '{rec['name']}'"
        with pytest.raises(CheckpointError, match=who):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda m: [], "not a JSON object"),
        (lambda m: "text", "not a JSON object"),
        (lambda m: dict(m, tensors={}), "tensor table is not a list"),
        (lambda m: dict(m, step="3"), "invalid step"),
        (lambda m: dict(m, model_config=dict(m["model_config"], hidden=0)), "model_config"),
        (lambda m: dict(m, vocab_hash=5), "hash mismatch"),
        (lambda m: with_record(m, 1, name="encoder.tok_emb"),
         "tensor record 1: 'encoder.tok_emb' is not part"),
        (lambda m: with_record(m, 1, shape=[16, 24]), "'encoder.tok_emb#m' has shape"),
        (lambda m: with_model(m, hidden=32), "'encoder.tok_emb' has shape"),
        (lambda m: with_model(m, n_layers=2), "it implies 'encoder.layer1.attn.wq'"),
        (lambda m: with_model(m, n_layers=10**12), "layers but the checkpoint holds"),
        (lambda m: renamed(m, "mlm.out_bias", "mlm.extra"), "'mlm.extra' is not part"),
        (lambda m: renamed(m, "encoder.layer0.attn.wq", "cls.out.b"), "'cls.out.b' has shape"),
    ])
    def test_malformed_manifest_is_checkpoint_error(self, tmp_path, edit, match):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(MICRO, 0), MICRO, path, vocab_hash="h")
        rewrite_manifest(path, edit(read_manifest(path)))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path, expected_vocab_hash="h")

    def test_stray_moment_tensor_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "stray.ckpt"
        save_checkpoint(init_params(MICRO, 0), MICRO, path)
        manifest = read_manifest(path)
        end = manifest["tensors"][-1]
        stray = {"name": "junk#m", "dtype": "float32", "shape": [4],
                 "offset": end["offset"] + end["length"], "length": 16}
        rewrite_manifest(path, dict(manifest, tensors=[*manifest["tensors"], stray]))
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(CheckpointError, match="'junk#m' is not part of the model_config"):
            load_checkpoint(path)

    def test_one_class_head_is_checkpoint_error(self, tmp_path):
        params = init_params(MICRO, 0)
        h = MICRO.hidden
        for name, shape in (("cls.dense.w", (h, h)), ("cls.dense.b", (h,)),
                            ("cls.out.w", (h, 1)), ("cls.out.b", (1,))):
            params.add(name, np.zeros(shape, dtype=np.float32))
        path = tmp_path / "one.ckpt"
        save_checkpoint(params, MICRO, path)
        with pytest.raises(CheckpointError, match="'cls.out.b' has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("store, config, match", [
        (lambda: init_params(MICRO, 0), dataclasses.replace(MICRO, n_layers=2),
         "parameter 'encoder.layer1.attn.wq' has shape None, model_config implies (16, 16)"),
        (lambda: init_params(dataclasses.replace(MICRO, n_layers=2), 0), MICRO,
         "parameter 'encoder.layer1.attn.wq' has shape (16, 16), model_config implies None"),
        (lambda: init_params(dataclasses.replace(MICRO, hidden=8), 0), MICRO,
         "parameter 'encoder.tok_emb' has shape (24, 8), model_config implies (24, 16)"),
        (lambda: with_param(init_params(MICRO, 0), "junk", (4,)), MICRO,
         "parameter 'junk' has shape (4,), model_config implies None"),
    ])
    def test_save_refuses_a_store_unlike_its_config(self, tmp_path, store, config, match):
        path = tmp_path / "last.ckpt"
        save_checkpoint(init_params(MICRO, 0), MICRO, path)
        before = path.read_bytes()
        with pytest.raises(ConfigError, match=re.escape(match)):
            save_checkpoint(store(), config, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["last.ckpt"]

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(init_params(MICRO, 0), MICRO, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(CheckpointError, match="3 trailing bytes"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "last.ckpt"
        params = init_params(MICRO, 0)
        save_checkpoint(params, MICRO, path)
        before = path.read_bytes()
        broken = params.clone()
        # the last tensor cannot be converted, so the save fails after
        # everything before it has been written
        last = broken[broken.names()[-1]]
        last.adam_v = np.full(last.value.shape, "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(broken, MICRO, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["last.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("length", range(20))
    def test_file_cut_inside_header_is_checkpoint_error(self, tmp_path, length):
        # 8 bytes magic + 4 bytes version + 8 bytes manifest length = 20
        path = tmp_path / "cut.ckpt"
        save_checkpoint(init_params(MICRO, 0), MICRO, path)
        path.write_bytes(path.read_bytes()[:length])
        match = "magic" if length < len(MAGIC) else "truncated header"
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("mlen", ["size - 19", 2**40, 2**63, 2**64 - 1])
    def test_manifest_length_beyond_the_file_is_checkpoint_error(self, tmp_path, mlen):
        path = tmp_path / "long.ckpt"
        save_checkpoint(init_params(MICRO, 0), MICRO, path)
        data = path.read_bytes()
        if mlen == "size - 19":
            mlen = len(data) - 19  # one byte more than the file holds after the header
        head = len(MAGIC) + 4
        path.write_bytes(data[:head] + struct.pack("<Q", mlen) + data[head + 8:])
        with pytest.raises(CheckpointError, match="truncated manifest"):
            load_checkpoint(path)

    def test_vocab_hash_mismatch(self, tmp_path):
        params = init_params(MICRO, 0)
        path = tmp_path / "h.ckpt"
        save_checkpoint(params, MICRO, path, vocab_hash="right")
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_checkpoint(path, expected_vocab_hash="wrong")

    def test_manifest_readable_standalone(self, tmp_path):
        params = init_params(MICRO, 0)
        path = tmp_path / "r.ckpt"
        save_checkpoint(params, MICRO, path, vocab_hash="zz")
        manifest = read_manifest(path)
        assert manifest["model_config"]["hidden"] == 16
        names = [t["name"] for t in manifest["tensors"]]
        assert "encoder.tok_emb" in names
        assert "encoder.tok_emb#m" in names


@st.composite
def small_models(draw):
    """A small ModelConfig, and a head of 2-5 classes or none."""
    n_heads = draw(st.integers(1, 2))
    config = ModelConfig(n_layers=draw(st.integers(1, 2)), n_heads=n_heads,
                         hidden=n_heads * draw(st.integers(1, 3)), ffn=draw(st.integers(1, 5)),
                         vocab_size=draw(st.integers(6, 10)),
                         max_positions=draw(st.integers(1, 5)),
                         n_segments=draw(st.integers(1, 2)), dropout=0.0)
    return config, draw(st.none() | st.integers(2, 5))


def save_small_model(path, config, n_classes):
    """A store for `config` with distinct values and Adam moments, saved to `path`."""
    params = init_params(config, 0)
    if n_classes is not None:
        init_classifier(params, config, n_classes, seed=1)
    for _, p in params.items():
        p.adam_m[...] = p.value / 2 + 1
        p.adam_v[...] = p.value ** 2
    params.step_count = 3
    save_checkpoint(params, config, path, vocab_hash="h", extra={"labels": ["a", "b"]})


# Any JSON value a hand-edited record field might hold.
JSON_FIELD = (st.none() | st.booleans() | st.integers(-8, 2**40) | st.text(max_size=4)
              | st.lists(st.integers(0, 16), max_size=3)
              | st.sampled_from(["float64", "cls.out.b"]))


class TestCheckpointTable:
    """The tensor table on disk is the one its model_config implies, and a
    load refuses any table that differs from it with one CheckpointError."""

    @settings(max_examples=40, deadline=None)
    @given(model=small_models())
    def test_saved_table_is_the_expected_table_and_round_trips(self, model):
        config, n_classes = model
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.ckpt"), Path(tmp, "b.ckpt")
            save_small_model(first, config, n_classes)
            tensors = read_manifest(first)["tensors"]
            assert tensors == checkpoint._table(param_shapes(config, n_classes))
            ends = itertools.accumulate(t["length"] for t in tensors)
            assert [t["offset"] for t in tensors] == [0, *list(ends)[:-1]]
            loaded, manifest = load_checkpoint(first, expected_vocab_hash="h")
            assert loaded.names() == list(param_shapes(config, n_classes))
            save_checkpoint(loaded, config, second, vocab_hash="h", extra=manifest["extra"])
            assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=120, deadline=None)
    @given(model=small_models(), data=st.data())
    def test_any_edit_of_the_table_is_one_checkpoint_error(self, model, data):
        config, n_classes = model
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m.ckpt")
            save_small_model(path, config, n_classes)
            manifest = read_manifest(path)
            tensors = manifest["tensors"]
            index = data.draw(st.integers(0, len(tensors) - 1), label="record")
            rec = tensors[index]
            edit = data.draw(st.sampled_from(["swap", "extra key", "field"]), label="edit")
            if edit == "swap":
                other = data.draw(st.integers(0, len(tensors) - 1).filter(lambda i: i != index),
                                  label="with record")
                tensors[index], tensors[other] = tensors[other], rec
                offset = 0
                for t in tensors:
                    t["offset"] = offset
                    offset += t["length"]
            elif edit == "extra key":
                rec[data.draw(st.sampled_from(["note", "checksum", "#m"]), label="key")] = (
                    data.draw(JSON_FIELD, label="value"))
            else:
                key = data.draw(st.sampled_from(sorted(rec)), label="field")
                rec[key] = data.draw(JSON_FIELD.filter(lambda v: v != rec[key]), label="value")
            rewrite_manifest(path, manifest)
            with pytest.raises(CheckpointError) as caught:
                load_checkpoint(path, expected_vocab_hash="h")
            assert "\n" not in str(caught.value)


class TestStepHeap:
    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc mallopt")
    def test_steady_state_steps_do_not_fault_in_their_working_set(self, monkeypatch):
        # Without the policy each 16x48 step of the desk model freed ~60 MB back
        # to the kernel and faulted it in again: ~16k minor faults per step.
        config = ModelConfig()
        rng = np.random.default_rng(0)
        corpus = [[2, *rng.integers(5, config.vocab_size, size=46).tolist(), 3]
                  for _ in range(16 * 6)]
        faults = []

        def counted_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

        monkeypatch.setattr(training, "adam_step", counted_adam_step)
        pretrain(corpus, init_params(config, 0), config,
                 TrainConfig(batch_size=16, max_steps=6, eval_every=6))
        assert len(faults) == 6
        per_step = (faults[5] - faults[1]) / 4  # steps 3-6
        assert per_step < 1600

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        class FakeLibc:
            @staticmethod
            def mallopt(option, value):
                calls.append((option, value))
                return 1

        monkeypatch.setattr(_heap, "_libc", FakeLibc)
        _heap.retain_freed_heap()
        assert calls == [(-3, 32 * 1024 * 1024), (-1, 1024 * 1024 * 1024)]

    @pytest.mark.parametrize("libc", [None, object()])
    def test_quiet_without_mallopt(self, monkeypatch, libc):
        monkeypatch.setattr(_heap, "_libc", lambda: libc)
        assert _heap.retain_freed_heap() is None


class TestLogFile:
    def test_jsonl_round_trip_no_timestamps(self, tmp_path):
        res = pretrain(MICRO_CORPUS, init_params(MICRO, 0), MICRO, micro_cfg())
        path = tmp_path / "log.jsonl"
        write_log(res.log, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(res.log)
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"step", "split", "metric", "value"}
