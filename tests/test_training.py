import json
import platform
import resource
import struct
import sys

import numpy as np
import pytest

from mlmforge import training
from mlmforge.benchmarks import Example, LabeledDataset
from mlmforge.checkpoint import MAGIC, load_checkpoint, read_manifest, save_checkpoint
from mlmforge.corpus import CorpusStats, SentenceCorpus
from mlmforge.encoder import (
    ModelConfig,
    backward_hidden,
    forward_hidden,
    init_params,
    mlm_head,
    mlm_head_backward,
)
from mlmforge.errors import CheckpointError, ConfigError, DataError, NonFiniteError
from mlmforge.numerics import _heap, adam_step
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

    def test_non_finite_loss_aborts_with_step(self):
        params = init_params(MICRO, 0)
        params["mlm.out_bias"].value[...] = np.inf
        with pytest.raises(NonFiniteError, match="step 0"):
            pretrain(MICRO_CORPUS, params, MICRO, micro_cfg())

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


def dense_mlm_loss_and_backward(params, config, batch):
    """Reference: project every position, pads included, and let
    cross_entropy drop the unlabelled rows."""
    hidden, cache = forward_hidden(params, config, batch.encoded(), training=False,
                                   want_cache=True)
    logits, hcache = mlm_head(params, hidden, want_cache=True)
    loss, ce_cache = cross_entropy(logits, batch.labels, IGNORE_ID)
    dhidden = mlm_head_backward(params, hcache, cross_entropy_backward(ce_cache))
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
        loss = mlm_loss_and_backward(params, MICRO, batch, training=False)
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
            hidden, _ = forward_hidden(params, MICRO, batch.encoded(), training=False)
            logits, _ = mlm_head(params, hidden)
            losses.append(cross_entropy(logits, batch.labels, IGNORE_ID)[0])
            counts.append(int((batch.labels != IGNORE_ID).sum()))
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

    def test_head_class_count_mismatch(self, toy_setup):
        ds, vocab, config = toy_setup
        from mlmforge.encoder import init_classifier
        params = init_params(config, seed=0)
        init_classifier(params, config, 5, seed=1)
        with pytest.raises(ConfigError):
            finetune(ds, params, config, micro_cfg(epochs=1), vocab)


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
        (lambda m: with_record(m, 1, name="encoder.tok_emb"), "duplicate tensor"),
        (lambda m: with_record(m, 1, shape=[16, 24]), "incomplete tensor set"),
    ])
    def test_malformed_manifest_is_checkpoint_error(self, tmp_path, edit, match):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(MICRO, 0), MICRO, path, vocab_hash="h")
        rewrite_manifest(path, edit(read_manifest(path)))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path, expected_vocab_hash="h")

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
            read_manifest(path)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_vocab_hash_mismatch(self, tmp_path):
        params = init_params(MICRO, 0)
        path = tmp_path / "h.ckpt"
        save_checkpoint(params, MICRO, path, vocab_hash="right")
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_checkpoint(path, expected_vocab_hash="wrong")

    def test_config_mismatch(self, tmp_path):
        params = init_params(MICRO, 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, MICRO, path)
        other = ModelConfig(n_layers=2, hidden=16, n_heads=2, ffn=32, vocab_size=24,
                            max_positions=16, dropout=0.0)
        with pytest.raises(CheckpointError, match="model_config"):
            load_checkpoint(path, expected_config=other)

    def test_manifest_readable_standalone(self, tmp_path):
        params = init_params(MICRO, 0)
        path = tmp_path / "r.ckpt"
        save_checkpoint(params, MICRO, path, vocab_hash="zz")
        manifest = read_manifest(path)
        assert manifest["model_config"]["hidden"] == 16
        names = [t["name"] for t in manifest["tensors"]]
        assert "encoder.tok_emb" in names
        assert "encoder.tok_emb#m" in names


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
