import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlmforge
from mlmforge import cli
from mlmforge.benchmarks import make_fixture
from mlmforge.cli import CONFIG_DEFAULTS, build_run_config, main
from mlmforge.errors import ConfigError, DataError, DeterminismError, NonFiniteError, ShapeError


def run(*argv):
    return main(list(argv))


def write_posts(path, n=24):
    rng = np.random.default_rng(0)
    words = ["rain", "sleep", "quiet", "tired", "morning", "night", "heavy", "slow"]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            text = " ".join(words[int(j)] for j in rng.integers(0, 8, size=6)) + "."
            fh.write(json.dumps({"id": str(i), "subforum": "toy", "body": text}) + "\n")


FAST_TRAIN = [
    "--set", "train.max_steps=8",
    "--set", "train.batch_size=8",
    "--set", "train.lr_encoder=0.001",
    "--set", "train.eval_every=4",
    "--set", "model.n_layers=1",
    "--set", "model.hidden=16",
    "--set", "model.n_heads=2",
    "--set", "model.ffn=32",
    "--set", "model.max_positions=32",
    "--set", "model.dropout=0.0",
    "--set", "vocab.target_size=128",
    "--set", "vocab.min_freq=1",
]


def manifest_without(out_dir, split="validation"):
    """A Dreaddit fixture manifest that names no `split` file; without
    validation, commands that need validation examples hold them out of
    train."""
    path = make_fixture("Dreaddit", out_dir, seed=0)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["files"][split]
    del manifest["expected_splits"][split]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """prep-corpus -> build-vocab -> pretrain, shared by the tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    posts = root / "posts.jsonl"
    write_posts(posts)
    assert run("prep-corpus", "--input", str(posts), "--run-dir", str(root / "prep")) == 0
    corpus = root / "prep" / "corpus.txt"
    assert run("build-vocab", "--corpus", str(corpus), "--run-dir", str(root / "vocab"),
               "--set", "vocab.target_size=128", "--set", "vocab.min_freq=1") == 0
    vocab = root / "vocab" / "vocab.txt"
    assert run("pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
               "--val-corpus", str(corpus), "--run-dir", str(root / "pt"),
               *FAST_TRAIN) == 0
    return root, corpus, vocab


@pytest.fixture(scope="module")
def finetuned(pipeline, tmp_path_factory):
    """A head fine-tuned on the Dreaddit fixture (labels class0, class1)."""
    root, _, vocab = pipeline
    out = tmp_path_factory.mktemp("finetuned")
    manifest = make_fixture("Dreaddit", out / "data", seed=0)
    assert run("finetune", "--from", str(root / "pt" / "ckpt" / "last.ckpt"),
               "--dataset", str(manifest), "--vocab", str(vocab), "--run-dir", str(out / "ft"),
               *FAST_TRAIN, "--set", "train.epochs=1") == 0
    return out / "ft" / "ckpt" / "best.ckpt", manifest


def relabelled(manifest, out_dir, names):
    """A copy of a fixture dataset with each label renamed by `names`."""
    out_dir.mkdir()
    meta = json.loads(manifest.read_text(encoding="utf-8"))
    meta["labels"] = [names[lab] for lab in meta["labels"]]
    for split_file in meta["files"].values():
        text = (manifest.parent / split_file).read_text(encoding="utf-8")
        rows = [json.loads(line) for line in text.splitlines()]
        (out_dir / split_file).write_text("".join(
            json.dumps(dict(row, label=names[row["label"]])) + "\n" for row in rows))
    (out_dir / "manifest.json").write_text(json.dumps(meta))
    return out_dir / "manifest.json"


class TestPipeline:
    def test_prep_outputs(self, pipeline):
        root, corpus, _ = pipeline
        assert corpus.is_file()
        stats = json.loads((root / "prep" / "stats.json").read_text())
        assert stats["n_sentences"] > 0
        assert (root / "prep" / "config.json").is_file()

    def test_pretrain_outputs(self, pipeline):
        root, _, _ = pipeline
        assert (root / "pt" / "ckpt" / "last.ckpt").is_file()
        assert (root / "pt" / "ckpt" / "best.ckpt").is_file()
        log = (root / "pt" / "logs" / "pretrain.jsonl").read_text().splitlines()
        assert len(log) == 8 + 2  # train records + validation at steps 4, 8

    def test_continue_then_finetune_then_evaluate_then_report(self, pipeline, tmp_path):
        root, corpus, vocab = pipeline
        last = root / "pt" / "ckpt" / "last.ckpt"
        assert run("continue-pretrain", "--from", str(last), "--corpus", str(corpus),
                   "--vocab", str(vocab), "--run-dir", str(tmp_path / "ct"),
                   *FAST_TRAIN, "--set", "train.max_steps=12") == 0

        manifest = make_fixture("Dreaddit", tmp_path / "data", seed=0)
        ckpt = tmp_path / "ct" / "ckpt" / "last.ckpt"
        assert run("finetune", "--from", str(ckpt), "--dataset", str(manifest),
                   "--vocab", str(vocab), "--run-dir", str(tmp_path / "ft"),
                   *FAST_TRAIN, "--set", "train.epochs=1",
                   "--set", "train.lr_head=0.003") == 0
        ft_ckpt = tmp_path / "ft" / "ckpt" / "best.ckpt"
        assert ft_ckpt.is_file()

        assert run("evaluate", "--from", str(ft_ckpt), "--dataset", str(manifest),
                   "--vocab", str(vocab), "--split", "test",
                   "--model-name", "toy-model", "--run-dir", str(tmp_path / "ev"),
                   *FAST_TRAIN) == 0
        results = list((tmp_path / "ev" / "results").glob("*.json"))
        assert len(results) == 1

        assert run("report", str(results[0]), "--run-dir", str(tmp_path / "rep")) == 0
        md = (tmp_path / "rep" / "report.md").read_text()
        assert "toy-model" in md
        assert "**" in md
        assert (tmp_path / "rep" / "report.json").is_file()

    @pytest.mark.parametrize("command", ["pretrain", "continue-pretrain"])
    def test_rerun_without_validation_removes_the_stale_best_checkpoint(self, pipeline,
                                                                        tmp_path, command):
        root, corpus, vocab = pipeline
        args = [command, "--corpus", str(corpus), "--vocab", str(vocab),
                "--run-dir", str(tmp_path / "run"), *FAST_TRAIN]
        if command == "continue-pretrain":
            args += ["--from", str(root / "pt" / "ckpt" / "last.ckpt"),
                     "--set", "train.max_steps=12"]
        assert run(*args, "--val-corpus", str(corpus)) == 0
        assert (tmp_path / "run" / "ckpt" / "best.ckpt").is_file()
        assert run(*args, "--set", "train.seed=1") == 0
        assert [p.name for p in (tmp_path / "run" / "ckpt").iterdir()] == ["last.ckpt"]
        assert json.loads((tmp_path / "run" / "config.json").read_text())["train.seed"] == 1

    def test_rerun_is_bitwise_identical(self, pipeline, tmp_path):
        root, corpus, vocab = pipeline
        for d in ("r1", "r2"):
            assert run("pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                       "--val-corpus", str(corpus), "--run-dir", str(tmp_path / d),
                       *FAST_TRAIN) == 0
        for rel in ("ckpt/last.ckpt", "ckpt/best.ckpt", "logs/pretrain.jsonl",
                    "config.json"):
            a = (tmp_path / "r1" / rel).read_bytes()
            b = (tmp_path / "r2" / rel).read_bytes()
            assert a == b, rel


class TestErrors:
    def test_vocab_hash_mismatch_is_ckpt_error(self, pipeline, tmp_path, capsys):
        root, corpus, vocab = pipeline
        other_vocab = tmp_path / "other.txt"
        other_vocab.write_text(vocab.read_text() + "extraextra\n", encoding="utf-8")
        code = run("continue-pretrain", "--from", str(root / "pt" / "ckpt" / "last.ckpt"),
                   "--corpus", str(corpus), "--vocab", str(other_vocab),
                   "--run-dir", str(tmp_path / "bad"), *FAST_TRAIN,
                   "--set", "train.max_steps=9")
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("CKPT/")
        assert "\n" not in err.strip()

    def test_checkpoint_cut_inside_header_is_one_ckpt_line(self, pipeline, tmp_path, capsys):
        root, corpus, vocab = pipeline
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((root / "pt" / "ckpt" / "last.ckpt").read_bytes()[:10])
        code = run("continue-pretrain", "--from", str(cut), "--corpus", str(corpus),
                   "--vocab", str(vocab), "--run-dir", str(tmp_path / "run"), *FAST_TRAIN,
                   "--set", "train.max_steps=9")
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("CKPT/") and "truncated header" in err
        assert len(err.strip().splitlines()) == 1

    def test_manifest_length_past_the_file_is_one_ckpt_line(self, pipeline, tmp_path, capsys):
        root, corpus, vocab = pipeline
        data = (root / "pt" / "ckpt" / "last.ckpt").read_bytes()
        long = tmp_path / "long.ckpt"
        long.write_bytes(data[:19] + b"\x80" + data[20:])  # high byte of the manifest length
        code = run("continue-pretrain", "--from", str(long), "--corpus", str(corpus),
                   "--vocab", str(vocab), "--run-dir", str(tmp_path / "run"), *FAST_TRAIN)
        err = capsys.readouterr().err
        assert code == 4 and len(err.strip().splitlines()) == 1
        assert err.startswith("CKPT/") and "truncated manifest" in err

    def test_tensor_shapes_unlike_the_manifest_config_is_one_ckpt_line(self, pipeline, tmp_path,
                                                                        capsys):
        root, corpus, vocab = pipeline
        data = (root / "pt" / "ckpt" / "last.ckpt").read_bytes()
        (mlen,) = struct.unpack("<Q", data[12:20])
        manifest = json.loads(data[20:20 + mlen])
        manifest["model_config"]["hidden"] = 32  # the tensors are 16 wide
        mbytes = json.dumps(manifest).encode("utf-8")
        edited = tmp_path / "edited.ckpt"
        edited.write_bytes(data[:12] + struct.pack("<Q", len(mbytes)) + mbytes
                           + data[20 + mlen:])
        code = run("continue-pretrain", "--from", str(edited), "--corpus", str(corpus),
                   "--vocab", str(vocab), "--run-dir", str(tmp_path / "run"), *FAST_TRAIN,
                   "--set", "train.max_steps=9")
        err = capsys.readouterr().err
        assert code == 4 and len(err.strip().splitlines()) == 1
        assert err.startswith("CKPT/") and "'encoder.tok_emb' has shape" in err
        assert not (tmp_path / "run").exists()

    def test_sentence_with_nothing_to_mask_is_one_data_line(self, pipeline, tmp_path, capsys):
        root, corpus, vocab = pipeline
        lines = corpus.read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "corpus.txt"
        bad.write_text("\n".join([*lines, "\U0001f62d\U0001f62d\U0001f62d"]) + "\n",
                       encoding="utf-8")  # encodes to [CLS] [UNK] [SEP]
        code = run("pretrain", "--corpus", str(bad), "--vocab", str(vocab),
                   "--run-dir", str(tmp_path / "run"), *FAST_TRAIN)
        err = capsys.readouterr().err
        assert code == 3 and len(err.strip().splitlines()) == 1
        assert err.startswith(f"DATA/training sequence {len(lines)} (from 0) has no maskable")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, override, message", [
        ("build-vocab", "vocab.target_size=8", "CONFIG/target_size=8 cannot hold the specials"),
        ("pretrain", None, "DATA/pretraining corpus is empty"),
        ("continue-pretrain", "train.max_steps=8",
         "CONFIG/checkpoint already at step 8 >= max_steps 8"),
    ])
    def test_refusal_inside_the_run_leaves_no_run_dir(self, pipeline, tmp_path, capsys,
                                                      command, override, message):
        """The run dir and the parents it needed are gone after a refusal
        that comes from the command's own work, not from reading its inputs."""
        root, corpus, vocab = pipeline
        if command == "pretrain":
            corpus = tmp_path / "empty.txt"
            corpus.write_text("", encoding="utf-8")
        inputs = {"build-vocab": ["--corpus", corpus],
                  "pretrain": ["--corpus", corpus, "--vocab", vocab],
                  "continue-pretrain": ["--from", root / "pt" / "ckpt" / "last.ckpt",
                                        "--corpus", corpus, "--vocab", vocab]}[command]
        code = run(command, *map(str, inputs), "--run-dir", str(tmp_path / "a" / "b" / "run"),
                   *FAST_TRAIN, *(["--set", override] if override else []))
        err = capsys.readouterr().err
        assert code == (2 if message.startswith("CONFIG/") else 3)
        assert len(err.strip().splitlines()) == 1 and err.startswith(message)
        assert not (tmp_path / "a").exists()

    def test_refused_rerun_leaves_the_run_dir_byte_identical(self, pipeline, tmp_path, capsys):
        _, corpus, _ = pipeline
        run_dir = tmp_path / "run"
        assert run("build-vocab", "--corpus", str(corpus), "--run-dir", str(run_dir),
                   "--set", "vocab.target_size=128", "--set", "vocab.min_freq=1") == 0
        before = {p: p.read_bytes() for p in run_dir.rglob("*")}
        assert sorted(p.name for p in before) == ["config.json", "vocab.txt"]
        unmaskable = tmp_path / "corpus.txt"
        unmaskable.write_text("\U0001f62d\n", encoding="utf-8")  # [CLS] [UNK] [SEP]
        assert run("pretrain", "--corpus", str(unmaskable), "--vocab", str(run_dir / "vocab.txt"),
                   "--run-dir", str(run_dir), *FAST_TRAIN) == 3
        assert run("build-vocab", "--corpus", str(corpus), "--run-dir", str(run_dir),
                   "--set", "vocab.target_size=8") == 2
        capsys.readouterr()
        assert {p: p.read_bytes() for p in run_dir.rglob("*")} == before

    def test_run_dir_never_removes_a_file(self, tmp_path):
        existing = tmp_path / "existing"
        existing.mkdir()
        with pytest.raises(DataError):
            with cli.RunDir(existing, {}):
                raise DataError("refused")
        fresh = tmp_path / "a" / "fresh"
        with pytest.raises(DataError):
            with cli.RunDir(fresh, {}) as run_dir:
                (run_dir.subdir("ckpt") / "last.ckpt").write_bytes(b"kept")
                run_dir.subdir("logs")
                raise DataError("refused after an output")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "a", "a/fresh", "a/fresh/ckpt", "a/fresh/ckpt/last.ckpt", "existing"]
        assert (fresh / "ckpt" / "last.ckpt").read_bytes() == b"kept"

    def test_evaluate_refuses_a_head_trained_on_other_labels(self, pipeline, finetuned,
                                                             tmp_path, capsys):
        _, _, vocab = pipeline
        ckpt, manifest = finetuned
        other = relabelled(manifest, tmp_path / "data", {"class0": "yes", "class1": "no"})
        code = run("evaluate", "--from", str(ckpt), "--dataset", str(other), "--vocab", str(vocab),
                   "--split", "test", "--model-name", "m", "--run-dir", str(tmp_path / "run"))
        err = capsys.readouterr().err
        assert code == 2 and len(err.strip().splitlines()) == 1
        assert err.startswith("CONFIG/checkpoint head was trained on labels ['class0', 'class1'], "
                              "but dataset 'Dreaddit' has ['no', 'yes']")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, head, dataset, message", [
        ("evaluate", "none", "no validation",
         "CONFIG/{ckpt}: no classifier head in parameter store"),
        ("evaluate", "Dreaddit", "no test",
         "DATA/dataset 'Dreaddit' has no examples in split 'test'"),
        ("finetune", "Dreaddit", "SAD",
         "CONFIG/classifier head has 2 classes but dataset 'SAD' has 9"),
        ("finetune", "none", "no train", "DATA/dataset 'Dreaddit' has an empty train split"),
    ], ids=["evaluate-no-head", "evaluate-empty-split", "finetune-other-classes",
            "finetune-empty-train"])
    def test_unfit_head_or_empty_split_leaves_no_run_dir(self, pipeline, finetuned, tmp_path,
                                                         capsys, command, head, dataset,
                                                         message):
        root, _, vocab = pipeline
        ckpt = root / "pt" / "ckpt" / "last.ckpt" if head == "none" else finetuned[0]
        manifest = (make_fixture("SAD", tmp_path / "data", seed=0) if dataset == "SAD"
                    else manifest_without(tmp_path / "data", dataset.removeprefix("no ")))
        run_dir = tmp_path / "run"
        code = run(command, "--from", str(ckpt), "--dataset", str(manifest), "--vocab", str(vocab),
                   "--run-dir", str(run_dir), *FAST_TRAIN)
        err = capsys.readouterr().err
        assert (code, err) == (2 if message.startswith("CONFIG/") else 3,
                               message.format(ckpt=ckpt) + "\n")
        assert not run_dir.exists()

    def test_evaluate_accepts_the_labels_it_was_trained_on(self, pipeline, finetuned, tmp_path):
        _, _, vocab = pipeline
        ckpt, manifest = finetuned
        same = relabelled(manifest, tmp_path / "data", {"class0": "class0", "class1": "class1"})
        assert run("evaluate", "--from", str(ckpt), "--dataset", str(same), "--vocab", str(vocab),
                   "--split", "test", "--model-name", "m", "--run-dir", str(tmp_path / "run")) == 0
        assert len(list((tmp_path / "run" / "results").glob("*.json"))) == 1

    def test_non_finite_tensor_is_one_ckpt_line(self, pipeline, tmp_path, capsys):
        root, corpus, vocab = pipeline
        data = bytearray((root / "pt" / "ckpt" / "last.ckpt").read_bytes())
        (mlen,) = struct.unpack("<Q", data[12:20])
        manifest = json.loads(data[20:20 + mlen])
        rec = next(t for t in manifest["tensors"] if t["name"] == "mlm.out_bias")
        at = 20 + mlen + rec["offset"] + 4 * 3
        data[at:at + 4] = struct.pack("<f", float("nan"))
        broken = tmp_path / "nan.ckpt"
        broken.write_bytes(bytes(data))
        code = run("continue-pretrain", "--from", str(broken), "--corpus", str(corpus),
                   "--vocab", str(vocab), "--run-dir", str(tmp_path / "run"), *FAST_TRAIN,
                   "--set", "train.max_steps=9")
        err = capsys.readouterr().err
        assert code == 4 and len(err.strip().splitlines()) == 1
        assert err.startswith("CKPT/")
        assert err.strip().endswith("tensor 'mlm.out_bias' holds a NaN or infinity")

    @pytest.mark.parametrize("command, override", [
        ("pretrain", "train.batch_size=0"),
        ("pretrain", "train.mask_ratio=0"),
        ("pretrain", "train.mask_ratio=1.5"),
        ("pretrain", "model.n_heads=3"),
        ("finetune", "train.epochs=-1"),
        ("evaluate", "eval.batch_size=0"),
        ("evaluate", "eval.aggregation=median"),
    ])
    def test_bad_train_or_model_value_leaves_no_run_dir(self, pipeline, tmp_path, capsys,
                                                         command, override):
        root, corpus, vocab = pipeline
        inputs = (["--corpus", corpus] if command == "pretrain" else
                  ["--from", root / "pt" / "ckpt" / "last.ckpt",
                   "--dataset", manifest_without(tmp_path / "data")])
        run_dir = tmp_path / "run"
        code = run(command, *map(str, inputs), "--vocab", str(vocab), "--run-dir", str(run_dir),
                   *FAST_TRAIN, "--set", override)
        err = capsys.readouterr().err
        assert code == 2 and len(err.strip().splitlines()) == 1
        assert err.startswith("CONFIG/")
        assert not run_dir.exists()

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        posts = tmp_path / "p.jsonl"
        write_posts(posts, n=3)
        code = run("prep-corpus", "--input", str(posts),
                   "--run-dir", str(tmp_path / "run"), "--set", "corpus.bogus=1")
        assert code != 0
        assert capsys.readouterr().err.startswith("CONFIG/")

    def test_unknown_key_in_config_file(self, tmp_path, capsys):
        posts = tmp_path / "p.jsonl"
        write_posts(posts, n=3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no.such.key": 1}', encoding="utf-8")
        code = run("prep-corpus", "--input", str(posts),
                   "--run-dir", str(tmp_path / "run"), "--config", str(cfg))
        assert code != 0
        assert capsys.readouterr().err.startswith("CONFIG/")

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = run("prep-corpus", "--input", str(tmp_path / "absent.jsonl"),
                   "--run-dir", str(tmp_path / "run"))
        assert code != 0
        assert capsys.readouterr().err.startswith("DATA/")

    def test_locked_run_dir_rejected(self, tmp_path, capsys):
        posts = tmp_path / "p.jsonl"
        write_posts(posts, n=3)
        run_dir = tmp_path / "locked"
        run_dir.mkdir()
        (run_dir / ".lock").write_text("12345\n")
        code = run("prep-corpus", "--input", str(posts), "--run-dir", str(run_dir))
        assert code != 0
        assert capsys.readouterr().err.startswith("CONFIG/")

    @pytest.mark.parametrize("command, split, override", [
        ("evaluate", "test", "eval.batch_size=0"),
        ("evaluate", "test", "eval.batch_size=-3"),
        ("finetune", None, "split.seed=-1"),
        ("evaluate", "validation", "split.seed=-1"),
    ])
    def test_out_of_range_value_is_one_line_config_error(self, pipeline, tmp_path, capsys,
                                                          command, split, override):
        root, _, vocab = pipeline
        manifest = manifest_without(tmp_path / "data")
        code = run(command, "--from", str(root / "pt" / "ckpt" / "last.ckpt"),
                   "--dataset", str(manifest), "--vocab", str(vocab),
                   "--run-dir", str(tmp_path / "run"), "--set", override,
                   *(["--split", split] if split else []))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("CONFIG/")
        assert "\n" not in err.strip()
        assert override.split("=")[0].split(".")[1] in err

    @pytest.mark.parametrize("command, override", [
        ("build-vocab", "vocab.min_freq=0"),
        ("build-vocab", "vocab.min_freq=-1"),
        ("pretrain", "train.lr_encoder=nan"),
        ("pretrain", "train.lr_encoder=-inf"),
        ("pretrain", "train.lr_head=inf"),
    ])
    def test_bad_vocab_or_train_value_is_one_line_config_error(self, pipeline, tmp_path,
                                                                capsys, command, override):
        _, corpus, vocab = pipeline
        code = run(command, "--corpus", str(corpus), "--run-dir", str(tmp_path / "run"),
                   *(["--vocab", str(vocab)] if command == "pretrain" else []),
                   *FAST_TRAIN, "--set", override)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("CONFIG/")
        assert "\n" not in err.strip()
        assert override.split("=")[0].split(".")[1] in err

    def test_non_finite_training_is_one_line_numeric_error(self, pipeline, tmp_path):
        # A fresh interpreter, so numpy's RuntimeWarnings would reach stderr.
        _, corpus, vocab = pipeline
        src = str(Path(mlmforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "mlmforge.cli", "pretrain", "--corpus", str(corpus),
             "--vocab", str(vocab), "--run-dir", str(tmp_path / "run"), *FAST_TRAIN,
             "--set", "train.lr_encoder=1e30", "--set", "train.max_steps=4"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 5
        assert proc.stderr.startswith("NUMERIC/aborting at step ")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("exc, prefix, code", [
        (NonFiniteError("matmul: produced non-finite values"), "NUMERIC/", 5),
        (ShapeError("matmul: incompatible shapes"), "INTERNAL/", 6),
        (DeterminismError("reruns differ"), "INTERNAL/", 6),
    ])
    def test_numeric_and_internal_categories(self, monkeypatch, capsys, exc, prefix, code):
        def fail(args, cfg):
            raise exc
        monkeypatch.setattr(cli, "cmd_report", fail)
        assert run("report", "r.json", "--run-dir", "unused") == code
        assert capsys.readouterr().err == f"{prefix}{exc}\n"

    @pytest.mark.parametrize("kind", ["config", "posts", "missing posts", "corpus",
                                      "val-corpus", "vocab", "manifest", "split file",
                                      "results"])
    def test_unreadable_input_is_one_line_and_no_run_dir(self, pipeline, tmp_path, capsys,
                                                          kind):
        root, corpus, vocab = pipeline
        ckpt = root / "pt" / "ckpt" / "last.ckpt"
        posts = tmp_path / "posts.jsonl"
        write_posts(posts, n=3)
        manifest = make_fixture("Dreaddit", tmp_path / "ds", seed=0)
        bad = manifest.parent / "test.jsonl" if kind == "split file" else tmp_path / "bad"
        argv, source = {
            "config": (["prep-corpus", "--input", posts, "--config", bad],
                       b'{"train.max_steps": 5}'),
            "posts": (["prep-corpus", "--input", bad], posts.read_bytes()),
            "missing posts": (["prep-corpus", "--input", bad], None),
            "corpus": (["build-vocab", "--corpus", bad], corpus.read_bytes()),
            "val-corpus": (["pretrain", "--corpus", corpus, "--vocab", vocab,
                            "--val-corpus", bad], corpus.read_bytes()),
            "vocab": (["pretrain", "--corpus", corpus, "--vocab", bad], vocab.read_bytes()),
            "manifest": (["evaluate", "--from", ckpt, "--dataset", bad, "--vocab", vocab],
                         manifest.read_bytes()),
            "split file": (["evaluate", "--from", ckpt, "--dataset", manifest,
                            "--vocab", vocab], (manifest.parent / "test.jsonl").read_bytes()),
            "results": (["report", bad], json.dumps({
                "model": "a", "dataset": "d", "aggregation": "weighted",
                "recall": 50.0, "f1": 50.0}).encode()),
        }[kind]
        if source is not None:  # one byte in the middle becomes 0xFF: not UTF-8
            mid = len(source) // 2
            bad.write_bytes(source[:mid] + b"\xff" + source[mid + 1:])
        run_dir = tmp_path / "run"
        code = run(*map(str, argv), "--run-dir", str(run_dir))
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert (code, err[:err.index("/") + 1]) == ((2, "CONFIG/") if kind == "config"
                                                     else (3, "DATA/"))
        assert ("not found" if source is None else "is not UTF-8") in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("edit, field", [
        ({"recall": "abc"}, "recall"),
        ({"f1": True}, "f1"),
        ({"aggregation": ["w"]}, "aggregation"),
        ({"model": 3}, "model"),
        ({"dataset": None}, "dataset"),
        ("a results string", None),
    ])
    def test_mistyped_results_file_is_one_data_line(self, tmp_path, capsys, edit, field):
        rec = {"model": "a", "dataset": "d", "split": "test", "aggregation": "weighted",
               "recall": 50.0, "f1": 50.0}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(dict(rec, **edit) if field else edit), encoding="utf-8")
        code = run("report", str(path), "--run-dir", str(tmp_path / "rep"))
        err = capsys.readouterr().err
        assert code == 3 and len(err.strip().splitlines()) == 1
        assert err.startswith(f"DATA/{path}: ")
        assert (f"'{field}'" if field else "must be a JSON object") in err
        assert not (tmp_path / "rep").exists()

    def test_mixed_aggregation_report_rejected(self, tmp_path, capsys):
        r1 = {"model": "a", "dataset": "d", "split": "test", "aggregation": "weighted",
              "recall": 50.0, "f1": 50.0}
        r2 = dict(r1, model="b", aggregation="macro")
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        p1.write_text(json.dumps(r1)), p2.write_text(json.dumps(r2))
        code = run("report", str(p1), str(p2), "--run-dir", str(tmp_path / "rep"))
        assert code != 0
        assert capsys.readouterr().err.startswith("CONFIG/")

    def test_two_results_for_one_model_and_dataset_rejected(self, tmp_path, capsys):
        val = {"model": "m", "dataset": "Dreaddit", "split": "validation",
               "aggregation": "weighted", "recall": 80.0, "f1": 80.0}
        test = dict(val, split="test", recall=60.0, f1=60.0)
        p1, p2 = tmp_path / "validation.json", tmp_path / "test.json"
        p1.write_text(json.dumps(val)), p2.write_text(json.dumps(test))
        code = run("report", str(p1), str(p2), "--run-dir", str(tmp_path / "rep"))
        err = capsys.readouterr().err
        assert code == 3 and len(err.strip().splitlines()) == 1
        assert err.startswith("DATA/") and "'m'" in err and "'Dreaddit'" in err
        assert not (tmp_path / "rep").exists()


class TestRunConfig:
    def test_defaults_then_file_then_overrides(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"train.max_steps": 50}), encoding="utf-8")
        cfg = build_run_config(str(cfg_file), ["train.max_steps=60", "corpus.dedup=false"])
        assert cfg["train.max_steps"] == 60
        assert cfg["corpus.dedup"] is False
        assert cfg["train.lr_head"] == 3e-5

    def test_type_coercion_errors(self):
        with pytest.raises(ConfigError):
            build_run_config(None, ["train.max_steps=soon"])
        with pytest.raises(ConfigError):
            build_run_config(None, ["corpus.dedup=7"])

    def test_readme_table_lists_exactly_the_defaults(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Configuration", 1)[1]
        rows = section.split("\n\n")[2]
        cells = re.findall(r"\| `([a-z_]+\.[a-z_]+)` \| `([^`]*)` \|", rows)

        def parse(text):
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                return text

        listed = {key: parse(text) for key, text in cells}
        assert len(listed) == len(cells)
        assert {k: (type(v), v) for k, v in listed.items()} == \
            {k: (type(v), v) for k, v in CONFIG_DEFAULTS.items()}

    def test_echoed_config_reproduces_run(self, pipeline, tmp_path):
        root, corpus, vocab = pipeline
        echoed = root / "pt" / "config.json"
        assert run("pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                   "--val-corpus", str(corpus), "--run-dir", str(tmp_path / "again"),
                   "--config", str(echoed)) == 0
        a = (root / "pt" / "ckpt" / "last.ckpt").read_bytes()
        b = (tmp_path / "again" / "ckpt" / "last.ckpt").read_bytes()
        assert a == b
