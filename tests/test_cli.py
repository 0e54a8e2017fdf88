import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlmforge
from mlmforge import cli
from mlmforge.benchmarks import make_fixture
from mlmforge.cli import CONFIG_DEFAULTS, build_run_config, main
from mlmforge.errors import ConfigError, DeterminismError, NonFiniteError, ShapeError


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


def manifest_without_validation(out_dir):
    """A fixture manifest naming only train and test, so commands that need
    validation examples hold them out of train."""
    path = make_fixture("Dreaddit", out_dir, seed=0)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["files"]["validation"]
    del manifest["expected_splits"]["validation"]
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
        manifest = manifest_without_validation(tmp_path / "data")
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
        assert not (tmp_path / "run" / ".lock").exists()

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

    def test_mixed_aggregation_report_rejected(self, tmp_path, capsys):
        r1 = {"model": "a", "dataset": "d", "split": "test", "aggregation": "weighted",
              "recall": 50.0, "f1": 50.0}
        r2 = dict(r1, model="b", aggregation="macro")
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        p1.write_text(json.dumps(r1)), p2.write_text(json.dumps(r2))
        code = run("report", str(p1), str(p2), "--run-dir", str(tmp_path / "rep"))
        assert code != 0
        assert capsys.readouterr().err.startswith("CONFIG/")


class TestThreadsEnv:
    def test_invalid_value_is_config_error(self, monkeypatch):
        from mlmforge.cli import n_threads
        monkeypatch.setenv("MLMFORGE_THREADS", "many")
        with pytest.raises(ConfigError):
            n_threads()
        monkeypatch.setenv("MLMFORGE_THREADS", "0")
        with pytest.raises(ConfigError):
            n_threads()

    def test_valid_value(self, monkeypatch):
        from mlmforge.cli import n_threads
        monkeypatch.setenv("MLMFORGE_THREADS", "4")
        assert n_threads() == 4
        monkeypatch.delenv("MLMFORGE_THREADS")
        assert n_threads() == 1


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
