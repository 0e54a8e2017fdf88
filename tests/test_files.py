"""Every run file is written atomically: a write that fails leaves the
previous file byte-identical and no temp file behind."""

import json
import os

import pytest

from mlmforge import _files, benchmarks, corpus, tokenizer, training
from mlmforge.cli import main
from mlmforge.corpus import CorpusStats, SentenceCorpus


def sentences(words):
    return SentenceCorpus(words, CorpusStats(n_sentences=len(words), n_tokens_ws=len(words)))


# writer(path, variant) writes one of two different contents to path.
WRITERS = {
    "Vocab.save": lambda path, v: tokenizer.Vocab(
        [*tokenizer.SPECIAL_TOKENS, "rain", "sleep"][: 6 + v]).save(path),
    "write_log": lambda path, v: training.write_log(
        [{"step": i, "value": 0.5 * i} for i in range(2 + v)], path),
    "write_sentences": lambda path, v: corpus.write_sentences(
        sentences(["one.", "two.", "three."][: 2 + v]), path),
    "write_manifest": lambda path, v: benchmarks.write_manifest(
        {"name": "toy", "files": {"train": f"t{v}.jsonl"}}, path),
}


@pytest.fixture
def failing_fsync(monkeypatch):
    def fsync(fd):
        raise OSError("disk full")
    return lambda: monkeypatch.setattr(_files.os, "fsync", fsync)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, failing_fsync, name):
    write = WRITERS[name]
    path = tmp_path / "out"
    write(path, 0)
    before = path.read_bytes()
    failing_fsync()
    with pytest.raises(OSError, match="disk full"):
        write(path, 1)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_first_write_leaves_nothing(tmp_path, failing_fsync, name):
    failing_fsync()
    with pytest.raises(OSError):
        WRITERS[name](tmp_path / "out", 0)
    assert os.listdir(tmp_path) == []


def test_error_partway_through_a_stream_keeps_previous_file(tmp_path):
    path = tmp_path / "log.jsonl"
    training.write_log([{"step": 1, "value": 1.0}], path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        training.write_log([{"step": 2, "value": 2.0}, {"step": 3, "value": object()}], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["log.jsonl"]


def test_text_is_utf8_with_lf_endings(tmp_path):
    path = tmp_path / "t.txt"
    with _files.atomic_write(path) as fh:
        fh.write("é\nb\n")
    assert path.read_bytes() == "é\nb\n".encode("utf-8")


def test_cli_run_files_survive_a_failed_rerun(tmp_path, failing_fsync, capsys):
    results = tmp_path / "r.json"
    results.write_text(json.dumps({"model": "m", "dataset": "d", "aggregation": "weighted",
                                   "recall": 50.0, "f1": 40.0}), encoding="utf-8")
    run_dir = tmp_path / "rep"
    assert main(["report", str(results), "--run-dir", str(run_dir)]) == 0
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert set(before) == {"config.json", "report.md", "report.json"}
    failing_fsync()
    assert main(["report", str(results), "--run-dir", str(run_dir),
                 "--set", "eval.batch_size=7"]) == 3
    assert capsys.readouterr().err.startswith("DATA/disk full")
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
