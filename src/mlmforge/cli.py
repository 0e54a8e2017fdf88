"""Command-line entry point: corpus prep, vocab training, (continued)
pretraining, fine-tuning, evaluation, and report rendering.

Every command works inside a `RunDir` (ckpt/, logs/, results/) guarded by a
lock file. Its config.json, written only when the command succeeds,
reproduces the outputs bit-for-bit; a failed command leaves no directory
it created. Errors exit nonzero with a single-line, machine-parsable
message prefixed by its category (CONFIG/, DATA/, CKPT/, NUMERIC/,
INTERNAL/). Commands run with numpy's floating-point warnings silenced:
a non-finite value is reported once, by the op check that catches it (in
evaluation, validation, or the replay of a training step whose loss or
gradients were not finite) or, for a backward op, by the step's gradient
check.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import benchmarks, corpus, evaluation, tokenizer
from ._files import JSON_ERRORS, atomic_write, read_json_object
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import ModelConfig, init_params
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DeterminismError,
    ForgeError,
    NonFiniteError,
    ShapeError,
)
from .training import TrainConfig, finetune, pretrain, write_log


def _field_defaults(prefix: str, cls, skip: tuple[str, ...] = ()) -> dict[str, object]:
    return {f"{prefix}.{f.name}": f.default for f in fields(cls) if f.name not in skip}


# model.*, train.* and split.* come from the config dataclasses' own defaults;
# the model's vocab_size comes from the vocabulary file instead.
CONFIG_DEFAULTS: dict[str, object] = {
    "corpus.dedup": True,
    "vocab.target_size": 8192,
    "vocab.min_freq": 2,
    **_field_defaults("model", ModelConfig, skip=("vocab_size",)),
    **_field_defaults("train", TrainConfig),
    **_field_defaults("split", benchmarks.SplitSpec),
    "eval.batch_size": 32,
    "eval.aggregation": "weighted",
}


def _coerce(key: str, raw: object) -> object:
    default = CONFIG_DEFAULTS[key]
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, str) and raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        raise ConfigError(f"config key {key} expects a boolean, got {raw!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise ConfigError(f"config key {key} expects an integer, got {raw!r}")
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key} expects an integer, got {raw!r}") from None
    if isinstance(default, float):
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise ConfigError(f"config key {key} expects a number, got {raw!r}")
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key} expects a number, got {raw!r}") from None
    return str(raw)


def build_run_config(config_path: str | None, overrides: list[str]) -> dict:
    """Defaults, then a JSON file of flat dotted keys, then --set overrides.
    Unknown keys are configuration errors."""
    cfg = dict(CONFIG_DEFAULTS)
    if config_path:
        for key, value in read_json_object(config_path, "config", ConfigError).items():
            if key not in CONFIG_DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
            cfg[key] = _coerce(key, value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        try:
            value = json.loads(raw)
        except JSON_ERRORS:
            value = raw
        cfg[key] = _coerce(key, value)
    return cfg


def _section(cfg: dict, prefix: str) -> dict:
    """The `prefix.*` keys of a run config, with the prefix stripped."""
    head = prefix + "."
    return {key[len(head):]: value for key, value in cfg.items() if key.startswith(head)}


def model_config_from(cfg: dict, vocab_size: int) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, **_section(cfg, "model"))


def train_config_from(cfg: dict) -> TrainConfig:
    return TrainConfig(**_section(cfg, "train"))


class RunDir:
    """Run directory with the fixed layout and a concurrency lock. It writes
    config.json (`cfg`) only when its block ends without an error; when the
    block raises, it removes the directories it created, leaf first, while
    they are empty, so it never removes a file."""

    def __init__(self, path, cfg: dict):
        self.path = Path(path)
        self._cfg = cfg
        self._lock = self.path / ".lock"
        self._created: list[Path] = []  # leaf first

    def __enter__(self) -> "RunDir":
        d = self.path
        while not d.exists():
            self._created.append(d)
            d = d.parent
        self.path.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self._lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"run directory {self.path} is locked by another run "
                f"(remove {self._lock} if stale)"
            ) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()) + "\n")
        return self

    def __exit__(self, exc_type, *exc):
        try:
            if exc_type is None:
                with atomic_write(self.path / "config.json") as fh:
                    fh.write(json.dumps(self._cfg, sort_keys=True, indent=2) + "\n")
        finally:
            self._lock.unlink(missing_ok=True)
            if exc_type is not None:
                for d in self._created:
                    try:
                        d.rmdir()  # fails on a directory that holds a file
                    except OSError:
                        pass
        return False

    def subdir(self, name: str) -> Path:
        d = self.path / name
        if not d.exists():
            d.mkdir()
            self._created.insert(0, d)
        return d


def _load_model(args):
    """(vocab, params, model config, manifest) from --vocab and a --from
    checkpoint trained with it."""
    vocab = tokenizer.Vocab.load(args.vocab)
    params, manifest = load_checkpoint(args.from_ckpt, expected_vocab_hash=vocab.content_hash())
    return vocab, params, ModelConfig(**manifest["model_config"]), manifest


def _encode_corpus(vocab, sentences, max_len):
    return [tokenizer.encode(vocab, s, max_len) for s in sentences]


def _with_validation(dataset, cfg: dict):
    """The dataset itself if its manifest has a validation split; otherwise
    one held out of train by the run's split.* settings."""
    if dataset.splits.get("validation"):
        return dataset
    return benchmarks.holdout_split(dataset, benchmarks.SplitSpec(**_section(cfg, "split")))


# --- commands -------------------------------------------------------------------


def cmd_prep_corpus(args, cfg) -> None:
    warnings: list[str] = []
    built = corpus.segment(corpus.ingest(args.input, warnings=warnings),
                           dedup=cfg["corpus.dedup"])
    with RunDir(args.run_dir, cfg) as run:
        corpus.write_sentences(built, run.path / "corpus.txt")
        stats = asdict(built.stats)
        stats["n_malformed_lines"] = len(warnings)
        with atomic_write(run.path / "stats.json") as fh:
            fh.write(json.dumps(stats, sort_keys=True, indent=2) + "\n")
        print(f"wrote {stats['n_sentences']} sentences to {run.path / 'corpus.txt'}")


def cmd_build_vocab(args, cfg) -> None:
    sentences = corpus.read_sentences(args.corpus)
    with RunDir(args.run_dir, cfg) as run:
        vocab = tokenizer.train_vocab(
            sentences, target_size=cfg["vocab.target_size"], min_freq=cfg["vocab.min_freq"]
        )
        vocab.save(run.path / "vocab.txt")
        print(f"wrote {len(vocab)} tokens to {run.path / 'vocab.txt'} "
              f"(hash {vocab.content_hash()[:12]})")


def _run_pretrain(args, cfg, vocab, config, params=None) -> None:
    """Pretrain `params`, or fresh ones when None, on --corpus."""
    train_cfg = train_config_from(cfg)
    sentences = corpus.read_sentences(args.corpus)
    val_sentences = corpus.read_sentences(args.val_corpus) if args.val_corpus else None
    with RunDir(args.run_dir, cfg) as run:
        if params is None:
            params = init_params(config, train_cfg.seed)
        corpus_ids = _encode_corpus(vocab, sentences.sentences, config.max_positions)
        val_ids = (None if val_sentences is None
                   else _encode_corpus(vocab, val_sentences.sentences, config.max_positions))
        result = pretrain(corpus_ids, params, config, train_cfg, val_ids)
        ckpt_dir = run.subdir("ckpt")
        logs_dir = run.subdir("logs")
        vocab_hash = vocab.content_hash()
        save_checkpoint(result.params, config, ckpt_dir / "last.ckpt", vocab_hash)
        if result.best_params is not None:
            save_checkpoint(result.best_params, config, ckpt_dir / "best.ckpt", vocab_hash)
        else:  # an earlier run's best snapshot does not match this config.json
            (ckpt_dir / "best.ckpt").unlink(missing_ok=True)
        write_log(result.log, logs_dir / "pretrain.jsonl")
        last = result.log[-1]["value"] if result.log else float("nan")
        print(f"trained to step {result.params.step_count}, last train mlm_loss {last:.4f}")


def cmd_pretrain(args, cfg) -> None:
    vocab = tokenizer.Vocab.load(args.vocab)
    _run_pretrain(args, cfg, vocab, model_config_from(cfg, len(vocab)))


def cmd_continue_pretrain(args, cfg) -> None:
    vocab, params, config, _ = _load_model(args)
    _run_pretrain(args, cfg, vocab, config, params)


def cmd_finetune(args, cfg) -> None:
    train_cfg = train_config_from(cfg)
    vocab, params, config, _ = _load_model(args)
    dataset = benchmarks.load_manifest_dataset(args.dataset)
    dataset = _with_validation(dataset, cfg)
    with RunDir(args.run_dir, cfg) as run:
        result = finetune(dataset, params, config, train_cfg, vocab)
        ckpt_dir = run.subdir("ckpt")
        logs_dir = run.subdir("logs")
        extra = {
            "n_classes": dataset.n_classes(),
            "labels": sorted(dataset.label_map, key=dataset.label_map.get),
            "dataset": dataset.name,
        }
        save_checkpoint(result.params, config, ckpt_dir / "best.ckpt",
                        vocab.content_hash(), extra=extra)
        write_log(result.log, logs_dir / "finetune.jsonl")
        print(f"best validation f1 {result.best_val_f1:.2f} at epoch {result.best_epoch}")


def cmd_evaluate(args, cfg) -> None:
    evaluation.check_batch_size(cfg["eval.batch_size"])
    evaluation.check_aggregation(cfg["eval.aggregation"])
    vocab, params, config, manifest = _load_model(args)
    dataset = benchmarks.load_manifest_dataset(args.dataset)
    if args.split == "validation":
        dataset = _with_validation(dataset, cfg)
    labels = sorted(dataset.label_map, key=dataset.label_map.get)
    extra = manifest.get("extra")
    trained = extra.get("labels", labels) if isinstance(extra, dict) else labels
    if trained != labels:
        raise ConfigError(f"checkpoint head was trained on labels {trained}, but dataset "
                          f"{dataset.name!r} has {labels} (in class-index order)")
    try:
        table = evaluation.evaluate_model(params, config, dataset, args.split, vocab,
                                          batch_size=cfg["eval.batch_size"])
    except ConfigError as exc:  # the head does not fit: name its checkpoint
        raise ConfigError(f"{args.from_ckpt}: {exc}") from exc
    with RunDir(args.run_dir, cfg) as run:
        record = evaluation.results_record(
            args.model_name, dataset.name, args.split, table,
            aggregation=cfg["eval.aggregation"],
        )
        results_dir = run.subdir("results")
        safe = "".join(c if c.isalnum() or c in "-_." else "_"
                       for c in f"{args.model_name}__{dataset.name}__{args.split}")
        out = results_dir / f"{safe}.json"
        with atomic_write(out) as fh:
            fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
        print(f"{args.model_name} on {dataset.name}/{args.split}: "
              f"recall {record['recall']:.2f}, f1 {record['f1']:.2f} -> {out}")


_RESULTS_FIELDS = (("model", str), ("dataset", str), ("aggregation", str),
                   ("recall", float), ("f1", float))


def _read_results(path) -> dict:
    """One results file from `evaluate`, with the fields `report` reads."""
    rec = read_json_object(path, "results")
    for key, kind in _RESULTS_FIELDS:
        if key not in rec:
            raise DataError(f"{path}: results file missing field {key!r}")
        value = rec[key]
        if kind is str and not isinstance(value, str):
            raise DataError(f"{path}: results field {key!r} must be a string, got {value!r}")
        if kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise DataError(f"{path}: results field {key!r} must be a number, got {value!r}")
    return rec


def cmd_report(args, cfg) -> None:
    records = [_read_results(path) for path in args.results]
    aggs = {r["aggregation"] for r in records}
    if len(aggs) > 1:
        raise ConfigError(f"results mix aggregations {sorted(aggs)}; report needs one")
    report = evaluation.EvalReport(aggregation=aggs.pop())
    for r in records:
        report.add(r["model"], r["dataset"], r["recall"], r["f1"])
    with RunDir(args.run_dir, cfg) as run:
        md = evaluation.render_report(report, "markdown")
        js = evaluation.render_report(report, "json")
        for name, text in (("report.md", md), ("report.json", js)):
            with atomic_write(run.path / name) as fh:
                fh.write(text)
        print(f"wrote {run.path / 'report.md'}")


# --- argument parsing -------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run-dir", required=True, help="output directory for this run")
    p.add_argument("--config", help="JSON config file with flat dotted keys")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlmforge",
        description="Desk-scale MLM pretraining, domain-adaptive continuation, "
                    "fine-tuning, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep-corpus", help="clean and segment raw posts into sentences")
    p.add_argument("--input", required=True, help="JSONL posts file with a 'body' field")
    _add_common(p)
    p.set_defaults(func=cmd_prep_corpus)

    p = sub.add_parser("build-vocab", help="train a WordPiece vocabulary")
    p.add_argument("--corpus", required=True, help="sentence-per-line corpus file")
    _add_common(p)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("pretrain", help="MLM-pretrain a fresh encoder")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--val-corpus", help="held-out sentences for periodic evaluation")
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("continue-pretrain",
                       help="resume MLM pretraining from a checkpoint on a new corpus")
    p.add_argument("--from", dest="from_ckpt", required=True, metavar="CKPT")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--val-corpus")
    _add_common(p)
    p.set_defaults(func=cmd_continue_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on a labeled dataset")
    p.add_argument("--from", dest="from_ckpt", required=True, metavar="CKPT")
    p.add_argument("--dataset", required=True, help="dataset manifest JSON")
    p.add_argument("--vocab", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a fine-tuned checkpoint on a split")
    p.add_argument("--from", dest="from_ckpt", required=True, metavar="CKPT")
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--split", default="test", choices=("train", "validation", "test"))
    p.add_argument("--model-name", default="model")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="merge results files into a comparison table")
    p.add_argument("results", nargs="+", help="results JSON files from evaluate")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


_CATEGORIES = (
    (ConfigError, "CONFIG/", 2),
    (DataError, "DATA/", 3),
    (CheckpointError, "CKPT/", 4),
    (NonFiniteError, "NUMERIC/", 5),
    (ShapeError, "INTERNAL/", 6),
    (DeterminismError, "INTERNAL/", 6),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_run_config(args.config, args.overrides)
        with np.errstate(all="ignore"):
            args.func(args, cfg)
    except ForgeError as exc:
        msg = " ".join(str(exc).split())
        for klass, prefix, code in _CATEGORIES:
            if isinstance(exc, klass):
                print(f"{prefix}{msg}", file=sys.stderr)
                return code
        print(f"ERROR/{msg}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"DATA/{' '.join(str(exc).split())}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
