"""Pretraining, continued pretraining, and classification fine-tuning loops.

Batches are a pure function of the global step (epoch = step // batches
per epoch, batch index = remainder), and the optimizer step counter lives
in the ParameterStore, so a run interrupted by save/load resumes bitwise
identically to an uninterrupted one. Continued (domain-adaptive)
pretraining is the same loop started from a loaded checkpoint.
"""

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import evaluation
from ._files import atomic_write
from .benchmarks import LabeledDataset
from .encoder import (
    EncodedBatch,
    ModelConfig,
    backward_hidden,
    cls_head,
    cls_head_backward,
    forward_hidden,
    init_classifier,
    mlm_head,
    mlm_head_backward,
)
from .errors import ConfigError, DataError, NonFiniteError
from .masking import MASKING_MODES, MASK_RATIO, build_batch, build_epoch_batches
from .numerics import ParameterStore, adam_step
from .numerics.ops import IGNORE_ID, cross_entropy, cross_entropy_backward
# `encode` is unused here, but perfbench/tracing.py looks it up in this module.
from .tokenizer import TokenSequence, Vocab, encode

# Offset mixed into the seed tuple for validation masking so validation
# masks never coincide with training masks for the same sequence index.
_VAL_SEED_OFFSET = 1_000_003
_DROPOUT_SEED_OFFSET = 7_777_777


@dataclass
class TrainConfig:
    batch_size: int = 16
    max_steps: int = 1000
    eval_every: int = 1000
    lr_encoder: float = 1e-5
    lr_head: float = 3e-5
    seed: int = 0
    masking_mode: str = "dynamic"
    mask_ratio: float = MASK_RATIO
    epochs: int = 10

    def __post_init__(self):
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # lr 0 is allowed: it freezes a group bitwise (e.g. frozen encoder).
        for name in ("lr_encoder", "lr_head"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {lr}")
        if self.masking_mode not in MASKING_MODES:
            raise ConfigError(f"masking_mode must be one of {MASKING_MODES}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PretrainResult:
    params: ParameterStore
    log: list[dict]
    best_params: ParameterStore | None = None
    best_step: int | None = None
    best_val_loss: float | None = None


@dataclass
class FinetuneResult:
    params: ParameterStore          # the best-validation-F1 snapshot
    final_params: ParameterStore
    log: list[dict]
    best_epoch: int
    best_val_f1: float


def write_log(log: list[dict], path) -> None:
    """JSONL, one record per event. No timestamps: logs must be bit-stable."""
    with atomic_write(path) as fh:
        for rec in log:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --- loss plumbing ------------------------------------------------------------
#
# One path for both heads: the MLM head reads only the labelled positions
# (~15 % of a batch; the rest carry no gradient), the classifier row 0.


def _head_loss(params, config, enc: EncodedBatch, rows, targets, head,
               head_backward=None, training=False, rng=None) -> float:
    """Cross-entropy of `head` on the flat hidden `rows`. Given
    `head_backward`, also scatters the head's input gradient into a zero
    gradient and runs the encoder backward."""
    backward = head_backward is not None
    hidden, cache = forward_hidden(params, config, enc, training=training, rng=rng,
                                   want_cache=backward)
    flat = hidden.reshape(-1, hidden.shape[-1])
    logits, hcache = head(params, flat[rows], want_cache=backward)
    loss, ce_cache = cross_entropy(logits, targets, IGNORE_ID)
    if backward:
        dflat = np.zeros_like(flat)
        dflat[rows] = head_backward(params, hcache, cross_entropy_backward(ce_cache))
        backward_hidden(params, config, cache, dflat.reshape(hidden.shape))
    return loss


def _labelled_rows(labels: np.ndarray):
    """(flat position, target) pairs of the labelled positions, row-major."""
    flat = labels.reshape(-1)
    pos = np.flatnonzero(flat != IGNORE_ID)
    return pos, flat[pos]


def _cls_rows(batch: EncodedBatch) -> np.ndarray:
    """Flat index of each sequence's first ([CLS]) position."""
    return np.arange(batch.ids.shape[0]) * batch.ids.shape[1]


def mlm_loss(params, config, batch) -> float:
    """Forward-only MLM loss (eval mode); used by gradient-check probes."""
    rows, targets = _labelled_rows(batch.labels)
    return _head_loss(params, config, batch.encoded(), rows, targets, mlm_head)


def mlm_loss_and_backward(params, config, batch, training=True, rng=None) -> float:
    rows, targets = _labelled_rows(batch.labels)
    return _head_loss(params, config, batch.encoded(), rows, targets, mlm_head,
                      mlm_head_backward, training, rng)


def mlm_eval_loss(params, config, batches) -> float:
    """Per-position mean MLM loss over a batch stream, eval mode."""
    total = 0.0
    n = 0
    for batch in batches:
        rows, targets = _labelled_rows(batch.labels)
        total += _head_loss(params, config, batch.encoded(), rows, targets, mlm_head) * rows.size
        n += rows.size
    if n == 0:
        raise DataError("no labeled positions in evaluation stream")
    return total / n


def cls_loss(params, config, batch: EncodedBatch, targets) -> float:
    """Forward-only classification loss (eval mode)."""
    return _head_loss(params, config, batch, _cls_rows(batch), targets, cls_head)


def cls_loss_and_backward(params, config, batch: EncodedBatch, targets,
                          training=True, rng=None) -> float:
    return _head_loss(params, config, batch, _cls_rows(batch), targets, cls_head,
                      cls_head_backward, training, rng)


def _dropout_rng(config: ModelConfig, cfg: TrainConfig, step: int):
    if config.dropout > 0.0:
        return np.random.default_rng((cfg.seed, _DROPOUT_SEED_OFFSET, step))
    return None


def pretrain(
    corpus_ids: Sequence[TokenSequence],
    params: ParameterStore,
    config: ModelConfig,
    cfg: TrainConfig,
    val_corpus_ids: Sequence[TokenSequence] | None = None,
) -> PretrainResult:
    """Run Adam on the MLM objective until params.step_count == cfg.max_steps.

    A loaded checkpoint continues from its persisted step counter; passing a
    fresh store trains from scratch. Validation (when a validation corpus is
    given) runs every eval_every steps on a fixed statically-masked stream,
    and the best-validation snapshot is retained.
    """
    if not corpus_ids:
        raise DataError("pretraining corpus is empty")
    if params.step_count >= cfg.max_steps:
        raise ConfigError(
            f"checkpoint already at step {params.step_count} >= max_steps {cfg.max_steps}"
        )
    max_len = config.max_positions
    batches_per_epoch = math.ceil(len(corpus_ids) / cfg.batch_size)

    log: list[dict] = []
    best_params = None
    best_step = None
    best_val = None

    def validation_loss() -> float:
        stream = build_epoch_batches(
            val_corpus_ids, "static", 0, cfg.seed + _VAL_SEED_OFFSET,
            cfg.batch_size, max_len, config.vocab_size, cfg.mask_ratio,
        )
        return mlm_eval_loss(params, config, stream)

    while params.step_count < cfg.max_steps:
        step = params.step_count
        epoch, bidx = divmod(step, batches_per_epoch)
        lo = bidx * cfg.batch_size
        indices = range(lo, min(lo + cfg.batch_size, len(corpus_ids)))
        batch = build_batch(
            corpus_ids, indices, cfg.masking_mode, epoch, cfg.seed,
            config.vocab_size, max_len, cfg.mask_ratio,
        )
        try:
            loss = mlm_loss_and_backward(
                params, config, batch, training=True,
                rng=_dropout_rng(config, cfg, step),
            )
        except NonFiniteError as exc:
            raise NonFiniteError(f"aborting at step {step}: {exc}") from exc
        adam_step(params, {"*": cfg.lr_encoder})
        log.append({"step": params.step_count, "split": "train",
                    "metric": "mlm_loss", "value": loss})
        if val_corpus_ids and params.step_count % cfg.eval_every == 0:
            vloss = validation_loss()
            log.append({"step": params.step_count, "split": "validation",
                        "metric": "mlm_loss", "value": vloss})
            if best_val is None or vloss < best_val:
                best_val = vloss
                best_step = params.step_count
                best_params = params.clone()
    return PretrainResult(params, log, best_params, best_step, best_val)


# --- fine-tuning ----------------------------------------------------------------


def _finetune_groups(params: ParameterStore, cfg: TrainConfig) -> dict[str, float]:
    groups = {"cls.*": cfg.lr_head, "encoder.*": cfg.lr_encoder}
    if any(n.startswith("mlm.") for n in params.names()):
        groups["mlm.*"] = cfg.lr_encoder
    return groups


def finetune(
    dataset: LabeledDataset,
    params: ParameterStore,
    config: ModelConfig,
    cfg: TrainConfig,
    vocab: Vocab,
    head_seed: int | None = None,
) -> FinetuneResult:
    """Cross-entropy fine-tuning with two Adam groups: encoder tensors at
    lr_encoder, classifier head at lr_head. Validation recall/F1 (weighted)
    are logged each epoch; the best-F1 epoch snapshot is returned.

    A classifier head is attached (deterministically from the seed) when the
    store does not already carry one.
    """
    n_classes = dataset.n_classes()
    if "cls.out.b" not in params:
        init_classifier(params, config, n_classes, head_seed if head_seed is not None else cfg.seed)
    else:
        have = int(params["cls.out.b"].value.shape[0])
        if have != n_classes:
            raise ConfigError(
                f"classifier head has {have} classes but dataset {dataset.name!r} has {n_classes}"
            )
    max_len = config.max_positions
    train_seqs, train_labels = evaluation.encode_split(dataset, "train", vocab, max_len)
    if not train_seqs:
        raise DataError(f"dataset {dataset.name!r} has an empty train split")
    val_seqs, val_labels = evaluation.encode_split(dataset, "validation", vocab, max_len)
    if not val_seqs:
        raise DataError(f"dataset {dataset.name!r} has no examples in split 'validation'")
    groups = _finetune_groups(params, cfg)
    if cfg.epochs > 0:
        # Fresh optimizer for the downstream task: pretraining moments and the
        # step counter (which drives bias correction) do not carry over.
        params.step_count = 0
        for _, p in params.items():
            p.adam_m[...] = 0
            p.adam_v[...] = 0

    log: list[dict] = []
    best_params = params.clone()
    best_epoch = 0
    best_f1 = -1.0

    def epoch_metrics(epoch: int):
        nonlocal best_params, best_epoch, best_f1
        table = evaluation.confusion_table(params, config, val_seqs, val_labels, n_classes)
        m = evaluation.compute_metrics(table, "weighted")
        log.append({"epoch": epoch, "split": "validation", "metric": "recall_weighted",
                    "value": m.recall})
        log.append({"epoch": epoch, "split": "validation", "metric": "f1_weighted",
                    "value": m.f1})
        if m.f1 > best_f1:
            best_f1 = m.f1
            best_epoch = epoch
            best_params = params.clone()

    epoch_metrics(0)
    n = len(train_seqs)
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        for lo in range(0, n, cfg.batch_size):
            hi = min(lo + cfg.batch_size, n)
            batch = EncodedBatch.from_sequences(train_seqs[lo:hi])
            targets = train_labels[lo:hi]
            try:
                loss = cls_loss_and_backward(
                    params, config, batch, targets, training=True,
                    rng=_dropout_rng(config, cfg, step),
                )
            except NonFiniteError as exc:
                raise NonFiniteError(f"aborting at epoch {epoch}: {exc}") from exc
            adam_step(params, groups)
            step += 1
            log.append({"epoch": epoch, "split": "train", "metric": "cls_loss",
                        "value": loss})
        epoch_metrics(epoch)
    return FinetuneResult(best_params, params, log, best_epoch, best_f1)
