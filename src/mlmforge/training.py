"""Pretraining, continued pretraining, and classification fine-tuning loops.

Batches are a pure function of the global step (epoch = step // batches
per epoch, batch index = remainder), and the optimizer step counter lives
in the ParameterStore, so a run interrupted by save/load resumes bitwise
identically to an uninterrupted one. Continued (domain-adaptive)
pretraining is the same loop started from a loaded checkpoint.

A training step runs its ops with their output checks off and then checks
the loss and every gradient once. A non-finite value replays the step
with the checks on, under the same dropout masks, so the op that made it
raises; see `_checked_step`. Validation and evaluation stay checked.

A loop that validates keeps one best-validation snapshot: the values, Adam
moments and step count, copied into the same buffers at every improvement. Its grads
are read-only zero views, so it costs three arrays a tensor, not four.
"""

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import evaluation
from ._files import atomic_write
from .benchmarks import LabeledDataset
from .encoder import (
    EncodedBatch,
    ModelConfig,
    backward_hidden,
    check_classifier,
    cls_head,
    cls_head_backward,
    forward_hidden,
    init_classifier,
    mlm_head,
    mlm_head_backward,
)
from .errors import ConfigError, DataError, NonFiniteError
from .masking import MASKING_MODES, MASK_RATIO, build_batch, build_epoch_batches, check_maskable
from .numerics import Param, ParameterStore, adam_step, ops
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
        # lr 0 is allowed: it freezes its tensors bitwise (e.g. frozen encoder).
        for name in ("lr_encoder", "lr_head"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {lr}")
        if self.masking_mode not in MASKING_MODES:
            raise ConfigError(f"masking_mode must be one of {MASKING_MODES}")
        if not 0.0 < self.mask_ratio <= 1.0:
            raise ConfigError(f"mask_ratio must be in (0, 1], got {self.mask_ratio}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


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
# (~15 % of a batch; the rest carry no gradient), the classifier row 0, and
# the encoder's last layer runs only on the rows the head reads.


def _head_loss(params, config, enc: EncodedBatch, rows, targets, head,
               head_backward=None, rng=None) -> float:
    """Cross-entropy of `head` on the last-layer states of the flat `rows`,
    with dropout when given an rng. Given `head_backward`, also runs the
    head and encoder backward. The loss takes the logits over as its cached
    log-probabilities, which the loss backward turns into their gradient in
    place, and the head's arrays go before the encoder backward, so one
    (rows, n_class) array serves the whole head and none outlives it."""
    backward = head_backward is not None
    hidden, cache = forward_hidden(params, config, enc, rows, rng=rng, want_cache=backward)
    logits, hcache = head(params, hidden)
    loss, ce_cache = cross_entropy(logits, targets)
    del logits  # now the cached log-probabilities
    if backward:
        d_hidden = head_backward(params, hcache, cross_entropy_backward(ce_cache))
        del hcache, ce_cache
        backward_hidden(params, config, cache, d_hidden)
    return loss


def _labelled_rows(labels: np.ndarray):
    """(flat position, target) pairs of the labelled positions, row-major."""
    flat = labels.reshape(-1)
    pos = np.flatnonzero(flat != IGNORE_ID)
    return pos, flat[pos]


def mlm_loss(params, config, batch) -> float:
    """Forward-only MLM loss (eval mode); used by gradient-check probes."""
    rows, targets = _labelled_rows(batch.labels)
    return _head_loss(params, config, batch.encoded(), rows, targets, mlm_head)


def mlm_loss_and_backward(params, config, batch, rng=None) -> float:
    """MLM loss, accumulating gradients; dropout runs when given an rng."""
    rows, targets = _labelled_rows(batch.labels)
    return _head_loss(params, config, batch.encoded(), rows, targets, mlm_head,
                      mlm_head_backward, rng)


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
    return _head_loss(params, config, batch, batch.cls_rows(), targets, cls_head)


def cls_loss_and_backward(params, config, batch: EncodedBatch, targets, rng=None) -> float:
    """Classification loss, accumulating gradients; dropout runs when given
    an rng."""
    return _head_loss(params, config, batch, batch.cls_rows(), targets, cls_head,
                      cls_head_backward, rng)


def _snapshot(params: ParameterStore, best: ParameterStore | None) -> ParameterStore:
    """`params`' values, Adam moments and step count, copied into the
    buffers of `best`, the previous snapshot, or into fresh ones when it is
    None. A snapshot's grads are read-only zero views, not buffers: it is
    saved or evaluated, never trained."""
    if best is None:
        best = ParameterStore()
        for name, p in params.items():
            zero = np.broadcast_to(np.zeros((), p.grad.dtype), p.grad.shape)
            best.entries[name] = Param(np.empty_like(p.value), zero, np.empty_like(p.adam_m),
                                       np.empty_like(p.adam_v))
    for name, p in params.items():
        kept = best[name]
        for dst, src in ((kept.value, p.value), (kept.adam_m, p.adam_m), (kept.adam_v, p.adam_v)):
            np.copyto(dst, src)
    best.step_count = params.step_count
    return best


def _dropout_rng(cfg: TrainConfig, step: int) -> np.random.Generator:
    """The step's dropout stream; unused when config.dropout is 0."""
    return np.random.default_rng((cfg.seed, _DROPOUT_SEED_OFFSET, step))


def _checked_step(params: ParameterStore, where: str, loss_and_backward,
                  rows: dict[str, np.ndarray] | None = None) -> float:
    """`loss_and_backward()` with the ops' output checks (and numpy's
    floating-point warnings) off, then one check of the loss and every
    gradient; of a tensor in `rows` (as for `adam_step`), only those rows,
    the others being +0. On a NaN or infinity the grads are zeroed and the
    step, which must draw the same dropout masks again, is replayed with the
    checks on, so the op that made the value raises; if none does, a
    backward op made it, and the first non-finite gradient is named."""
    with ops.unchecked(), np.errstate(all="ignore"):
        loss = loss_and_backward()
    rows = rows or {}
    grads = (p.grad[rows[name]] if name in rows else p.grad for name, p in params.items())
    if math.isfinite(loss) and all(np.isfinite(g).all() for g in grads):
        return loss
    params.zero_grads()
    try:
        loss_and_backward()
    except NonFiniteError as exc:
        raise NonFiniteError(f"aborting at {where}: {exc}") from exc
    bad = next(name for name, p in params.items() if not np.isfinite(p.grad).all())
    raise NonFiniteError(f"aborting at {where}: the gradient of {bad!r} holds non-finite "
                         "values")


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
    and the best-validation snapshot is retained. A sequence of either corpus
    with no token to mask is a DataError before the first step.
    """
    if not corpus_ids:
        raise DataError("pretraining corpus is empty")
    if params.step_count >= cfg.max_steps:
        raise ConfigError(
            f"checkpoint already at step {params.step_count} >= max_steps {cfg.max_steps}"
        )
    max_len = config.max_positions
    check_maskable(corpus_ids, max_len, "training")
    check_maskable(val_corpus_ids or (), max_len, "validation")
    batches_per_epoch = math.ceil(len(corpus_ids) / cfg.batch_size)
    # every tensor, a cls.* head carried by a continued checkpoint included
    lr = dict.fromkeys(params.names(), cfg.lr_encoder)

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
        loss = _checked_step(params, f"step {step}", lambda: mlm_loss_and_backward(
            params, config, batch, rng=_dropout_rng(cfg, step)))
        adam_step(params, lr)
        log.append({"step": params.step_count, "split": "train",
                    "metric": "mlm_loss", "value": loss})
        if val_corpus_ids and params.step_count % cfg.eval_every == 0:
            vloss = validation_loss()
            log.append({"step": params.step_count, "split": "validation",
                        "metric": "mlm_loss", "value": vloss})
            if best_val is None or vloss < best_val:
                best_val = vloss
                best_step = params.step_count
                best_params = _snapshot(params, best_params)
    return PretrainResult(params, log, best_params, best_step, best_val)


# --- fine-tuning ----------------------------------------------------------------


def finetune(
    dataset: LabeledDataset,
    params: ParameterStore,
    config: ModelConfig,
    cfg: TrainConfig,
    vocab: Vocab,
) -> FinetuneResult:
    """Cross-entropy fine-tuning: Adam moves the classifier head (`cls.*`)
    at lr_head and every other tensor at lr_encoder. Validation recall/F1
    (weighted) are logged each epoch; the best-F1 epoch snapshot is returned.

    A classifier head is attached (deterministically from the seed) when the
    store does not already carry one. Every refusal (an empty split, a label
    outside the label map, a head of another class count) comes before it,
    so a refused call leaves the store as it was.
    """
    n_classes = dataset.n_classes()
    max_len = config.max_positions
    train_seqs, train_labels = evaluation.encode_split(dataset, "train", vocab, max_len)
    if not train_seqs:
        raise DataError(f"dataset {dataset.name!r} has an empty train split")
    val_seqs, val_labels = evaluation.encode_split(dataset, "validation", vocab, max_len)
    if not val_seqs:
        raise DataError(f"dataset {dataset.name!r} has no examples in split 'validation'")
    if "cls.out.b" in params:
        check_classifier(params, n_classes, f"dataset {dataset.name!r}")
    else:
        init_classifier(params, config, n_classes, cfg.seed)
    lr = {name: cfg.lr_head if name.startswith("cls.") else cfg.lr_encoder
          for name in params.names()}
    live_rows = None
    if cfg.epochs > 0:
        # Fresh optimizer for the downstream task: pretraining moments and the
        # step counter (which drives bias correction) do not carry over.
        params.step_count = 0
        for _, p in params.items():
            p.adam_m[...] = 0
            p.adam_v[...] = 0
        # From here on only the train split's tokens give tok_emb a gradient
        # (the loss reads no MLM head), so Adam skips its other rows.
        live_rows = {"encoder.tok_emb": np.unique(np.concatenate(train_seqs))}

    log: list[dict] = []
    best_params = None  # epoch 0's F1 (>= 0) always beats -1, so it sets the snapshot
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
            best_params = _snapshot(params, best_params)

    epoch_metrics(0)
    n = len(train_seqs)
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        for lo in range(0, n, cfg.batch_size):
            hi = min(lo + cfg.batch_size, n)
            batch = EncodedBatch.from_sequences(train_seqs[lo:hi])
            targets = train_labels[lo:hi]
            loss = _checked_step(params, f"epoch {epoch}", lambda: cls_loss_and_backward(
                params, config, batch, targets, rng=_dropout_rng(cfg, step)), live_rows)
            adam_step(params, lr, live_rows)
            step += 1
            log.append({"epoch": epoch, "split": "train", "metric": "cls_loss",
                        "value": loss})
        epoch_metrics(epoch)
    return FinetuneResult(best_params, params, log, best_epoch, best_f1)
