"""MLM batch construction under static or dynamic masking.

Each sequence's mask RNG derives from a seed tuple: (seed, sequence index)
in static mode, so masks repeat every epoch, or (seed, sequence index,
epoch) in dynamic mode, so they vary. No masks are stored; the derivation
makes the whole epoch stream a pure function of its arguments.
"""

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .encoder import EncodedBatch
from .errors import ConfigError, DataError
from .numerics.ops import IGNORE_ID
from .tokenizer import MASK_ID, N_SPECIALS, SEP_ID

MASK_RATIO = 0.15
MASK_FRAC = 0.8    # replace with [MASK]
RANDOM_FRAC = 0.1  # replace with a uniform random non-special token; rest kept

MASKING_MODES = ("static", "dynamic")


@dataclass
class MaskedBatch:
    """Inputs plus MLM labels: original ids at selected positions,
    IGNORE_ID everywhere else (including all pads and specials)."""

    input_ids: np.ndarray
    attention_mask: np.ndarray
    segment_ids: np.ndarray
    labels: np.ndarray

    def encoded(self) -> EncodedBatch:
        return EncodedBatch(self.input_ids, self.attention_mask, self.segment_ids)


def mask_sequence(
    seq: Sequence[int],
    vocab_size: int,
    rng: np.random.Generator,
    ratio: float = MASK_RATIO,
):
    """Select round(ratio * n_maskable) positions (minimum 1) uniformly
    without replacement among non-special tokens; apply the fixed
    MASK_FRAC/RANDOM_FRAC/keep replacement mix. Returns (input_ids, labels)."""
    if vocab_size <= N_SPECIALS:
        raise ConfigError(f"vocab_size {vocab_size} leaves no non-special tokens")
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"mask ratio must be in (0, 1], got {ratio}")

    ids = np.asarray(seq, dtype=np.int64)
    maskable = np.nonzero(ids >= N_SPECIALS)[0]
    if maskable.size == 0:
        raise DataError("sequence has no maskable (non-special) tokens")
    n_sel = max(1, round(ratio * maskable.size))
    selected = rng.choice(maskable, size=n_sel, replace=False)

    input_ids = ids.copy()
    labels = np.full_like(ids, IGNORE_ID)
    for pos in selected:
        labels[pos] = ids[pos]
        u = rng.random()
        if u < MASK_FRAC:
            input_ids[pos] = MASK_ID
        elif u < MASK_FRAC + RANDOM_FRAC:
            input_ids[pos] = rng.integers(N_SPECIALS, vocab_size)
        # else: keep the original token
    return input_ids, labels


def _sequence_rng(seed: int, index: int, epoch: int, mode: str) -> np.random.Generator:
    if mode == "static":
        return np.random.default_rng((seed, index))
    if mode == "dynamic":
        return np.random.default_rng((seed, index, epoch))
    raise ConfigError(f"masking mode must be one of {MASKING_MODES}, got {mode!r}")


def _truncate(seq: Sequence[int], max_len: int) -> list[int]:
    s = list(seq)
    if len(s) <= max_len:
        return s
    return s[: max_len - 1] + [SEP_ID]


def check_maskable(corpus_ids: Sequence[Sequence[int]], max_len: int, corpus: str) -> None:
    """Raises DataError naming the first sequence with no token to mask once
    truncated to max_len as `build_batch` truncates it."""
    for i, seq in enumerate(corpus_ids):
        if max(_truncate(seq, max_len), default=0) < N_SPECIALS:
            raise DataError(f"{corpus} sequence {i} (from 0) has no maskable "
                            "(non-special) tokens")


def build_batch(
    corpus_ids: Sequence[Sequence[int]],
    indices: Sequence[int],
    mode: str,
    epoch: int,
    seed: int,
    vocab_size: int,
    max_len: int,
    ratio: float = MASK_RATIO,
) -> MaskedBatch:
    """Mask and pad the sequences at `indices` into one batch. Pure in
    (seed, mode, epoch, indices), so batch construction can be parallelized
    or resumed mid-run with identical results."""
    if len(indices) == 0:
        raise DataError("cannot build an empty batch")
    masked = []
    for i in indices:
        rng = _sequence_rng(seed, int(i), epoch, mode)
        seq = _truncate(corpus_ids[i], max_len)
        masked.append(mask_sequence(seq, vocab_size, rng, ratio))
    enc = EncodedBatch.from_sequences([ids for ids, _ in masked])
    labels = np.full(enc.ids.shape, IGNORE_ID, dtype=np.int64)
    for row, (_, labs) in enumerate(masked):
        labels[row, : labs.size] = labs
    return MaskedBatch(enc.ids, enc.attention_mask, enc.segment_ids, labels)


def build_epoch_batches(
    corpus_ids: Sequence[Sequence[int]],
    mode: str,
    epoch: int,
    seed: int,
    batch_size: int,
    max_len: int,
    vocab_size: int,
    ratio: float = MASK_RATIO,
) -> Iterator[MaskedBatch]:
    """Stream one epoch of masked batches in corpus order."""
    if not corpus_ids:
        raise DataError("cannot build batches from an empty corpus")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if mode not in MASKING_MODES:
        raise ConfigError(f"masking mode must be one of {MASKING_MODES}, got {mode!r}")
    n = len(corpus_ids)
    for start in range(0, n, batch_size):
        indices = range(start, min(start + batch_size, n))
        yield build_batch(corpus_ids, indices, mode, epoch, seed, vocab_size, max_len, ratio)
