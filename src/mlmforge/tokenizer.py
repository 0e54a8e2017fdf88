"""Uncased WordPiece vocabulary: training and encoding.

The trainer is the simplified pair-scoring variant: starting from single
characters (word-initial plus "##" continuations), it repeatedly merges the
adjacent symbol pair maximizing freq(ab) / (freq(a) * freq(b)), ties broken
by lexicographically smallest pair. Scores are compared with exact integer
cross-multiplication so training is fully deterministic.
"""

import hashlib
import unicodedata
from collections import Counter, defaultdict

from ._files import atomic_write, open_text
from .corpus import SentenceCorpus
from .errors import ConfigError, DataError

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
N_SPECIALS = len(SPECIAL_TOKENS)

_MAX_WORD_CHARS = 100
# Distinct words a Vocab keeps the pieces of; at ~137 B an entry, ~4.5 MB.
_MEMO_WORDS = 1 << 15

TokenSequence = list[int]


class Vocab:
    """Ordered token list; line number in the vocab file is the token id.

    `encode` keeps each pretokenized word's piece ids in `_pieces`, for the
    first `_MEMO_WORDS` distinct words it sees; a new Vocab starts empty.
    """

    __slots__ = ("tokens", "id_of", "_pieces")

    def __init__(self, tokens):
        tokens = list(tokens)
        if tokens[:N_SPECIALS] != list(SPECIAL_TOKENS):
            raise ConfigError("vocabulary must start with the five special tokens")
        if len(set(tokens)) != len(tokens):
            raise ConfigError("vocabulary contains duplicate tokens")
        for t in tokens:
            # split() drops whitespace (the same code points as isspace())
            # and turns "" into [], so only a non-empty, space-free t passes.
            if t.split() != [t]:
                raise ConfigError(f"invalid vocabulary token: {t!r}")
        self.tokens = tokens
        self.id_of = {t: i for i, t in enumerate(tokens)}
        self._pieces: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def serialize(self) -> str:
        return "\n".join(self.tokens) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path) -> "Vocab":
        with open_text(path, "vocabulary") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        try:
            return cls(lines)
        except ConfigError as exc:  # a bad file is bad input data, not a bad setting
            raise DataError(f"{fh.name}: {exc}") from exc


def _is_punct(ch: str) -> bool:
    cp = ord(ch)
    if 33 <= cp <= 47 or 58 <= cp <= 64 or 91 <= cp <= 96 or 123 <= cp <= 126:
        return True
    return unicodedata.category(ch).startswith("P")


def _drop_mark_split_punct(ch: str) -> str | None:
    # No punctuation character is a combining mark.
    if _is_punct(ch):
        return f" {ch} "
    return None if unicodedata.category(ch) == "Mn" else ch


class _CharTable(dict):
    """A `str.translate` table applying `rule` to each character, filled on
    first sight of each code point.

    `rule(ch)` returns None to delete ch, or its replacement string. Code
    points 0-255 are prefilled. Above them only the characters that change
    are stored, so the table stays at a few thousand entries however many
    distinct characters the input holds; any other character is looked up
    again each time it is seen.
    """

    __slots__ = ("_rule",)

    def __init__(self, rule):
        super().__init__((cp, rule(chr(cp))) for cp in range(256))
        self._rule = rule

    def __missing__(self, cp: int) -> str | None:
        ch = chr(cp)
        out = self._rule(ch)
        if out != ch:
            self[cp] = out
        return out


_MARKS_AND_PUNCT = _CharTable(_drop_mark_split_punct)


def pretokenize(text: str) -> list[str]:
    """Normalize, split on whitespace, split punctuation chars into own tokens."""
    return unicodedata.normalize("NFD", text.lower()).translate(_MARKS_AND_PUNCT).split()


def _initial_symbols(word: str) -> list[str]:
    return [word[0], *("##" + c for c in word[1:])]


def _apply_merge(syms: list[str], a: str, b: str, merged: str) -> list[str]:
    out: list[str] = []
    i = 0
    n = len(syms)
    while i < n:
        if i + 1 < n and syms[i] == a and syms[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def train_vocab(corpus: SentenceCorpus, target_size: int = 8192, min_freq: int = 2) -> Vocab:
    """Train a WordPiece vocabulary of at most target_size tokens.

    The result holds the five specials, every character symbol seen at least
    min_freq times, then merge tokens in merge order. Merges also require
    pair frequency >= min_freq.
    """
    if min_freq < 1:
        raise ConfigError(f"min_freq must be >= 1, got {min_freq}")
    if not corpus.sentences:
        raise DataError("cannot train a vocabulary on an empty corpus")

    word_freq: Counter = Counter()
    for sent in corpus.sentences:
        word_freq.update(pretokenize(sent))
    if not word_freq:
        raise DataError("corpus contains no tokenizable words")

    seqs: dict[str, list[str]] = {}
    sym_freq: Counter = Counter()
    for w, f in word_freq.items():
        syms = _initial_symbols(w)
        seqs[w] = syms
        for s in syms:
            sym_freq[s] += f

    alphabet = sorted(s for s, c in sym_freq.items() if c >= min_freq)
    n_base = N_SPECIALS + len(alphabet)
    if target_size < n_base:
        raise ConfigError(
            f"target_size={target_size} cannot hold the specials plus the "
            f"corpus alphabet ({n_base} tokens)"
        )

    tokens = [*SPECIAL_TOKENS, *alphabet]
    known = set(tokens)

    # Adjacency counts maintained incrementally across merges.
    pair_freq: Counter = Counter()
    pair_words: dict[tuple[str, str], set[str]] = defaultdict(set)
    for w, f in word_freq.items():
        syms = seqs[w]
        for pair in zip(syms, syms[1:]):
            pair_freq[pair] += f
            pair_words[pair].add(w)

    while len(tokens) < target_size and pair_freq:
        best_pair = None
        best_fab = best_fa = best_fb = 0
        for pair, fab in pair_freq.items():
            if fab < min_freq:
                continue
            a, b = pair
            if a not in known or b not in known:
                continue
            fa, fb = sym_freq[a], sym_freq[b]
            if best_pair is None:
                best_pair, best_fab, best_fa, best_fb = pair, fab, fa, fb
                continue
            # fab/(fa*fb) > best_fab/(best_fa*best_fb), compared exactly.
            lhs = fab * best_fa * best_fb
            rhs = best_fab * fa * fb
            if lhs > rhs or (lhs == rhs and pair < best_pair):
                best_pair, best_fab, best_fa, best_fb = pair, fab, fa, fb
        if best_pair is None:
            break
        a, b = best_pair
        merged = a + b[2:]
        if merged in known:
            # Cannot occur with fresh merges; guard against a stuck loop.
            del pair_freq[best_pair]
            continue
        tokens.append(merged)
        known.add(merged)

        for w in list(pair_words[best_pair]):
            f = word_freq[w]
            old = seqs[w]
            for p in zip(old, old[1:]):
                pair_freq[p] -= f
                if pair_freq[p] <= 0:
                    del pair_freq[p]
                pair_words[p].discard(w)
            for s in old:
                sym_freq[s] -= f
            new = _apply_merge(old, a, b, merged)
            seqs[w] = new
            for s in new:
                sym_freq[s] += f
            for p in zip(new, new[1:]):
                pair_freq[p] += f
                pair_words[p].add(w)

    return Vocab(tokens)


def _wordpiece_ids(vocab: Vocab, word: str) -> tuple[int, ...]:
    """Greedy longest-prefix decomposition; no full decomposition -> [UNK]."""
    if len(word) > _MAX_WORD_CHARS:
        return (UNK_ID,)
    pieces: list[int] = []
    start = 0
    n = len(word)
    while start < n:
        end = n
        match = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            tid = vocab.id_of.get(sub)
            if tid is not None:
                match = tid
                break
            end -= 1
        if match is None:
            return (UNK_ID,)
        pieces.append(match)
        start = end
    return tuple(pieces)


def encode(vocab: Vocab, text: str, max_len: int) -> TokenSequence:
    """[CLS] pieces... [SEP], truncated to max_len keeping [SEP] last."""
    if max_len < 2:
        raise ConfigError(f"max_len must be at least 2, got {max_len}")
    ids: list[int] = [CLS_ID]
    memo = vocab._pieces
    for word in pretokenize(text):
        pieces = memo.get(word)
        if pieces is None:
            pieces = _wordpiece_ids(vocab, word)
            if len(memo) < _MEMO_WORDS:
                memo[word] = pieces
        ids.extend(pieces)
    ids = ids[: max_len - 1]
    ids.append(SEP_ID)
    return ids
