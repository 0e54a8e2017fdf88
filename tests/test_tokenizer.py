import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmforge import tokenizer
from mlmforge.corpus import CorpusStats, SentenceCorpus
from mlmforge.errors import ConfigError, DataError
from mlmforge.tokenizer import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocab,
    encode,
    pretokenize,
    train_vocab,
)


def corpus_of(*sentences):
    return SentenceCorpus(list(sentences), CorpusStats())


def manual_vocab(*tokens):
    return Vocab([*SPECIAL_TOKENS, *tokens])


def encode_vocab():
    return manual_vocab("rain", "sleep", "cafe", "##s", "don", "t", "'", ",", "?",
                        "wait", "what", "a", "##a", "e", "##e")


def decode(vocab, seq):
    """Drop the specials, fuse "##" continuations and join the words with
    single spaces: the inverse `encode` must have on in-vocabulary words."""
    words = []
    for tid in seq:
        if tid < len(SPECIAL_TOKENS):
            continue
        tok = vocab.tokens[tid]
        if tok.startswith("##") and words:
            words[-1] += tok[2:]
        else:
            words.append(tok.removeprefix("##"))
    return " ".join(words)


# The per-character loop that `pretokenize` ran before it became a
# `str.translate` table, kept as the reference it must match.
def reference_normalize(text):
    decomposed = unicodedata.normalize("NFD", text.lower())
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")


def reference_is_punct(ch):
    cp = ord(ch)
    if 33 <= cp <= 47 or 58 <= cp <= 64 or 91 <= cp <= 96 or 123 <= cp <= 126:
        return True
    return unicodedata.category(ch).startswith("P")


def reference_pretokenize(text):
    words = []
    for chunk in reference_normalize(text).split():
        buf = ""
        for ch in chunk:
            if reference_is_punct(ch):
                if buf:
                    words.append(buf)
                    buf = ""
                words.append(ch)
            else:
                buf += ch
        if buf:
            words.append(buf)
    return words


# The greedy longest-prefix loop that `encode` ran on every word before the
# vocabulary kept a memo of its pieces, kept as the reference: it reads
# nothing but `vocab.id_of`, so the memo cannot feed it.
def reference_wordpiece_ids(vocab, word):
    if len(word) > tokenizer._MAX_WORD_CHARS:
        return [UNK_ID]
    pieces = []
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
            return [UNK_ID]
        pieces.append(match)
        start = end
    return pieces


def reference_encode(vocab, text, max_len):
    ids = [CLS_ID]
    for word in reference_pretokenize(text):
        ids.extend(reference_wordpiece_ids(vocab, word))
    return ids[: max_len - 1] + [SEP_ID]


def code_point_chunks(size=4096):
    for lo in range(0, 0x110000, size):
        yield [chr(cp) for cp in range(lo, min(lo + size, 0x110000))]


ODD_SPACE = "\x1c\x1d\x1e\x1f\x85\u2028\u3000"
mixed_text = st.text(
    alphabet=st.one_of(
        st.characters(categories=["Mn", "Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po",
                                  "Zs", "Zl", "Zp", "Cc", "Lu", "Ll", "Lo", "Nd"]),
        st.sampled_from(ODD_SPACE + " \t\naZÉé,.'!?"),
    ),
    max_size=40,
)


class TestTrainVocab:
    def test_pair_scoring_hand_trace(self):
        # Word "aaab" (freq 3) as symbols: a ##a ##a ##b.
        # Round 1 scores: (a,##a)=3/(3*6), (##a,##a)=3/36, (##a,##b)=3/18.
        #   Tie between (a,##a) and (##a,##b) at 1/6 -> lexicographic pick
        #   ("##a","##b") -> merge "##ab".
        # Round 2: a ##a ##ab; (a,##a) and (##a,##ab) tie at 1/3 -> "##aab".
        # Round 3: a ##aab -> "aaab"; no pairs remain.
        vocab = train_vocab(corpus_of("aaab aaab aaab"), target_size=12, min_freq=1)
        assert vocab.tokens == [
            *SPECIAL_TOKENS, "##a", "##b", "a", "##ab", "##aab", "aaab",
        ]
        assert len(vocab) <= 12

    def test_exact_base_size_means_no_merges(self):
        corpus = corpus_of("ab ab", "ba")
        # alphabet: a, b, ##a, ##b -> base size 9
        vocab = train_vocab(corpus, target_size=9, min_freq=1)
        assert len(vocab) == 9
        assert all("##" == t[:2] or len(t) == 1 for t in vocab.tokens[5:])

    def test_empty_corpus_errors(self):
        with pytest.raises(DataError):
            train_vocab(corpus_of(), target_size=100)

    def test_target_too_small_errors(self):
        with pytest.raises(ConfigError):
            train_vocab(corpus_of("abcdef"), target_size=6, min_freq=1)

    def test_min_freq_drops_rare_chars(self):
        vocab = train_vocab(corpus_of("aa aa aa z"), target_size=64, min_freq=2)
        assert "z" not in vocab.id_of
        assert "a" in vocab.id_of

    @pytest.mark.parametrize("min_freq", [0, -1])
    def test_min_freq_below_one_errors(self, min_freq):
        with pytest.raises(ConfigError, match="min_freq"):
            train_vocab(corpus_of("aa aa aa"), target_size=64, min_freq=min_freq)

    def test_deterministic_byte_identical(self):
        sentences = ["the rain keeps falling.", "the sleep never came!", "rain again today."]
        v1 = train_vocab(corpus_of(*sentences), target_size=64, min_freq=1)
        v2 = train_vocab(corpus_of(*sentences), target_size=64, min_freq=1)
        assert v1.serialize() == v2.serialize()
        assert v1.content_hash() == v2.content_hash()


class TestEncode:
    def test_canonical_wordpiece_decomposition(self):
        vocab = manual_vocab("un", "##aff", "##able")
        ids = encode(vocab, "unaffable", max_len=16)
        assert ids == [CLS_ID, vocab.id_of["un"], vocab.id_of["##aff"],
                       vocab.id_of["##able"], SEP_ID]

    def test_uncased_normalization(self):
        vocab = manual_vocab("hello")
        assert encode(vocab, "HELLO", 16) == [CLS_ID, vocab.id_of["hello"], SEP_ID]

    def test_accent_stripping(self):
        vocab = manual_vocab("cafe")
        assert encode(vocab, "Café", 16) == [CLS_ID, vocab.id_of["cafe"], SEP_ID]

    def test_unknown_word_becomes_unk(self):
        vocab = manual_vocab("known")
        ids = encode(vocab, "known qqq", 16)
        assert ids == [CLS_ID, vocab.id_of["known"], UNK_ID, SEP_ID]

    def test_punctuation_split(self):
        vocab = manual_vocab("wait", ",", "what", "?")
        ids = encode(vocab, "wait,what?", 16)
        toks = [vocab.tokens[i] for i in ids]
        assert toks == ["[CLS]", "wait", ",", "what", "?", "[SEP]"]

    def test_truncation_keeps_sep_last(self):
        vocab = manual_vocab("a", "b", "c", "d", "e")
        ids = encode(vocab, "a b c d e", max_len=4)
        assert len(ids) == 4
        assert ids[0] == CLS_ID
        assert ids[-1] == SEP_ID
        assert ids[1:3] == [vocab.id_of["a"], vocab.id_of["b"]]

    def test_max_len_too_small(self):
        with pytest.raises(ConfigError):
            encode(manual_vocab("x"), "x", max_len=1)

    def test_prefix_greedy_longest_prefix_by_enumeration(self):
        vocab = manual_vocab("t", "th", "the", "##e", "##m", "##eme")
        for word in ("the", "them", "theme", "t"):
            ids = encode(vocab, word, 16)[1:-1]
            first = vocab.tokens[ids[0]]
            prefixes = [word[:k] for k in range(len(word), 0, -1)]
            longest = next(p for p in prefixes if p in vocab.id_of)
            assert first == longest


class TestDecode:
    def test_round_trip_single_words(self):
        vocab = train_vocab(
            corpus_of("rain sleep rain sleep quiet quiet night night"),
            target_size=64, min_freq=1,
        )
        for word in ("rain", "sleep", "quiet", "night", "RAIN"):
            assert decode(vocab, encode(vocab, word, 16)) == word.lower()

    def test_round_trip_decomposable_text(self):
        corpus = corpus_of("the rain returned.", "the night was quiet.")
        vocab = train_vocab(corpus, target_size=128, min_freq=1)
        text = "the rain was quiet"
        assert decode(vocab, encode(vocab, text, 32)) == text


class TestVocabContainer:
    def test_specials_occupy_first_five_ids(self):
        vocab = train_vocab(corpus_of("a b a b"), target_size=16, min_freq=1)
        assert vocab.tokens[:5] == list(SPECIAL_TOKENS)
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)

    def test_rejects_missing_specials(self):
        with pytest.raises(ConfigError):
            Vocab(["a", "b"])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            Vocab([*SPECIAL_TOKENS, "a", "a"])

    def test_rejects_whitespace_in_a_token_and_the_empty_token(self):
        spaces = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
        assert "\u3000" in spaces and "\x1c" in spaces
        for sp in spaces:
            for token in (sp, f"a{sp}b", f"{sp}a", f"a{sp}"):
                with pytest.raises(ConfigError):
                    Vocab([*SPECIAL_TOKENS, token])
        with pytest.raises(ConfigError):
            Vocab([*SPECIAL_TOKENS, ""])

    def test_accepts_every_other_code_point(self):
        tokens = ["".join(ch for ch in chunk if not ch.isspace())
                  for chunk in code_point_chunks()]
        assert len(Vocab([*SPECIAL_TOKENS, *tokens])) == len(SPECIAL_TOKENS) + len(tokens)

    def test_id_of_is_inverse(self):
        vocab = train_vocab(corpus_of("some words here."), target_size=64, min_freq=1)
        for i, t in enumerate(vocab.tokens):
            assert vocab.id_of[t] == i

    def test_save_load_round_trip(self, tmp_path):
        vocab = train_vocab(corpus_of("stable file format."), target_size=64, min_freq=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        again = Vocab.load(path)
        assert again.tokens == vocab.tokens
        assert again.content_hash() == vocab.content_hash()
        vocab.save(tmp_path / "vocab2.txt")
        assert (tmp_path / "vocab.txt").read_bytes() == (tmp_path / "vocab2.txt").read_bytes()

    @pytest.mark.parametrize("text", ["", "rain\nsleep\n", "\n".join([*SPECIAL_TOKENS, "a", "a"]),
                                      "\n".join([*SPECIAL_TOKENS, "two words"])])
    def test_malformed_vocab_file_is_data_error_naming_it(self, tmp_path, text):
        path = tmp_path / "vocab.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="vocab.txt: "):
            Vocab.load(path)


class TestNormalization:
    def test_normalize(self):
        assert pretokenize("Crème BRÛLÉE") == ["creme", "brulee"]

    def test_pretokenize(self):
        assert pretokenize("Don't stop!") == ["don", "'", "t", "stop", "!"]


class TestTranslateTablesMatchReference:
    def test_every_code_point(self):
        for chars in code_point_chunks():
            text = "a".join(chars)
            assert pretokenize(text) == reference_pretokenize(text)

    def test_table_stays_bounded_after_every_code_point(self):
        table = tokenizer._MARKS_AND_PUNCT
        "".join(chr(cp) for cp in range(0x110000)).translate(table)
        assert len(table) < 4000

    @settings(max_examples=300, deadline=None)
    @given(mixed_text)
    def test_mixed_text(self, text):
        assert pretokenize(text) == reference_pretokenize(text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(["rain", "Rains", "CAFÉ", "café", "don't",
                                               "wait,what?", "sleeps"]), mixed_text),
                    max_size=8),
           st.integers(min_value=2, max_value=24))
    def test_encode(self, parts, max_len):
        vocab = encode_vocab()
        text = " ".join(parts)
        assert encode(vocab, text, max_len) == reference_encode(vocab, text, max_len)


# One vocabulary for every example below, so later examples meet a warm memo.
WARM_VOCAB = encode_vocab()
# Runs of "a"/"e" around _MAX_WORD_CHARS: each decomposes into pieces up to
# 100 characters and is [UNK] past that.
long_words = st.text(alphabet="ae", min_size=tokenizer._MAX_WORD_CHARS - 2,
                     max_size=tokenizer._MAX_WORD_CHARS + 30)


class TestEncodeMemo:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(["rain", "Rains", "CAFÉ", "café", "don't",
                                               "wait,what?", "sleeps"]),
                              mixed_text, long_words),
                    max_size=8),
           st.integers(min_value=2, max_value=24))
    def test_a_warm_memo_encodes_as_the_reference(self, parts, max_len):
        text = " ".join(parts)
        want = reference_encode(WARM_VOCAB, text, max_len)
        assert encode(WARM_VOCAB, text, max_len) == want
        assert encode(WARM_VOCAB, text, max_len) == want

    def test_a_returned_list_is_the_callers_own(self):
        vocab = encode_vocab()
        first = encode(vocab, "rains rain", 16)
        want = list(first)
        first[1] = 999
        first.extend([7, 7])
        assert encode(vocab, "rains rain", 16) == want
        single = encode(vocab, "sleeps", 16)
        single[1:3] = [0, 0]
        assert encode(vocab, "sleeps", 16) == reference_encode(vocab, "sleeps", 16)

    def test_the_memo_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(tokenizer, "_MEMO_WORDS", 4)
        vocab = encode_vocab()
        first = "rains rain sleeps cafes"
        more = "don't wait, what? " + "a" * 101 + " aeae eaea"
        for text in (first, more, first + " " + more, more):
            assert encode(vocab, text, 64) == reference_encode(vocab, text, 64)
            assert len(vocab._pieces) == 4
        assert sorted(vocab._pieces) == sorted(first.split())

    def test_a_new_vocab_starts_empty(self, tmp_path):
        vocab = encode_vocab()
        encode(vocab, "rains rain", 16)
        assert vocab._pieces
        vocab.save(tmp_path / "vocab.txt")
        assert Vocab.load(tmp_path / "vocab.txt")._pieces == {}
        assert encode_vocab()._pieces == {}


ROUND_TRIP_CORPUS = corpus_of(
    "the rain kept falling all night.",
    "i could not sleep again, so tired of waiting.",
    "morning came slowly and the house was quiet.",
)
ROUND_TRIP_VOCAB = train_vocab(ROUND_TRIP_CORPUS, target_size=96, min_freq=1)
# Corpus words decompose into the trained pieces (every character of the
# corpus is in the alphabet at min_freq 1), and a word-initial token is its
# own longest prefix.
ROUND_TRIP_WORDS = sorted(
    {w for s in ROUND_TRIP_CORPUS.sentences for w in pretokenize(s) if w.isalpha()}
    | {t for t in ROUND_TRIP_VOCAB.tokens[len(SPECIAL_TOKENS):]
       if t.isalpha() and t.islower()}
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(ROUND_TRIP_WORDS), max_size=30))
def test_decode_inverts_encode_on_in_vocabulary_words(words):
    text = " ".join(words)
    max_len = 2 + sum(len(w) for w in words)
    assert decode(ROUND_TRIP_VOCAB, encode(ROUND_TRIP_VOCAB, text, max_len)) == text
