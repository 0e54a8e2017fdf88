import dataclasses
import json

import numpy as np
import pytest

from mlmforge.corpus import (
    RawPost,
    ingest,
    read_sentences,
    segment,
    write_sentences,
)
from mlmforge.errors import DataError


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


class TestIngest:
    def test_valid_lines_in_order(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        write_jsonl(p, [
            {"id": "a", "subforum": "depression", "body": "first post."},
            {"id": "b", "body": "second post."},
            {"id": "c", "body": "third post."},
        ])
        posts = list(ingest(p))
        assert [x.id for x in posts] == ["a", "b", "c"]
        assert posts[0].subforum == "depression"
        assert posts[1].subforum == ""

    def test_missing_body_is_warning_not_fatal(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        p.write_text("{}\n", encoding="utf-8")
        warnings = []
        posts = list(ingest(p, warnings=warnings))
        assert posts == []
        assert len(warnings) == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        p.write_text("", encoding="utf-8")
        warnings = []
        assert list(ingest(p, warnings=warnings)) == []
        assert warnings == []

    def test_bad_json_and_blank_body_counted(self, tmp_path):
        p = tmp_path / "posts.jsonl"
        p.write_text('not json\n{"body": "   "}\n{"body": "ok."}\n', encoding="utf-8")
        warnings = []
        posts = list(ingest(p, warnings=warnings))
        assert len(posts) == 1
        assert len(warnings) == 2

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(DataError):
            list(ingest(tmp_path / "nope.jsonl"))


def post(body, pid="p"):
    return RawPost(id=pid, subforum="", body=body)


class TestSegment:
    def test_two_terminal_punctuations(self):
        corpus = segment([post("I feel low. I can't sleep!")])
        assert corpus.sentences == ["I feel low.", "I can't sleep!"]

    def test_dedup_counts(self):
        corpus = segment([post("help", "1"), post("help", "2")], dedup=True)
        assert corpus.sentences == ["help"]
        assert corpus.stats.n_duplicates_removed == 1

    def test_no_terminal_punctuation_whole_body(self):
        corpus = segment([post("just tired")])
        assert corpus.sentences == ["just tired"]

    def test_newlines_split(self):
        corpus = segment([post("one line\nanother line")])
        assert corpus.sentences == ["one line", "another line"]

    def test_idempotent_on_sentence_level_corpus(self):
        sentences = ["The rain returned.", "Nobody slept well!", "Is it morning yet?"]
        first = segment([post(s, str(i)) for i, s in enumerate(sentences)])
        again = segment([post(s, str(i)) for i, s in enumerate(first.sentences)])
        assert again.sentences == first.sentences == sentences

    def test_dedup_makes_sentences_distinct(self):
        rng = np.random.default_rng(0)
        bodies = [" ".join(f"w{rng.integers(0, 5)}" for _ in range(3)) + "."
                  for _ in range(200)]
        corpus = segment([post(b, str(i)) for i, b in enumerate(bodies)], dedup=True)
        assert len(set(corpus.sentences)) == len(corpus.sentences)

    def test_dedup_count_arithmetic(self):
        rng = np.random.default_rng(1)
        bodies = [" ".join(f"w{rng.integers(0, 4)}" for _ in range(2)) + "."
                  for _ in range(300)]
        posts = [post(b, str(i)) for i, b in enumerate(bodies)]
        with_dup = segment(posts, dedup=False)
        without = segment(posts, dedup=True)
        assert (without.stats.n_sentences + without.stats.n_duplicates_removed
                == with_dup.stats.n_sentences)


class TestStats:
    def test_direct_count(self):
        stats = segment([post("two words\nthree more words")]).stats
        assert stats.n_sentences == 2
        assert stats.n_tokens_ws == 5

    def test_empty(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("\n  \n", encoding="utf-8")
        assert dataclasses.asdict(read_sentences(path).stats) == {
            "n_sentences": 0, "n_tokens_ws": 0, "n_duplicates_removed": 0,
        }

    def test_synthetic_thousand_sentences(self, tmp_path):
        # Independent oracle: the generator itself fixes the counts.
        rng = np.random.default_rng(7)
        lengths = [int(rng.integers(1, 6)) for _ in range(1000)]
        path = tmp_path / "corpus.txt"
        path.write_text("".join(" ".join(f"tok{j}" for j in range(n)) + "\n" for n in lengths),
                        encoding="utf-8")
        stats = read_sentences(path).stats
        assert stats.n_sentences == 1000
        assert stats.n_tokens_ws == sum(lengths)


class TestSentenceFileRoundTrip:
    def test_round_trip_and_lf_endings(self, tmp_path):
        corpus = segment([post("First one. Second one!")])
        out = tmp_path / "corpus.txt"
        write_sentences(corpus, out)
        raw = out.read_bytes()
        assert raw == b"First one.\nSecond one!\n"
        back = read_sentences(out)
        assert back.sentences == corpus.sentences
        assert back.stats.n_sentences == 2
