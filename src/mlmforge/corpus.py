"""Ingest raw forum-style posts and build a sentence-level pretraining corpus.

Posts arrive as JSONL with a mandatory "body" field. No author or profile
fields exist anywhere in the pipeline. Sentences are split on terminal
punctuation followed by whitespace, plus hard newlines.
"""

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ._files import JSON_ERRORS, atomic_write, open_text

logger = logging.getLogger(__name__)

_SENT_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


@dataclass(frozen=True)
class RawPost:
    id: str
    subforum: str
    body: str


@dataclass
class CorpusStats:
    n_sentences: int = 0
    n_tokens_ws: int = 0
    n_duplicates_removed: int = 0


def _stats(sentences: list[str], n_duplicates_removed: int = 0) -> CorpusStats:
    return CorpusStats(n_sentences=len(sentences),
                       n_tokens_ws=sum(len(s.split()) for s in sentences),
                       n_duplicates_removed=n_duplicates_removed)


@dataclass
class SentenceCorpus:
    """Ordered, non-empty sentences plus bookkeeping counts.

    Immutable by convention once built; safe to share read-only.
    """

    sentences: list[str]
    stats: CorpusStats


def ingest(path, warnings: list[str] | None = None) -> Iterator[RawPost]:
    """Yield posts from a JSONL file in file order.

    Malformed lines (bad JSON, not an object, missing or blank "body") are
    skipped; a message per skipped line is appended to `warnings` when a
    list is supplied and logged either way.
    """
    p = Path(path)

    def warn(msg: str) -> None:
        logger.warning(msg)
        if warnings is not None:
            warnings.append(msg)

    with open_text(p, "posts") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except JSON_ERRORS as exc:
                warn(f"{p}:{lineno}: invalid JSON ({getattr(exc, 'msg', exc)})")
                continue
            if not isinstance(rec, dict):
                warn(f"{p}:{lineno}: not a JSON object")
                continue
            body = rec.get("body")
            if not isinstance(body, str) or not body.strip():
                warn(f"{p}:{lineno}: missing or empty body")
                continue
            yield RawPost(
                id=str(rec.get("id", lineno)),
                subforum=str(rec.get("subforum", "")),
                body=body,
            )


def segment(posts: Iterable[RawPost], dedup: bool = True) -> SentenceCorpus:
    """Split post bodies into sentences.

    Boundaries are `.` `!` `?` followed by whitespace, and newlines. Fragments
    are stripped; empty ones dropped. With dedup, exact repeats are removed
    keeping the first occurrence.
    """
    sentences: list[str] = []
    seen: set[str] = set()
    n_dup = 0
    for post in posts:
        for para in post.body.splitlines():
            for frag in _SENT_BOUNDARY.split(para):
                s = frag.strip()
                if not s:
                    continue
                if dedup:
                    if s in seen:
                        n_dup += 1
                        continue
                    seen.add(s)
                sentences.append(s)
    return SentenceCorpus(sentences=sentences, stats=_stats(sentences, n_dup))


def write_sentences(corpus: SentenceCorpus, path) -> None:
    """One sentence per line, UTF-8, LF endings."""
    with atomic_write(path) as fh:
        for s in corpus.sentences:
            fh.write(s + "\n")


def read_sentences(path) -> SentenceCorpus:
    with open_text(path, "corpus") as fh:
        sentences = [line.rstrip("\n") for line in fh]
    sentences = [s for s in sentences if s.strip()]
    return SentenceCorpus(sentences=sentences, stats=_stats(sentences))
