"""Every text input is opened here, and every run file is written atomically."""

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError

# What json.loads raises for text that does not parse: a syntax error (a
# JSONDecodeError, whose .msg is the reason), an integer too long to
# convert, or nesting too deep.
JSON_ERRORS = (ValueError, RecursionError)


def require_file(path, what: str, error=DataError) -> Path:
    """`path` as a Path, or `error` when it is not a regular file."""
    p = Path(path)
    if not p.is_file():
        raise error(f"{what} file not found: {p}")
    return p


@contextmanager
def open_text(path, what: str, error=DataError, newline=None):
    """Yield `path` opened as UTF-8 text (`newline` as for `open`). A path
    that is not a regular file, and bytes that are not UTF-8 wherever the
    block reads them, raise one `error` that names the file."""
    p = require_file(path, what, error)
    with open(p, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{p}: {what} file is not UTF-8 ({exc.reason})") from exc


def read_json_object(path, what: str, error=DataError) -> dict:
    """The JSON object that the UTF-8 file `path` holds; anything else is `error`."""
    with open_text(path, what, error) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except JSON_ERRORS as exc:
        raise error(f"{fh.name}: invalid {what} JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(obj, dict):
        raise error(f"{fh.name}: {what} must be a JSON object")
    return obj


@contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a file object that writes `<name>.<pid>.tmp` beside `path`.

    When the block ends normally the temp file is flushed, fsynced and moved
    onto `path` with `os.replace`, so a reader sees either the old file or
    the whole new one. If anything raises, the temp file is removed and
    `path` keeps its previous bytes (or stays absent). Text is UTF-8 with LF
    line endings.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        if binary:
            fh = open(tmp, "wb")
        else:
            fh = open(tmp, "w", encoding="utf-8", newline="\n")
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
