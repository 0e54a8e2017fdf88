"""Atomic writes for every file a run produces."""

import os
from contextlib import contextmanager
from pathlib import Path


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
