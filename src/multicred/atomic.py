"""Atomic file replacement for the artifacts the pipeline writes.

A reader of a path written through :func:`atomic_write` sees either the
previous file or the complete new one, never a partial write: content
goes to a temporary file in the same directory, which ``os.replace``
renames over the path only once it is complete. This protects against
a failed or interrupted process, not against power loss (no fsync).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, TextIO


@contextmanager
def atomic_write(path: str | Path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces ``path`` when the block exits.

    If the block raises, the temporary file is removed and ``path`` is
    left as it was. ``newline`` is passed to :func:`open`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
