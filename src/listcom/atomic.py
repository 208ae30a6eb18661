"""All-or-nothing artifact writes.

Text goes to ``<name>.tmp`` beside the target and is moved over it with
``os.replace`` only once it has been written completely, so a reader sees
either the previous artifact or the new one, never a truncated file.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Open ``<path>.tmp`` for UTF-8 text with ``\\n`` line ends; replace
    ``path`` with it on a clean exit, delete it on an exception."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
