"""All-or-nothing artifact writes, and the layout of the indented JSON
artifacts.

Text goes to ``<name>.tmp`` beside the target and is moved over it with
``os.replace`` only once it has been written completely, so a reader sees
either the previous artifact or the new one, never a truncated file.
labels.json and users.json are laid out as ``json.dumps(..., indent=1)``
lays them out, but joined by :func:`json_array` from items already encoded,
without ``indent``'s pure-Python encoder, and with each distinct number
formatted once by :func:`json_numbers`.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


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


def json_array(items, indent: int) -> str:
    """A JSON array of encoded ``items`` that sits ``indent`` spaces deep,
    laid out as ``indent=1`` lays it out."""
    items = list(items)
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def json_numbers(values) -> tuple[list[str], np.ndarray]:
    """Each distinct value rounded to 6 decimals and formatted once, as
    ``json.dumps`` formats it, and each value's index into those strings.
    Values are told apart by their bits, so ``-0.0`` keeps its sign."""
    bits, which = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                            return_inverse=True)
    return [json.dumps(round(v, 6)) for v in bits.view(np.float64).tolist()], which
