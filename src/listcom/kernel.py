"""The compiled kernel, ``_slpa.c``, and its loader.

The kernel holds the package's loops over nodes and pairs: SLPA one
connected component at a time and the cover of its memories
(:mod:`listcom.detect`), the one co-occurrence counter
(:mod:`listcom.listgraph`), the fold of one run into the consensus matrix
(:mod:`listcom.consensus`) and the rows of a pair file.  Its entries take
arrays as their data addresses, ``array.ctypes.data``, rather than as
``ndpointer`` arguments, each of which goes through ``ctypes.cast`` and
leaves a reference cycle for the cyclic garbage collector.  The caller
checks dtype, contiguity and bounds before a call, and keeps the arrays
alive through it; ``ctypes`` releases the interpreter lock during each call.
An entry returns -1 when it cannot allocate its scratch, which
:func:`checked` raises as :class:`MemoryError`, and -2 when an output buffer
is too short, which it raises as :class:`RuntimeError`.

The kernel is compiled on first use, never at import, with ``cc -O2 -shared
-fPIC`` into ``$XDG_CACHE_HOME/listcom``, else ``~/.cache/listcom``,
created with mode 0700: never a shared temporary directory, where another
user could plant the library.  The file name, which :func:`library_path`
gives, holds the sha256 of the source and ``sysconfig.get_platform()``, so
an edited source or another platform builds anew, and the library is
renamed into place from a temporary directory beside it, so no process
loads a partial file.  A build then removes the libraries of other sources
for the same platform, but for the most recently modified one, which another
checkout sharing the cache may still load: at most two remain per platform.
There is no fallback: a missing compiler or a failed build raises a
``RuntimeError`` naming the command, and ``listcom`` exits 4.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
from pathlib import Path

KERNEL_SOURCE = Path(__file__).with_name("_slpa.c")
COMPILER = ("cc", "-O2", "-shared", "-fPIC")


def checked(status: int, what: str) -> int:
    """``status`` if the entry succeeded; raises on its -1 or -2."""
    if status == -1:
        raise MemoryError(f"the kernel could not allocate scratch arrays for {what}")
    if status == -2:
        raise RuntimeError(f"the kernel's output buffer for {what} is too short")
    return status


def library_path() -> str:
    """Where :func:`load` looks for the library, and builds it if it is not
    there: the cache folder, and a name of the source's sha256 and the
    platform."""
    # Imported here: they would add to the import time of every command.
    import sysconfig
    try:  # CPython's own sha256: hashlib loads OpenSSL, 4 MB more resident
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(cache, "listcom",
                        f"_slpa-{sha256(KERNEL_SOURCE.read_bytes()).hexdigest()}"
                        f"-{sysconfig.get_platform()}.so")


@functools.cache
def load():
    """The kernel library with every entry typed; the first use on a
    machine compiles it into the cache."""
    import ctypes  # here: it would add to the import time of every command

    path = library_path()
    try:
        if not os.path.exists(path):
            _build(*os.path.split(path))
        kernel = ctypes.CDLL(path)
    except OSError as exc:
        raise RuntimeError(f"cannot build or load the kernel "
                           f"`{' '.join(COMPILER)} -o {path} {KERNEL_SOURCE}`: "
                           f"{exc}") from exc
    array, i64 = ctypes.c_void_p, ctypes.c_int64
    for entry, restype, argtypes in (
            ("components", i64, [i64, array, array, array, array]),
            ("slpa", i64, [i64, array, array, array, ctypes.c_uint64, i64,
                           i64, array, array, array]),
            ("cover", i64, [i64, array, array, i64, ctypes.c_double, i64, array, array]),
            ("pair_counts", i64, [i64, array, array, array, array, i64, array, array]),
            ("fold", i64, [i64, i64, array, array, i64, array, array, i64, array, array]),
            ("pair_rows", i64, [i64, array, array, array, array, array, array, array,
                                i64, array])):
        getattr(kernel, entry).restype = restype
        getattr(kernel, entry).argtypes = argtypes
    return kernel


def _build(folder: str, name: str) -> None:
    """Compile the kernel into ``folder`` as ``name`` through a temporary
    directory beside it, then remove the other libraries of its platform
    there, built from other sources, but for the most recently modified one.
    A failed build raises ``OSError``."""
    import subprocess
    import tempfile

    path = os.path.join(folder, name)
    os.makedirs(folder, mode=0o700, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=folder) as tmp:
        built = os.path.join(tmp, "_slpa.so")
        try:
            subprocess.run([*COMPILER, "-o", built, str(KERNEL_SOURCE)], check=True,
                           capture_output=True, text=True)
        except subprocess.CalledProcessError as exc:
            raise OSError(exc.stderr.strip()) from exc
        os.replace(built, path)
    # Same length, prefix and suffix: another hash of this platform.
    platform = name[name.index("-", len("_slpa-")):]
    others = [os.path.join(folder, other) for other in os.listdir(folder)
              if other != name and len(other) == len(name)
              and other.startswith("_slpa-") and other.endswith(platform)]
    # Another process may remove one of them first.
    with contextlib.suppress(OSError):
        for other in sorted(others, key=os.path.getmtime)[:-1]:
            os.remove(other)
