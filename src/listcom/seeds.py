"""Deterministic 64-bit seed derivation.

Every random choice in the package flows from a single master seed through
the splitmix64 finalizer, so results are reproducible regardless of
scheduling.  ``derive_seed`` mixes one (seed, index) pair in Python integers;
``derive_seeds`` mixes one seed with a whole array of indices in wrapping
``uint64`` arithmetic and gives the same bits.  Stream tags sit above 2**32 so they can
never collide with ensemble run indices.
"""
import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

STREAM_CONSENSUS = 1 << 32


def derive_seed(master_seed: int, index: int) -> int:
    """Mix (master_seed, index) into a fresh 64-bit seed (splitmix64 finalizer)."""
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seeds(master_seed: int, indices, out=None, scratch=None) -> np.ndarray:
    """``derive_seed`` over an array: the ``uint64`` array of
    ``derive_seed(master_seed, i)`` for each i of ``indices``.

    Both are taken modulo 2**64.  The arithmetic stays on arrays, where
    ``uint64`` wraps silently (numpy warns only on scalar overflow).  Given
    ``out`` and ``scratch``, two ``uint64`` arrays shaped like ``indices``,
    it writes the result to ``out`` and allocates nothing.
    """
    if out is None:
        out = np.array(indices, dtype=np.uint64, ndmin=1)
    else:
        out[...] = indices
    if scratch is None:
        scratch = np.empty_like(out)
    z = out
    z += np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(master_seed & _MASK64)
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MUL1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MUL2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z
