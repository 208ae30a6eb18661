"""Deterministic 64-bit seed derivation.

Every random choice in the package flows from a single master seed through
the splitmix64 finalizer, so results are reproducible regardless of
scheduling.  ``derive_seed`` mixes one (seed, index) pair in Python integers;
the detection kernel (``_slpa.c``) computes the same mix in wrapping 64-bit
arithmetic for its draws.  Stream tags sit above 2**32 so they can never
collide with ensemble run indices.
"""
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

