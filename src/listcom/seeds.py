"""Deterministic 64-bit seed derivation.

Every random choice in the package flows from a single master seed through
``derive_seed``, so results are reproducible regardless of scheduling or
worker count.  Stream tags sit above 2**32 so they can never collide with
ensemble run indices.
"""

_MASK64 = (1 << 64) - 1

STREAM_CONSENSUS = 1 << 32
STREAM_ITERATE = 1 << 33


def derive_seed(master_seed: int, index: int) -> int:
    """Mix (master_seed, index) into a fresh 64-bit seed (splitmix64 finalizer)."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64
