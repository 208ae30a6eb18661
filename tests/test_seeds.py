import numpy as np

from listcom.seeds import derive_seed, derive_seeds

EDGES = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]


def test_derive_seeds_equals_derive_seed_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(17))
    indices = EDGES + rng.integers(0, 2**64, size=200, dtype=np.uint64).tolist()
    for master in EDGES + rng.integers(0, 2**64, size=20, dtype=np.uint64).tolist():
        got = derive_seeds(master, np.array(indices, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(master, i) for i in indices]


def test_derive_seeds_wraps_like_the_scalar_mix():
    # The index 2**64 - 1 is -1 modulo 2**64, and so is an int64 -1.
    assert derive_seeds(5, np.array([-1])).tolist() == [derive_seed(5, 2**64 - 1)]
    assert derive_seed(5, 2**64 - 1) == derive_seed(5, -1)
    assert derive_seeds(2**64 + 5, [3]).tolist() == [derive_seed(5, 3)]
