"""The RNG must match its published sequence bit for bit (docs/rng.md)."""

import numpy as np

from cogen.rng import Splitmix64
from helpers import scalar_uniform

# First三 outputs of splitmix64 for the reference seeds; these match the
# algorithm's published test vectors and are mirrored in docs/rng.md.
SEED0_FIRST = (
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
)
SEED42_FIRST = (
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
)


def test_seed0_sequence():
    rng = Splitmix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_FIRST


def test_seed42_sequence():
    rng = Splitmix64(42)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED42_FIRST


def test_floats_are_unit_interval():
    rng = Splitmix64(7)
    values = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_same_seed_same_stream():
    a, b = Splitmix64(123), Splitmix64(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_shuffle_deterministic():
    items1 = list(range(20))
    items2 = list(range(20))
    Splitmix64(9).shuffle(items1)
    Splitmix64(9).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(20))


def test_next_below_range():
    rng = Splitmix64(1)
    assert all(0 <= rng.next_below(7) < 7 for _ in range(200))


def test_uniform_block_matches_scalar_stream():
    # The block form relies on splitmix64 being counter-based; it must give
    # the scalar draws bit for bit and leave the stream where they would.
    for seed in (0, 5, 123456789, 2**64 - 1):
        for n in (0, 1, 3, 1000):
            block, scalar = Splitmix64(seed), Splitmix64(seed)
            got = block.uniforms(-0.25, 0.75, n)
            want = [scalar_uniform(scalar, -0.25, 0.75) for _ in range(n)]
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tolist() == want
            assert block.next_u64() == scalar.next_u64()
