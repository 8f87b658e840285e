"""The SplitMix64 stream: next_float is next_u64 scaled into [0, 1), next_floats a run of them."""

from __future__ import annotations

import pytest

from solvereval.rng import SplitMix64

SEEDS = [0, 1, 2, 7, 2024, 2**63 + 5, 2**64 - 1, -1, 2**70 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_next_float_is_the_top_53_bits_of_next_u64(seed):
    floats, words = SplitMix64(seed), SplitMix64(seed)
    for _ in range(1000):
        assert floats.next_float() == (words.next_u64() >> 11) * 2**-53


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_share_one_stream(seed):
    mixed, words = SplitMix64(seed), SplitMix64(seed)
    for n in range(1000):
        if n % 3:
            assert mixed.next_u64() == words.next_u64()
        else:
            assert mixed.next_float() == (words.next_u64() >> 11) * 2**-53


def test_known_values():
    # Reference outputs of SplitMix64 seeded with 0.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    assert 0.0 <= SplitMix64(0).next_float() < 1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_is_successive_draws_and_the_stream_goes_on(seed):
    batched, single = SplitMix64(seed), SplitMix64(seed)
    for n in (0, 1, 2, 8, 3, 162, 100, 16 * 162):  # 16 * 162: a 16-instance block of 20 solvers
        assert batched.next_floats(n) == [single.next_float() for _ in range(n)]
        assert batched.next_u64() == single.next_u64()
        assert batched.next_float() == single.next_float()


@pytest.mark.parametrize("n", [0, -3])
def test_next_below_needs_a_positive_bound(n):
    rng = SplitMix64(0)
    with pytest.raises(ValueError, match="n must be positive"):
        rng.next_below(n)
    assert rng.next_u64() == SplitMix64(0).next_u64()  # a refused bound draws nothing
