"""RNG sources and the LFSR."""

import pytest

from repro.utils.lfsr import DEFAULT_TAPS, GaloisLFSR
from repro.utils.rng import (
    BufferedRng,
    LfsrRng,
    SystemRng,
    make_rng,
)


class TestLfsr:
    def test_maximal_period_small_width(self):
        lfsr = GaloisLFSR(width=8, seed=1)
        seen = set()
        for _ in range(255):
            seen.add(lfsr.state)
            lfsr.step()
        # A maximal 8-bit LFSR cycles through all 255 non-zero states.
        assert len(seen) == 255
        assert lfsr.state == 1  # back to the seed after the full period

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            GaloisLFSR(width=16, seed=0)
        lfsr = GaloisLFSR(width=16, seed=3)
        with pytest.raises(ValueError):
            lfsr.reseed(0)

    def test_unknown_width_needs_taps(self):
        with pytest.raises(ValueError):
            GaloisLFSR(width=13, seed=1)
        lfsr = GaloisLFSR(width=13, seed=1, taps=0x1B00)
        assert lfsr.width == 13

    def test_next_bits_packs_msb_first(self):
        a = GaloisLFSR(width=16, seed=0xACE1)
        b = GaloisLFSR(width=16, seed=0xACE1)
        bits = [b.step() for _ in range(12)]
        expected = 0
        for bit in bits:
            expected = (expected << 1) | bit
        assert a.next_bits(12) == expected

    def test_default_taps_cover_common_widths(self):
        for width in DEFAULT_TAPS:
            lfsr = GaloisLFSR(width=width, seed=1)
            lfsr.next_bits(64)  # must not raise or get stuck at zero
            assert lfsr.state != 0


class TestRandomSources:
    @pytest.mark.parametrize("kind", ["lfsr", "system"])
    def test_factory_and_determinism(self, kind):
        a = make_rng(kind, seed=7)
        b = make_rng(kind, seed=7)
        assert [a.next_bits(16) for _ in range(8)] == [
            b.next_bits(16) for _ in range(8)
        ]

    def test_different_seeds_differ(self):
        a = make_rng("system", seed=1)
        b = make_rng("system", seed=2)
        assert [a.next_bits(32) for _ in range(4)] != [
            b.next_bits(32) for _ in range(4)
        ]

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_rng("quantum")

    @pytest.mark.parametrize(
        "rng", [LfsrRng(), SystemRng(3)], ids=["lfsr", "sys"]
    )
    def test_randrange_bounds(self, rng):
        for bound in (1, 2, 3, 17, 512, 513):
            for _ in range(50):
                assert 0 <= rng.randrange(bound) < bound

    def test_randrange_rejects_nonpositive(self):
        rng = LfsrRng()
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_randrange_roughly_uniform(self):
        rng = LfsrRng(seed=42)
        counts = [0] * 8
        for _ in range(4000):
            counts[rng.randrange(8)] += 1
        assert min(counts) > 350  # expectation 500; crude uniformity check

    def test_choice_and_shuffle(self):
        rng = SystemRng(5)
        items = list(range(10))
        assert rng.choice(items) in items
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        with pytest.raises(ValueError):
            rng.choice([])


class TestBufferedRng:
    def test_stream_matches_backing_source(self):
        direct = LfsrRng(seed=11)
        buffered = BufferedRng(LfsrRng(seed=11), word_width=32, depth=4)
        got = [buffered.next_bits(32) for _ in range(16)]
        want = [direct.next_bits(32) for _ in range(16)]
        assert got == want

    def test_prefills_to_depth(self):
        buffered = BufferedRng(SystemRng(1), word_width=16, depth=8)
        buffered.next_bits(16)
        assert buffered.occupancy == 7
        assert buffered.refills == 8

    def test_wide_requests_consume_multiple_words(self):
        buffered = BufferedRng(SystemRng(2), word_width=8, depth=4)
        value = buffered.next_bits(24)
        assert 0 <= value < (1 << 24)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BufferedRng(SystemRng(0), word_width=0)
        with pytest.raises(ValueError):
            BufferedRng(SystemRng(0), depth=0)
