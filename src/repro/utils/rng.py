"""Random-number sources for the SHADOW controller.

SHADOW selects ``Row_aggr`` and ``Row_rand`` using random numbers produced
by a per-chip RNG unit and buffered in each bank's SHADOW controller
(Section V-C).  The paper's unit is a PRINCE-based CSPRNG, which this
repository models only as a gate count in the area budget
(:mod:`repro.analysis.area`).  Simulations draw from a seeded
:class:`SystemRng`; the paper's cheaper LFSR option (Section VIII) is
:class:`LfsrRng`.

All sources implement :class:`RandomSource` so simulation code can swap
them.  Every source is deterministic under its seed, which makes every
experiment in this repository reproducible.
"""

from __future__ import annotations

import abc
import random
from typing import List

from repro.utils.lfsr import GaloisLFSR


class RandomSource(abc.ABC):
    """Uniform random bit/integer source."""

    @abc.abstractmethod
    def next_bits(self, width: int) -> int:
        """Return ``width`` uniform random bits as an integer."""

    def randrange(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)`` by rejection sampling.

        Rejection (rather than modulo) keeps the output exactly uniform,
        which the security analysis relies on.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        width = (bound - 1).bit_length()
        while True:
            value = self.next_bits(width)
            if value < bound:
                return value

    def choice(self, items: List):
        """Return a uniformly-chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randrange(len(items))]

    def shuffle(self, items: List) -> None:
        """Fisher-Yates shuffle in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


class LfsrRng(RandomSource):
    """LFSR-based RNG (the paper's low-area alternative, Section VIII)."""

    def __init__(self, seed: int = 0xACE1, width: int = 64):
        self._lfsr = GaloisLFSR(width=width, seed=seed)

    def reseed(self, seed: int) -> None:
        self._lfsr.reseed(seed)

    def next_bits(self, width: int) -> int:
        return self._lfsr.next_bits(width)


class SystemRng(RandomSource):
    """Wrapper over :mod:`random` for simulation plumbing (seeded)."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def next_bits(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        if width == 0:
            return 0
        return self._rng.getrandbits(width)

    def randrange(self, bound: int) -> int:  # fast path
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self._rng.randrange(bound)


class BufferedRng(RandomSource):
    """Models the SHADOW controller's pre-buffered random values.

    The RNG unit fills a small FIFO of fixed-width words in advance so the
    row-shuffle never waits on random-number generation latency.  The FIFO
    depth is observable for the area model; functionally the stream equals
    the backing source's stream.
    """

    def __init__(self, source: RandomSource, word_width: int = 32, depth: int = 8):
        if word_width <= 0 or depth <= 0:
            raise ValueError("word_width and depth must be positive")
        self._source = source
        self._word_width = word_width
        self._depth = depth
        self._fifo: List[int] = []
        self.refills = 0

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def word_width(self) -> int:
        return self._word_width

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    def _fill(self) -> None:
        while len(self._fifo) < self._depth:
            self._fifo.append(self._source.next_bits(self._word_width))
            self.refills += 1

    def next_bits(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        value = 0
        remaining = width
        while remaining > 0:
            if not self._fifo:
                self._fill()
            word = self._fifo.pop(0)
            take = min(remaining, self._word_width)
            value = (value << take) | (word >> (self._word_width - take))
            remaining -= take
        return value


def make_rng(kind: str = "system", seed: int = 1) -> RandomSource:
    """Factory used by configuration code.

    ``kind`` is ``"system"`` or ``"lfsr"``.
    """
    if kind == "lfsr":
        return LfsrRng(seed=seed or 1)
    if kind == "system":
        return SystemRng(seed=seed)
    raise ValueError(f"unknown RNG kind: {kind!r}")
