"""Utility primitives shared across the reproduction.

The SHADOW paper (Section V-C, Section VIII) requires a random number
generator per DRAM chip.  Simulations draw from a seeded system RNG;
the paper's low-area LFSR option is implemented here as well.
"""

from repro.utils.lfsr import GaloisLFSR
from repro.utils.rng import (
    BufferedRng,
    LfsrRng,
    RandomSource,
    SystemRng,
    make_rng,
)

__all__ = [
    "BufferedRng",
    "GaloisLFSR",
    "LfsrRng",
    "RandomSource",
    "SystemRng",
    "make_rng",
]
