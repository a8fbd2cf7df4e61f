"""Activation-tracking data structures used by the baseline mitigations.

These classes *are* the trackers of the composed schemes
(:mod:`repro.mitigations.compose`): each scheme's ``make_tracker()``
builds one per bank, and its action policy calls the structure
directly.  Beyond their own API they carry exactly the members a
policy or the composition glue needs -- ``hottest``/``settle`` for
RFM-hosted TRR, ``sample`` for sampled TRR, and ``window_reset`` plus
the ``occupancy()``/``spillover()`` telemetry for schemes whose tracker
resets per REF window or per RFM.

* :class:`MisraGries` -- frequent-items tracker with a spillover counter
  (the Graphene/RRS formulation [Park MICRO'20, Saileshwar ASPLOS'22]).
* :class:`CounterSummary` -- Mithril's Counter-based Summary (CbS): a
  bounded table whose minimum counter inherits evicted counts, queried
  for the *maximum* entry at each RFM [Kim HPCA'22].
* :class:`DualCountingBloomFilter` -- BlockHammer's D-CBF: two counting
  Bloom filters alternating over epoch halves [Yaglikci HPCA'21].
* :class:`CountMinSketch` -- the random-projection counter underlying
  the Bloom-filter variants, exposed for the RFM-filtering extension
  (paper Section VIII).
* :class:`RecentHistory` -- PARFM's window of the last RAAIMT
  activated rows, sampled uniformly at each RFM.
* :class:`MintSampler` -- MINT's single-entry window sampler
  [Qureshi MICRO'24]: O(1) storage, uniform over the mitigation window.
* :class:`ResilientMisraGries` -- a DAPPER-style performance-attack-
  resilient Misra-Gries variant [Woo & Nair '25]: decisions use the
  provable lower bound and window resets decay instead of clearing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class MisraGries:
    """Misra-Gries heavy-hitters with a spillover counter.

    Guarantees: any key activated more than ``spill + capacity`` times
    since its last reset is present in the table with a count no less
    than its true count minus the spillover.  That bounded undercount is
    exactly what Graphene's TRR threshold accounts for.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.counts: Dict[int, int] = {}
        self.spill = 0

    def observe(self, key: int) -> int:
        """Count one occurrence; returns the key's current estimate."""
        if key in self.counts:
            self.counts[key] += 1
            return self.counts[key]
        if len(self.counts) < self.capacity:
            self.counts[key] = self.spill + 1
            return self.counts[key]
        self.spill += 1
        # Replace a minimal entry once the spillover catches up to it.
        min_key = min(self.counts, key=self.counts.get)
        if self.counts[min_key] <= self.spill:
            del self.counts[min_key]
            self.counts[key] = self.spill + 1
            return self.counts[key]
        return self.spill

    def estimate(self, key: int) -> int:
        return self.counts.get(key, self.spill)

    def max_entry(self) -> Optional[Tuple[int, int]]:
        if not self.counts:
            return None
        key = max(self.counts, key=self.counts.get)
        return key, self.counts[key]

    def reset_key(self, key: int) -> None:
        """Graphene-style reset after a TRR: drop the entry to the floor."""
        if key in self.counts:
            self.counts[key] = self.spill

    def clear(self) -> None:
        self.counts.clear()
        self.spill = 0

    window_reset = clear

    def occupancy(self) -> int:
        return len(self.counts)

    def spillover(self) -> int:
        return self.spill


class CounterSummary:
    """Mithril's CbS: bounded counter table with min-inheritance insert."""

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.counts: Dict[int, int] = {}

    def observe(self, key: int) -> None:
        if key in self.counts:
            self.counts[key] += 1
            return
        if len(self.counts) < self.entries:
            self.counts[key] = 1
            return
        # Evict a minimum entry; the newcomer inherits min + 1 so its
        # count never undercounts by more than the table minimum.
        min_key = min(self.counts, key=self.counts.get)
        min_count = self.counts.pop(min_key)
        self.counts[key] = min_count + 1

    def hottest(self) -> Optional[Tuple[int, int]]:
        """The entry with the highest count (the RFM mitigation target)."""
        if not self.counts:
            return None
        key = max(self.counts, key=self.counts.get)
        return key, self.counts[key]

    def floor(self) -> int:
        return min(self.counts.values(), default=0)

    def settle(self, key: int) -> None:
        """After mitigating ``key``, sink its count below the table floor.

        Going one under the current minimum (rather than to it) makes
        tie-breaking rotate across equally-hot rows instead of repeatedly
        re-mitigating the same entry.
        """
        if key in self.counts:
            self.counts[key] = max(0, self.floor() - 1)

    def clear(self) -> None:
        self.counts.clear()

    def occupancy(self) -> int:
        return len(self.counts)


class RecentHistory:
    """PARFM's sampling window: the last ``depth`` activated rows.

    ``rng`` is the owning scheme's random source; :meth:`sample` draws
    one uniform index from it per call on a non-empty window.
    """

    def __init__(self, depth: int, rng):
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.rng = rng
        self._items = deque(maxlen=depth)

    def observe(self, key: int) -> None:
        self._items.append(key)

    def sample(self) -> Optional[int]:
        if not self._items:
            return None
        return self._items[self.rng.randrange(len(self._items))]


class MintSampler:
    """MINT's minimalist in-DRAM sampler: one entry per bank.

    At the start of each mitigation window (the RAAIMT activations
    between two RFMs) the sampler draws a uniform slot ``1..window`` and
    captures the row of exactly that activation; the window's mitigation
    then targets the captured row.  Every activation in the window has
    the same ``1/window`` chance of being picked -- the same distribution
    PARFM gets from a ``window``-deep history, with O(1) storage.

    The slot is drawn lazily on the window's *first* activation, so an
    idle bank consumes no randomness.
    """

    def __init__(self, window: int, rng):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.rng = rng
        self.windows = 0
        self._position = 0
        self._select: Optional[int] = None
        self._captured: Optional[int] = None

    def observe(self, key: int) -> None:
        if self._select is None:
            self._select = self.rng.randrange(self.window) + 1
            self.windows += 1
        self._position += 1
        if self._position == self._select:
            self._captured = key

    def sample(self) -> Optional[int]:
        """The captured row of the current window (None while unarmed
        or before the selected slot has passed)."""
        return self._captured

    def clear(self) -> None:
        """End the window: forget the capture, re-arm for the next."""
        self._position = 0
        self._select = None
        self._captured = None

    window_reset = clear

    def occupancy(self) -> int:
        return 0 if self._captured is None else 1

    def spillover(self) -> int:
        return 0


class ResilientMisraGries(MisraGries):
    """DAPPER-style performance-attack-resilient Misra-Gries.

    Two hardenings over the plain tracker, aimed at adversaries that
    attack the *tracker* (to induce spurious mitigations and tank
    performance) rather than the DRAM:

    * decisions use :meth:`lower_bound` -- the provable true-count floor
      ``count - spill`` -- so thrashing the table inflates ``spill`` but
      can never promote a cold row into a mitigation target;
    * :meth:`halve` decays counters and spill at the window boundary
      instead of clearing, so forcing resets cannot launder a hot row's
      accumulated history.
    """

    def lower_bound(self, key: int) -> int:
        """Provable minimum true count since the key's last reset."""
        count = self.counts.get(key)
        if count is None:
            return 0
        return max(0, count - self.spill)

    def hottest(self) -> Optional[Tuple[int, int]]:
        """The max entry with its lower bound; None when nothing is
        provably hot (mitigating then would be attacker-steerable)."""
        entry = self.max_entry()
        if entry is None:
            return None
        key, count = entry
        bound = count - self.spill
        if bound <= 0:
            return None
        return key, bound

    def halve(self) -> None:
        """Window-boundary decay: halve every counter and the spill,
        dropping entries that sink to the new floor."""
        self.spill //= 2
        halved = {key: count // 2 for key, count in self.counts.items()}
        self.counts = {key: count for key, count in halved.items()
                       if count > self.spill}

    window_reset = halve
    settle = MisraGries.reset_key


class CountMinSketch:
    """Count-min sketch with multiplicative hashing."""

    _PRIMES = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F,
               0x165667B1, 0x94D049BB)

    def __init__(self, width: int, depth: int = 4):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        if depth > len(self._PRIMES):
            raise ValueError(f"depth is limited to {len(self._PRIMES)}")
        self.width = width
        self.depth = depth
        self.rows: List[List[int]] = [[0] * width for _ in range(depth)]
        #: ``(row index, prime, counters)`` per hash row.  ``add`` and
        #: ``estimate`` hash inline from it: BlockHammer probes the
        #: sketch on every scan of a closed bank.
        self._lanes = tuple(zip(range(depth), self._PRIMES, self.rows))

    def add(self, key: int, amount: int = 1) -> None:
        width = self.width
        for r, prime, counters in self._lanes:
            h = (key * prime + r) & 0xFFFFFFFF
            counters[(h ^ (h >> 15)) % width] += amount

    def estimate(self, key: int) -> int:
        width = self.width
        least = None
        for r, prime, counters in self._lanes:
            h = (key * prime + r) & 0xFFFFFFFF
            count = counters[(h ^ (h >> 15)) % width]
            if least is None or count < least:
                least = count
        return least

    def clear(self) -> None:
        for row in self.rows:
            for i in range(len(row)):
                row[i] = 0


@dataclass
class _Epoch:
    filter: CountMinSketch
    started: int


class DualCountingBloomFilter:
    """BlockHammer's D-CBF: two sketches alternating per epoch half.

    One sketch is *active* (counts new ACTs); the other holds the
    previous half-epoch.  A row's estimate is the max of the two, so a
    row hot across an epoch boundary is still caught; clearing the
    retired sketch bounds staleness to one epoch.
    """

    def __init__(self, width: int, epoch_cycles: int, depth: int = 4):
        if epoch_cycles <= 0:
            raise ValueError("epoch_cycles must be positive")
        self.epoch_cycles = epoch_cycles
        self._active = _Epoch(CountMinSketch(width, depth), 0)
        self._retired = _Epoch(CountMinSketch(width, depth), -epoch_cycles)
        self.rotations = 0

    def _maybe_rotate(self, cycle: int) -> None:
        while cycle - self._active.started >= self.epoch_cycles:
            self._retired.filter.clear()
            self._retired, self._active = self._active, self._retired
            self._active.started = self._retired.started + self.epoch_cycles
            self.rotations += 1

    def observe(self, key: int, cycle: int) -> None:
        self._maybe_rotate(cycle)
        self._active.filter.add(key)

    def estimate(self, key: int, cycle: int) -> int:
        self._maybe_rotate(cycle)
        return max(self._active.filter.estimate(key),
                   self._retired.filter.estimate(key))
