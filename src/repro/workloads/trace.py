"""Profile-driven memory trace generation.

A :class:`WorkloadProfile` captures the memory behaviour of one
application; a :class:`TraceGenerator` turns it into an endless,
deterministic stream of ``(gap_cycles, location, is_write)`` tuples for
one hardware thread.

The generator works in *pages*: a page is the contiguous physical-address
block that maps onto a single (row, bank, rank) across every channel and
column, so streaming within a page produces row-buffer hits and hopping
between pages produces row misses.  Run lengths within a page follow a
geometric distribution whose mean encodes the profile's row-buffer
locality; inter-request gaps derive from MPKI and the CPU-to-DRAM clock
ratio.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.controller.address import MemoryLocation
from repro.dram.device import DramGeometry

#: One materialized request: ``(gap_cycles, location, is_write)``.
Op = Tuple[int, MemoryLocation, bool]


@dataclass(frozen=True)
class WorkloadProfile:
    """Memory behaviour of one application."""

    name: str
    mpki: float                  # last-level-cache misses / kilo-instruction
    row_buffer_locality: float   # P(next access stays in the open row)
    write_fraction: float = 0.25
    footprint_pages: int = 4096  # distinct pages the thread cycles over
    sequential: bool = False     # stream pages in order (NPB-style)
    #: Zipf exponent of page popularity (0 = uniform).  Pointer-chasing
    #: workloads concentrate their misses on hot rows even after caches;
    #: this is the property that makes per-row trackers (RRS,
    #: BlockHammer, Graphene) fire on *normal* applications.
    zipf_alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ValueError("mpki must be positive")
        if not 0.0 <= self.row_buffer_locality < 1.0:
            raise ValueError("row_buffer_locality must be in [0, 1)")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.footprint_pages <= 0:
            raise ValueError("footprint_pages must be positive")
        if self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative")

    @property
    def mean_run_length(self) -> float:
        """Expected consecutive accesses to one page."""
        return 1.0 / (1.0 - self.row_buffer_locality)

    def intensity_class(self) -> str:
        """The paper's grouping: high / med / low memory intensity."""
        if self.mpki >= 15:
            return "high"
        if self.mpki >= 4:
            return "med"
        return "low"


@lru_cache(maxsize=None)
def zipf_cdf(footprint_pages: int, alpha: float) -> Tuple[float, ...]:
    """Cumulative Zipf(``alpha``) popularity of ranks 1..``footprint_pages``.

    Shared read-only by every generator of the process: a sweep builds
    each of its few distinct CDFs once instead of once per thread.
    """
    sums = list(accumulate(float(rank) ** -alpha
                           for rank in range(1, footprint_pages + 1)))
    total = sums[-1]
    return tuple(value / total for value in sums)


class TraceGenerator:
    """Deterministic per-thread request stream."""

    def __init__(self, profile: WorkloadProfile, geometry: DramGeometry,
                 thread_id: int, seed: int = 1, cpu_ghz: float = 3.1,
                 instructions_per_cycle: float = 2.0):
        self.profile = profile
        self.geometry = geometry
        self.thread_id = thread_id
        self.seed = seed
        # Gaps are kept in *nanoseconds* internally (the system converts
        # to DRAM cycles), so one trace serves any speed grade.
        self._gap_ns_per_instr = 1.0 / (cpu_ghz * instructions_per_cycle)
        # Page space: every (row, bank, rank) combination, partitioned
        # round-robin between threads so footprints do not overlap.
        self._pages_total = (geometry.rows_per_bank
                             * geometry.banks_per_rank
                             * geometry.ranks_per_channel)
        self._columns = geometry.columns_per_row
        self._channels = geometry.channels

    # -- page <-> location arithmetic -----------------------------------------------

    #: Pages per bank cluster: consecutive page indices share a bank (in
    #: adjacent rows) in groups of this size, the way contiguous hot
    #: allocations co-locate in a bank region.  Without clustering, a
    #: popularity skew spreads its head pages over distinct banks where
    #: each stays open in its row buffer and *never re-activates*; with
    #: it, hot pages conflict and produce the per-row ACT pressure that
    #: row-tracking defenses (RRS, BlockHammer, Graphene) respond to.
    PAGES_PER_CLUSTER = 8

    # -- the stream -------------------------------------------------------------------

    def materialize(self, count: int, tck_ns: Optional[float] = None
                    ) -> List[Tuple[float, MemoryLocation, bool]]:
        """Pregenerate the first ``count`` requests as a plain list.

        The values are produced by the exact same code path as
        :meth:`requests` (same RNG draws, same float arithmetic), so a
        materialized stream is element-identical to the lazy one -- the
        simulator's issue path just becomes an index bump instead of a
        generator resume.  With ``tck_ns`` given, the per-request gap is
        pre-converted from nanoseconds to DRAM cycles using the same
        ``max(1, int(gap_ns / tck_ns))`` the core model applies.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        stream = islice(self.requests(), count)
        if tck_ns is None:
            return list(stream)
        ops = []
        append = ops.append
        for gap_ns, location, is_write in stream:
            gap = int(gap_ns / tck_ns)
            append((gap if gap > 1 else 1, location, is_write))
        return ops

    def requests(self) -> Iterator[Tuple[float, MemoryLocation, bool]]:
        """Yield ``(gap_ns, location, is_write)`` forever."""
        profile = self.profile
        # The same stream SystemRng wraps, drawn directly: next_bits(w)
        # is getrandbits(w) and randrange(n) is random.randrange(n).
        rng = random.Random(self.seed * 1_000_003 + self.thread_id)
        getrandbits = rng.getrandbits
        randrange = rng.randrange
        sequential = profile.sequential
        zipf = None
        if profile.zipf_alpha > 0 and not sequential:
            zipf = zipf_cdf(profile.footprint_pages, profile.zipf_alpha)
        footprint = profile.footprint_pages
        locality = profile.row_buffer_locality
        write_fraction = profile.write_fraction
        gap_scale = (1000.0 / profile.mpki) * self._gap_ns_per_instr
        geometry = self.geometry
        banks = geometry.banks_per_rank
        ranks = geometry.ranks_per_channel
        rows = geometry.rows_per_bank
        channels = self._channels
        columns = self._columns
        per_cluster = self.PAGES_PER_CLUSTER
        pages_total = self._pages_total
        # Footprint index -> global page, thread-offset so the threads
        # of a mix touch (mostly) disjoint memory.
        base = (self.thread_id * 7919) % pages_total
        page_index = 0
        line = 0
        lines_left = 0
        while True:
            if lines_left <= 0:
                # Pick the next page and a geometric run length.
                if sequential:
                    page_index = (page_index + 1) % footprint
                elif zipf is not None:
                    page_index = bisect_right(
                        zipf, getrandbits(24) / 16777216.0)
                else:
                    page_index = randrange(footprint)
                # The page's (rank, bank, row); one page spans every
                # channel and column.
                cluster, sub = divmod((base + page_index) % pages_total,
                                      per_cluster)
                bank = cluster % banks
                rank = (cluster // banks) % ranks
                row = ((cluster // (banks * ranks)) * per_cluster
                       + sub) % rows
                line = 0
                # Geometric with mean 1/(1-locality), via inverse CDF.
                lines_left = 1
                while getrandbits(16) / 65536.0 < locality:
                    lines_left += 1
            location = MemoryLocation(line % channels, rank, bank, row,
                                      (line // channels) % columns)
            line += 1
            lines_left -= 1
            is_write = getrandbits(16) / 65536.0 < write_fraction
            # Gap: instructions to the next miss, +/-50% jitter.
            jitter = 0.5 + getrandbits(16) / 65536.0
            yield gap_scale * jitter, location, is_write


def trace_key(profiles: Sequence, config) -> Tuple:
    """What one run's per-thread traces are a function of.

    ``(profiles, geometry, seed, cpu_ghz, requests_per_thread, tck_ns)``
    of a :class:`~repro.sim.system.SystemConfig` ``config``: everything
    :class:`TraceGenerator`, a profile's own ``trace_generator`` and
    ``materialize`` read.  Runs with equal keys replay equal traces
    whatever their scheme, fault injector or observer.
    """
    return (tuple(profiles), config.geometry, config.seed, config.cpu_ghz,
            config.requests_per_thread, config.timing.tck_ns)


#: The last run's ``(trace_key, per-thread op tuples)``.  One slot: a
#: sweep that submits the runs of one trace back to back (as
#: ``Engine.run`` does) hits it, and it never holds more than one run's
#: traces (DESIGN.md section 13).
_last_traces: Tuple[Optional[Tuple], Tuple[Tuple[Op, ...], ...]] = (None, ())


def thread_traces(profiles: Sequence, config) -> Tuple[Tuple[Op, ...], ...]:
    """Each thread's first ``config.requests_per_thread`` requests, gaps
    in DRAM cycles, as read-only op tuples.

    Profiles exposing ``trace_generator(geometry, thread_id, seed,
    cpu_ghz)`` (the adversarial hammer profiles) supply their own
    stream; everything else takes the statistical
    :class:`TraceGenerator`.  A run whose :func:`trace_key` equals the
    previous run's gets that run's tuples back; otherwise the slot is
    emptied before the new traces are built.
    """
    global _last_traces
    key = trace_key(profiles, config)
    if _last_traces[0] == key:
        return _last_traces[1]
    _last_traces = (None, ())
    geometry = config.geometry
    traces = []
    for thread_id, profile in enumerate(profiles):
        make = getattr(profile, "trace_generator", None)
        if make is not None:
            generator = make(geometry, thread_id, config.seed,
                             config.cpu_ghz)
        else:
            generator = TraceGenerator(profile, geometry, thread_id,
                                       seed=config.seed,
                                       cpu_ghz=config.cpu_ghz)
        traces.append(tuple(generator.materialize(
            config.requests_per_thread, config.timing.tck_ns)))
    _last_traces = (key, tuple(traces))
    return _last_traces[1]
