"""The event-driven full-system loop.

Threads inject requests (subject to their gaps and MLP windows); each
channel of the memory controller drains at its own pace; completions
wake stalled threads.

:meth:`System.run` is a single-heap loop and deterministic: thread
readiness, load completions and channel wakes are all heap entries,
and every scheduled occurrence -- thread wake, channel wake (or re-arm
to an earlier cycle), completion delivery -- consumes one ticket from a
single global sequence counter, so occurrences are processed in
``(cycle, seq)`` order and equal-time events in insertion order.  A
re-arm leaves the superseded channel entry in the heap; it is
recognised as stale by its cycle and skipped when popped.  Nothing in
the simulator advances state between events, so jumping the clock from
one popped event to the next skips no work.

``tests/event_loop_reference.py`` keeps the simulator's original loop
as the executable specification, and ``tests/test_event_loop.py`` pins this
loop to it command for command.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional

from repro.controller.mc import McConfig, MemoryController
from repro.dram.device import DramDevice, DramGeometry
from repro.dram.timing import DDR4_2666, TimingParams
from repro.mitigations.base import Mitigation
from repro.mitigations.none import NoMitigation
from repro.sim.core_model import ThreadState
from repro.workloads.trace import WorkloadProfile, thread_traces


@dataclass
class SystemConfig:
    """Everything one simulation run needs."""

    geometry: DramGeometry = field(default_factory=DramGeometry)
    timing: TimingParams = DDR4_2666
    requests_per_thread: int = 2000
    #: Outstanding-load window per thread.  Modern cores sustain 10-20
    #: in-flight misses; a small window would serialize ACT latency into
    #: the critical path and overstate tRCD-sensitive overheads.
    mlp: int = 16
    seed: int = 1
    cpu_ghz: float = 3.1
    enable_refresh: bool = True
    max_cycles: int = 2_000_000_000

    def __post_init__(self) -> None:
        if self.requests_per_thread <= 0:
            raise ValueError("requests_per_thread must be positive")
        if self.mlp <= 0:
            raise ValueError("mlp must be positive")
        if self.cpu_ghz <= 0:
            raise ValueError("cpu_ghz must be positive")
        if self.max_cycles <= 0:
            raise ValueError("max_cycles must be positive")


@dataclass
class SystemResult:
    """Outcome of one run."""

    cycles: int
    thread_finish_cycles: List[int]
    reads_completed: int
    requests_issued: int
    stats: "BankStats"
    refreshes: int
    rfms: int
    mitigation_name: str
    #: tCK of the run's speed grade, so cycle counts can be reported on
    #: the wall-clock scale without the caller re-plumbing the timing.
    tck_ns: float = 1.0

    @property
    def finish_ns(self) -> List[float]:
        """Per-thread finish times in nanoseconds (cycles x tCK)."""
        return [cycles * self.tck_ns
                for cycles in self.thread_finish_cycles]


class System:
    """One simulated machine: cores + MC + DRAM + mitigation."""

    def __init__(self, profiles: List[WorkloadProfile],
                 mitigation: Optional[Mitigation] = None,
                 observer=None,
                 config: Optional[SystemConfig] = None,
                 obs=None):
        if not profiles:
            raise ValueError("at least one workload profile is required")
        self.config = config or SystemConfig()
        self.mitigation = mitigation or NoMitigation()
        self.device = DramDevice(self.config.geometry, self.config.timing)
        self.obs = obs
        if obs is not None:
            obs.bind(self.config.timing.tck_ns)
        self.mc = MemoryController(
            self.device, self.mitigation, observer=observer,
            config=McConfig(enable_refresh=self.config.enable_refresh),
            obs=obs)
        # Traces are materialized up front (exactly the per-thread
        # request budget, gaps pre-converted to cycles): the hot loop's
        # issue path indexes a tuple instead of resuming a generator.
        # A run of the previous run's trace reuses its tuples.
        self.threads = [
            ThreadState(thread_id=i, ops=ops,
                        request_budget=self.config.requests_per_thread,
                        mlp=self.config.mlp)
            for i, ops in enumerate(thread_traces(profiles, self.config))]

    # -- the event loop --------------------------------------------------------------

    def run(self) -> SystemResult:
        """Simulate to completion with the single-heap event loop."""
        return self._run_with(self._loop)

    def _run_with(self, loop) -> SystemResult:
        """Run ``loop(sampler, next_sample) -> last_cycle`` and assemble
        the result; any loop honouring the ordering contract fits."""
        # Snapshot sampling: when off, ``next_sample`` sits past
        # max_cycles so the hot loop pays one int compare and nothing
        # else.
        sampler = None
        next_sample = self.config.max_cycles + 1
        obs = self.obs
        if obs is not None and obs.sample_interval > 0:
            from repro.obs.sampler import SnapshotSampler
            sampler = SnapshotSampler(self, obs)
            next_sample = obs.sample_interval

        last_cycle = loop(sampler, next_sample)

        if sampler is not None:
            sampler.sample(last_cycle)

        stats = self.device.aggregate_stats()
        refreshes = sum(rank.refs for rank in self.device.ranks.values())
        rfms = self.mc.raa.rfms_issued if self.mc.raa else 0
        result = SystemResult(
            cycles=last_cycle,
            thread_finish_cycles=[t.finish_cycle or last_cycle
                                  for t in self.threads],
            reads_completed=sum(t.completed_reads for t in self.threads),
            requests_issued=sum(t.issued for t in self.threads),
            stats=stats,
            refreshes=refreshes,
            rfms=rfms,
            mitigation_name=self.mitigation.name,
            tck_ns=self.config.timing.tck_ns,
        )
        if obs is not None:
            from repro.obs.sampler import collect_summary
            obs.summary = collect_summary(self, result)
        return result

    def _livelock(self) -> RuntimeError:
        return RuntimeError(
            "simulation exceeded max_cycles; the system is likely "
            "livelocked (check mitigation blocking times)")

    def _loop(self, sampler, next_sample: int) -> int:
        """The single-heap event loop; returns the last processed cycle.

        Heap events are ``(cycle, seq, kind, payload)`` with kind 0 =
        thread readiness, 1 = load completion and 2 = channel wake.
        ``armed_wake[ch]`` holds channel ``ch``'s live wake cycle (-1 =
        unarmed); re-arming to an earlier cycle pushes a second entry,
        and an entry whose cycle no longer matches ``armed_wake`` is
        stale and skipped before any bookkeeping.  A superseded entry
        whose channel is re-armed at its own cycle is live again and,
        carrying the older seq, fires first (see DESIGN.md section 13).
        A channel wake's drain may also stand for the channel's own
        later wakes, which are then never pushed (same section).  A
        thread's readiness entry is parked in ``parked`` instead of
        pushed while its load window is full; the thread's next read
        completion pushes it back or drops it (same section).  A
        readiness entry issues at most one request, and also pops the
        thread's entries at the same cycle that are next in pop order,
        which stand for nothing it does not already do (same section).
        """
        config = self.config
        max_cycles = config.max_cycles
        threads = self.threads
        mc = self.mc
        drain = mc.drain
        enqueue = mc.enqueue
        heap: List = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        seq = 0
        for thread in threads:
            heappush(heap, (thread.next_ready, seq, 0, thread.thread_id))
            seq += 1
        armed_wake = [-1] * config.geometry.channels
        # Per-thread readiness entry held out of the heap while the
        # thread's load window is full (None = nothing parked).
        parked: List = [None] * len(threads)
        last_cycle = 0
        # O(1) termination bookkeeping: a thread finishes exactly once
        # (its last issue for posted-write tails, its last read
        # completion otherwise), so count down instead of re-scanning
        # ``all(t.finished ...)`` after every drain.
        unfinished = sum(1 for t in threads if not t.finished)

        while heap:
            cycle, ticket, kind, payload = heappop(heap)
            if kind == 2 and armed_wake[payload] != cycle:
                continue  # stale: the channel was re-armed earlier
            if cycle > max_cycles:
                raise self._livelock()
            if cycle > last_cycle:
                last_cycle = cycle
            if cycle >= next_sample:
                next_sample = sampler.sample(cycle)

            if kind == 2:
                # -- channel wake: drain commands up to ``cycle`` ---------
                # While a thread is unfinished, the drain may run ahead
                # through this channel's own later wakes, up to (not
                # including) the next heap event, the next sample and
                # max_cycles; it then stands for those wakes and
                # ``cycle`` becomes the last of them (DESIGN.md
                # section 13).
                limit = -1
                if unfinished:
                    limit = heap[0][0] - 1 if heap else max_cycles
                    if limit >= next_sample:
                        limit = next_sample - 1
                    if limit > max_cycles:
                        limit = max_cycles
                completions, wake = drain(payload, cycle, limit)
                cycle = mc.drain_until
                if cycle > last_cycle:
                    last_cycle = cycle
                for request, done in completions:
                    # Data returns at `done`, possibly beyond this drain
                    # horizon: deliver it as its own event.
                    heappush(heap, (done if done > cycle else cycle,
                                    seq, 1, request))
                    seq += 1
                if wake is None:
                    armed_wake[payload] = -1
                else:
                    at = wake if wake > cycle else cycle + 1
                    armed_wake[payload] = at
                    heappush(heap, (at, seq, 2, payload))
                    seq += 1
                # Termination can only first become true after a drain
                # (pending hits zero) or a completion (a final load
                # returns); thread events always add pending work.
                if not unfinished and mc._pending_total == 0:
                    break

            elif kind == 0:
                # -- thread readiness: issue if the window allows --------
                # The thread's entries at this cycle that are next in pop
                # order would see the state this entry leaves and only
                # reschedule beside its own reschedule: fold them into
                # it (DESIGN.md section 13).
                while heap:
                    head = heap[0]
                    if head[0] != cycle or head[2] != 0 \
                            or head[3] != payload:
                        break
                    heappop(heap)
                thread = threads[payload]
                # ThreadState.can_issue inlined.
                pending = thread._pending
                if pending is not None and cycle >= thread.next_ready \
                        and (pending[2]
                             or thread.outstanding < thread.mlp):
                    # One request per pop: every materialized gap is at
                    # least one cycle, so the thread is not ready again
                    # in this cycle (a zero gap would issue through the
                    # same-cycle reschedule below).
                    request = thread.issue(cycle)
                    enqueue(request)
                    # ThreadState.finished inlined.
                    if thread._pending is None and not thread.outstanding:
                        # Posted-write tail: drained with no loads out.
                        unfinished -= 1
                    ch = request.location.channel
                    c = armed_wake[ch]
                    if c < 0 or cycle < c:
                        armed_wake[ch] = cycle
                        heappush(heap, (cycle, seq, 2, ch))
                        seq += 1
                # drained/stalled_on_mlp inlined: reschedule unless the
                # trace is exhausted or the thread is stalled (ready but
                # its load window full); a stalled thread gets its next
                # entry from the read completion that lets it issue.
                pending = thread._pending
                if pending is not None:
                    ready = thread.next_ready
                    if pending[2] or thread.outstanding < thread.mlp:
                        heappush(heap, (ready, seq, 0, payload))
                        seq += 1
                    elif cycle < ready:
                        # Window full: the entry can only pop as a no-op
                        # unless one of the thread's reads completes
                        # first, so park it (DESIGN.md section 13).
                        entry = (ready, seq, 0, payload)
                        seq += 1
                        if ready < next_sample and parked[payload] is None:
                            parked[payload] = entry
                        else:
                            heappush(heap, entry)

            else:
                # -- completion: data returned to the issuing thread ------
                request = payload
                thread = threads[request.thread_id]
                thread.on_completion(request, cycle)
                if not request.is_write:
                    entry = parked[request.thread_id]
                    if entry is not None:
                        # The first read completion after a park: the
                        # parked entry pops with its own ticket if it
                        # comes later, and is dropped if it would have
                        # popped (as a no-op) already.
                        parked[request.thread_id] = None
                        if (cycle, ticket) < entry:
                            heappush(heap, entry)
                    if thread._pending is None and not thread.outstanding:
                        # This read was the thread's last outstanding
                        # load (ThreadState.finished inlined).
                        unfinished -= 1
                # can_issue inlined (drained is subsumed by the
                # pending-None check).
                pending = thread._pending
                if pending is not None and cycle >= thread.next_ready \
                        and (pending[2]
                             or thread.outstanding < thread.mlp):
                    heappush(heap, (cycle, seq, 0, request.thread_id))
                    seq += 1
                if not unfinished and mc._pending_total == 0:
                    break

        return last_cycle
