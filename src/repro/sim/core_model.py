"""A simple out-of-order core front end.

Each hardware thread replays its trace with bounded memory-level
parallelism: up to ``mlp`` loads outstanding; stores are posted (they
occupy DRAM but never stall the thread).  Request ``i`` becomes ready
``gap_i`` after request ``i-1`` was *issued*, modelling the compute
between misses; when the MLP window is full the thread stalls until a
load returns.

This is the McSimA+-style application-level abstraction: detailed
enough that memory latency and bandwidth changes move end-to-end
runtime the way they do on real cores, cheap enough to simulate many
threads.

Feeding: a thread replays a pregenerated ``ops`` tuple of
``(gap_cycles, location, is_write)`` entries (see
:func:`~repro.workloads.trace.thread_traces`), so advancing the trace is
an index bump and the ns->cycle gap conversion happened up front.  The
thread only reads ``ops``: runs of one trace share the same tuple.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.controller.address import MemoryLocation
from repro.controller.request import MemoryRequest, next_request_id


class ThreadState:
    """Execution state of one hardware thread."""

    __slots__ = ("thread_id", "budget", "issued", "completed_reads",
                 "mlp", "outstanding", "next_ready", "finish_cycle",
                 "_pending", "_ops", "_pos")

    def __init__(self, thread_id: int,
                 ops: Sequence[Tuple[int, MemoryLocation, bool]],
                 request_budget: int = 1, mlp: int = 8):
        if request_budget <= 0:
            raise ValueError("request_budget must be positive")
        if mlp <= 0:
            raise ValueError("mlp must be positive")
        if len(ops) < request_budget:
            raise ValueError("ops must cover the full request budget")
        self.thread_id = thread_id
        self._ops = ops
        self.budget = request_budget
        self.issued = 0
        self.completed_reads = 0
        self.mlp = mlp
        self.outstanding = 0
        self.finish_cycle: Optional[int] = None
        # The budget is positive, so the first op is pending from the
        # start; ``issue`` loads each next one.
        self._pending: Optional[Tuple[int, MemoryLocation, bool]] = ops[0]
        self._pos = 1
        self.next_ready: int = ops[0][0]  # cycle the next request may issue

    # -- scheduling interface ---------------------------------------------------------

    @property
    def drained(self) -> bool:
        """All requests issued (completions may still be in flight)."""
        return self._pending is None

    @property
    def finished(self) -> bool:
        return self._pending is None and self.outstanding == 0

    def can_issue(self, cycle: int) -> bool:
        pending = self._pending
        if pending is None or cycle < self.next_ready:
            return False
        return pending[2] or self.outstanding < self.mlp

    def stalled_on_mlp(self, cycle: int) -> bool:
        """Ready to run but blocked by the load window."""
        pending = self._pending
        if pending is None or cycle < self.next_ready:
            return False
        return not pending[2] and self.outstanding >= self.mlp

    def issue(self, cycle: int) -> MemoryRequest:
        """Materialize the pending request at ``cycle``."""
        pending = self._pending
        if pending is None or cycle < self.next_ready or \
                not (pending[2] or self.outstanding < self.mlp):
            raise RuntimeError("thread cannot issue at this cycle")
        _gap, location, is_write = pending
        request = MemoryRequest(location, is_write, self.thread_id, cycle,
                                next_request_id())
        self.issued += 1
        if not is_write:
            self.outstanding += 1
        # Load the next op: it becomes ready its gap after this issue.
        if self.issued < self.budget:
            pending = self._ops[self._pos]
            self._pos += 1
            self._pending = pending
            self.next_ready = cycle + pending[0]
        else:
            self._pending = None
            if self.outstanding == 0:
                self.finish_cycle = cycle
        return request

    def on_completion(self, request: MemoryRequest, cycle: int) -> None:
        """A load of this thread returned."""
        if request.is_write:
            return
        if self.outstanding <= 0:
            raise RuntimeError("completion without an outstanding load")
        self.outstanding -= 1
        self.completed_reads += 1
        if self._pending is None and self.outstanding == 0:
            self.finish_cycle = max(self.finish_cycle or 0, cycle)
