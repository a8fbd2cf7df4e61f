"""The reference event loop: the executable spec of the ordering contract.

This is the simulator's original single-heap loop, kept verbatim apart
from taking the ``System`` as an argument.  Channel wakes are ordinary
heap events; a re-arm to an earlier cycle pushes a second event and the
superseded one is recognised (``armed_wake[ch] != cycle``) and
discarded when popped.  ``System.run`` must process the same events in
the same order, which ``tests/test_event_loop.py`` checks command for
command.

The loop also counts *revived* wakes: a superseded channel entry that
fires anyway because its channel was later re-armed at that entry's own
cycle.  It fires ahead of the newer entry because it carries the older
seq, which changes same-cycle ordering against other events.  The count
lets the equivalence tests prove they exercise that case.
"""

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.sim.system import System, SystemResult


def run_reference(system: System) -> Tuple[SystemResult, int]:
    """Simulate ``system`` to completion through the reference loop.

    Returns the result and the number of revived channel wakes.
    """
    revived = 0

    def loop(sampler, next_sample: int) -> int:
        nonlocal revived
        counter = itertools.count()
        heap: List = []

        def push(cycle: int, kind: str, payload) -> int:
            seq = next(counter)
            heapq.heappush(heap, (cycle, seq, kind, payload))
            return seq

        for thread in system.threads:
            push(thread.next_ready, "thread", thread.thread_id)

        last_cycle = 0

        # Earliest scheduled wake per channel; later duplicates are
        # dropped when popped (each drain re-derives its next wake).
        armed_wake: Dict[int, Optional[int]] = {
            ch: None for ch in range(system.config.geometry.channels)}
        # Ticket of the push that last armed each channel.
        armed_seq: Dict[int, int] = {}

        def arm_channel(ch: int, at: int) -> None:
            current = armed_wake[ch]
            if current is None or at < current:
                armed_wake[ch] = at
                armed_seq[ch] = push(at, "channel", ch)

        while heap:
            cycle, seq, kind, payload = heapq.heappop(heap)
            if cycle > system.config.max_cycles:
                raise system._livelock()
            last_cycle = max(last_cycle, cycle)
            if cycle >= next_sample:
                next_sample = sampler.sample(cycle)

            if kind == "thread":
                thread = system.threads[payload]
                touched = set()
                while thread.can_issue(cycle):
                    request = thread.issue(cycle)
                    system.mc.enqueue(request)
                    touched.add(request.location.channel)
                for ch in touched:
                    arm_channel(ch, cycle)
                if not thread.drained and not thread.stalled_on_mlp(cycle):
                    push(thread.next_ready, "thread", thread.thread_id)
                # If stalled on MLP, a completion event reschedules us.

            elif kind == "channel":
                ch = payload
                if armed_wake[ch] != cycle:
                    continue  # stale duplicate; an earlier event ran
                if seq != armed_seq[ch]:
                    revived += 1
                armed_wake[ch] = None
                completions, wake = system.mc.drain(ch, cycle)
                for request, done in completions:
                    push(max(done, cycle), "complete", request)
                if wake is not None:
                    arm_channel(ch, max(wake, cycle + 1))

            else:  # complete
                request = payload
                thread = system.threads[request.thread_id]
                thread.on_completion(request, cycle)
                if not thread.drained and thread.can_issue(cycle):
                    push(cycle, "thread", thread.thread_id)

            # pending_requests() is an O(1) counter read; check it first
            # so the common not-done case skips the thread scan.
            if system.mc.pending_requests() == 0 \
                    and all(t.finished for t in system.threads):
                break

        return last_cycle

    result = system._run_with(loop)
    return result, revived
