"""Memory request objects flowing from cores to the controller."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.controller.address import MemoryLocation

#: The next request id: unique and increasing in creation order.  A
#: builtin, so neither the default below nor a caller that passes it
#: (``ThreadState.issue``) makes a Python-level call per request.
next_request_id = itertools.count().__next__


@dataclass(slots=True)
class MemoryRequest:
    """One cache-line memory request.

    Lifecycle: created by a core model at ``arrival`` -> enqueued at the MC
    -> column command issued (``issued``) -> data burst done (``completed``).
    Writes are posted: the issuing thread does not wait on them, but the
    request still occupies DRAM resources.
    """

    location: MemoryLocation
    is_write: bool
    thread_id: int
    arrival: int
    request_id: int = field(default_factory=next_request_id)
    issued: Optional[int] = None
    completed: Optional[int] = None
    #: Cached PA-to-DA translation, set at enqueue; the controller
    #: re-translates every queued request of a bank when the mitigation
    #: reports that bank's remap (a shuffle or a swap).
    da_row: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        if self.completed is None:
            return None
        return self.completed - self.arrival

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "WR" if self.is_write else "RD"
        return (f"<{kind} #{self.request_id} t{self.thread_id} "
                f"{self.location} @{self.arrival}>")
