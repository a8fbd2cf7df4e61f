"""Trace file import/export.

Lets downstream users bring their own memory traces (e.g. from a pin
tool or another simulator) instead of the synthetic generators, and
dump the synthetic streams for inspection.  Format: plain text, one
request per line::

    # gap_ns channel rank bank row column kind
    12.5 0 0 3 1047 12 R
    3.0  1 0 3 1047 13 W

``#`` lines and blank lines are ignored.  ``kind`` is ``R`` or ``W``.
"""

from __future__ import annotations

import io
from itertools import islice
from typing import Iterable, Iterator, List, TextIO, Tuple, Union

from repro.controller.address import MemoryLocation

TraceEntry = Tuple[float, MemoryLocation, bool]


def dump_trace(entries: Iterable[TraceEntry], stream: TextIO) -> int:
    """Write entries to ``stream``; returns the count written."""
    stream.write("# gap_ns channel rank bank row column kind\n")
    count = 0
    for gap_ns, loc, is_write in entries:
        kind = "W" if is_write else "R"
        stream.write(f"{gap_ns:.3f} {loc.channel} {loc.rank} {loc.bank} "
                     f"{loc.row} {loc.column} {kind}\n")
        count += 1
    return count


def dump_trace_file(entries: Iterable[TraceEntry], path: str) -> int:
    """Write a trace file to ``path``; returns the entry count."""
    with open(path, "w") as handle:
        return dump_trace(entries, handle)


def parse_trace(stream: Union[TextIO, str]) -> Iterator[TraceEntry]:
    """Parse a trace stream lazily; raises ValueError with line numbers
    on malformed input."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 7:
            raise ValueError(
                f"trace line {lineno}: expected 7 fields, got {len(parts)}")
        try:
            gap_ns = float(parts[0])
            channel, rank, bank, row, column = map(int, parts[1:6])
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from exc
        if gap_ns < 0:
            raise ValueError(f"trace line {lineno}: negative gap")
        kind = parts[6].upper()
        if kind not in ("R", "W"):
            raise ValueError(
                f"trace line {lineno}: kind must be R or W, got {parts[6]}")
        yield (gap_ns, MemoryLocation(channel, rank, bank, row, column),
               kind == "W")


def load_trace_file(path: str) -> List[TraceEntry]:
    """Parse a whole trace file into memory."""
    with open(path) as handle:
        return list(parse_trace(handle))


class FileTrace:
    """Adapter presenting a parsed trace as a thread's request stream.

    ``loop=True`` repeats the trace when the request budget outruns it
    (common when comparing against the endless synthetic generators).
    """

    def __init__(self, entries: List[TraceEntry], loop: bool = True):
        if not entries:
            raise ValueError("trace must contain at least one request")
        self.entries = entries
        self.loop = loop

    @classmethod
    def from_file(cls, path: str, loop: bool = True) -> "FileTrace":
        return cls(load_trace_file(path), loop=loop)

    def requests(self) -> Iterator[TraceEntry]:
        while True:
            for entry in self.entries:
                yield entry
            if not self.loop:
                return

    def materialize(self, count: int, tck_ns: float
                    ) -> List[Tuple[int, MemoryLocation, bool]]:
        """The first ``count`` requests as a thread's ``ops`` list, each
        gap converted to DRAM cycles with ``max(1, int(gap_ns /
        tck_ns))``, as the synthetic generators convert theirs."""
        return [(max(1, int(gap_ns / tck_ns)), location, is_write)
                for gap_ns, location, is_write
                in islice(self.requests(), count)]
