"""Trace file round-trips and the FileTrace adapter."""

import io
import itertools

import pytest

from repro.controller.address import AddressMapping, MemoryLocation
from repro.dram.device import DramGeometry
from repro.sim.core_model import ThreadState
from repro.workloads import SPEC_PROFILES, TraceGenerator
from repro.workloads.tracefile import (
    FileTrace,
    dump_trace,
    dump_trace_file,
    load_trace_file,
    parse_trace,
)

ENTRIES = [
    (12.5, MemoryLocation(0, 0, 3, 1047, 12), False),
    (3.0, MemoryLocation(1, 0, 3, 1047, 13), True),
    (0.0, MemoryLocation(0, 1, 0, 0, 0), False),
]


class TestRoundTrip:
    def test_dump_parse_roundtrip(self):
        buffer = io.StringIO()
        assert dump_trace(ENTRIES, buffer) == 3
        parsed = list(parse_trace(buffer.getvalue()))
        assert parsed == ENTRIES

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        dump_trace_file(ENTRIES, path)
        assert load_trace_file(path) == ENTRIES

    def test_synthetic_generator_roundtrips(self, tmp_path):
        mapping = AddressMapping(DramGeometry())
        gen = TraceGenerator(SPEC_PROFILES["gcc"], mapping, 0, seed=4)
        entries = list(itertools.islice(gen.requests(), 50))
        path = str(tmp_path / "gcc.txt")
        dump_trace_file(entries, path)
        loaded = load_trace_file(path)
        assert len(loaded) == 50
        assert [e[1] for e in loaded] == [e[1] for e in entries]
        # Gaps survive within the format's 3-decimal precision.
        for (g1, _a, _b), (g2, _c, _d) in zip(entries, loaded):
            assert abs(g1 - g2) < 1e-3


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n1.0 0 0 0 5 0 R\n"
        assert len(list(parse_trace(text))) == 1

    @pytest.mark.parametrize("line,message", [
        ("1.0 0 0 0 5 0", "7 fields"),
        ("x 0 0 0 5 0 R", "line 1"),
        ("-1 0 0 0 5 0 R", "negative gap"),
        ("1.0 0 0 0 5 0 Z", "kind"),
    ])
    def test_malformed_lines_rejected(self, line, message):
        with pytest.raises(ValueError, match=message):
            list(parse_trace(line))


class TestFileTrace:
    def test_loops_by_default(self):
        trace = FileTrace(ENTRIES)
        stream = trace.requests()
        got = [next(stream) for _ in range(7)]
        assert got[:3] == ENTRIES
        assert got[3:6] == ENTRIES

    def test_no_loop_ends(self):
        trace = FileTrace(ENTRIES, loop=False)
        assert len(list(trace.requests())) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FileTrace([])

    def test_materialize_converts_gaps_to_cycles(self):
        ops = FileTrace(ENTRIES).materialize(4, tck_ns=0.75)
        # int(12.5 / 0.75) = 16, int(3.0 / 0.75) = 4, a zero gap
        # clamps to one cycle, and the looping trace starts over.
        assert [gap for gap, _, _ in ops] == [16, 4, 1, 16]
        assert [op[1:] for op in ops] == [e[1:] for e in ENTRIES + ENTRIES[:1]]

    def test_drives_a_thread(self):
        """A file trace plugs straight into the core model."""
        trace = FileTrace(ENTRIES)
        thread = ThreadState(0, trace.materialize(9, tck_ns=0.75),
                             request_budget=9)
        issued = []
        cycle = 0
        while not thread.drained:
            cycle = max(cycle, thread.next_ready)
            if thread.can_issue(cycle):
                issued.append(thread.issue(cycle))
            else:
                cycle += 1
        assert len(issued) == 9
        assert issued[0].location == ENTRIES[0][1]
