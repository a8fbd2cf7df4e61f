"""Bank timing state machine and the rank-wide REF: protocol legality and
constraint arithmetic."""

import pytest

from repro.dram.bank import Bank
from repro.dram.commands import CommandType
from repro.dram.rank import RankTiming
from repro.dram.timing import DDR4_2666

T = DDR4_2666


def make_bank():
    return Bank(T)


class TestActivate:
    def test_act_opens_row_and_sets_constraints(self):
        bank = make_bank()
        bank.issue_act(row=42, cycle=0)
        assert bank.open_row == 42
        assert bank.next_rd == T.tRCD
        assert bank.next_pre == T.tRAS
        assert bank.next_act == T.tRC

    def test_act_to_open_bank_rejected(self):
        bank = make_bank()
        bank.issue_act(5, 0)
        with pytest.raises(RuntimeError):
            bank.issue_act(6, T.tRC + 10)

    def test_act_extra_latency_shifts_everything(self):
        bank = make_bank()
        extra = 6  # SHADOW's tRD_RM at DDR4-2666 (4 ns -> 6 cycles)
        bank.issue_act(row=1, cycle=100, extra_latency=extra)
        assert bank.next_rd == 100 + T.tRCD + extra
        assert bank.next_pre == 100 + T.tRAS + extra
        assert bank.stats.extra_act_cycles == extra

    def test_act_before_trp_rejected(self):
        bank = make_bank()
        bank.issue_act(1, 0)
        bank.issue_pre(T.tRAS)
        with pytest.raises(RuntimeError):
            bank.issue_act(2, T.tRAS + T.tRP - 1)
        bank.issue_act(2, T.tRAS + T.tRP)


class TestReadWrite:
    def test_read_returns_data_completion(self):
        bank = make_bank()
        bank.issue_act(7, 0)
        done = bank.issue_rd(T.tRCD)
        assert done == T.tRCD + T.tCL + T.tBL

    def test_read_before_trcd_rejected(self):
        bank = make_bank()
        bank.issue_act(7, 0)
        with pytest.raises(RuntimeError):
            bank.issue_rd(T.tRCD - 1)

    def test_read_to_closed_bank_rejected(self):
        bank = make_bank()
        with pytest.raises(RuntimeError):
            bank.issue_rd(100)

    def test_back_to_back_reads_spaced_by_tccd(self):
        bank = make_bank()
        bank.issue_act(7, 0)
        bank.issue_rd(T.tRCD)
        with pytest.raises(RuntimeError):
            bank.issue_rd(T.tRCD + T.tCCD_L - 1)
        bank.issue_rd(T.tRCD + T.tCCD_L)

    def test_write_pushes_out_precharge(self):
        bank = make_bank()
        bank.issue_act(7, 0)
        t_wr = T.tRCD
        bank.issue_wr(t_wr)
        assert bank.next_pre >= t_wr + T.tCWL + T.tBL + T.tWR

    def test_read_extends_pre_by_trtp(self):
        bank = make_bank()
        bank.issue_act(7, 0)
        t_rd = T.tRAS  # read late, near the end of tRAS
        bank.issue_rd(t_rd)
        assert bank.next_pre >= t_rd + T.tRTP


def make_rank(banks):
    """A rank over ``banks`` with the refresh state the controller keeps:
    its open-bank count and the maximum of every bank's ``next_act`` and
    ``busy_until``."""
    rank = RankTiming(T, banks)
    rank.open_banks = sum(b.open_row is not None for b in banks)
    rank.ref_ready = max(max(b.next_act, b.busy_until) for b in banks)
    return rank


class TestRefreshAndRfm:
    def test_ref_blocks_bank_for_trfc(self):
        bank = make_bank()
        rank = make_rank([bank])
        done = rank.issue_ref(0)
        assert done == rank.ref_until == T.tRFC
        # The tRFC window lives in the rank, which refuses the ACT.
        with pytest.raises(RuntimeError, match="DRAM protocol violation: "
                           "ACT issued during the rank's REF"):
            rank.record_act(T.tRFC - 1)
        rank.record_act(T.tRFC)
        bank.issue_act(1, T.tRFC)

    def test_ref_requires_precharged_bank(self):
        bank = make_bank()
        bank.issue_act(1, 0)
        with pytest.raises(RuntimeError):
            make_rank([bank]).issue_ref(T.tRCD)

    def test_rfm_blocks_for_trfm_by_default(self):
        bank = make_bank()
        done = bank.issue_rfm(10)
        assert done == 10 + T.tRFM
        assert bank.stats.rfms == 1

    def test_rfm_custom_duration(self):
        bank = make_bank()
        done = bank.issue_rfm(0, duration=250)
        assert done == 250
        with pytest.raises(RuntimeError):
            bank.issue_act(1, 249)


def _reference_ref(bank, cycle):
    """The per-bank REF rule, written out independently of the rank."""
    done = cycle + T.tRFC
    bank.busy_until = max(bank.busy_until, done)
    bank.next_act = max(bank.next_act, done)
    bank.stats.refreshes += 1


def _ref_ready_banks():
    """Four precharged banks in different states, all REF-ready at 3000."""
    banks = [make_bank() for _ in range(4)]
    banks[1].issue_act(7, 0)
    banks[1].issue_pre(T.tRAS)
    banks[2].issue_rfm(100, duration=500)
    _reference_ref(banks[3], 0)
    return banks


class TestRankWideRef:
    def test_matches_per_bank_ref(self):
        got = _ref_ready_banks()
        want = _ref_ready_banks()
        rank = make_rank(got)
        before = [(b.busy_until, b.next_act, b.stats.refreshes)
                  for b in got]
        done = rank.issue_ref(3000)
        for bank in want:
            _reference_ref(bank, 3000)
        assert done == 3000 + T.tRFC
        assert rank.ref_until == rank.ref_ready == done
        # The REF writes no bank; the rank's window and count stand in
        # for what the per-bank rule writes into each of them.
        assert [(b.busy_until, b.next_act, b.stats.refreshes)
                for b in got] == before
        assert [max(b.next_act, b.busy_until, rank.ref_until)
                for b in got] == \
            [max(b.next_act, b.busy_until) for b in want]
        assert rank.refs == 1

    def test_open_bank_rejected(self):
        banks = _ref_ready_banks()
        banks[2].issue_act(3, 3000)
        with pytest.raises(RuntimeError, match="DRAM protocol violation: "
                           "REF requires a precharged bank"):
            make_rank(banks).issue_ref(3000 + T.tRAS)

    def test_too_early_rejected(self):
        banks = _ref_ready_banks()
        ready = banks[2].next_act  # the RFM'd bank is the last ready
        rank = make_rank(banks)
        with pytest.raises(RuntimeError, match="DRAM protocol violation: "
                           "REF issued before its timing constraints"):
            rank.issue_ref(ready - 1)
        rank.issue_ref(ready)


class TestEarliestIssue:
    def test_earliest_issue_matches_legality(self):
        bank = make_bank()
        bank.issue_act(3, 0)
        t = bank.earliest_issue(CommandType.PRE, 0)
        assert t == T.tRAS
        bank.issue_pre(t)
        t2 = bank.earliest_issue(CommandType.ACT, 0)
        bank.issue_act(4, t2)

    def test_unsupported_command_rejected(self):
        bank = make_bank()
        with pytest.raises(ValueError):
            bank.earliest_issue("NOP", 0)  # type: ignore[arg-type]


class TestStats:
    def test_counters_accumulate(self):
        bank = make_bank()
        bank.issue_act(1, 0)
        bank.issue_rd(T.tRCD)
        bank.issue_pre(bank.next_pre)
        rank = make_rank([bank])
        rank.issue_ref(bank.next_act)
        assert bank.stats.acts == 1
        assert bank.stats.reads == 1
        assert bank.stats.precharges == 1
        assert rank.refs == 1

    def test_merge(self):
        a, b = make_bank(), make_bank()
        a.issue_act(1, 0)
        b.issue_act(2, 0)
        a.stats.merge(b.stats)
        assert a.stats.acts == 2
