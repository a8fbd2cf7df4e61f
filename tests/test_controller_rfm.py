"""RAA counter semantics (DDR5 RFM interface)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.rfm import RaaCounterBank
from repro.dram.device import BankAddress

A = BankAddress(0, 0, 0)
B = BankAddress(0, 0, 1)


def test_threshold_detection():
    raa = RaaCounterBank(raaimt=4)
    for _ in range(3):
        raa.on_activate(A)
    assert not raa.rfm_needed(A)
    raa.on_activate(A)
    assert raa.rfm_needed(A)
    assert raa.due == {0: [A]}


def test_rfm_subtracts_raaimt():
    raa = RaaCounterBank(raaimt=4)
    for _ in range(6):
        raa.on_activate(A)
    raa.on_rfm(A)
    assert raa.count(A) == 2
    assert raa.rfms_issued == 1


def test_rfm_below_threshold_rejected():
    raa = RaaCounterBank(raaimt=4)
    raa.on_activate(A)
    with pytest.raises(RuntimeError):
        raa.on_rfm(A)


def test_ref_credits_counter():
    raa = RaaCounterBank(raaimt=8)
    for _ in range(5):
        raa.on_activate(A)
    raa.on_ref_all((A,))
    assert raa.count(A) == 0  # floor at zero


def test_custom_ref_credit():
    raa = RaaCounterBank(raaimt=8, ref_credit=2)
    for _ in range(5):
        raa.on_activate(A)
    raa.on_ref_all((A,))
    assert raa.count(A) == 3


def test_banks_independent():
    raa = RaaCounterBank(raaimt=2)
    raa.on_activate(A)
    raa.on_activate(A)
    raa.on_activate(B)
    assert raa.rfm_needed(A)
    assert not raa.rfm_needed(B)


def test_validation():
    with pytest.raises(ValueError):
        RaaCounterBank(raaimt=0)
    with pytest.raises(ValueError):
        RaaCounterBank(raaimt=4, ref_credit=-1)


def _reference_on_ref(counters, due, raaimt, credit, addr):
    """The per-bank REF credit, written out independently."""
    old = counters.get(addr, 0)
    new = max(0, old - credit)
    counters[addr] = new
    return due - (1 if old >= raaimt > new else 0)


@settings(max_examples=200, deadline=None)
@given(raaimt=st.integers(1, 8), credit=st.integers(0, 10),
       start=st.dictionaries(st.integers(0, 7), st.integers(0, 40),
                             max_size=8),
       rank=st.permutations(list(range(8))))
def test_ref_all_equals_sequential_on_ref(raaimt, credit, start, rank):
    """Absent banks, zero counts and counts far above RAAIMT alike."""
    addrs = [BankAddress(0, 0, bank) for bank in rank]
    initial = {BankAddress(0, 0, bank): count
               for bank, count in start.items()}

    def fresh():
        return RaaCounterBank(raaimt=raaimt, ref_credit=credit,
                              counters=dict(initial))

    together, one_by_one = fresh(), fresh()
    together.on_ref_all(addrs)
    for addr in addrs:
        one_by_one.on_ref_all((addr,))
    want = dict(initial)
    due = fresh().due_count
    for addr in addrs:
        due = _reference_on_ref(want, due, raaimt, credit, addr)
    for raa in (together, one_by_one):
        assert raa.counters == want
        assert list(raa.counters) == list(want)
        assert raa.due_count == due
        assert raa.due == _rebuilt_due(raa)


def _rebuilt_due(raa):
    """``due`` rebuilt by brute force: the due banks of each channel, in
    ``counters`` order."""
    due = {}
    for addr, count in raa.counters.items():
        if count >= raa.raaimt:
            due.setdefault(addr.channel, []).append(addr)
    return due


_BANKS = [BankAddress(channel, rank, bank)
          for channel in range(3) for rank in range(2) for bank in range(2)]

_OPS = st.one_of(
    st.tuples(st.just("act"), st.integers(0, len(_BANKS) - 1)),
    st.tuples(st.just("rfm"), st.integers(0, len(_BANKS) - 1)),
    st.tuples(st.just("ref"), st.integers(0, 2), st.integers(0, 1)))


@settings(max_examples=200, deadline=None)
@given(raaimt=st.integers(1, 4), credit=st.integers(0, 5),
       start=st.dictionaries(st.integers(0, len(_BANKS) - 1),
                             st.integers(0, 12), max_size=6),
       ops=st.lists(_OPS, max_size=80))
def test_due_lists_match_a_rebuild(raaimt, credit, start, ops):
    """After any ACT/RFM/REF sequence, from pre-filled counters too."""
    raa = RaaCounterBank(raaimt=raaimt, ref_credit=credit,
                         counters={_BANKS[i]: count
                                   for i, count in start.items()})
    assert raa.due == _rebuilt_due(raa)
    for op in ops:
        if op[0] == "act":
            raa.on_activate(_BANKS[op[1]])
        elif op[0] == "rfm":
            addr = _BANKS[op[1]]
            if raa.rfm_needed(addr):
                raa.on_rfm(addr)
        else:
            raa.on_ref_all([addr for addr in _BANKS
                            if addr.channel == op[1] and addr.rank == op[2]])
        assert raa.due == _rebuilt_due(raa)
        assert raa.due_count == sum(count >= raaimt
                                    for count in raa.counters.values())


# -- clean ranks -------------------------------------------------------------------

#: Two ranks of three banks; each REF passes its rank's one list, as the
#: controller does, so a REF to a rank left clean skips its credit.
_RANK_BANKS = [[BankAddress(0, rank, bank) for bank in range(3)]
               for rank in range(2)]
_RANK_ADDRS = [addr for banks in _RANK_BANKS for addr in banks]

_RANK_OPS = st.one_of(
    st.tuples(st.just("act"), st.integers(0, len(_RANK_ADDRS) - 1)),
    st.tuples(st.just("rfm"), st.integers(0, len(_RANK_ADDRS) - 1)),
    st.tuples(st.just("ref"), st.integers(0, 1)))


def _plain_due(counters, raaimt):
    due = {}
    for addr, count in counters.items():
        if count >= raaimt:
            due.setdefault(addr.channel, []).append(addr)
    return due


@settings(max_examples=300, deadline=None)
@given(raaimt=st.integers(1, 5), credit=st.one_of(st.none(),
                                                   st.integers(0, 6)),
       start=st.dictionaries(st.integers(0, len(_RANK_ADDRS) - 1),
                             st.integers(0, 12), max_size=4),
       ops=st.lists(_RANK_OPS, max_size=100))
def test_raa_credit_equals_a_plain_per_bank_credit(raaimt, credit, start,
                                                   ops):
    """Counters, their insertion order, ``due`` and ``rfms_issued``
    equal a plain per-bank model after every ACT, RFM and REF, from
    pre-filled counters and with REF credits below RAAIMT too."""
    initial = {_RANK_ADDRS[i]: count for i, count in start.items()}
    raa = RaaCounterBank(raaimt=raaimt, ref_credit=credit,
                         counters=dict(initial))
    credit = raaimt if credit is None else credit
    plain = dict(initial)
    rfms = 0
    for op in ops:
        if op[0] == "act":
            addr = _RANK_ADDRS[op[1]]
            raa.on_activate(addr)
            plain[addr] = plain.get(addr, 0) + 1
        elif op[0] == "rfm":
            addr = _RANK_ADDRS[op[1]]
            due = plain.get(addr, 0) >= raaimt
            assert raa.rfm_needed(addr) == due
            if due:
                raa.on_rfm(addr)
                plain[addr] -= raaimt
                rfms += 1
        else:
            banks = _RANK_BANKS[op[1]]
            raa.on_ref_all(banks)
            for addr in banks:
                plain[addr] = max(0, plain.get(addr, 0) - credit)
        assert list(raa.counters.items()) == list(plain.items())
        assert raa.due == _plain_due(plain, raaimt)
        assert raa.rfms_issued == rfms


class _CountingDict(dict):
    """A counters dict that counts its ``get`` calls."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_ref_to_a_clean_rank_reads_no_counter():
    counters = _CountingDict()
    raa = RaaCounterBank(raaimt=4, counters=counters)
    rank, other = _RANK_BANKS
    raa.on_activate(rank[1])
    raa.on_ref_all(rank)            # leaves the rank at zero: clean
    reads = counters.gets
    raa.on_ref_all(rank)
    assert counters.gets == reads
    raa.on_activate(other[0])       # another rank's ACT keeps it clean
    reads = counters.gets
    raa.on_ref_all(rank)
    assert counters.gets == reads
    raa.on_activate(rank[2])        # lifts a counter from zero
    raa.on_ref_all(rank)
    assert counters.gets > reads + 1
    assert raa.count(rank[2]) == 0
    # A list of the same banks is another sequence: credited in full.
    reads = counters.gets
    raa.on_ref_all(list(rank))
    assert counters.gets == reads + len(rank)
