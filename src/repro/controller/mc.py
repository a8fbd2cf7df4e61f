"""The memory controller: FR-FCFS scheduling, refresh, and RFM issue.

The controller drives the :class:`~repro.dram.device.DramDevice` at
command granularity.  Scheduling policy:

* open-page row policy with FR-FCFS: ready column commands (row hits)
  beat row commands; ties break by request age;
* auto-refresh: once a rank's REF is due, demand to that rank is
  suspended, open banks are drained with PREs, and REF issues (tRFC);
* RFM: when a bank's RAA counter reaches RAAIMT (and the active
  mitigation uses the RFM interface), new ACTs to that bank are
  suspended, the bank is precharged, and an RFM command issues; the
  mitigation performs its in-DRAM work inside the tRFM window;
* mitigation effects (extra ACT latency, throttling delays, TRR
  refreshes, channel-blocking swaps, PA-to-DA translation) are applied
  exactly where the hardware would apply them, through the hooks the
  mitigation declares in ``Mitigation.hooks`` (read once, here).

The controller reports every row-touching action (ACT in DA space,
refresh ranges, and each mitigation outcome's refreshes and row copies)
to an optional Row Hammer observer, so security and performance
experiments share one source of truth.  The timing side of an outcome
(tRC penalties, channel blocks) stays here.

Implementation note: this is the simulator's hottest code, and it is
*incremental*.  Each :class:`_BankCtx` caches the bank-local part of its
best scheduling candidate (which op, which request, the earliest cycle
the bank itself allows) plus a ``{da_row -> requests}`` hit index, and a
dirty bit; executing a command on a bank, enqueueing to it, an
all-bank REF, or a mitigation remap (reported via
:meth:`~repro.mitigations.base.Mitigation.register_translation_listener`)
invalidates only the affected contexts.  Candidate selection then
reduces over cached entries, applying only the shared-resource
constraints (rank ACT/column spacing, command/data bus floors,
throttling) that legitimately change between any two commands.  The
command stream this produces is cycle-identical to a full per-iteration
recompute -- ``tests/test_scheduler_equivalence.py`` pins that against
recorded seed-controller golden runs.

Requests carry a cached DA translation; when a mitigation reports a
bank's remap, the listener re-translates that bank's queue and re-keys
its hit index in one batch, so the (potentially dynamic) PA-to-DA
mapping is re-evaluated once per shuffle/swap rather than once per scan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.controller.request import MemoryRequest
from repro.controller.rfm import RaaCounterBank
from repro.dram.commands import CommandType
from repro.dram.device import BankAddress, DramDevice
from repro.dram.rank import _FAR_PAST
from repro.dram.refresh import RefreshTracker
from repro.mitigations.base import Mitigation

_PRIO_REFRESH = 0
_PRIO_RFM = 1
_PRIO_HIT = 2
_PRIO_DEMAND = 3

# Candidate opcodes.
_OP_PRE = 0
_OP_ACT = 1
_OP_COL = 2
_OP_REF = 3
_OP_RFM = 4

#: Pruning bound of a scan with no best candidate yet (or of a
#: throttler's scan): an int beyond any reachable cycle, so the hot
#: comparison stays int-to-int.
_NO_BOUND = 1 << 62


@dataclass
class McConfig:
    """Controller policy knobs."""

    enable_refresh: bool = True


class _BankCtx:
    """Pre-resolved per-bank scheduling state (hot-path bundle).

    ``cand`` holds the cached *bank-local* candidate core
    ``(bank_earliest, prio, age, op, payload, data_lead)`` -- everything
    that only changes when this bank's own state changes.  ``dirty``
    forces a recompute; it is set by enqueue, by every command executed
    on the bank (a rank-wide REF marks only the rank's active banks),
    and by the mitigation's remap notifications.  ``hit_index`` maps
    each DA row to the FIFO of queued requests targeting it under the
    current mapping (a remap re-keys it at once); retired requests leave
    the index eagerly and the ``queue`` deque lazily.
    """

    __slots__ = ("addr", "bank", "queue", "rank", "rank_key", "rank_index",
                 "group", "pending", "in_active", "dirty", "cand",
                 "hit_index", "track", "chan", "channel")

    def __init__(self, addr: BankAddress, bank, rank, rank_key, group):
        self.addr = addr
        self.channel = addr.channel
        self.chan = None  # ChannelTiming, attached by the controller
        self.bank = bank
        self.queue: Deque[MemoryRequest] = deque()
        self.rank = rank
        self.rank_key = rank_key
        self.rank_index = addr.rank
        self.group = group
        self.pending = 0
        self.in_active = False
        self.dirty = True
        self.cand = None
        self.hit_index: Dict[int, Deque[MemoryRequest]] = {}
        self.track = 0  # trace lane id (assigned by the controller)


class MemoryController:
    """One controller managing every channel of a :class:`DramDevice`."""

    def __init__(self, device: DramDevice, mitigation: Mitigation,
                 observer=None, config: Optional[McConfig] = None,
                 obs=None):
        self.device = device
        self.mitigation = mitigation
        self.observer = observer
        self.config = config or McConfig()
        self.obs = obs

        geometry = device.geometry
        mitigation.bind(geometry, device.timing)
        if observer is not None:
            observer.bind(geometry)

        self._timing = device.timing
        self._tCL = device.timing.tCL
        self._tCWL = device.timing.tCWL
        self._tBL = device.timing.tBL
        self._tRC = device.timing.tRC
        # Rank-spacing constants, hoisted for the candidate reduce loop.
        self._tRRD_L = device.timing.tRRD_L
        self._tRRD_S = device.timing.tRRD_S
        self._tCCD_L = device.timing.tCCD_L
        self._tCCD_S = device.timing.tCCD_S
        self._tFAW = device.timing.tFAW
        self._act_extra = mitigation.act_extra_cycles
        self._chans = device.channels
        # Hook gates, read once from the declared set: each hot path
        # tests one bool.
        hooks = mitigation.hooks
        self._throttles = "throttle" in hooks
        self._observes_ref = "ref" in hooks
        self._acts_hook = "act" in hooks
        #: Schemes that do not remap keep the factory PA-to-DA mapping,
        #: so ``enqueue`` may serve translations from a shared per-row
        #: cache instead of re-deriving the identity layout arithmetic
        #: per request.
        self._static_translate = "remap" not in hooks
        self._ident_rows: Dict[int, int] = {}
        #: Same zero-overhead gate for the fault-injection observer: the
        #: per-ACT notification is a pre-bound method (or None), so runs
        #: without an observer pay one ``is not None`` test and nothing
        #: else -- the golden command streams stay byte-identical.
        self._observer_activate = (
            self.observer.on_activate if self.observer is not None else None)

        scale = mitigation.refresh_interval_scale
        trefi = max(1, int(device.timing.tREFI * scale))
        refresh_timing = device.timing.with_refresh_interval(trefi)
        self.refresh: Dict[Tuple[int, int], RefreshTracker] = {}
        if self.config.enable_refresh:
            self.refresh = {
                (ch, rk): RefreshTracker(
                    refresh_timing, geometry.layout.da_rows_per_bank)
                for ch in range(geometry.channels)
                for rk in range(geometry.ranks_per_channel)
            }

        self.raa: Optional[RaaCounterBank] = None
        if mitigation.uses_rfm:
            self.raa = RaaCounterBank(mitigation.raaimt)

        # Per-bank contexts, grouped per channel and per rank.
        self._ctx: Dict[BankAddress, _BankCtx] = {}
        rank_banks: Dict[Tuple[int, int], List[_BankCtx]] = {}
        for addr in geometry.bank_addresses():
            rank_key = (addr.channel, addr.rank)
            ctx = _BankCtx(addr, device.banks[addr],
                           device.ranks[rank_key], rank_key,
                           geometry.bank_group_of(addr.bank))
            ctx.chan = device.channels[addr.channel]
            self._ctx[addr] = ctx
            rank_banks.setdefault(rank_key, []).append(ctx)
        # Per channel, each rank's REF target ``(rank index, refresh
        # tracker, RankTiming, ctxs, addrs)``, with the rank's contexts
        # and addresses in bank order.  ``addrs`` is built once: every
        # all-bank REF hands that same list to the RAA counters, the
        # mitigation and the observer, one call each.
        self._chan_refresh: Dict[int, List[Tuple]] = {
            ch: [] for ch in range(geometry.channels)}
        for (ch, rk), tracker in self.refresh.items():
            ctxs = rank_banks[(ch, rk)]
            self._chan_refresh[ch].append(
                (rk, tracker, device.ranks[(ch, rk)], ctxs,
                 [ctx.addr for ctx in ctxs]))
        # Flat dense index for the enqueue hot path: avoids building a
        # BankAddress and hashing it per request.
        self._nranks = geometry.ranks_per_channel
        self._nbanks = geometry.banks_per_rank
        self._ctx_flat: List[Optional[_BankCtx]] = \
            [None] * (geometry.channels * self._nranks * self._nbanks)
        for addr, ctx in self._ctx.items():
            self._ctx_flat[(addr.channel * self._nranks + addr.rank)
                           * self._nbanks + addr.bank] = ctx
        self._active: Dict[int, List[_BankCtx]] = {
            ch: [] for ch in range(geometry.channels)}
        self._pending_chan: List[int] = [0] * geometry.channels
        self._pending_total = 0

        # Cross-drain candidate memo.  When a drain ends because its
        # best candidate lies beyond ``until``, the candidate is saved
        # per channel together with the channel's *refresh horizon* (the
        # earliest not-yet-due REF tick observed while computing it).
        # The next drain of the channel may reuse the saved candidate
        # verbatim iff (a) nothing was enqueued to the channel since
        # (enqueue clears the slot), (b) no bank on the channel was
        # remapped (the listener clears the slot), and (c) its
        # new ``until`` still precedes the refresh horizon, so no REF
        # obligation entered the candidate set.  All other scheduler
        # state a candidate depends on only changes while the channel
        # itself executes commands, which always ends in a fresh
        # recompute.  Throttling mitigations are excluded wholesale:
        # ``before_activate`` is stateful per *evaluation* (BlockHammer
        # counts throttle probes), so skipping a re-evaluation would
        # change mitigation-visible counters.
        self._cand_reuse = not self._throttles
        self._saved_cand: List = [None] * geometry.channels
        self._saved_horizon: List[Optional[int]] = \
            [None] * geometry.channels
        self._scan_horizon: List[Optional[int]] = \
            [None] * geometry.channels

        mitigation.register_translation_listener(self._translation_changed)

        self.enqueued = 0
        self.retired = 0

        # Drain counters (plain ints, bumped once per drain or per
        # look-ahead, never per scan): calls, calls that issued no
        # command, and run-ahead steps to the channel's next wake.
        self.drains = 0
        self.empty_drains = 0
        self.lookaheads = 0
        #: The last ``until`` the most recent drain reached.
        self.drain_until = 0

        # Scheduler-health counters.  The rare-path ones (recomputes,
        # translation invalidations, RAA crossings) are plain ints
        # maintained unconditionally, like ``enqueued``/``retired``; the
        # per-scan ones (evals/hits/pruned) are only accumulated when
        # metrics are enabled, so the candidate reduce loop pays at most
        # one pre-hoisted bool check per bank when observability is off.
        self.cand_evals = 0
        self.cand_hits = 0
        self.cand_recomputes = 0
        self.cand_pruned = 0
        self.translation_invalidations = 0
        self.raa_crossings = 0

        # Observability wiring.  ``_trace``/``_metrics`` stay None when
        # observability is off; every emission site below gates on that.
        # ``_tbuf`` is the sink's shared tuple buffer: the per-command
        # sites append to it directly (no bound-method call per event).
        # ``_lat_hist`` (None without metrics) is the request-latency
        # histogram, whose fields each column command bumps inline
        # through the bucket rule ``_lat_bucket``.  ``repro.obs`` is
        # imported here, not at module level: a run without a hub never
        # loads it.
        self._metrics = None
        self._trace = None
        self._tbuf = None
        self._count = False
        self._lat_hist = None
        if obs is not None:
            self._metrics = obs.metrics
            self._trace = obs.sink
            if self._trace is not None:
                self._tbuf = self._trace.raw_buffer
            self._count = self._metrics is not None
            if self._count:
                from repro.obs.metrics import bucket_of
                self._lat_bucket = bucket_of
                self._lat_hist = self._metrics.histogram(
                    "request.latency_cycles")
            mitigation.register_event_listener(self._mitigation_event)
        # Trace lane layout: pid = channel; tid 1.. for banks in
        # (rank, bank) order, then one lane per rank for REF spans, at
        # ``_ref_track_base + rank``.
        bpr = geometry.banks_per_rank
        self._ref_track_base = 1 + geometry.ranks_per_channel * bpr
        for addr, ctx in self._ctx.items():
            ctx.track = 1 + addr.rank * bpr + addr.bank
        trace = self._trace
        if trace is not None:
            for ch in range(geometry.channels):
                trace.declare_process(ch, f"channel {ch}")
                for rk in range(geometry.ranks_per_channel):
                    trace.declare_track(ch, self._ref_track_base + rk,
                                        f"rk{rk} REF")
            for addr, ctx in self._ctx.items():
                trace.declare_track(addr.channel, ctx.track,
                                    f"rk{addr.rank}.bk{addr.bank}")
        # Span durations for trace events, hoisted once.
        timing = self._timing
        self._dur_act = timing.tRCD + self._act_extra
        self._dur_rd = timing.tCL + timing.tBL
        self._dur_wr = timing.tCWL + timing.tBL
        self._dur_pre = timing.tRP
        self._dur_ref = timing.tRFC

    # -- request intake ----------------------------------------------------------

    @property
    def queues(self) -> Dict[BankAddress, Deque[MemoryRequest]]:
        """Per-bank queues (read-only view for tests/tools)."""
        result = {}
        for addr, ctx in self._ctx.items():
            if ctx.pending:
                result[addr] = deque(r for r in ctx.queue
                                     if r.completed is None)
        return result

    def enqueue(self, request: MemoryRequest) -> None:
        location = request.location
        channel = location.channel
        rank = location.rank
        bank = location.bank
        ctx = None
        if 0 <= channel and 0 <= rank < self._nranks \
                and 0 <= bank < self._nbanks:
            try:
                ctx = self._ctx_flat[(channel * self._nranks + rank)
                                     * self._nbanks + bank]
            except IndexError:
                ctx = None
        if ctx is None:
            raise ValueError(
                f"bank address {location.bank_address} outside geometry")
        if not ctx.in_active:
            self._active[channel].append(ctx)
            ctx.in_active = True
        row = location.row
        if self._static_translate:
            # Identity mapping: cache per PA row.
            da_row = self._ident_rows.get(row)
            if da_row is None:
                self._ident_rows[row] = da_row = \
                    self.mitigation.translate(ctx.addr, row)
        else:
            da_row = self.mitigation.translate(ctx.addr, row)
        request.da_row = da_row
        ctx.queue.append(request)
        rows = ctx.hit_index.get(da_row)
        if rows is None:
            ctx.hit_index[da_row] = rows = deque()
        rows.append(request)
        ctx.pending += 1
        ctx.dirty = True
        self._saved_cand[channel] = None
        self._pending_chan[channel] += 1
        self._pending_total += 1
        self.enqueued += 1

    def pending_requests(self, channel: Optional[int] = None) -> int:
        """Outstanding request count, O(1) via maintained counters."""
        if channel is None:
            return self._pending_total
        return self._pending_chan[channel]

    # -- main scheduling entry point ------------------------------------------------

    def drain(self, channel: int, until: int, limit: int = -1
              ) -> Tuple[List[Tuple[MemoryRequest, int]], Optional[int]]:
        """Issue every command on ``channel`` whose time is <= ``until``.

        Returns the requests whose data completed (with completion
        cycles) and the next cycle the channel should be re-examined
        (``None`` if it is fully idle with no future obligations).

        ``limit`` lets the drain run ahead (DESIGN.md section 13): while
        that next cycle lies in ``(until, limit]``, the drain advances
        ``until`` to it and carries on exactly as the next drain would.
        Each completion lowers ``limit`` to one cycle before its data
        returns.  The caller promises that nothing else touches the
        controller up to ``limit``; a ``limit`` at or below ``until``
        (the default) runs no look-ahead.  ``drain_until`` holds the
        last ``until`` reached.
        """
        self.drains += 1
        issued = False
        completions: List[Tuple[MemoryRequest, int]] = []
        best_candidate = self._best_candidate
        # Reuse the candidate memoized by the previous drain of this
        # channel when it is still valid (see the memo's field comment);
        # otherwise fall through to a fresh scan.
        best = self._saved_cand[channel]
        if best is not None:
            self._saved_cand[channel] = None
            horizon = self._saved_horizon[channel]
            if horizon is not None and until >= horizon:
                best = None
        if best is None:
            best = best_candidate(channel, until)
        while True:
            if best is None:
                # A None scan means no due REF either (a due tracker
                # always yields a PRE or REF candidate), so the
                # channel's next obligation is exactly the refresh
                # horizon the scan just recorded.
                wake = self._scan_horizon[channel]
                if wake is not None and wake <= limit:
                    # Run ahead: the next drain would scan afresh.
                    self.lookaheads += 1
                    until = wake
                    best = best_candidate(channel, until)
                    continue
                break
            earliest = best[0]
            if earliest > until:
                horizon = self._scan_horizon[channel]
                if earliest <= limit:
                    # Run ahead: the next drain would reuse this winner
                    # under the memo's rule, and rescan otherwise.
                    self.lookaheads += 1
                    until = earliest
                    if not self._cand_reuse or (
                            horizon is not None and until >= horizon):
                        best = best_candidate(channel, until)
                    continue
                if self._cand_reuse:
                    self._saved_cand[channel] = best
                    self._saved_horizon[channel] = horizon
                wake = earliest
                break
            # _execute inlined: dispatch once per issued command.
            cycle, _prio, _age, op, target, payload = best
            issued = True
            if op == _OP_PRE:
                chan = target.chan
                if cycle < chan._cmd_free_at or \
                        cycle < chan._blocked_until:
                    raise RuntimeError("DRAM protocol violation: "
                                       "command bus busy at issue time")
                chan._cmd_free_at = cycle + 1
                chan.commands_issued += 1
                bank = target.bank
                bank.issue_pre(cycle)
                rank = target.rank
                rank.open_banks -= 1
                if bank.next_act > rank.ref_ready:
                    rank.ref_ready = bank.next_act
                target.dirty = True
                if payload == "conflict":
                    bank.stats.row_conflicts += 1
                if self._tbuf is not None:
                    self._tbuf.append(("X", target.channel, target.track,
                                       "PRE", "cmd", cycle, self._dur_pre,
                                       None))
            elif op == _OP_COL:
                completion = self._do_column(cycle, target, payload)
                completions.append(completion)
                self.retired += 1
                done = completion[1]
                if done <= limit:
                    # The delivery event precedes any wake at ``done``.
                    limit = done - 1
            elif op == _OP_ACT:
                self._do_act(cycle, target, payload)
            elif op == _OP_REF:
                rank_index, tracker, rank, _ctxs, addrs = target
                chan = self._chans[channel]
                if cycle < chan._cmd_free_at or \
                        cycle < chan._blocked_until:
                    raise RuntimeError("DRAM protocol violation: "
                                       "command bus busy at issue time")
                chan._cmd_free_at = cycle + 1
                chan.commands_issued += 1
                lo, hi = tracker.record_ref(cycle)
                if self._tbuf is not None:
                    self._tbuf.append((
                        "X", channel, self._ref_track_base + rank_index,
                        "REF", "cmd", cycle, self._dur_ref,
                        {"lo": lo, "hi": hi}))
                rank.issue_ref(cycle)
                # Only active banks are ever recomputed, and every
                # enqueue marks its bank dirty, so the REF need only
                # invalidate this rank's active banks.
                for ctx in self._active[channel]:
                    if ctx.rank_index == rank_index:
                        ctx.dirty = True
                # One call per layer, each given the rank's banks in
                # bank order; observers wrap [lo, hi) modulo the rows.
                if self.raa is not None:
                    self.raa.on_ref_all(addrs)
                if self._observes_ref:
                    self.mitigation.on_ref(addrs, lo, hi, cycle)
                if self.observer is not None:
                    self.observer.on_refresh(addrs, lo, hi, cycle)
            else:
                self._do_rfm(cycle, target)
            best = best_candidate(channel, until)
        if not issued:
            self.empty_drains += 1
        self.drain_until = until
        return completions, wake

    # -- candidate generation ---------------------------------------------------------

    def _best_candidate(self, channel: int, until: int):
        """Find the (earliest, prio, age, op, target, payload) candidate.

        Refresh and RFM obligations are derived fresh (they are rare and
        depend on ``until``); demand candidates reduce over the per-bank
        caches, applying only the shared rank/channel constraints here.
        Iteration order (refresh ranks, RAA-counter insertion order,
        active-bank insertion order) matches the original full-recompute
        scheduler exactly so tie-breaks are preserved.
        """
        chan = None
        best_e = best_p = best_a = -1
        best_op = best_target = best_payload = None
        have_best = False

        refresh_draining_ranks = None
        horizon = None
        for ref in self._chan_refresh[channel]:
            due = ref[1].next_due
            if due > until:
                # Earliest not-yet-due REF tick: the validity horizon
                # for reusing this scan's winner across drains.
                if horizon is None or due < horizon:
                    horizon = due
                continue
            if refresh_draining_ranks is None:
                refresh_draining_ranks = set()
                chan = self._chans[channel]
                # chan.earliest_command(e) == max(e, ref_floor), hoisted.
                ref_floor = chan._cmd_free_at
                if ref_floor < chan._blocked_until:
                    ref_floor = chan._blocked_until
            rank_index, _tracker, rank, ctxs, _addrs = ref
            refresh_draining_ranks.add(rank_index)
            # Every refresh candidate has prio _PRIO_REFRESH and age 0,
            # and only refresh candidates precede this loop's end, so the
            # (earliest, prio, age) rule reduces to ``e < best_e``.
            if rank.open_banks:
                e, ctx = self._refresh_candidate(ctxs, ref_floor)
                if (not have_best) or e < best_e:
                    have_best = True
                    best_e, best_p, best_a = e, _PRIO_REFRESH, 0
                    best_op, best_target = _OP_PRE, ctx
                continue
            # A closed rank takes its REF once the tracker is due and
            # every bank is REF-ready, which ``ref_ready`` already holds.
            e = rank.ref_ready
            if e < due:
                e = due
            if e < ref_floor:
                e = ref_floor
            if (not have_best) or e < best_e:
                have_best = True
                best_e, best_p, best_a = e, _PRIO_REFRESH, 0
                best_op, best_target = _OP_REF, ref
        self._scan_horizon[channel] = horizon

        raa = self.raa
        due_banks = raa.due.get(channel) \
            if raa is not None and raa.due else None
        if refresh_draining_ranks is None and not due_banks \
                and not self._pending_chan[channel]:
            # Idle channel: demand candidates need a pending request and
            # RFM a due bank of this channel, and no REF is due, so the
            # scan result is known (None) -- this is the tail scan of
            # every drain that empties a channel.  While another channel
            # owes an RFM, the active list is emptied as the demand loop
            # would prune it: the golden streams were recorded with that
            # pruning, and active-list order breaks ties between
            # equal-arrival requests (DESIGN.md section 9).
            if raa is not None and raa.due:
                active = self._active[channel]
                if active:
                    for ctx in active:
                        ctx.in_active = False
                    self._active[channel] = []
            return None

        rfm_banks = None
        if due_banks:
            if chan is None:
                chan = self._chans[channel]
            for addr in due_banks:
                if refresh_draining_ranks and \
                        addr.rank in refresh_draining_ranks:
                    continue  # refresh first; REF also credits RAA
                ctx = self._ctx[addr]
                if rfm_banks is None:
                    rfm_banks = set()
                rfm_banks.add(addr)
                cand = self._rfm_candidate(ctx, chan)
                e, p, a = cand[0], cand[1], cand[2]
                if (not have_best) or (e, p, a) < (best_e, best_p, best_a):
                    have_best = True
                    best_e, best_p, best_a = e, p, a
                    best_op, best_target, best_payload = \
                        cand[3], cand[4], cand[5]

        active = self._active[channel]
        if active:
            # Per-candidate constants, hoisted only when there is a
            # candidate loop to run (idle scans skip all of this).
            if chan is None:
                chan = self._chans[channel]
            # The command and data bus floors are constant between issued
            # commands: read once per scan, not per bank.
            blocked = chan._blocked_until
            cmd_floor = chan._cmd_free_at
            if cmd_floor < blocked:
                cmd_floor = blocked
            data_floor = chan._data_free_at
            if data_floor < blocked:
                data_floor = blocked
            throttles = self._throttles
            mitigation = self.mitigation
            tRRD_L, tRRD_S = self._tRRD_L, self._tRRD_S
            tCCD_L, tCCD_S = self._tCCD_L, self._tCCD_S
            tFAW = self._tFAW
            removals = False
            count = self._count
            # evals/hits are derived after the loop: evals = len(active)
            # - skipped, hits = evals - recomputes the loop triggered.
            # The skip paths are rare, so the hot per-candidate path
            # carries no counting instructions at all.
            skipped = 0
            pre_recomputes = self.cand_recomputes if count else 0
            # Lower-bound pruning: every shared constraint below is a
            # monotone max on the cached bank-local earliest, so a bank
            # whose cached earliest already exceeds the best earliest can
            # neither win nor tie.  Throttlers see every before_activate
            # probe, so for them the bound stays infinite.
            pruned = 0
            prune = not throttles
            bound = best_e if prune and have_best else _NO_BOUND
            for ctx in active:
                if not ctx.pending:
                    removals = True
                    ctx.in_active = False
                    skipped += 1
                    continue
                if refresh_draining_ranks is not None and \
                        ctx.rank_index in refresh_draining_ranks:
                    skipped += 1
                    continue
                if rfm_banks is not None and ctx.addr in rfm_banks:
                    skipped += 1
                    continue
                cand = self._recompute(ctx) if ctx.dirty else ctx.cand
                e, prio, age, op, payload, lead = cand
                if e > bound:
                    pruned += 1
                    continue
                # The rank's spacing rules, read from its fields: tCCD
                # for a column command; tRRD and tFAW for an ACT, as
                # RankTiming.record_act checks them.  This loop runs
                # once per active bank per scheduling decision.
                rank = ctx.rank
                group = ctx.group
                if op == _OP_COL:
                    spacing = tCCD_L if group == rank._last_col_group \
                        else tCCD_S
                    floor = rank._last_col + spacing
                    if e < floor:
                        e = floor
                    if e < cmd_floor:
                        e = cmd_floor
                    data_start = data_floor - lead
                    if e < data_start:
                        e = data_start
                elif op == _OP_ACT:
                    spacing = tRRD_L if group == rank._last_act_group \
                        else tRRD_S
                    floor = rank._last_act + spacing
                    if e < floor:
                        e = floor
                    floor = rank._group_last_act.get(group, _FAR_PAST) \
                        + tRRD_L
                    if e < floor:
                        e = floor
                    act_times = rank._act_times
                    if len(act_times) == 4:
                        floor = act_times[0] + tFAW
                        if e < floor:
                            e = floor
                    if e < cmd_floor:
                        e = cmd_floor
                    if throttles:
                        e = mitigation.before_activate(
                            ctx.addr, payload.location.row, e)
                else:  # _OP_PRE (row conflict)
                    if e < cmd_floor:
                        e = cmd_floor
                if (not have_best) or e < best_e or (
                        e == best_e and (prio < best_p or
                                         (prio == best_p
                                          and age < best_a))):
                    have_best = True
                    best_e, best_p, best_a = e, prio, age
                    best_op, best_target, best_payload = op, ctx, payload
                    if prune:
                        bound = e
            if count:
                evals = len(active) - skipped
                self.cand_evals += evals
                self.cand_pruned += pruned
                self.cand_hits += \
                    evals - (self.cand_recomputes - pre_recomputes)
            if removals:
                self._active[channel] = [c for c in active if c.pending]
        if not have_best:
            return None
        return (best_e, best_p, best_a, best_op, best_target, best_payload)

    def _recompute(self, ctx: _BankCtx):
        """Rebuild a bank's cached candidate core after invalidation."""
        # Bank earliest-issue times are inlined as field maxes (see
        # Bank.earliest_issue) -- this is the single hottest helper.
        self.cand_recomputes += 1
        bank = ctx.bank
        open_row = bank.open_row
        busy = bank.busy_until
        if open_row is not None:
            rows = ctx.hit_index.get(open_row)
            if rows:
                hit = rows[0]
                if hit.is_write:
                    e = bank.next_wr
                    cand = (e if e > busy else busy, _PRIO_HIT,
                            hit.arrival, _OP_COL, hit, self._tCWL)
                else:
                    e = bank.next_rd
                    cand = (e if e > busy else busy, _PRIO_HIT,
                            hit.arrival, _OP_COL, hit, self._tCL)
            else:
                queue = ctx.queue
                while queue[0].completed is not None:
                    queue.popleft()
                e = bank.next_pre
                cand = (e if e > busy else busy, _PRIO_DEMAND,
                        queue[0].arrival, _OP_PRE, "conflict", 0)
        else:
            queue = ctx.queue
            while queue[0].completed is not None:
                queue.popleft()
            head = queue[0]
            # A closed bank also waits out its rank's REF; an open bank
            # was activated after that REF, so its windows already do.
            e = bank.next_act
            if e < busy:
                e = busy
            ref_until = ctx.rank.ref_until
            if e < ref_until:
                e = ref_until
            cand = (e, _PRIO_DEMAND, head.arrival, _OP_ACT, head, 0)
        ctx.cand = cand
        ctx.dirty = False
        return cand

    def _reindex(self, ctx: _BankCtx) -> None:
        """Re-translate every live queued request in one batch.

        Runs once per remap notification (instead of once per candidate
        scan); also compacts lazily-retired requests out of the queue.
        """
        addr = ctx.addr
        translate = self.mitigation.translate
        live: Deque[MemoryRequest] = deque()
        index: Dict[int, Deque[MemoryRequest]] = {}
        for request in ctx.queue:
            if request.completed is not None:
                continue
            da_row = translate(addr, request.location.row)
            request.da_row = da_row
            rows = index.get(da_row)
            if rows is None:
                index[da_row] = rows = deque()
            rows.append(request)
            live.append(request)
        ctx.queue = live
        ctx.hit_index = index

    def _translation_changed(self, addr: BankAddress) -> None:
        """Mitigation hook: a bank's PA-to-DA mapping changed."""
        self.translation_invalidations += 1
        ctx = self._ctx.get(addr)
        if ctx is not None:
            self._reindex(ctx)
            ctx.dirty = True
            self._saved_cand[addr.channel] = None

    def _mitigation_event(self, kind: str, addr: BankAddress, cycle: int,
                          payload: Dict) -> None:
        """Mitigation event hook (shuffles, swaps, throttles).

        Registered only when observability is on, so mitigations with no
        listeners never build event payloads.
        """
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(f"mitigation.{kind}").inc()
        trace = self._trace
        if trace is not None:
            ctx = self._ctx.get(addr)
            track = ctx.track if ctx is not None else 0
            trace.instant(addr.channel, track, kind, "mitigation",
                          cycle, payload)

    def _refresh_candidate(self, ctxs: List[_BankCtx], cmd_floor: int):
        """``(earliest, ctx)`` of the PRE that drains an open bank of a
        due rank: the earliest, first in bank order.  Bank earliest-issue
        is inlined (max of the exposed next_pre/busy_until fields), as is
        the command floor."""
        best_e = best_ctx = None
        for ctx in ctxs:
            bank = ctx.bank
            if bank.open_row is not None:
                e = bank.next_pre
                if e < bank.busy_until:
                    e = bank.busy_until
                if e < cmd_floor:
                    e = cmd_floor
                if best_ctx is None or e < best_e:
                    best_e, best_ctx = e, ctx
        return best_e, best_ctx

    def _rfm_candidate(self, ctx: _BankCtx, chan):
        bank = ctx.bank
        if bank.open_row is not None:
            earliest = chan.earliest_command(
                bank.earliest_issue(CommandType.PRE, 0))
            return (earliest, _PRIO_RFM, 0, _OP_PRE, ctx, None)
        earliest = bank.earliest_issue(CommandType.RFM, 0)
        ref_until = ctx.rank.ref_until
        if earliest < ref_until:
            earliest = ref_until
        return (chan.earliest_command(earliest), _PRIO_RFM, 0, _OP_RFM,
                ctx, None)

    # -- candidate execution ------------------------------------------------------------
    # Dispatch itself lives inline in ``drain`` (one branch per issued
    # command), as do the PRE and REF bodies; the _do_* methods below
    # are the ACT, column and RFM bodies.  The scan and the issue paths
    # read and bump the channel, rank and histogram fields directly: a
    # helper that only reads or bumps a field costs a Python call per
    # command.

    def _do_act(self, cycle: int, ctx: _BankCtx,
                request: MemoryRequest) -> None:
        addr = ctx.addr
        bank = ctx.bank
        da_row = request.da_row
        chan = ctx.chan
        # ChannelTiming.record_command inlined (hot per-ACT path).
        if cycle < chan._cmd_free_at or cycle < chan._blocked_until:
            raise RuntimeError(
                "DRAM protocol violation: command bus busy at issue time")
        chan._cmd_free_at = cycle + 1
        chan.commands_issued += 1
        rank = ctx.rank
        rank.record_act(cycle, ctx.group)
        bank.issue_act(da_row, cycle, extra_latency=self._act_extra)
        rank.open_banks += 1
        bank.stats.row_misses += 1
        if self.raa is not None:
            if self.raa.on_activate(addr):
                self.raa_crossings += 1
                if self._tbuf is not None:
                    self._tbuf.append(("i", ctx.channel, ctx.track,
                                       "raa-cross", "rfm", cycle, None,
                                       None))
        if self._tbuf is not None:
            self._tbuf.append(("X", ctx.channel, ctx.track, "ACT",
                               "cmd", cycle, self._dur_act,
                               {"row": da_row}))
        outcome = None
        if self._acts_hook:
            outcome = self.mitigation.on_activate(
                addr, request.location.row, da_row, cycle)
            if outcome is not None:
                if outcome.trr_rows:
                    bank.add_act_penalty(
                        self._tRC * len(outcome.trr_rows))
                if outcome.channel_block_cycles:
                    ctx.chan.block(cycle + 1, outcome.channel_block_cycles)
        observer_activate = self._observer_activate
        if observer_activate is not None:
            observer_activate(addr, da_row, cycle, outcome)
        # After any TRR penalty, which moves next_act further.
        if bank.next_act > rank.ref_ready:
            rank.ref_ready = bank.next_act
        ctx.dirty = True
        return None

    def _do_column(self, cycle: int, ctx: _BankCtx,
                   request: MemoryRequest) -> Tuple[MemoryRequest, int]:
        bank = ctx.bank
        chan = ctx.chan
        is_write = request.is_write
        # ChannelTiming.record_command / record_data inlined, and the
        # rank's tCCD check (hot per-column path).
        if cycle < chan._cmd_free_at or cycle < chan._blocked_until:
            raise RuntimeError(
                "DRAM protocol violation: command bus busy at issue time")
        chan._cmd_free_at = cycle + 1
        chan.commands_issued += 1
        rank = ctx.rank
        group = ctx.group
        spacing = self._tCCD_L if group == rank._last_col_group \
            else self._tCCD_S
        if cycle < rank._last_col + spacing:
            raise RuntimeError(
                "DRAM protocol violation: column command before tCCD allows")
        rank._last_col = cycle
        rank._last_col_group = group
        tBL = self._tBL
        if is_write:
            done = bank.issue_wr(cycle)
            start = cycle + self._tCWL
        else:
            done = bank.issue_rd(cycle)
            start = cycle + self._tCL
        if start < chan._data_free_at or start < chan._blocked_until:
            raise RuntimeError(
                "DRAM protocol violation: data bus busy at burst start")
        chan._data_free_at = start + tBL
        chan.data_busy_cycles += tBL
        bank.stats.row_hits += 1  # column commands served from the open row
        if self._tbuf is not None:
            if is_write:
                self._tbuf.append(("X", ctx.channel, ctx.track, "WR",
                                   "cmd", cycle, self._dur_wr, None))
            else:
                self._tbuf.append(("X", ctx.channel, ctx.track, "RD",
                                   "cmd", cycle, self._dur_rd, None))
        lat_hist = self._lat_hist
        if lat_hist is not None:
            # Histogram.observe inlined: no Python call per column
            # command.  Cycles stay below 2**62 (``_NO_BOUND``), so the
            # bucket table never needs to grow here.
            latency = done - request.arrival
            lat_hist.buckets[self._lat_bucket(latency)] += 1
            lat_hist.count += 1
            lat_hist.total += latency
            if latency > lat_hist.max:
                lat_hist.max = latency
        # O(1) retirement: the hit is by construction the head of its
        # row's FIFO in the hit index; the queue deque drops it lazily.
        rows = ctx.hit_index.get(request.da_row)
        if rows is not None:
            if rows and rows[0] is request:
                rows.popleft()
            else:  # stale index entry; fall back to a linear remove
                try:
                    rows.remove(request)
                except ValueError:
                    pass
            if not rows:
                del ctx.hit_index[request.da_row]
        request.issued = cycle
        request.completed = done
        ctx.pending -= 1
        ctx.dirty = True
        self._pending_chan[ctx.channel] -= 1
        self._pending_total -= 1
        return request, done

    def _do_rfm(self, cycle: int, ctx: _BankCtx) -> None:
        rank = ctx.rank
        if cycle < rank.ref_until:
            raise RuntimeError(
                "DRAM protocol violation: RFM issued during the rank's REF")
        addr = ctx.addr
        chan = self._chans[addr.channel]
        chan.record_command(cycle)
        outcome = self.mitigation.on_rfm(addr, cycle)
        duration = self._timing.tRFM
        done = ctx.bank.issue_rfm(cycle, duration)
        if done > rank.ref_ready:
            rank.ref_ready = done
        ctx.dirty = True
        self.raa.on_rfm(addr)
        if self._tbuf is not None:
            self._tbuf.append(("X", addr.channel, ctx.track, "RFM",
                               "rfm", cycle, duration,
                               {"refreshed": len(outcome.refreshed_rows),
                                "copies": len(outcome.copies)}))
        if self.observer is not None:
            self.observer.on_rfm_outcome(addr, outcome, cycle)
        return None
