"""Periodic snapshot sampling and the end-of-run summary.

The sampler rides the :mod:`repro.sim.system` event loop: every
``sample_interval`` cycles it reads (never mutates) the live simulator
state and records one snapshot -- queue depths, row-hit rate, the
scheduler's candidate-cache hit/invalidation counters, RAA pressure and
channel occupancy.  Snapshots accumulate on the
:class:`~repro.obs.Observability` hub and, when a trace sink is
attached, are also emitted as Chrome counter tracks so Perfetto renders
them as time series above the command lanes.

Read-only contract: the sampler may read bank/channel statistics
counters, the controller's O(1) pending counters and observability
counters, and the RAA counter values.  It must not call anything that
advances timing state (``issue_*``, ``drain``, ``translate``) --
sampling with observability enabled is required to leave the command
stream byte-identical (pinned by ``tests/test_obs_golden.py``).
"""

from __future__ import annotations

from typing import Dict


class SnapshotSampler:
    """Samples a running :class:`~repro.sim.system.System` periodically."""

    def __init__(self, system, obs):
        if obs.sample_interval <= 0:
            raise ValueError("sample_interval must be positive to sample")
        self.system = system
        self.mc = system.mc
        self.device = system.device
        self.interval = obs.sample_interval
        self.sink = obs.sink
        self.snapshots = obs.snapshots
        self._channels = system.config.geometry.channels

    def sample(self, cycle: int) -> int:
        """Record one snapshot; returns the next due cycle."""
        mc = self.mc
        hits = misses = 0
        for bank in self.device.banks.values():
            stats = bank.stats
            hits += stats.row_hits
            misses += stats.row_misses
        accesses = hits + misses
        pending = [mc.pending_requests(ch) for ch in range(self._channels)]
        snap: Dict = {
            "cycle": cycle,
            "pending_total": mc.pending_requests(),
            "pending_per_channel": pending,
            "row_hits": hits,
            "row_misses": misses,
            "row_hit_rate": (hits / accesses) if accesses else 0.0,
            "cand_evals": mc.cand_evals,
            "cand_hits": mc.cand_hits,
            "cand_recomputes": mc.cand_recomputes,
            "translation_invalidations": mc.translation_invalidations,
            "channel_commands": [c.commands_issued for c in mc._chans],
            "channel_blocked_cycles": [c.blocked_cycles for c in mc._chans],
        }
        raa = mc.raa
        if raa is not None:
            counts = raa.counters.values()
            peak = max(counts, default=0)
            snap["raa"] = {
                "due_banks": raa.due_count,
                "max_count": peak,
                "pressure": peak / raa.raaimt,
                "rfms_issued": raa.rfms_issued,
            }
        self.snapshots.append(snap)

        sink = self.sink
        if sink is not None:
            for ch in range(self._channels):
                sink.counter(ch, "queue_depth", cycle,
                             {"pending": pending[ch]})
            evals = mc.cand_evals
            sink.counter(0, "scheduler", cycle, {
                "cand_hit_rate": (mc.cand_hits / evals) if evals else 0.0,
                "row_hit_rate": snap["row_hit_rate"],
            })
            if raa is not None:
                sink.counter(0, "raa", cycle, {
                    "pressure": snap["raa"]["pressure"],
                    "due_banks": raa.due_count,
                })
        return cycle + self.interval


def collect_summary(system, result=None) -> Dict:
    """Assemble the run's observability summary (JSON-able).

    ``system`` is a finished :class:`~repro.sim.system.System`;
    ``result`` its :class:`~repro.sim.system.SystemResult` (recomputed
    from device stats when omitted).  This is what ``shadow-repro
    stats`` prints and what the experiment engine stores alongside each
    cached job result.
    """
    mc = system.mc
    stats = result.stats if result is not None \
        else system.device.aggregate_stats()
    evals = mc.cand_evals
    summary: Dict = {
        "row_hit_rate": stats.row_hit_rate,
        "row_hits": stats.row_hits,
        "row_misses": stats.row_misses,
        "row_conflicts": stats.row_conflicts,
        "acts": stats.acts,
        "reads": stats.reads,
        "writes": stats.writes,
        "refreshes": stats.refreshes,
        "rfms": stats.rfms,
        "candidate_cache": {
            "evals": evals,
            "hits": mc.cand_hits,
            "recomputes": mc.cand_recomputes,
            "pruned": mc.cand_pruned,
            "hit_rate": (mc.cand_hits / evals) if evals else 0.0,
            "translation_invalidations": mc.translation_invalidations,
        },
        "drain": {
            "calls": mc.drains,
            "empty": mc.empty_drains,
            "lookaheads": mc.lookaheads,
        },
        "raa_crossings": mc.raa_crossings,
        "channels": [
            {"commands": c.commands_issued,
             "data_busy_cycles": c.data_busy_cycles,
             "blocked_cycles": c.blocked_cycles}
            for c in mc._chans
        ],
        "snapshots": len(system.obs.snapshots)
        if system.obs is not None else 0,
    }
    if mc.raa is not None:
        summary["raa"] = {
            "raaimt": mc.raa.raaimt,
            "rfms_issued": mc.raa.rfms_issued,
            "due_banks": mc.raa.due_count,
            "max_count": max(mc.raa.counters.values(), default=0),
        }
    obs = getattr(system, "obs", None)
    if obs is not None and obs.metrics is not None:
        summary["metrics"] = obs.metrics.snapshot()
    # A fault injector on the controller's observer seam contributes its
    # end-of-run report (injection counts, degradation events).
    observer = getattr(mc, "observer", None)
    report = getattr(observer, "report", None)
    if report is not None:
        summary["faults"] = report()
    return summary


__all__ = ["SnapshotSampler", "collect_summary"]
