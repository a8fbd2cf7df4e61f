"""Closed-form RH bit-flip probability of SHADOW (Appendix XI).

The paper bounds SHADOW's failure probability with three adversarial
scenarios; each yields a per-attack-window probability which is then
expanded to a DDR5 rank (32 banks) over one year.  Table II reports the
maximum of the three per (RAAIMT, H_cnt).

All heavy arithmetic runs in log space (``math.lgamma``) so the 1e-43
tail of Table II is representable; probabilities below the float floor
are reported as 0, exactly as the paper prints them.

Scenario definitions (Section VII-A):

* **I** -- one aggressor per RFM interval, re-picked every interval.
  Buckets-and-balls: ``N_row`` balls (intervals, bounded by the
  incremental-refresh window) into ``N_row`` buckets (rows); a bucket
  needs ``M1 = ceil(hcnt / (RAAIMT * w))`` hits, each trial succeeding
  with ``p = W_sum / N_row``.  Equation 2.
* **II** -- ``N_aggr`` fixed aggressors in one subarray.  Recurrence
  (Equation 3) over the probability that some aggressor dodges the
  per-RFM shuffle ``M2`` times in a row before the incremental refresh
  sweeps the subarray (n runs to ``N_row``).
* **III** -- like II but across subarrays: no incremental-refresh bound;
  n runs to the number of RFM intervals in tREFW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.dram.timing import DDR5_4800, TimingParams
from repro.rowhammer.model import blast_weight_sum

SECONDS_PER_YEAR = 365.25 * 24 * 3600

#: log(p) floor below which we report exactly 0, as Table II does.
_LOG10_FLOOR = -300.0


def _log_binomial(n: int, k: int) -> float:
    """ln C(n, k)."""
    if k < 0 or k > n:
        return -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1)
            - math.lgamma(n - k + 1))


def _expand(prob_single: float, trials: float) -> float:
    """1 - (1 - p)^trials, stable for tiny p and huge trial counts."""
    if prob_single <= 0.0:
        return 0.0
    if prob_single >= 1.0:
        return 1.0
    # log1p for accuracy; falls back to p * trials when p is tiny.
    log_keep = trials * math.log1p(-prob_single)
    if log_keep < -700:
        return 1.0
    return -math.expm1(log_keep)


@dataclass(frozen=True)
class SecurityParams:
    """Parameters of the Appendix XI analysis."""

    hcnt: int
    raaimt: int
    n_row: int = 512              # rows per subarray
    w_sum: float = 3.5            # Appendix XI default (blast radius 3)
    banks_per_rank: int = 32      # DDR5 rank
    timing: TimingParams = DDR5_4800
    years: float = 1.0

    def __post_init__(self) -> None:
        if self.hcnt <= 0 or self.raaimt <= 0 or self.n_row <= 0:
            raise ValueError("hcnt, raaimt and n_row must be positive")
        if self.w_sum <= 0:
            raise ValueError("w_sum must be positive")

    @classmethod
    def for_blast_radius(cls, hcnt: int, raaimt: int, radius: int,
                         **kw) -> "SecurityParams":
        return cls(hcnt=hcnt, raaimt=raaimt,
                   w_sum=blast_weight_sum(radius), **kw)

    # -- derived attack-rate quantities -----------------------------------------

    @property
    def act_interval_seconds(self) -> float:
        """Fastest legal ACT-to-ACT time for one bank (tRC)."""
        return self.timing.nanoseconds(self.timing.tRC) * 1e-9

    @property
    def rfm_interval_seconds(self) -> float:
        """Wall-clock length of one RFM interval under full-rate attack."""
        return self.raaimt * self.act_interval_seconds

    @property
    def incremental_window_seconds(self) -> float:
        """One incremental-refresh sweep: N_row RFM intervals."""
        return self.n_row * self.rfm_interval_seconds

    @property
    def trefw_seconds(self) -> float:
        return self.timing.nanoseconds(self.timing.tREFW) * 1e-9


class SecurityAnalysis:
    """Evaluates the three scenarios and the rank-year expansion."""

    def __init__(self, params: SecurityParams):
        self.params = params

    # -- Scenario I (Equation 2) ---------------------------------------------------

    def scenario1_single_window(self) -> float:
        """P1: bit-flip probability within one incremental window."""
        p = self.params
        m1 = math.ceil(p.hcnt / p.raaimt)
        if m1 > p.n_row:
            return 0.0   # cannot accumulate enough hits inside the window
        succ = p.w_sum / p.n_row
        if succ >= 1.0:
            return 1.0
        log_p1 = (math.log(p.n_row)
                  + _log_binomial(p.n_row, m1)
                  + m1 * math.log(succ)
                  + (p.n_row - m1) * math.log1p(-succ))
        if log_p1 / math.log(10) < _LOG10_FLOOR:
            return 0.0
        return min(1.0, math.exp(log_p1))

    # -- Scenarios II / III (Equation 3) ----------------------------------------------

    def _evasion_recurrence(self, n_aggr: int, m_required: int,
                            intervals: int) -> float:
        """P[n]: some fixed aggressor evades the shuffle m times in a row.

        ``P[n] = P[n-1] + (1 - P[n - m - 1]) * (1/N) * (1 - 1/N)^m``:
        a new success run can start at interval ``n - m`` only if the
        attack had not already succeeded before it.
        """
        if m_required <= 0:
            return 1.0
        if intervals < m_required:
            return 0.0
        q = 1.0 / n_aggr
        run = (1.0 - q) ** m_required * q if n_aggr > 1 else 0.0
        if n_aggr == 1:
            # The lone aggressor is shuffled at every RFM: it can never
            # evade even once (the history holds only that row).
            return 0.0
        history = [0.0] * (intervals + 1)
        for n in range(m_required, intervals + 1):
            prev_idx = n - m_required - 1
            prev = history[prev_idx] if prev_idx >= 0 else 0.0
            history[n] = history[n - 1] + (1.0 - prev) * run
        return min(1.0, history[intervals])

    def scenario2_single_window(self, n_aggr: Optional[int] = None) -> float:
        """P2: within one incremental window, maximized over N_aggr."""
        p = self.params
        if n_aggr is not None:
            return self._scenario2_for(n_aggr)
        best = 0.0
        n = 2
        while n <= p.raaimt:
            best = max(best, self._scenario2_for(n))
            n *= 2
        return best

    def _scenario2_for(self, n_aggr: int) -> float:
        p = self.params
        m = p.raaimt / n_aggr          # ACTs per aggressor per interval
        if m < 1:
            return 0.0
        # Appendix XI: M2 = Hcnt / m (the paper credits the attacker no
        # blast amplification here -- one of its stated simplifications).
        m2 = math.ceil(p.hcnt / m)
        # Incremental-refresh constraint: a victim must reach hcnt before
        # the sweep returns, i.e. within N_row intervals.
        if m2 > p.n_row:
            return 0.0
        prob = self._evasion_recurrence(n_aggr, m2, p.n_row)
        return min(1.0, n_aggr * prob)

    def scenario3_single_window(self, n_aggr: Optional[int] = None) -> float:
        """P3: within one tREFW, maximized over N_aggr (no incr. bound)."""
        p = self.params
        intervals = max(1, int(p.trefw_seconds / p.rfm_interval_seconds))
        if n_aggr is not None:
            return self._scenario3_for(n_aggr, intervals)
        best = 0.0
        n = 2
        while n <= p.raaimt:
            best = max(best, self._scenario3_for(n, intervals))
            n *= 2
        return best

    def _scenario3_for(self, n_aggr: int, intervals: int) -> float:
        p = self.params
        m = p.raaimt / n_aggr
        if m < 1:
            return 0.0
        m3 = math.ceil(p.hcnt / m)    # Appendix XI: M3 = Hcnt / m
        prob = self._evasion_recurrence(n_aggr, m3, intervals)
        return min(1.0, n_aggr * prob)

    # -- rank-year expansion -------------------------------------------------------------

    def _trials_per_rank_year(self, window_seconds: float) -> float:
        p = self.params
        seconds = SECONDS_PER_YEAR * p.years
        return seconds / window_seconds * p.banks_per_rank

    def rank_year(self) -> Dict[str, float]:
        """Per-scenario and overall bit-flip probability, rank-year scale."""
        p = self.params
        p1 = _expand(self.scenario1_single_window(),
                     self._trials_per_rank_year(p.incremental_window_seconds))
        p2 = _expand(self.scenario2_single_window(),
                     self._trials_per_rank_year(p.incremental_window_seconds))
        p3 = _expand(self.scenario3_single_window(),
                     self._trials_per_rank_year(p.trefw_seconds))
        return {
            "scenario1": p1,
            "scenario2": p2,
            "scenario3": p3,
            "overall": max(p1, p2, p3),
        }


def bit_flip_probability(hcnt: int, raaimt: int, **kw) -> float:
    """Table II entry: SHADOW's rank-year bit-flip probability."""
    analysis = SecurityAnalysis(SecurityParams(hcnt=hcnt, raaimt=raaimt, **kw))
    return analysis.rank_year()["overall"]


def is_secure(hcnt: int, raaimt: int, budget: float = 0.01, **kw) -> bool:
    """The paper's near-complete-protection criterion: <1% per rank-year."""
    return bit_flip_probability(hcnt, raaimt, **kw) < budget


# -- per-scheme security models ------------------------------------------------------
#
# One registry entry per analyzable scheme so the CLI (``security
# --scheme``), tests and sweeps evaluate any scheme's protection bound
# by name, with zero driver-level special cases.  Every model is a
# callable ``(hcnt, raaimt=None, **kw) -> dict`` whose result carries at
# least ``"overall"``: the rank-year bit-flip probability (for the
# paper's <1%/rank-year criterion).  ``raaimt=None`` derives the
# scheme's own secure default for ``hcnt``.

from repro.spec.registry import Registry  # noqa: E402  (registry is import-light)

SECURITY_MODELS = Registry("security-model",
                           providers=("repro.analysis.security",))


def sampled_trr_rank_year(hcnt: int, raaimt: int,
                          banks_per_rank: int = 32,
                          timing: TimingParams = DDR5_4800,
                          years: float = 1.0) -> Dict[str, float]:
    """Evasion bound for uniform-sampling RFM TRR (PARFM, MINT).

    Each RFM refreshes the neighbourhood of one row drawn uniformly from
    the window's RAAIMT activations, so an attacker devoting ``m`` of
    those to the aggressor is mitigated with probability ``m/RAAIMT``
    per window and needs ``ceil(hcnt/m)`` consecutive evasions (a single
    TRR resets the victim's accumulated charge, restarting the
    campaign; like Appendix XI's scenarios II/III the attacker is
    credited no blast amplification).  The bound maximizes the expanded
    rank-year probability over ``m``, since slower campaigns also get
    fewer rank-year trials.
    """
    if hcnt <= 0 or raaimt <= 0:
        raise ValueError("hcnt and raaimt must be positive")
    act_seconds = timing.nanoseconds(timing.tRC) * 1e-9
    best = {"overall": 0.0, "evasion_per_campaign": 0.0,
            "aggressor_acts_per_window": 1.0}
    for m in range(1, raaimt):
        windows = math.ceil(hcnt / m)
        log_single = windows * math.log1p(-m / raaimt)
        if log_single / math.log(10) < _LOG10_FLOOR:
            continue
        single = math.exp(log_single)
        campaign_seconds = windows * raaimt * act_seconds
        trials = (SECONDS_PER_YEAR * years / campaign_seconds
                  * banks_per_rank)
        expanded = _expand(single, trials)
        if expanded > best["overall"]:
            best = {"overall": expanded, "evasion_per_campaign": single,
                    "aggressor_acts_per_window": float(m)}
    return best


def resilient_trr_rank_year(hcnt: int, raaimt: int, entries: int,
                            w_sum: float = 3.5,
                            timing: TimingParams = DDR5_4800
                            ) -> Dict[str, float]:
    """Deterministic bound for DAPPER-style resilient hottest-first TRR.

    The tracker thresholds on the Misra-Gries lower bound, so its
    guarantee is deterministic, not probabilistic: over a refresh window
    of ``A = tREFW/tRC`` worst-case activations the spill (and with it
    the gap between any row's true count and its provable count) is at
    most ``A/entries``, and a row that becomes the provable hottest
    waits at most one RFM interval (RAAIMT activations) for its TRR.
    A victim's unmitigated weighted disturbance therefore never exceeds
    ``(A/entries + RAAIMT) * w_sum/2`` -- if that stays below ``hcnt``
    the flip probability is exactly 0, otherwise the bound offers no
    protection claim and we report 1 (the conservative Table II print).
    """
    if hcnt <= 0 or raaimt <= 0 or entries <= 0:
        raise ValueError("hcnt, raaimt and entries must be positive")
    acts_per_window = timing.tREFW // timing.tRC
    spill_bound = acts_per_window // entries
    unmitigated = spill_bound + raaimt
    effective_hcnt = hcnt / (w_sum / 2.0)
    margin = effective_hcnt - unmitigated
    return {
        "overall": 0.0 if margin > 0 else 1.0,
        "unmitigated_act_bound": float(unmitigated),
        "spill_bound": float(spill_bound),
        "effective_hcnt": float(effective_hcnt),
        "margin_acts": float(margin),
    }


@SECURITY_MODELS.register("shadow")
def shadow_security_model(hcnt: int, raaimt: Optional[int] = None,
                          **kw) -> Dict[str, float]:
    """Appendix XI (Table II): the three-scenario SHADOW analysis."""
    if raaimt is None:
        from repro.core.config import secure_raaimt
        raaimt = secure_raaimt(hcnt)
    analysis = SecurityAnalysis(
        SecurityParams(hcnt=hcnt, raaimt=raaimt, **kw))
    return dict(analysis.rank_year(), raaimt=float(raaimt))


@SECURITY_MODELS.register("parfm")
def parfm_security_model(hcnt: int, raaimt: Optional[int] = None,
                         radius: int = 1, **kw) -> Dict[str, float]:
    """PARFM: uniform sampling from a RAAIMT-deep history."""
    if raaimt is None:
        from repro.mitigations.parfm import parfm_raaimt
        raaimt = parfm_raaimt(hcnt, radius)
    return dict(sampled_trr_rank_year(hcnt, raaimt, **kw),
                raaimt=float(raaimt))


@SECURITY_MODELS.register("mint")
def mint_security_model(hcnt: int, raaimt: Optional[int] = None,
                        radius: int = 1, **kw) -> Dict[str, float]:
    """MINT: identical per-window selection distribution to PARFM (a
    pre-committed uniform slot), hence the same evasion bound."""
    if raaimt is None:
        from repro.mitigations.mint import mint_raaimt
        raaimt = mint_raaimt(hcnt, radius)
    return dict(sampled_trr_rank_year(hcnt, raaimt, **kw),
                raaimt=float(raaimt))


@SECURITY_MODELS.register("dapper")
def dapper_security_model(hcnt: int, raaimt: Optional[int] = None,
                          entries: Optional[int] = None,
                          radius: int = 1, **kw) -> Dict[str, float]:
    """DAPPER: deterministic resilient-tracker bound."""
    from repro.mitigations.dapper import dapper_entries, dapper_raaimt
    if raaimt is None:
        raaimt = dapper_raaimt(hcnt, radius)
    if entries is None:
        entries = dapper_entries(hcnt)
    return dict(resilient_trr_rank_year(hcnt, raaimt, entries, **kw),
                raaimt=float(raaimt), entries=float(entries))
