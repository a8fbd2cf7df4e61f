"""Row Hammer mitigations: SHADOW's baselines and comparison points.

Every scheme from the paper's evaluation is implemented behind one
:class:`~repro.mitigations.base.Mitigation` interface:

* :class:`~repro.mitigations.none.NoMitigation` -- the unprotected
  baseline every figure normalizes against.
* :class:`~repro.mitigations.drr.DoubleRefreshRate` -- DRR (Figure 8).
* :class:`~repro.mitigations.para.Para` / :class:`~repro.mitigations.
  parfm.Parfm` -- probabilistic TRR, stand-alone and RFM-hosted.
* :class:`~repro.mitigations.mithril.Mithril` -- Counter-based-Summary
  tracker + RFM TRR, in perf- and area-optimized configurations.
* :class:`~repro.mitigations.graphene.Graphene` -- Misra-Gries TRR at
  the MC (related work, used in ablations).
* :class:`~repro.mitigations.blockhammer.BlockHammer` -- dual counting
  Bloom filter + ACT throttling.
* :class:`~repro.mitigations.rrs.RandomizedRowSwap` -- MC-side row-swap
  with channel-blocking swaps.
* :class:`~repro.mitigations.mint.Mint` / :class:`~repro.mitigations.
  dapper.Dapper` -- post-paper tracker designs (MINT's single-entry
  sampler, DAPPER's performance-attack-resilient tracker), expressed as
  one-file compositions on the tracker x policy substrate in
  :mod:`repro.mitigations.compose`, whose trackers are the structures
  in :mod:`repro.mitigations.trackers`.

SHADOW itself lives in :mod:`repro.core` (it is the paper's primary
contribution) but implements this same interface.
"""

from repro.core.config import secure_raaimt
from repro.mitigations.base import ActOutcome, Mitigation, RfmOutcome
from repro.mitigations.blockhammer import BlockHammer, BlockHammerConfig
from repro.mitigations.compose import ActionPolicy, ComposedMitigation
from repro.mitigations.dapper import Dapper
from repro.mitigations.drr import DoubleRefreshRate
from repro.mitigations.filtered import FilteredRfm
from repro.mitigations.graphene import Graphene
from repro.mitigations.mint import Mint
from repro.mitigations.mithril import Mithril, mithril_area, mithril_perf
from repro.mitigations.none import NoMitigation
from repro.mitigations.para import Para
from repro.mitigations.parfm import Parfm
from repro.mitigations.rrs import RandomizedRowSwap, RrsConfig
from repro.mitigations.trackers import (
    CountMinSketch,
    CounterSummary,
    DualCountingBloomFilter,
    MintSampler,
    MisraGries,
    RecentHistory,
    ResilientMisraGries,
)

# -- spec-registry entries ---------------------------------------------------------
#
# Every comparison scheme registers a plain-keyword factory so a
# ``SchemeSpec`` (CLI flag, experiment grid point, rehydrated JSON job)
# can construct it by name.  The SHADOW variants register from
# ``repro.core.factories`` (SHADOW is the paper's contribution, not a
# baseline).

from repro.spec.registry import SCHEMES as _SCHEMES


@_SCHEMES.register("none")
def _make_none() -> NoMitigation:
    return NoMitigation()


@_SCHEMES.register("drr")
def _make_drr() -> DoubleRefreshRate:
    return DoubleRefreshRate()


@_SCHEMES.register("parfm")
def _make_parfm(hcnt: int, radius: int = 1) -> Parfm:
    return Parfm.for_hcnt(hcnt, radius)


@_SCHEMES.register("mithril-perf")
def _make_mithril_perf(hcnt: int, radius: int = 1) -> Mithril:
    return mithril_perf(hcnt, radius)


@_SCHEMES.register("mithril-area")
def _make_mithril_area(hcnt: int, radius: int = 1) -> Mithril:
    return mithril_area(hcnt, radius)


@_SCHEMES.register("blockhammer")
def _make_blockhammer(hcnt: int, history_scale: float = 1.0,
                      rate_scale: float = 1.0) -> BlockHammer:
    return BlockHammer.for_hcnt(hcnt, history_scale=history_scale,
                                rate_scale=rate_scale)


@_SCHEMES.register("rrs")
def _make_rrs(hcnt: int) -> RandomizedRowSwap:
    return RandomizedRowSwap.for_hcnt(hcnt)


@_SCHEMES.register("graphene")
def _make_graphene(hcnt: int) -> Graphene:
    return Graphene(hcnt)


@_SCHEMES.register("para")
def _make_para(hcnt: int) -> Para:
    from repro.mitigations.para import para_probability
    return Para(para_probability(hcnt))


@_SCHEMES.register("mint")
def _make_mint(hcnt: int, radius: int = 1) -> Mint:
    return Mint.for_hcnt(hcnt, radius)


@_SCHEMES.register("dapper")
def _make_dapper(hcnt: int, radius: int = 1) -> Dapper:
    return Dapper.for_hcnt(hcnt, radius)


@_SCHEMES.register("filtered")
def _make_filtered(inner: str, hcnt: int) -> FilteredRfm:
    """The Section VIII hazard filter in front of registered scheme
    ``inner``, at a quarter of the secure RAAIMT (never below 8).
    ``inner`` has no default, so hcnt-only sweeps skip this entry."""
    wrapped = _SCHEMES.build(
        inner, **_SCHEMES.buildable_params(inner, {"hcnt": hcnt}))
    return FilteredRfm(wrapped,
                       hazard_threshold=max(8, secure_raaimt(hcnt) // 4))

__all__ = [
    "ActOutcome",
    "ActionPolicy",
    "BlockHammer",
    "ComposedMitigation",
    "BlockHammerConfig",
    "CountMinSketch",
    "CounterSummary",
    "Dapper",
    "DoubleRefreshRate",
    "DualCountingBloomFilter",
    "FilteredRfm",
    "Graphene",
    "Mint",
    "MintSampler",
    "MisraGries",
    "Mithril",
    "Mitigation",
    "NoMitigation",
    "Para",
    "Parfm",
    "RandomizedRowSwap",
    "RecentHistory",
    "ResilientMisraGries",
    "RfmOutcome",
    "RrsConfig",
    "mithril_area",
    "mithril_perf",
]
